import csv
import dataclasses
import contextlib
import io
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import scenario, small_experiment, tiny_network
from ramplab.cli import TRACE_COLUMNS, main
from ramplab.config import MODEL_VARIANTS, REPRESENTATIONS
from ramplab.network import build_network, save_checkpoint
from ramplab import runs
from ramplab.runs import HEAP_SETTINGS, blas_threads, keep_freed_heap, write_run_info
from ramplab.simulation import ActionCommand, reset, step
from ramplab.trainer import METRICS_COLUMNS, Trainer


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, cfg=None):
    cfg = cfg or small_experiment()
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One real training run shared by the evaluate/trace tests."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root / "config.json")
    out = root / "run"
    code = main(["train", "--config", config, "--out", str(out)])
    assert code == 0
    return {"config": config, "out": out, "checkpoint": out / "seed_1" / "checkpoints" / "final"}


# -- train ----------------------------------------------------------------


def test_train_writes_the_advertised_artifacts(trained_run):
    out = trained_run["out"]
    assert (out / "config.json").is_file()
    assert (out / "run_info.json").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "seed_1" / "metrics.csv").is_file()
    assert (out / "seed_1" / "checkpoints" / "ep_000002" / "manifest.json").is_file()
    assert (out / "seed_1" / "checkpoints" / "final" / "params.bin").is_file()
    info = json.loads((out / "run_info.json").read_text())
    assert info["seeds"] == [1]
    assert len(info["package_sha256"]) == 64
    assert info["malloc"] == ({name: value for name, _, value in HEAP_SETTINGS}
                              if ON_GLIBC else {})


def test_run_info_records_blas_and_its_thread_variables(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    write_run_info(tmp_path, {}, [1])
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert set(info["blas"]) == {"name", "version"}
    assert isinstance(info["blas"]["name"], str)
    assert info["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["blas_threads_env"]["MKL_NUM_THREADS"] is None
    assert set(info["blas_threads_env"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_run_info_records_the_live_blas_thread_count(tmp_path):
    write_run_info(tmp_path, {}, [1])
    threads = json.loads((tmp_path / "run_info.json").read_text())["blas_threads"]
    assert threads is None or (type(threads) is int and threads >= 1)
    assert threads == blas_threads()


ON_GLIBC = platform.libc_ver()[0] == "glibc"

# Minor page faults per gitsr learner step, default network and batch, in a
# fresh process whose environment leaves glibc's allocator at its defaults
# until keep_freed_heap runs.
LEARNER_FAULTS = """
import json, resource, sys
import numpy as np
from ramplab.config import ExperimentConfig, TrainingConfig
from ramplab.runs import keep_freed_heap
from ramplab.trainer import Trainer, train_on_batch
applied = keep_freed_heap()
cfg = ExperimentConfig(training=TrainingConfig(warmup_steps=10 ** 9), model_variant="gitsr")
trainer = Trainer(cfg, seed=0)
while len(trainer.buffer) < 64:
    trainer.run_episode()
batches = [trainer.buffer.sample(cfg.training.batch) for _ in range(30)]
def learn(batch):
    train_on_batch(batch, trainer.net, trainer.target, trainer.optimizer, cfg.training.gamma)
for batch in batches[:10]:
    learn(batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for batch in batches[10:]:
    learn(batch)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"applied": applied, "faults_per_step": faults / 20}))
"""


@pytest.mark.skipif(not ON_GLIBC, reason="the allocator settings are glibc's")
def test_kept_heap_spares_the_learner_its_page_faults():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(PYTHONPATH=str(Path(runs.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", LEARNER_FAULTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["applied"] == {name: value for name, _, value in HEAP_SETTINGS}
    assert result["faults_per_step"] < 50


def test_keep_freed_heap_applies_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(runs.ctypes, "CDLL", lambda name: object())
    monkeypatch.setattr(runs, "heap_settings_applied", {})
    assert keep_freed_heap() == {}
    assert runs.heap_settings_applied == {}


def test_train_metrics_csv_matches_summary(trained_run):
    rows = read_csv(trained_run["out"] / "seed_1" / "metrics.csv")
    assert [r["episode"] for r in rows] == ["1", "2"]
    assert all(r["variant"] == "gitsr" for r in rows)
    summary = json.loads((trained_run["out"] / "summary.json").read_text())
    assert summary["window_episodes"] == 2
    for name, field in [("return", "return"), ("success_rate", "success_rate"),
                        ("collisions", "collisions"), ("mean_speed", "mean_speed")]:
        recomputed = float(np.mean([float(r[field]) for r in rows]))
        assert summary["metrics"][name]["per_seed_mean"]["1"] == pytest.approx(
            recomputed, abs=1e-12
        )
        assert summary["metrics"][name]["mean"] == pytest.approx(recomputed, abs=1e-12)


def test_train_config_json_reflects_overrides(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "run"
    code = main(["train", "--config", config, "--out", str(out),
                 "--variant", "madqn", "--seed", "5", "--episodes", "1"])
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["model_variant"] == "madqn"
    assert stored["seeds"] == [5]
    assert stored["training"]["episodes"] == 1
    assert (out / "seed_5").is_dir() and not (out / "seed_1").exists()


def test_missing_config_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    payload = dataclasses.asdict(small_experiment())
    payload["scenario"]["n_cavz"] = 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "run"
    code = main(["train", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert "n_cavz" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("defect", [{"scenario": scenario(n_cav=0)},
                                    {"training": dataclasses.replace(
                                        small_experiment().training, buffer_capacity=3)}],
                         ids=["no_cav", "replay_below_batch"])
def test_a_config_that_can_take_no_gradient_step_exits_2(tmp_path, capsys, command, defect):
    config = write_config(tmp_path / "config.json", small_experiment(**defect))
    out = tmp_path / "run"
    code = main([command, "--config", config, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ramplab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("train", "evaluate", "ablate", "trace"):
        assert name in proc.stdout


# -- evaluate -------------------------------------------------------------


def test_evaluate_writes_csv_and_aggregate(trained_run, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    code = main(["evaluate", "--config", trained_run["config"],
                 "--checkpoint", str(trained_run["checkpoint"]),
                 "--episodes", "3", "--seed", "0", "--out", str(out_csv)])
    assert code == 0
    rows = read_csv(out_csv)
    assert len(rows) == 3
    assert all(r["epsilon"] == "0.0" for r in rows)
    aggregate = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert aggregate["episodes"] == 3
    want = float(np.mean([float(r["return"]) for r in rows]))
    assert aggregate["return_mean"] == pytest.approx(want, abs=1e-12)


def test_evaluate_zero_episodes_gives_header_only(trained_run, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    code = main(["evaluate", "--config", trained_run["config"],
                 "--checkpoint", str(trained_run["checkpoint"]),
                 "--episodes", "0", "--out", str(out_csv)])
    assert code == 0
    assert out_csv.read_text().strip() == ",".join(METRICS_COLUMNS)
    aggregate = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert aggregate == {"episodes": 0}


def test_evaluate_negative_episodes_exits_2(trained_run, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    code = main(["evaluate", "--config", trained_run["config"],
                 "--checkpoint", str(trained_run["checkpoint"]),
                 "--episodes", "-3", "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_seed_exits_2_without_outputs(trained_run, tmp_path, capsys, command):
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", str(trained_run["checkpoint"])] if command == "evaluate" else []
    code = main([command, "--config", trained_run["config"], *checkpoint,
                 "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "seeds" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_checkpoint_config_mismatch(trained_run, tmp_path, capsys):
    code = main(["evaluate", "--config", trained_run["config"],
                 "--checkpoint", str(trained_run["checkpoint"]),
                 "--variant", "madqn", "--episodes", "1",
                 "--out", str(tmp_path / "eval.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "does not fit" in err and "madqn" in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "trace"])
def test_checkpoint_network_size_mismatch_exits_2(trained_run, tmp_path, capsys, command):
    # 4 heads of width 2 have the 2-head checkpoint's parameter shapes, so
    # only the sizes themselves tell the two networks apart
    cfg = small_experiment(network=dataclasses.replace(tiny_network(), n_heads=4, d_head=2))
    config = write_config(tmp_path / "config.json", cfg)
    err = exits_2_with_one_line_error(command, {"config": config}, trained_run["checkpoint"],
                                      tmp_path, capsys)
    assert "does not fit" in err
    assert "network.n_heads 2 vs config 4" in err and "network.d_head 4 vs config 2" in err
    assert "d_model" not in err


def test_evaluate_missing_checkpoint(trained_run, tmp_path, capsys):
    code = main(["evaluate", "--config", trained_run["config"],
                 "--checkpoint", str(tmp_path / "void"),
                 "--episodes", "1", "--out", str(tmp_path / "eval.csv")])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


# -- damaged checkpoints ----------------------------------------------------


def damaged_checkpoint(trained_run, tmp_path, damage_manifest=None):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained_run["checkpoint"], ckpt)
    if damage_manifest is not None:
        path = ckpt / "manifest.json"
        manifest = json.loads(path.read_text())
        damage_manifest(manifest)
        path.write_text(json.dumps(manifest))
    return ckpt


def exits_2_with_one_line_error(command, trained_run, ckpt, tmp_path, capsys):
    out = tmp_path / "out.csv"
    episodes = ["--episodes", "1"] if command == "evaluate" else []
    code = main([command, "--config", trained_run["config"], "--checkpoint", str(ckpt),
                 *episodes, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


MANIFEST_DAMAGE = {
    "no params": lambda m: m.pop("params"),
    "no dtype": lambda m: m.pop("dtype"),
    "no meta": lambda m: m.pop("meta"),
    "entry without offset": lambda m: m["params"][0].pop("offset"),
    "entry without shape": lambda m: m["params"][0].pop("shape"),
    "params not a list": lambda m: m.update(params=3),
    "shape of strings": lambda m: m["params"][0].update(shape="ab"),
    "offset a string": lambda m: m["params"][0].update(offset="0"),
    "negative offset": lambda m: m["params"][0].update(offset=-4),
    "integer dtype": lambda m: m.update(dtype="<i4"),
    "negative input width": lambda m: m["meta"].update(input_width=-5),
    "negative feature width": lambda m: m["meta"].update(feature_width=-3),
    "width as a float": lambda m: m["meta"].update(input_width=float(m["meta"]["input_width"])),
}


@pytest.mark.parametrize("command", ["evaluate", "trace"])
@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGE))
def test_malformed_manifest_exits_2(trained_run, tmp_path, capsys, command, damage):
    ckpt = damaged_checkpoint(trained_run, tmp_path, MANIFEST_DAMAGE[damage])
    err = exits_2_with_one_line_error(command, trained_run, ckpt, tmp_path, capsys)
    assert "checkpoint" in err


def equal_neighbours(manifest):
    """The first two consecutive entries of one shape."""
    entries = manifest["params"]
    return next((a, b) for a, b in zip(entries, entries[1:]) if a["shape"] == b["shape"])


def swap_offsets(manifest):
    a, b = equal_neighbours(manifest)
    a["offset"], b["offset"] = b["offset"], a["offset"]


def swap_entries(manifest):
    a, b = equal_neighbours(manifest)
    i = manifest["params"].index(a)
    manifest["params"][i:i + 2] = [b, a]


# Each leaves every entry inside the blob, so only the check that the
# entries lie back to back in store order refuses them.
LAYOUT_DAMAGE = {
    "swapped offsets": swap_offsets,
    "entries out of store order": swap_entries,
    "overlapping entries":
        lambda m: m["params"][3].update(offset=m["params"][2]["offset"]),
    "gap before an entry":
        lambda m: m["params"][3].update(offset=m["params"][3]["offset"] + 4),
}


@pytest.mark.parametrize("command", ["evaluate", "trace"])
@pytest.mark.parametrize("damage", sorted(LAYOUT_DAMAGE))
def test_non_canonical_layout_exits_2(trained_run, tmp_path, capsys, command, damage):
    ckpt = damaged_checkpoint(trained_run, tmp_path, LAYOUT_DAMAGE[damage])
    err = exits_2_with_one_line_error(command, trained_run, ckpt, tmp_path, capsys)
    assert "not laid out in store order" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_exits_2(trained_run, tmp_path, capsys, bad):
    ckpt = damaged_checkpoint(trained_run, tmp_path)
    entry = next(e for e in json.loads((ckpt / "manifest.json").read_text())["params"]
                 if e["name"] == "embed.w")
    blob = bytearray((ckpt / "params.bin").read_bytes())
    blob[entry["offset"]:entry["offset"] + 4] = struct.pack("<f", bad)
    (ckpt / "params.bin").write_bytes(bytes(blob))
    err = exits_2_with_one_line_error("evaluate", trained_run, ckpt, tmp_path, capsys)
    assert "non-finite" in err and "embed.w" in err


def untrained_checkpoint(variant, root):
    """A freshly built network of the small experiment, saved, and its config."""
    cfg = small_experiment(model_variant=variant,
                           network=dataclasses.replace(tiny_network(), n_blocks=2, gcn_layers=2))
    save_checkpoint(root / "ckpt", build_network(cfg, seed=0))
    return root / "ckpt", write_config(root / "config.json", cfg)


def test_huge_baseline_input_width_exits_2_without_allocating(tmp_path, capsys):
    ckpt, config = untrained_checkpoint("madqn", tmp_path)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["meta"]["input_width"] = 10 ** 13
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    err = exits_2_with_one_line_error("evaluate", {"config": config}, ckpt, tmp_path, capsys)
    assert "input_width" in err or "qhead.w1" in err


@pytest.fixture(scope="module", params=["gitsr", "madqn"])
def pristine(request, tmp_path_factory):
    ckpt, config = untrained_checkpoint(request.param, tmp_path_factory.mktemp(request.param))
    return {"config": config, "manifest": json.loads((ckpt / "manifest.json").read_text()),
            "blob": (ckpt / "params.bin").read_bytes()}


JUNK = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(), st.text(max_size=3), st.none(),
                 st.booleans(), st.lists(st.integers(-3, 3), max_size=2))


@st.composite
def damage(draw, manifest, blob_size):
    """One change that leaves the checkpoint unusable: a meta field the
    parameter shapes depend on, an entry's shape, an offset that runs past
    the blob or is no offset, or a truncated blob.  Returns the manifest
    and the blob length to keep."""
    manifest = json.loads(json.dumps(manifest))
    meta, entries = manifest["meta"], manifest["params"]
    kind = draw(st.sampled_from(["meta", "shape", "offset", "truncate"]))
    if kind == "meta":
        shaping = ["input_width", "feature_width"] + [
            f"network.{k}" for k in (meta["network"] if meta["variant"] == "gitsr"
                                     else ["q_hidden"])]
        field = draw(st.sampled_from(shaping))
        holder = meta["network"] if field.startswith("network.") else meta
        key = field.rpartition(".")[2]
        holder[key] = draw(JUNK.filter(lambda v, true=holder[key]: v != true))
        return manifest, blob_size
    entry = draw(st.sampled_from(entries))
    nbytes = 4 * int(np.prod(entry["shape"]))
    if kind == "shape":
        entry["shape"] = draw(st.one_of(JUNK, st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=3))
                              .filter(lambda v, true=entry["shape"]: v != true))
    elif kind == "offset":
        entry["offset"] = draw(st.one_of(
            st.integers(blob_size - nbytes + 1, 2 ** 70), st.integers(-2 ** 70, -1),
            st.floats(), st.text(max_size=3), st.none(), st.booleans()))
    else:
        return manifest, draw(st.integers(0, blob_size - 1))
    return manifest, blob_size


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_checkpoints_exit_2_with_one_error_line(pristine, data):
    """ROADMAP item 4's fuzz: through `ramplab evaluate`, a damaged manifest
    or blob exits 2 with one `error:` line, no traceback and no output."""
    manifest, keep = data.draw(damage(pristine["manifest"], len(pristine["blob"])))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, out = Path(tmp) / "ckpt", Path(tmp) / "out.csv"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        (ckpt / "params.bin").write_bytes(pristine["blob"][:keep])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--config", pristine["config"], "--checkpoint", str(ckpt),
                         "--episodes", "1", "--out", str(out)])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out.exists()


def test_train_refuses_to_checkpoint_non_finite_weights(tmp_path, capsys, monkeypatch):
    run_episode = Trainer.run_episode

    def poisoned(self):
        metrics = run_episode(self)
        self.net.store.params["embed.w"].data[0, 0] = np.nan
        return metrics

    monkeypatch.setattr(Trainer, "run_episode", poisoned)
    out = tmp_path / "run"
    code = main(["train", "--config", write_config(tmp_path / "config.json"),
                 "--out", str(out), "--episodes", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err and "embed.w" in err
    assert not list((out / "seed_1").glob("checkpoints/*/*"))


# -- trace ----------------------------------------------------------------


def test_trace_replays_bit_exactly(trained_run, tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    code = main(["trace", "--config", trained_run["config"],
                 "--checkpoint", str(trained_run["checkpoint"]),
                 "--seed", "0", "--out", str(out_csv)])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    with open(out_csv) as fh:
        header = fh.readline().strip().split(",")
    assert header == list(TRACE_COLUMNS)
    rows = read_csv(out_csv)

    cfg = small_experiment()
    n = cfg.scenario.n_cav + cfg.scenario.n_hdv
    assert len(rows) == (report["steps"] + 1) * n

    # the r_total column sums to the reported return
    totals = [float(r["r_total"]) for r in rows if r["r_total"] != ""]
    assert sum(totals) == report["return"]

    # replaying the logged actions reproduces every logged coordinate
    world = reset(cfg.scenario, 0)
    for s in range(1, report["steps"] + 1):
        block = rows[s * n:(s + 1) * n]
        actions = {int(r["id"]): ActionCommand.from_index(int(r["action"]))
                   for r in block if r["action"] != ""}
        step(world, actions, cfg.scenario)
        for r in block:
            veh = world.vehicle(int(r["id"]))
            assert repr(veh.x) == r["x"] and repr(veh.v) == r["v"]
            assert str(veh.lane) == r["lane"]
            assert veh.outcome.value == r["outcome"]


def test_trace_rejects_episodes(trained_run, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--config", trained_run["config"],
              "--checkpoint", str(trained_run["checkpoint"]),
              "--episodes", "3", "--out", str(tmp_path / "trace.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "trace.csv").exists()


def test_trace_step0_rows_have_no_action_or_reward(trained_run, tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    main(["trace", "--config", trained_run["config"],
          "--checkpoint", str(trained_run["checkpoint"]),
          "--seed", "3", "--out", str(out_csv)])
    capsys.readouterr()
    rows = read_csv(out_csv)
    first = [r for r in rows if r["step"] == "0"]
    assert len(first) == 5
    assert all(r["action"] == "" and r["r_total"] == "" for r in first)


# -- ablate ---------------------------------------------------------------


def run_tiny_grid(tmp_path):
    cfg = small_experiment(
        scenario=scenario(n_cav=2, n_hdv=3, max_steps=10),
    )
    cfg = dataclasses.replace(
        cfg, training=dataclasses.replace(cfg.training, episodes=1, warmup_steps=6, batch=2)
    )
    config = write_config(tmp_path / "config.json", cfg)
    out = tmp_path / "grid"
    code = main(["ablate", "--config", config, "--out", str(out)])
    return code, out


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    with contextlib.redirect_stdout(io.StringIO()):
        code, out = run_tiny_grid(tmp_path_factory.mktemp("ablate"))
    assert code == 0
    return out


def test_ablate_covers_the_grid(tiny_grid):
    out = tiny_grid
    summary = json.loads((out / "ablation_summary.json").read_text())
    cells = {f"{v}/{r}" for v in MODEL_VARIANTS for r in REPRESENTATIONS}
    assert set(summary["cells"]) == cells
    assert summary["failures"] == {}
    rows = read_csv(out / "combined.csv")
    assert len(rows) == 12            # one episode row plus one aggregate per cell
    assert {r["row_type"] for r in rows} == {"episode", "aggregate"}
    reps = [r["representation"] for r in rows if r["row_type"] == "episode"]
    assert sorted(set(reps)) == sorted(REPRESENTATIONS)
    aggregates = [r for r in rows if r["row_type"] == "aggregate"]
    assert len(aggregates) == len(cells)
    for row in aggregates:
        # each value sits under its own header, read back exactly
        means = summary["cells"][f"{row['variant']}/{row['representation']}"]
        assert {name: float(row[name]) for name in means} == means
        assert set(means) == {"return", "success_rate", "collisions", "mean_speed"}
        assert all(row[name] == "" for name in ("episode", "seed", "epsilon", "wall_ms"))


def test_ablate_cells_are_train_runs_that_agree_with_the_grid_files(tiny_grid):
    """Each cell's run directory is what ``train`` writes, and the grid's
    combined.csv and ablation_summary.json say the same as those files."""
    combined = read_csv(tiny_grid / "combined.csv")
    cells = json.loads((tiny_grid / "ablation_summary.json").read_text())["cells"]
    for variant in MODEL_VARIANTS:
        for representation in REPRESENTATIONS:
            cell_dir = tiny_grid / variant / representation
            for name in ("config.json", "run_info.json", "summary.json"):
                assert (cell_dir / name).is_file()
            assert (cell_dir / "seed_1" / "checkpoints" / "final" / "params.bin").is_file()
            episodes = [
                {k: v for k, v in r.items() if k not in ("row_type", "representation")}
                for r in combined if r["row_type"] == "episode"
                and (r["variant"], r["representation"]) == (variant, representation)
            ]
            assert episodes and read_csv(cell_dir / "seed_1" / "metrics.csv") == episodes
            summary = json.loads((cell_dir / "summary.json").read_text())
            assert {name: stats["mean"] for name, stats in summary["metrics"].items()} \
                == cells[f"{variant}/{representation}"]


def test_ablate_records_a_failing_cell_and_finishes_the_grid(tmp_path, capsys, monkeypatch):
    init = Trainer.__init__

    def failing(self, cfg, seed, *args, **kwargs):
        if (cfg.model_variant, cfg.representation) == ("gitsr", "scene_centric"):
            raise RuntimeError("injected failure")
        init(self, cfg, seed, *args, **kwargs)

    monkeypatch.setattr(Trainer, "__init__", failing)
    code, out = run_tiny_grid(tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "ablation cell gitsr/scene_centric failed: RuntimeError: injected failure\n" in err
    assert "Traceback" not in err
    # the cell's run directory keeps the full traceback, down to the raise
    error = (out / "gitsr" / "scene_centric" / "error.txt").read_text()
    assert error.startswith("Traceback (most recent call last):")
    assert "in failing" in error and error.endswith("RuntimeError: injected failure\n")
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert summary["failures"] == {"gitsr/scene_centric": "RuntimeError: injected failure"}
    rest = {(v, r) for v in MODEL_VARIANTS for r in REPRESENTATIONS} - {("gitsr", "scene_centric")}
    assert set(summary["cells"]) == {f"{v}/{r}" for v, r in rest}
    rows = read_csv(out / "combined.csv")
    assert {(r["variant"], r["representation"]) for r in rows if r["row_type"] == "aggregate"} \
        == rest
    # the failed cell leaves no row at all in combined.csv
    assert all((r["variant"], r["representation"]) in rest for r in rows)
    for variant, representation in rest:
        assert (out / variant / representation / "seed_1" / "checkpoints" / "final"
                / "params.bin").is_file()
        assert not (out / variant / representation / "error.txt").exists()
