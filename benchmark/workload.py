"""One benchmark workload in a process of its own: set up, then measure.

run.py starts this file; it is not meant to be run by hand:

    python3 benchmark/workload.py --workload train_gitsr --seed 1 \
        --seconds 30 --mode measure --out benchmark/results

``--mode setup`` stops once set-up is done, ``measure`` then runs the
measured phase with only the hooks the correctness checks need, and
``trace`` also records spans around every layer boundary. The last stdout
line is one JSON object with the results.

Every workload is a closed loop: one trainer (or one policy) and one world,
and the next env step starts only when the previous one, with its learner
update, is done. The measured phase runs whole episodes until ``--seconds``
have passed, so it ends at the first episode boundary after that.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import struct
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from ramplab import trainer
from ramplab.config import EpsilonConfig, ExperimentConfig, TrainingConfig
from ramplab.network import build_network, network_from_checkpoint, save_checkpoint
from ramplab.runs import package_content_hash

from tracing import TRACED, Spans, SpanTable, after, before, patch

# Replay warm-up, as in scripts/run_trend_check.py. The buffer holds exactly
# the warm-up fill, so it is full when measuring starts and its memory does
# not grow with throughput (which would make peak RSS track speed).
WARMUP_STEPS = 2_000
# Learning is held off during the fill (see TrainWorkload).
NO_LEARNING = 2 ** 62
# Rollout episodes replayed after the measured phase to check determinism.
REPLAY_EPISODES = 8
# Seed of the network that rollout_gitsr evaluates. It is the same for every
# workload seed: a network's greedy policy sets the episode lengths (19 to 88
# steps on average across ten network seeds), and with them the cost of a
# step, so a per-seed network made the runs' speeds differ by policy rather
# than by program. The workload seed picks the evaluation episodes.
ROLLOUT_NETWORK_SEED = 0
# Errors kept verbatim in the result; the rest are only counted.
MAX_ERRORS = 5
MODULES = ("trainer", "network", "autodiff", "optim", "replay",
           "representation", "simulation", "rewards")


def train_config(variant: str, representation: str) -> ExperimentConfig:
    """The default network and batch with the schedule of
    scripts/run_trend_check.py, compressed for a short budget."""
    training = dataclasses.replace(
        TrainingConfig(),
        warmup_steps=WARMUP_STEPS,
        buffer_capacity=WARMUP_STEPS,
        lr=2e-4,
        epsilon=EpsilonConfig(start=0.99, end=0.05, decay_steps=8_000),
    )
    return ExperimentConfig(training=training, model_variant=variant,
                            representation=representation)


def derived_seeds(seed: int, n: int) -> list[int]:
    """The program sees only seeds derived from the benchmark's seeds."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Episodes:
    """Per-episode outcome of the measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env_steps = 0
        self.step_s: list[float] = []
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


class TrainWorkload:
    """Trainer.run_episode in the learning phase after the replay warm-up."""

    def __init__(self, variant: str, representation: str, seed: int):
        cfg = train_config(variant, representation)
        self.trainer = trainer.Trainer(cfg, derived_seeds(seed, 1)[0])
        # Fill the replay with whole random-action episodes and start learning
        # at the next episode boundary. Set-up then holds no learner steps,
        # however the seed lays out the episodes, and every measured env step
        # has its learner update.
        cfg.training.warmup_steps = NO_LEARNING
        while self.trainer.env_steps < WARMUP_STEPS:
            self.trainer.run_episode()
        cfg.training.warmup_steps = self.trainer.env_steps
        self.losses: list[float] = []

    def install_checks(self) -> None:
        patch("ramplab.trainer:train_on_batch",
              after(lambda args, loss: self.losses.append(loss)))

    def episode(self, index: int) -> tuple[int, list[str]]:
        self.losses.clear()
        env0, grad0 = self.trainer.env_steps, self.trainer.grad_steps
        self.trainer.run_episode()
        steps = self.trainer.env_steps - env0
        grads = self.trainer.grad_steps - grad0
        problems = []
        if grads != steps:
            problems.append(f"{grads} gradient steps for {steps} env steps")
        if len(self.losses) != grads:
            problems.append(f"{len(self.losses)} TD losses for {grads} gradient steps")
        bad = [x for x in self.losses if not math.isfinite(x)]
        if bad:
            problems.append(f"{len(bad)} non-finite TD losses")
        return steps, problems

    def after_measure(self, episodes: Episodes) -> None:
        pass


class RolloutWorkload:
    """Greedy evaluate_policy episodes of a seeded gitsr network that went
    through save_checkpoint / network_from_checkpoint, as `ramplab evaluate`
    loads it."""

    def __init__(self, seed: int, out: Path):
        self.cfg = ExperimentConfig(model_variant="gitsr")
        self.eval_seed = derived_seeds(seed, 1)[0]
        built = build_network(self.cfg, derived_seeds(ROLLOUT_NETWORK_SEED, 1)[0])
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            save_checkpoint(tmp, built)
            self.net = network_from_checkpoint(tmp)
        for name, tensor in built.store.items():
            if not np.array_equal(tensor.data, self.net.store.params[name].data):
                raise SystemExit(f"error: checkpoint round trip changed {name!r}")
        self.returns: list[float] = []

    def install_checks(self) -> None:
        pass

    def _play(self, index: int) -> float:
        # looked up on the module, so that the traced run's wrapper is called
        rows = trainer.evaluate_policy(self.net, self.cfg, 1, self.eval_seed + index)
        return rows[0].return_total

    def episode(self, index: int) -> tuple[int | None, list[str]]:
        self.returns.append(self._play(index))
        return None, []

    def after_measure(self, episodes: Episodes) -> None:
        """Replay the first episodes on the same seeds: returns must be
        bit-identical."""
        for index, first in enumerate(self.returns[:REPLAY_EPISODES]):
            again = self._play(index)
            if struct.pack("<d", again) != struct.pack("<d", first):
                episodes.fail(f"episode {index} replayed to return {again!r}, "
                              f"first run gave {first!r}")


def measure(workload, seconds: float) -> tuple[Episodes, float, float]:
    """Run whole episodes for ``seconds``. A step's wall time runs from one
    env step's call to the next, so it holds that step's reward, snapshot,
    replay add and learner update and the next step's action choice; the
    first and last step of an episode also take its start and end."""
    marks: list[float] = []
    clock = time.perf_counter
    patch("ramplab.simulation:step", before(lambda: marks.append(clock())))
    workload.install_checks()
    episodes = Episodes()
    t0 = t = clock()
    while t - t0 < seconds:
        marks.clear()
        episodes.attempted += 1
        try:
            steps, problems = workload.episode(episodes.attempted - 1)
        except Exception:
            steps, problems = None, [traceback.format_exc(limit=3)]
        t_end = clock()
        if steps is None:
            steps = len(marks)
        elif steps != len(marks):
            problems.append(f"{len(marks)} simulator steps for {steps} env steps")
        episodes.env_steps += steps
        if problems:
            episodes.fail("; ".join(problems))
        elif marks:
            episodes.step_s.extend(np.diff([t, *marks[1:], t_end]).tolist())
        t = t_end
    return episodes, t0, t


class TransitionBytes:
    """Bytes of the arrays handed to ReplayBuffer.add. An array shared with
    the previous transition (its s_next snapshot is this one's s) is counted
    once; holding the previous arrays keeps their ids from being reused."""

    def __init__(self):
        self.previous: dict[int, np.ndarray] = {}
        self.total = 0
        self.count = 0

    def __call__(self, args, _result) -> None:
        seen: dict[int, np.ndarray] = {}
        for arr in _arrays(args[1:]):
            seen.setdefault(id(arr), arr)
        self.total += sum(a.nbytes for key, a in seen.items() if key not in self.previous)
        self.count += 1
        self.previous = seen


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


class LayerObservations:
    """Counts taken at layer boundaries during the traced run. Installed
    after the spans, so that their own cost falls outside the span they
    observe (except the idm count, which runs inside simulation.step)."""

    def __init__(self, spans: Spans):
        self.idm_calls = 0
        self.tape_nodes: list[int] = []
        self.clipped: list[bool] = []
        self.replay_bytes = TransitionBytes()
        patch("ramplab.idm:idm_acceleration", before(self._count_idm))
        patch("ramplab.autodiff:graph_nodes", after(
            lambda args, nodes: self.tape_nodes.append(len(nodes))
            if spans.current() == "autodiff.backward" else None))
        patch("ramplab.optim:clip_global_grad_norm", after(
            lambda args, norm: self.clipped.append(norm > args[1])))
        patch("ramplab.replay:ReplayBuffer.add", after(self.replay_bytes))

    def _count_idm(self) -> None:
        self.idm_calls += 1


def _timing(seconds: np.ndarray, scale: float, unit: str) -> dict:
    value = float(np.median(seconds)) * scale if len(seconds) else 0.0
    return {"value": value, "unit": unit, "n": int(len(seconds))}


def _ratio(num: float, den: float, unit: str, num_label: str, den_label: str) -> dict:
    return {"value": num / den if den else 0.0, "unit": unit,
            "base": f"{num:.6g} {num_label} / {den:.6g} {den_label}"}


def layer_metrics(spans: Spans, obs: LayerObservations, t0: float, t1: float,
                  env_steps: int) -> dict:
    tb = SpanTable(spans, t0, t1)
    wall_ms = tb.wall * 1e3
    learn = tb.durations("trainer.train_on_batch")
    out = {
        "trainer.train_on_batch_ms": _timing(learn, 1e3, "ms"),
        "trainer.td_targets_self_ms": _timing(tb.self_times("trainer.td_targets"), 1e3, "ms"),
        "trainer.select_actions_us": _timing(tb.durations("trainer.select_actions"), 1e6, "us"),
        "trainer.update_target_ms": _timing(tb.durations("trainer.update_target"), 1e3, "ms"),
        "trainer.learn_share": _ratio(float(learn.sum()) * 1e3, wall_ms, "ratio",
                                      "learner ms", "wall ms"),
        "network.forward_batch_ms": _timing(
            tb.durations("network.forward_batch", parent="trainer.train_on_batch"), 1e3, "ms"),
        "network.target_forward_ms": _timing(
            tb.durations("network.forward_batch", parent="trainer.td_targets"), 1e3, "ms"),
        "network.q_values_us": _timing(tb.durations("network.q_values"), 1e6, "us"),
        "autodiff.backward_ms": _timing(tb.durations("autodiff.backward"), 1e3, "ms"),
        "autodiff.tape_nodes": {
            "value": float(np.median(obs.tape_nodes)) if obs.tape_nodes else 0.0,
            "unit": "count", "n": len(obs.tape_nodes)},
        "optim.adam_step_ms": _timing(tb.durations("optim.step"), 1e3, "ms"),
        "optim.clip_ms": _timing(tb.durations("optim.clip_global_grad_norm"), 1e3, "ms"),
        "optim.clip_fraction": _ratio(sum(obs.clipped), len(obs.clipped), "ratio",
                                      "clipped", "grad steps"),
        "replay.add_us": _timing(tb.durations("replay.add"), 1e6, "us"),
        "replay.sample_us": _timing(tb.durations("replay.sample"), 1e6, "us"),
        "replay.bytes_per_transition": _ratio(
            obs.replay_bytes.total, obs.replay_bytes.count, "B", "bytes", "transitions"),
        "representation.build_state_us": _timing(
            tb.durations("representation.build_state"), 1e6, "us"),
        "simulation.step_us": _timing(tb.durations("simulation.step"), 1e6, "us"),
        "simulation.reset_us": _timing(tb.durations("simulation.reset"), 1e6, "us"),
        "idm.calls_per_step": _ratio(obs.idm_calls, env_steps, "calls/step",
                                     "idm calls", "env steps"),
        "rewards.compute_reward_us": _timing(tb.durations("rewards.compute_reward"), 1e6, "us"),
    }
    for module in MODULES:
        out[f"{module}.self_share"] = _ratio(tb.module_self(module) * 1e3, wall_ms, "ratio",
                                             f"{module} self ms", "wall ms")
    return out


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": _commit(root),
        "source_hash": package_content_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def build(workload: str, seed: int, out: Path):
    if workload == "train_gitsr":
        return TrainWorkload("gitsr", "agent_centric", seed)
    if workload == "train_madqn_scene":
        return TrainWorkload("madqn", "scene_centric", seed)
    if workload == "rollout_gitsr":
        return RolloutWorkload(seed, out)
    raise SystemExit(f"error: unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed, args.out)
    result = {"ready_at": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    spans = obs = None
    if args.mode == "trace":
        spans = Spans()
        for target in TRACED:
            spans.wrap(target)
        obs = LayerObservations(spans)
    episodes, t0, t1 = measure(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans is not None:
        result["layers"] = layer_metrics(spans, obs, t0, t1, episodes.env_steps)
    workload.after_measure(episodes)
    if spans is not None:
        spans.write_csv(args.out / f"{args.workload}-seed{args.seed}-spans.csv")
        result["spans"] = len(spans.names)

    result.update(
        wall_s=t1 - t0,
        env_steps=episodes.env_steps,
        attempted=episodes.attempted,
        failed=episodes.failed,
        errors=episodes.errors,
        step_s=episodes.step_s,
        environment=environment(Path(__file__).resolve().parents[1]),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
