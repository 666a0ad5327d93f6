"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` so the per-criterion lines
reach the terminal.  Criterion 8 is a long scaled run and only executes when
``RAMPLAB_RUN_TREND=1`` is set; ``scripts/run_trend_check.py`` runs the same
check standalone.
"""
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _helpers import scenario, small_experiment, tiny_network
from ramplab import autodiff as ad
from ramplab.cli import main as cli_main
from ramplab.config import (
    MODEL_VARIANTS,
    REPRESENTATIONS,
    EpsilonConfig,
    ExperimentConfig,
    RewardWeights,
    ScenarioConfig,
    TrainingConfig,
)
from ramplab.idm import equilibrium_gap, idm_acceleration
from ramplab.network import (
    build_network,
    gcn_forward,
    gcn_normalize,
    load_checkpoint,
    multi_head_attention,
    network_from_checkpoint,
    save_checkpoint,
    transformer_encode,
)
from ramplab.representation import (
    build_adjacency,
    build_feature_matrix,
    build_local_grid,
    build_scene_grid,
    build_state,
)
from ramplab.rewards import compute_reward
from ramplab.simulation import (
    ActionCommand,
    Outcome,
    StepEvents,
    VehicleKind,
    VehicleState,
    WorldState,
    episode_done,
    reset,
    step,
)
from ramplab.trainer import Trainer, evaluate_policy


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _random_world(config, seed, n_steps):
    rng = np.random.default_rng(seed)
    world = reset(config, seed)
    for _ in range(n_steps):
        if episode_done(world, config):
            break
        actions = {vid: ActionCommand.from_index(int(rng.integers(9)))
                   for vid in world.active_cav_ids()}
        step(world, actions, config)
    return world


# -- 1: gradients vs central finite differences ---------------------------


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    n_inputs = 20
    worst = 0.0
    worst_name = ""
    checked = 0
    source = 0
    while checked < n_inputs:
        world = _random_world(cfg.scenario, 2000 + source, n_steps=source % 7)
        source += 1
        snap = build_state(world, cfg.scenario, cfg.representation)
        probe = rng.normal(size=(snap.n_cavs, 9))

        def loss_tensor():
            return ad.sum_all(ad.mul(net.forward(snap), ad.Tensor(probe)))

        loss = loss_tensor()
        # skip inputs that put a rectifier pre-activation near its kink,
        # where a central difference straddles the non-smooth point
        preacts = [
            np.abs(node._parents[0].data).min()
            for node in ad.graph_nodes(loss) if node.op == "relu"
        ]
        if preacts and min(preacts) < 1e-4:
            continue
        checked += 1
        net.store.zero_grads()
        ad.backward(loss)
        analytic = {name: p.grad.copy() for name, p in net.store.items()}

        def loss_value():
            with ad.no_grad():
                q = net.forward(snap).data
            return float((q * probe).sum())

        eps = 1e-6
        for name, p in net.store.items():
            flat = p.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = loss_value()
                flat[i] = keep - eps
                lo = loss_value()
                flat[i] = keep
                fd[i] = (hi - lo) / (2 * eps)
            bp = analytic[name].reshape(-1)
            scale = max(float(np.linalg.norm(fd)), float(np.linalg.norm(bp)), 1e-12)
            rel = float(np.linalg.norm(fd - bp)) / scale
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.perf_counter() - t0
    _report(
        1, worst <= 1e-4 and elapsed < 60.0,
        f"{checked} inputs x {sum(p.data.size for _, p in net.store.items())} params, "
        f"worst group rel err {worst:.2e} ({worst_name}), {elapsed:.1f}s",
    )


# -- 2: closed-form oracles for attention and graph layers ----------------


def _naive_attention(x, wq, wk, wv, wo, n_heads):
    m, d = x.shape
    dh = d // n_heads
    q, k, v = x @ wq, x @ wk, x @ wv
    out = np.zeros((m, d))
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(m):
            scores = np.array(
                [float(np.dot(q[i, sl], k[j, sl])) for j in range(m)]
            ) / math.sqrt(dh)
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            out[i, sl] = sum(w[j] * v[j, sl] for j in range(m))
    return out @ wo


def _naive_gcn(feats, adj, weights):
    n = adj.shape[0]
    a_tilde = np.minimum(adj + np.eye(n), 1.0)
    d_half = np.diag(a_tilde.sum(axis=1) ** -0.5)
    e = d_half @ a_tilde @ d_half
    h = feats
    for w in weights:
        h = np.maximum(e @ h @ w, 0.0)
    return h


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst_att = worst_gcn = 0.0
    shapes = [(2, 1), (4, 2), (6, 3), (8, 2), (8, 4)]
    for trial in range(100):
        d, n_heads = shapes[trial % len(shapes)]
        m = int(rng.integers(1, 6))
        x = rng.normal(size=(m, d))
        ws = [ad.Tensor(rng.normal(size=(d, d))) for _ in range(4)]
        got = multi_head_attention(ad.Tensor(x), *ws, n_heads).data
        want = _naive_attention(x, *(w.data for w in ws), n_heads)
        worst_att = max(worst_att, float(np.abs(got - want).max()))

        n = int(rng.integers(1, 9))
        dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 5)))]
        feats = rng.normal(size=(n, dims[0]))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        adj = np.maximum(adj, adj.T)
        weights = [ad.Tensor(rng.normal(size=(dims[i], dims[i + 1])))
                   for i in range(len(dims) - 1)]
        got_g = gcn_forward(ad.Tensor(feats), gcn_normalize(adj), weights).data
        want_g = _naive_gcn(feats, adj, [w.data for w in weights])
        worst_gcn = max(worst_gcn, float(np.abs(got_g - want_g).max()))
    _report(
        2, worst_att <= 1e-5 and worst_gcn <= 1e-5,
        f"100 instances each: attention max |diff| {worst_att:.2e}, "
        f"graph conv max |diff| {worst_gcn:.2e}",
    )


# -- 3: permutation equivariance ------------------------------------------


def test_criterion_03_permutation_equivariance():
    cfg = small_experiment(model_variant="madqn_transformer")
    net = build_network(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(3)
    worst_enc = worst_gcn = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        x = rng.normal(size=(m, net.input_width))
        perm = rng.permutation(m)
        out = transformer_encode(ad.Tensor(x), net.transformer, cfg.network.n_heads).data
        out_p = transformer_encode(ad.Tensor(x[perm]), net.transformer,
                                   cfg.network.n_heads).data
        worst_enc = max(worst_enc, float(np.abs(out_p - out[perm]).max()))

        n = int(rng.integers(2, 9))
        feats = rng.normal(size=(n, 5))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        adj = np.maximum(adj, adj.T)
        weights = [ad.Tensor(rng.normal(size=(5, 6))), ad.Tensor(rng.normal(size=(6, 4)))]
        gperm = rng.permutation(n)
        base = gcn_forward(ad.Tensor(feats), gcn_normalize(adj), weights).data
        swapped = gcn_forward(
            ad.Tensor(feats[gperm]), gcn_normalize(adj[gperm][:, gperm]), weights
        ).data
        worst_gcn = max(worst_gcn, float(np.abs(swapped - base[gperm]).max()))
    _report(
        3, worst_enc <= 1e-5 and worst_gcn <= 1e-5,
        f"50 permutations: encoder max |diff| {worst_enc:.2e}, "
        f"graph conv max |diff| {worst_gcn:.2e}",
    )


# -- 4: car-following equilibrium and overlap-free traffic ----------------


def test_criterion_04_idm_equilibrium_and_no_overlaps():
    cfg = ScenarioConfig()
    idm = cfg.idm
    # (a) follower behind a constant-speed leader settles on the closed form
    v_lead = 15.0
    target = equilibrium_gap(v_lead, idm)
    gap, v = 40.0, 10.0
    for _ in range(500):
        a = idm_acceleration(v, gap, v_lead, idm)
        v_new = max(0.0, min(idm.v0, v + a * cfg.dt))
        gap += (v_lead - v_new) * cfg.dt
        v = v_new
    gap_err = abs(gap - target) / target

    # (b) ten long human-only runs never produce a same-lane overlap
    long_road = scenario(n_cav=0, n_hdv=10, road_length=130_000.0, max_steps=10_000)
    overlaps = 0
    steps_run = 0
    for seed in range(10):
        world = reset(long_road, seed)
        for _ in range(10_000):
            step(world, {}, long_road)
            steps_run += 1
            by_lane: dict[int, list[float]] = {}
            for veh in world.active_vehicles():
                by_lane.setdefault(veh.lane, []).append(veh.x)
            for xs in by_lane.values():
                xs.sort()
                for i in range(len(xs) - 1):
                    if xs[i + 1] - xs[i] < long_road.vehicle_length:
                        overlaps += 1
    _report(
        4, gap_err <= 0.01 and overlaps == 0,
        f"pair gap {gap:.2f} vs closed form {target:.2f} ({gap_err:.2%} off); "
        f"{overlaps} overlaps in {steps_run} human-only steps x 10 seeds",
    )


# -- 5: representation invariants on reachable worlds ---------------------


def test_criterion_05_representation_invariants():
    cfg = ScenarioConfig()
    violations: list[str] = []
    worlds = 0
    chain = 0
    while worlds < 1000 and chain < 200:
        rng = np.random.default_rng(5000 + chain)
        world = reset(cfg, 5000 + chain)
        chain += 1
        for step_no in range(21):
            worlds += 1
            tag = f"chain {chain} step {step_no}"
            active = len(world.active_vehicles())
            for vid in world.cav_ids():
                grid = build_local_grid(world, vid, cfg)
                if grid.min() < 0.0 or grid.max() > 1.0:
                    violations.append(f"{tag}: grid range")
                if np.count_nonzero(grid) > active:
                    violations.append(f"{tag}: more cells than vehicles")
                ego = world.vehicle(vid)
                if ego.active and grid[ego.lane - 1, 25] <= 0.0:
                    violations.append(f"{tag}: ego missing from centre column")
                if not ego.active and np.count_nonzero(grid):
                    violations.append(f"{tag}: inactive ego sees vehicles")
            scene = build_scene_grid(world, cfg)
            if np.abs(scene).max() > 1.0 or np.count_nonzero(scene) > active:
                violations.append(f"{tag}: scene grid")
            adj = build_adjacency(world, cfg)
            if not np.array_equal(adj, adj.T) or not np.all(np.diag(adj) == 1.0):
                violations.append(f"{tag}: adjacency")
            if not np.isin(adj, (0.0, 1.0)).all():
                violations.append(f"{tag}: adjacency values")
            feats = build_feature_matrix(world, cfg)
            for veh in world.vehicles:
                row = feats[veh.id]
                if not veh.active:
                    if np.count_nonzero(row):
                        violations.append(f"{tag}: inactive features")
                    continue
                ok = (0.0 <= row[0] <= 1.0 and 0.0 <= row[1] <= 1.0
                      and row[2] in (1.0, 2.0, 3.0) and row[3] in (1.0, 2.0, 3.0)
                      and np.all(row[4:] > 0.0) and np.all(row[4:] <= 1.0))
                if not ok:
                    violations.append(f"{tag}: feature range {row}")
            snap = build_state(world, cfg, "agent_centric")
            if snap.sr.dtype != np.float32 or snap.mask.sum() != cfg.n_cav:
                violations.append(f"{tag}: snapshot")
            if episode_done(world, cfg):
                break
            actions = {vid: ActionCommand.from_index(int(rng.integers(9)))
                       for vid in world.active_cav_ids()}
            step(world, actions, cfg)
    _report(
        5, worlds >= 1000 and not violations,
        f"{worlds} reachable worlds checked, "
        f"{len(violations)} violations{': ' + violations[0] if violations else ''}",
    )


# -- 6: reward arithmetic --------------------------------------------------


def test_criterion_06_reward_worked_examples_and_trace_sum(tmp_path):
    cfg = ScenarioConfig()
    weights = RewardWeights()
    no_events = StepEvents(exits=[], collisions=[])

    def cav(vid, **kw):
        kw.setdefault("kind", VehicleKind.CAV_RAMP1)
        kw.setdefault("v", 10.0)
        return VehicleState(id=vid, active=True, outcome=Outcome.RUNNING,
                            lane=kw.pop("lane", 1), x=kw.pop("x", 0.0),
                            v=kw.pop("v"), kind=kw.pop("kind"))

    full_speed = WorldState(step_index=0, vehicles=[
        cav(0, lane=1, x=100.0, v=25.0), cav(1, lane=2, x=120.0, v=25.0),
    ])
    r1 = compute_reward(full_speed, no_events, weights, cfg).total

    crash = WorldState(step_index=0, vehicles=[
        dataclasses.replace(cav(0, lane=1, x=100.0, v=0.0),
                            active=False, outcome=Outcome.COLLIDED),
    ])
    r2 = compute_reward(crash, StepEvents(exits=[], collisions=[(0, 1)]),
                        weights, cfg).total

    approach = WorldState(step_index=0, vehicles=[cav(0, lane=3, x=240.0, v=0.0)])
    r3 = compute_reward(approach, no_events, weights, cfg).total
    examples_ok = (r1 == 3.0 and r2 == -9.0 and r3 == 12.0)

    # episode return equals the sum of the per-step reward column of a trace
    exp = small_experiment()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(exp)))
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, build_network(exp, seed=0))
    out_csv = tmp_path / "trace.csv"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["trace", "--config", str(config_path),
                         "--checkpoint", str(ckpt), "--seed", "0",
                         "--out", str(out_csv)])
    reported = json.loads(buf.getvalue().strip().splitlines()[-1])["return"]
    import csv
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    summed = sum(float(r["r_total"]) for r in rows if r["r_total"] != "")
    trace_ok = code == 0 and summed == reported
    _report(
        6, examples_ok and trace_ok,
        f"worked examples ({r1}, {r2}, {r3}) vs (3, -9, 12); "
        f"trace column sum {summed!r} == reported return {reported!r}",
    )


# -- 7: learning improves on a measured random baseline -------------------


def smoke_config() -> ExperimentConfig:
    return ExperimentConfig(
        scenario=scenario(
            n_cav=1, n_hdv=0, road_length=2000.0,
            ramp1_x=1800.0, ramp2_x=1900.0, max_steps=40,
        ),
        network=tiny_network(),
        training=TrainingConfig(
            episodes=150, warmup_steps=400, batch=32, lr=1e-3, gamma=0.9,
            buffer_capacity=20_000, target_update_interval=100,
            checkpoint_interval=1000,
            epsilon=EpsilonConfig(start=0.99, end=0.01, decay_steps=3000),
        ),
        model_variant="gitsr",
        seeds=[0, 1, 2],
    )


def test_criterion_07_learning_smoke():
    t0 = time.perf_counter()
    cfg = smoke_config()
    lifts = []
    for seed in cfg.seeds:
        trainer = Trainer(cfg, seed)
        returns = [m.return_total for m in trainer.train()]
        baseline = float(np.mean(returns[:10]))     # pure warm-up: random policy
        final = float(np.mean(returns[-20:]))
        lifts.append(final / baseline)
    elapsed = time.perf_counter() - t0
    _report(
        7, all(lift >= 1.5 for lift in lifts) and elapsed < 600.0,
        "single-agent speed-reward scenario, 150 episodes x 3 seeds: "
        f"final/random lifts {[f'{l:.2f}' for l in lifts]} (need >= 1.50 each), "
        f"{elapsed:.0f}s",
    )


# -- 8: scaled head-to-head ordering (opt-in, reported either way) --------


@pytest.mark.trend
def test_criterion_08_scaled_trend_check(tmp_path):
    if not os.environ.get("RAMPLAB_RUN_TREND"):
        print("[criterion 08] SKIP: set RAMPLAB_RUN_TREND=1 to run the scaled "
              "head-to-head (about an hour); scripts/run_trend_check.py runs "
              "it standalone", flush=True)
        pytest.skip("scaled trend check is opt-in via RAMPLAB_RUN_TREND=1")
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_trend_check.py"
    out_dir = tmp_path / "trend"
    episodes = os.environ.get("RAMPLAB_TREND_EPISODES", "300")
    seeds = os.environ.get("RAMPLAB_TREND_SEEDS", "0 1 2").split()
    proc = subprocess.run(
        [sys.executable, str(script), "--episodes", episodes,
         "--seeds", *seeds, "--out", str(out_dir)],
        text=True,
    )
    report = json.loads((out_dir / "trend_report.json").read_text())
    ordering = report["ordering_holds"]
    _report(
        8, proc.returncode == 0 and {"gitsr", "madqn"} <= set(report["arms"]),
        f"graph-and-transformer mean final-window return "
        f"{report['arms']['gitsr']['mean']:.1f} vs baseline "
        f"{report['arms']['madqn']['mean']:.1f}; ordering holds: {ordering} "
        "(reported, not gated)",
    )


# -- 9: determinism and persistence ---------------------------------------


def test_criterion_09_determinism_and_persistence(tmp_path):
    exp = small_experiment()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(exp)))
    csv_bodies = []
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        import csv
        with open(out / "seed_1" / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        # wall-clock per episode legitimately differs between runs; every
        # other column must be bit-identical
        csv_bodies.append([row[:-1] for row in rows])
        blobs.append((out / "seed_1" / "checkpoints" / "final" / "params.bin").read_bytes())
    replay_ok = csv_bodies[0] == csv_bodies[1] and blobs[0] == blobs[1]

    net = build_network(exp, seed=0)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, net)
    _, arrays = load_checkpoint(ckpt)
    round_trip_ok = all(
        arrays[name].tobytes() == p.data.astype("<f4").tobytes()
        for name, p in net.store.items()
    )
    restored = network_from_checkpoint(ckpt)

    def signature(n):
        return [
            (m.return_total, m.success_rate, m.collisions, m.mean_speed)
            for m in evaluate_policy(n, exp, n_episodes=3, seed=0)
        ]

    eval_ok = signature(net) == signature(restored)
    _report(
        9, replay_ok and round_trip_ok and eval_ok,
        f"re-run CSV identical sans wall-clock: {replay_ok}; checkpoint blob "
        f"round-trips bit-exactly: {round_trip_ok}; evaluation after reload "
        f"matches: {eval_ok}",
    )


# -- 10: ablation grid plumbing -------------------------------------------


def test_criterion_10_ablation_plumbing(tmp_path):
    exp = small_experiment()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(exp)))
    out = tmp_path / "grid"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["ablate", "--config", str(config_path),
                         "--episodes", "5", "--out", str(out)])
    summary = json.loads((out / "ablation_summary.json").read_text())
    cells = {f"{v}/{r}" for v in MODEL_VARIANTS for r in REPRESENTATIONS}
    import csv
    with open(out / "combined.csv") as fh:
        rows = list(csv.DictReader(fh))
    episode_rows = [r for r in rows if r["row_type"] == "episode"]
    aggregate_rows = [r for r in rows if r["row_type"] == "aggregate"]
    ok = (code == 0 and set(summary["cells"]) == cells
          and summary["failures"] == {}
          and len(episode_rows) == 6 * 5 and len(aggregate_rows) == 6)
    _report(
        10, ok,
        f"3x2 grid at 5 episodes: exit {code}, {len(summary['cells'])}/6 cells, "
        f"{len(summary['failures'])} failures, "
        f"{len(episode_rows)} episode + {len(aggregate_rows)} aggregate rows",
    )
