"""Shared builders for the test suite."""
from __future__ import annotations

import dataclasses

import numpy as np

from ramplab.autodiff import Tensor, _node, mul, sum_all
from ramplab.config import ExperimentConfig, NetworkConfig, ScenarioConfig, TrainingConfig
from ramplab.simulation import (
    ActionCommand,
    Outcome,
    VehicleKind,
    VehicleState,
    WorldState,
    episode_done,
    reset,
    step,
)


def vehicle(
    vid: int,
    kind: VehicleKind = VehicleKind.HDV,
    lane: int = 1,
    x: float = 0.0,
    v: float = 5.0,
    active: bool = True,
    outcome: Outcome = Outcome.RUNNING,
) -> VehicleState:
    return VehicleState(id=vid, kind=kind, lane=lane, x=x, v=v, active=active, outcome=outcome)


def world_of(*vehicles: VehicleState, step_index: int = 0) -> WorldState:
    assert [v.id for v in vehicles] == list(range(len(vehicles)))
    return WorldState(step_index=step_index, vehicles=list(vehicles))


def scenario(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


def tiny_network() -> NetworkConfig:
    return NetworkConfig(
        n_blocks=1, n_heads=2, d_model=8, d_head=4,
        mlp_hidden=16, gcn_layers=1, gcn_hidden=8, q_hidden=16,
    )


def small_experiment(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scenario=scenario(n_cav=2, n_hdv=3, max_steps=20),
        network=tiny_network(),
        training=dataclasses.replace(
            TrainingConfig(), episodes=2, warmup_steps=8, batch=4,
            target_update_interval=5, checkpoint_interval=2,
        ),
        seeds=[1],
    )
    return dataclasses.replace(cfg, **overrides)


def random_rollout(config: ScenarioConfig, seed: int, n_steps: int) -> WorldState:
    """A reachable world: reset plus a few uniformly random action steps."""
    rng = np.random.default_rng(seed)
    world = reset(config, seed)
    for _ in range(n_steps):
        if episode_done(world, config):
            break
        actions = {
            vid: ActionCommand.from_index(int(rng.integers(9)))
            for vid in world.active_cav_ids()
        }
        step(world, actions, config)
    return world


# -- the TD loss as the generic ops it was once built from ----------------


def reference_gather(a, rows, cols):
    """Entries (rows[i], cols[i]) as a (k, 1) column; repeated cells add up."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def vjp(g):
        da = np.zeros_like(a.data)
        np.add.at(da, (rows, cols), g[:, 0])
        return (da,)

    return _node(a.data[rows, cols][:, None].copy(), "gather", (a,), vjp)


def reference_sub(a, b):
    return _node(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def reference_scale(a, c):
    return _node(a.data * c, "scale", (a,), lambda g: (g * c,))


def reference_squared_error(q, rows, cols, y):
    """Mean squared error of q's entries (rows[i], cols[i]) against ``y``
    cast to q's dtype: gather, subtract, square, sum, then scale by 1 / n,
    one tape node each."""
    diff = reference_sub(reference_gather(q, rows, cols),
                         Tensor(np.asarray(y, dtype=q.data.dtype)[:, None]))
    return reference_scale(sum_all(mul(diff, diff)), 1.0 / len(diff.data))
