import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_rollout, vehicle, world_of
from ramplab.config import RewardWeights, ScenarioConfig
from ramplab.rewards import compute_reward
from ramplab.simulation import (
    CAV_COMMAND_ACCEL,
    ActionCommand,
    Lateral,
    Longitudinal,
    Outcome,
    StepEvents,
    VehicleKind,
    episode_done,
    reset,
    step,
    target_ramp_x,
)

CFG = ScenarioConfig()
W = RewardWeights()
NO_EVENTS = StepEvents(exits=[], collisions=[])


def cav(vid, **kw):
    kw.setdefault("kind", VehicleKind.CAV_RAMP1)
    return vehicle(vid, **kw)


def test_full_speed_off_ramp_scores_the_speed_weight():
    world = world_of(
        cav(0, lane=1, x=100.0, v=25.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=120.0, v=25.0),
    )
    r = compute_reward(world, NO_EVENTS, W, CFG)
    assert r.speed == pytest.approx(1.0)
    assert r.collision == 0.0 and r.intention == 0.0
    assert r.total == pytest.approx(3.0)


def test_one_collision_costs_the_collision_weight():
    world = world_of(cav(0, lane=1, x=100.0, v=0.0, active=False, outcome=Outcome.COLLIDED))
    events = StepEvents(exits=[], collisions=[(0, 1)])
    r = compute_reward(world, events, W, CFG)
    assert r.speed == 0.0          # no CAV left active
    assert r.collision == -1.0
    assert r.total == pytest.approx(-9.0)


def test_approach_zone_pays_out_linearly():
    world = world_of(cav(0, lane=3, x=240.0, v=0.0))
    r = compute_reward(world, NO_EVENTS, W, CFG)
    assert r.intention == pytest.approx(0.8)    # 10 m short of a 50 m zone
    assert r.total == pytest.approx(15.0 * 0.8)


def test_approach_zone_wants_own_ramp_and_rightmost_lane():
    wrong_ramp = world_of(cav(0, kind=VehicleKind.CAV_RAMP2, lane=3, x=240.0, v=0.0))
    assert compute_reward(wrong_ramp, NO_EVENTS, W, CFG).intention == 0.0
    wrong_lane = world_of(cav(0, lane=2, x=240.0, v=0.0))
    assert compute_reward(wrong_lane, NO_EVENTS, W, CFG).intention == 0.0
    past_ramp = world_of(cav(0, lane=3, x=250.5, v=0.0))
    assert compute_reward(past_ramp, NO_EVENTS, W, CFG).intention == 0.0


def test_approach_zone_boundaries():
    at_ramp = world_of(cav(0, lane=3, x=250.0, v=0.0))
    assert compute_reward(at_ramp, NO_EVENTS, W, CFG).intention == pytest.approx(1.0)
    at_edge = world_of(cav(0, lane=3, x=200.0, v=0.0))
    assert compute_reward(at_edge, NO_EVENTS, W, CFG).intention == pytest.approx(0.0)


def test_speed_term_ignores_inactive_and_hdvs():
    world = world_of(
        cav(0, lane=1, x=10.0, v=10.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=1, x=60.0, v=25.0,
            active=False, outcome=Outcome.EXITED_CORRECT_RAMP),
        vehicle(2, lane=2, x=10.0, v=25.0),
    )
    r = compute_reward(world, NO_EVENTS, W, CFG)
    assert r.speed == pytest.approx(0.4)       # only the one active CAV counts


def test_components_combine_with_custom_weights():
    weights = RewardWeights(w1=1.0, w2=2.0, w3=4.0)
    world = world_of(
        cav(0, lane=3, x=240.0, v=25.0),
    )
    events = StepEvents(exits=[], collisions=[(1, 2)])
    r = compute_reward(world, events, weights, CFG)
    assert r.total == pytest.approx(1.0 * 1.0 + 2.0 * -1.0 + 4.0 * 0.8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_steps=st.integers(min_value=0, max_value=30))
def test_reward_bounds_on_reachable_worlds(seed, n_steps):
    world = random_rollout(CFG, seed=seed, n_steps=n_steps)
    r = compute_reward(world, NO_EVENTS, W, CFG)
    assert 0.0 <= r.speed <= 1.0
    m = len(world.cav_ids())
    assert 0.0 <= r.intention <= m
    assert r.total <= W.w1 + W.w3 * m
    assert r.total >= 0.0        # without collision events every term is >= 0


def scripted_episode(seed: int, park: bool) -> tuple[float, float]:
    """Return and success rate of one default-scenario episode in which every
    active CAV moves right until it is on the rightmost lane and holds its
    speed; with ``park``, it also decelerates once its own ramp is within
    stopping distance plus one step, v^2 / (2 a) + v dt."""
    world = reset(CFG, seed)
    total = 0.0
    while not episode_done(world, CFG):
        commands = {}
        for vid in world.active_cav_ids():
            veh = world.vehicle(vid)
            stop = veh.v ** 2 / (2 * CAV_COMMAND_ACCEL) + veh.v * CFG.dt
            brake = park and target_ramp_x(veh.kind, CFG) - veh.x <= stop
            commands[vid] = ActionCommand(
                Lateral.RIGHT if veh.lane < CFG.n_lanes else Lateral.KEEP,
                Longitudinal.DECELERATE if brake else Longitudinal.MAINTAIN)
        total += compute_reward(world, step(world, commands, CFG), W, CFG).total
    cavs = world.cav_ids()
    exited = sum(world.vehicle(vid).outcome is Outcome.EXITED_CORRECT_RAMP for vid in cavs)
    return total, exited / len(cavs)


def test_default_reward_pays_parking_before_the_ramp_over_exiting():
    """Pins today's reward: a CAV stopped in its ramp's approach zone is
    paid the intention term every step until the episode ends, while an
    exit earns nothing further.  Over env seeds 0-9, holding speed to the
    ramp exits some CAVs (mean return about 63, success 0.15) and parking
    before it exits none, yet returns about 957."""
    exit_runs, park_runs = ([scripted_episode(seed, park) for seed in range(10)]
                            for park in (False, True))
    (exit_return, exit_success), (park_return, park_success) = (
        np.mean(runs, axis=0) for runs in (exit_runs, park_runs))
    assert park_return > exit_return
    assert park_success == 0.0
    assert exit_success > 0.0
