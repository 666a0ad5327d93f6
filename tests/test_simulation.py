import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import random_rollout, scenario, vehicle, world_of
from ramplab.config import ConfigError, ScenarioConfig
from ramplab.idm import idm_acceleration
from ramplab.simulation import (
    CAV_COMMAND_ACCEL,
    FILLER_ACTION_INDEX,
    LANE_CHANGE_INCENTIVE,
    MIN_INTERACTION_GAP,
    SPAWN_LENGTH,
    ActionCommand,
    Lateral,
    Longitudinal,
    Outcome,
    VehicleKind,
    change_hdv_lanes,
    detect_collisions,
    episode_done,
    hdv_lane_change,
    lane_index,
    reset,
    resolve_ramp_exit,
    spawn_capacity,
    step,
    trace_rows,
)

CFG = ScenarioConfig()


def cav(vid, **kw):
    kw.setdefault("kind", VehicleKind.CAV_RAMP1)
    kw.setdefault("v", 10.0)
    return vehicle(vid, **kw)


def same_worlds(a, b):
    return a.step_index == b.step_index and a.collision_count == b.collision_count \
        and a.vehicles == b.vehicles


# -- actions --------------------------------------------------------------


def test_action_index_round_trip():
    for idx in range(9):
        assert ActionCommand.from_index(idx).index == idx
    assert ActionCommand.from_index(FILLER_ACTION_INDEX) == ActionCommand(
        Lateral.KEEP, Longitudinal.MAINTAIN
    )


def test_action_index_out_of_range():
    with pytest.raises(ValueError):
        ActionCommand.from_index(9)


# -- reset ----------------------------------------------------------------


def test_reset_counts_kinds_and_speeds():
    world = reset(CFG, seed=0)
    kinds = [veh.kind for veh in world.vehicles]
    assert kinds[:2] == [VehicleKind.CAV_RAMP1] * 2
    assert kinds[2:4] == [VehicleKind.CAV_RAMP2] * 2
    assert kinds[4:] == [VehicleKind.HDV] * 10
    assert all(veh.v == 10.0 for veh in world.vehicles[:4])
    assert all(veh.v == 5.0 for veh in world.vehicles[4:])
    assert all(veh.active for veh in world.vehicles)
    assert world.step_index == 0 and world.collision_count == 0


def test_reset_positions_on_distinct_slots():
    world = reset(CFG, seed=3)
    slots = {(veh.lane, veh.x) for veh in world.vehicles}
    assert len(slots) == len(world.vehicles)
    for veh in world.vehicles:
        assert 1 <= veh.lane <= 3
        assert 0.0 <= veh.x < SPAWN_LENGTH


def test_reset_is_deterministic_per_seed():
    assert same_worlds(reset(CFG, seed=42), reset(CFG, seed=42))
    assert not same_worlds(reset(CFG, seed=42), reset(CFG, seed=43))


def test_reset_overflow_rejected():
    # 11 slots per lane x 3 lanes with default geometry
    assert spawn_capacity(CFG) == 33
    full = scenario(n_cav=4, n_hdv=29)
    reset(full, seed=0)
    with pytest.raises(ConfigError, match="capacity"):
        reset(scenario(n_cav=4, n_hdv=30), seed=0)


def test_reset_odd_cav_count_favours_first_ramp():
    world = reset(scenario(n_cav=3, n_hdv=0), seed=1)
    kinds = [veh.kind for veh in world.vehicles]
    assert kinds == [VehicleKind.CAV_RAMP1, VehicleKind.CAV_RAMP1, VehicleKind.CAV_RAMP2]


# -- CAV commands ---------------------------------------------------------


def drive(veh, command):
    """A lone CAV after one world step under ``command``."""
    world = world_of(veh)
    step(world, {veh.id: command}, CFG)
    return world.vehicle(veh.id)


def test_step_cav_lane_clamps_at_edges():
    left = drive(cav(0, lane=1), ActionCommand(Lateral.LEFT, Longitudinal.MAINTAIN))
    assert left.lane == 1
    right = drive(cav(0, lane=3), ActionCommand(Lateral.RIGHT, Longitudinal.MAINTAIN))
    assert right.lane == 3


def test_step_cav_accelerate_euler_update():
    out = drive(cav(0, x=100.0, v=10.0), ActionCommand(Lateral.KEEP, Longitudinal.ACCELERATE))
    assert out.v == pytest.approx(10.0 + CAV_COMMAND_ACCEL * CFG.dt)
    assert out.x == pytest.approx(100.0 + out.v * CFG.dt)


def test_step_cav_speed_clamps():
    stopped = drive(cav(0, v=0.5), ActionCommand(Lateral.KEEP, Longitudinal.DECELERATE))
    assert stopped.v == 0.0
    topped = drive(cav(0, v=24.5), ActionCommand(Lateral.KEEP, Longitudinal.ACCELERATE))
    assert topped.v == CFG.v_max


# -- HDV lane change ------------------------------------------------------


def test_lane_change_escapes_slow_leader_tie_goes_right():
    world = world_of(
        vehicle(0, lane=2, x=50.0, v=10.0),
        vehicle(1, lane=2, x=58.0, v=0.0),
    )
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 3


def test_lane_change_prefers_faster_side_over_rightmost():
    # lane 3 has its own slow leader close by; lane 1 is empty
    world = world_of(
        vehicle(0, lane=2, x=50.0, v=10.0),
        vehicle(1, lane=2, x=58.0, v=0.0),
        vehicle(2, lane=3, x=62.0, v=2.0),
    )
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 1


def test_lane_change_rear_safety_veto():
    world = world_of(
        vehicle(0, lane=2, x=50.0, v=10.0),
        vehicle(1, lane=2, x=58.0, v=0.0),
        vehicle(2, lane=3, x=44.0, v=10.0),   # rear gap 1 m < s0 + v*T
    )
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 1


def test_lane_change_front_safety_veto():
    world = world_of(
        vehicle(0, lane=2, x=50.0, v=10.0),
        vehicle(1, lane=2, x=58.0, v=0.0),
        vehicle(2, lane=3, x=56.0, v=25.0),   # front gap 1 m < s0
        vehicle(3, lane=1, x=56.0, v=25.0),
    )
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 2


def test_lane_change_needs_incentive():
    # free road everywhere: no gain, stay put
    world = world_of(vehicle(0, lane=2, x=50.0, v=10.0))
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 2


def test_lane_change_side_by_side_vehicle_blocks():
    world = world_of(
        vehicle(0, lane=2, x=50.0, v=10.0),
        vehicle(1, lane=2, x=58.0, v=0.0),
        vehicle(2, lane=3, x=50.0, v=10.0),   # exactly alongside
    )
    assert hdv_lane_change(world, 0, lane_index(world, CFG.n_lanes), CFG) == 1


# -- ramp exits -----------------------------------------------------------


def test_ramp_exit_correct_and_wrong():
    r1 = cav(0, lane=3, x=251.0)
    assert resolve_ramp_exit(r1, 249.0, CFG) is Outcome.EXITED_CORRECT_RAMP
    r2 = cav(1, kind=VehicleKind.CAV_RAMP2, lane=3, x=251.0)
    assert resolve_ramp_exit(r2, 249.0, CFG) is Outcome.EXITED_WRONG_RAMP
    assert resolve_ramp_exit(
        cav(2, kind=VehicleKind.CAV_RAMP2, lane=3, x=371.0), 369.0, CFG
    ) is Outcome.EXITED_CORRECT_RAMP


def test_ramp_needs_rightmost_lane():
    assert resolve_ramp_exit(cav(0, lane=2, x=251.0), 249.0, CFG) is Outcome.RUNNING


def test_ramp_crossing_boundary_is_half_open():
    # landing exactly on the ramp counts; starting on it does not
    assert resolve_ramp_exit(cav(0, lane=3, x=250.0), 249.0, CFG) is Outcome.EXITED_CORRECT_RAMP
    assert resolve_ramp_exit(cav(0, lane=3, x=252.0), 250.0, CFG) is Outcome.RUNNING


def test_hdv_ignores_ramps_and_leaves_at_end():
    hdv = vehicle(0, lane=3, x=251.0)
    assert resolve_ramp_exit(hdv, 249.0, CFG) is Outcome.RUNNING
    gone = vehicle(0, lane=3, x=400.5)
    assert resolve_ramp_exit(gone, 399.0, CFG) is Outcome.REACHED_END


def test_step_deactivates_on_exit_and_clamps_x():
    world = world_of(cav(0, lane=3, x=398.0, v=10.0))
    step(world, {0: ActionCommand(Lateral.KEEP, Longitudinal.MAINTAIN)}, CFG)
    veh = world.vehicle(0)
    assert not veh.active
    assert veh.outcome is Outcome.REACHED_END
    assert veh.x == CFG.road_length


# -- collisions -----------------------------------------------------------


def test_collision_needs_same_lane_proximity_and_a_cav():
    w = world_of(cav(0, lane=1, x=10.0), vehicle(1, lane=1, x=14.0))
    assert detect_collisions(w, CFG) == [(0, 1)]
    w = world_of(cav(0, lane=1, x=10.0), vehicle(1, lane=2, x=14.0))
    assert detect_collisions(w, CFG) == []
    w = world_of(cav(0, lane=1, x=10.0), vehicle(1, lane=1, x=15.0))
    assert detect_collisions(w, CFG) == []
    w = world_of(vehicle(0, lane=1, x=10.0), vehicle(1, lane=1, x=12.0))
    assert detect_collisions(w, CFG) == []


def test_step_collision_deactivates_cavs_only():
    world = world_of(
        cav(0, lane=1, x=10.0, v=0.0),
        vehicle(1, lane=1, x=13.0, v=0.0),
    )
    events = step(world, {0: ActionCommand(Lateral.KEEP, Longitudinal.MAINTAIN)}, CFG)
    assert events.collisions == [(0, 1)]
    assert not world.vehicle(0).active
    assert world.vehicle(0).outcome is Outcome.COLLIDED
    assert world.vehicle(1).active      # the HDV drives on
    assert world.collision_count == 1


def test_collision_count_monotone_over_rollouts():
    counts = []
    world = reset(CFG, seed=11)
    rng = np.random.default_rng(11)
    for _ in range(40):
        if episode_done(world, CFG):
            break
        actions = {vid: ActionCommand.from_index(int(rng.integers(9)))
                   for vid in world.active_cav_ids()}
        step(world, actions, CFG)
        counts.append(world.collision_count)
    assert counts == sorted(counts)


# -- lane index against per-query rescans --------------------------------


def rescan_leader(world, x, lane, exclude):
    """Nearest active vehicle strictly ahead of ``x`` in ``lane``."""
    best = None
    for veh in world.vehicles:
        if not veh.active or veh.lane != lane or veh.id == exclude:
            continue
        if veh.x > x and (best is None or veh.x < best.x):
            best = veh
    return best


def rescan_front_rear(world, x, lane, exclude):
    """Nearest active vehicles at-or-ahead / strictly behind ``x`` in ``lane``."""
    front = rear = None
    for veh in world.vehicles:
        if not veh.active or veh.lane != lane or veh.id == exclude:
            continue
        if veh.x >= x:
            if front is None or veh.x < front.x:
                front = veh
        elif rear is None or veh.x > rear.x:
            rear = veh
    return front, rear


def rescan_accel(world, veh, lane, config):
    leader = rescan_leader(world, veh.x, lane, exclude=veh.id)
    if leader is None:
        return idm_acceleration(veh.v, math.inf, 0.0, config.idm)
    gap = max(leader.x - veh.x - config.vehicle_length, MIN_INTERACTION_GAP)
    return idm_acceleration(veh.v, gap, leader.v, config.idm)


def rescan_lane_change(world, vid, config):
    """The lane-change rule written against full rescans, the reference the
    lane index must reproduce exactly."""
    veh = world.vehicle(vid)
    current_accel = rescan_accel(world, veh, veh.lane, config)
    best_lane, best_accel = veh.lane, -math.inf
    for lane in (veh.lane - 1, veh.lane + 1):
        if not 1 <= lane <= config.n_lanes:
            continue
        front, rear = rescan_front_rear(world, veh.x, lane, exclude=veh.id)
        if front is not None and front.x - veh.x - config.vehicle_length < config.idm.s0:
            continue
        if rear is not None and veh.x - rear.x - config.vehicle_length < \
                config.idm.s0 + rear.v * config.idm.T_headway:
            continue
        accel = rescan_accel(world, veh, lane, config)
        if accel - current_accel >= LANE_CHANGE_INCENTIVE and accel >= best_accel:
            best_lane, best_accel = lane, accel
    return best_lane


def all_pairs_collisions(world, config):
    pairs = []
    vehicles = world.active_vehicles()
    for i, a in enumerate(vehicles):
        for b in vehicles[i + 1:]:
            if a.lane == b.lane and (a.kind.is_cav or b.kind.is_cav) \
                    and abs(a.x - b.x) < config.vehicle_length:
                pairs.append((min(a.id, b.id), max(a.id, b.id)))
    return sorted(pairs)


def rescan_step_hdvs(world, actions, config):
    """Lane and speed of every active HDV after one step, from the rescans:
    sequential lane changes, CAV lane moves, then accelerations."""
    for vid in world.active_hdv_ids():
        world.vehicle(vid).lane = rescan_lane_change(world, vid, config)
    for vid, command in actions.items():
        veh = world.vehicle(vid)
        veh.lane = min(max(veh.lane + int(command.lateral) - 1, 1), config.n_lanes)
    out = {}
    for vid in world.active_hdv_ids():
        veh = world.vehicle(vid)
        v = veh.v + rescan_accel(world, veh, veh.lane, config) * config.dt
        out[vid] = (veh.lane, min(max(v, 0.0), config.v_max))
    return out


# positions a few metres apart and exact repeats, so that alongside vehicles,
# blocked and open gaps and equal-x tie groups are all common
NEAR_X = st.sampled_from([0.0, 40.0, 44.0, 50.0, 50.000000000000014, 53.0, 56.0, 58.0, 62.0, 400.0])
WORLDS = st.lists(
    st.tuples(
        st.sampled_from(list(VehicleKind)),
        st.integers(min_value=1, max_value=3),
        NEAR_X | st.floats(min_value=0.0, max_value=400.0),
        st.sampled_from([0.0, 10.0, 25.0]) | st.floats(min_value=0.0, max_value=25.0),
        st.booleans(),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1, max_size=12,
)
# the sequential lane-change scene: hdv 1 moves into lane 2, then blocks hdv 2
SEQUENTIAL = [(VehicleKind.HDV, 1, 58.0, 0.0, True, 4), (VehicleKind.HDV, 1, 50.0, 10.0, True, 4),
              (VehicleKind.HDV, 3, 50.0, 10.0, True, 4), (VehicleKind.HDV, 3, 58.0, 0.0, True, 4)]


def generated_world(specs):
    world = world_of(*(
        vehicle(vid, kind=kind, lane=lane, x=x, v=v, active=active)
        for vid, (kind, lane, x, v, active, _) in enumerate(specs)
    ))
    actions = {vid: ActionCommand.from_index(specs[vid][-1]) for vid in world.active_cav_ids()}
    return world, actions


@settings(max_examples=400, deadline=None)
@given(WORLDS)
@example(SEQUENTIAL)
# tie groups behind hdv 0 on both sides: only the lowest id of each is its rear
@example([(VehicleKind.HDV, 2, 50.0, 10.0, True, 4), (VehicleKind.HDV, 2, 58.0, 0.0, True, 4),
          (VehicleKind.HDV, 3, 40.0, 0.0, True, 4), (VehicleKind.CAV_RAMP2, 3, 40.0, 10.0, True, 4),
          (VehicleKind.HDV, 1, 40.0, 25.0, True, 4), (VehicleKind.HDV, 1, 40.0, 0.0, True, 4)])
def test_lane_index_matches_rescan_oracle(specs):
    world, actions = generated_world(specs)
    lanes = lane_index(world, CFG.n_lanes)
    for veh in world.active_vehicles():
        if veh.kind is VehicleKind.HDV:
            assert hdv_lane_change(world, veh.id, lanes, CFG) == rescan_lane_change(world, veh.id, CFG)
    assert detect_collisions(world, CFG) == all_pairs_collisions(world, CFG)
    want = rescan_step_hdvs(copy.deepcopy(world), actions, CFG)
    step(world, actions, CFG)
    assert {vid: (world.vehicle(vid).lane, world.vehicle(vid).v) for vid in want} == want


@settings(max_examples=200, deadline=None)
@given(WORLDS)
@example(SEQUENTIAL)
def test_lane_index_stays_current_through_lane_changes(specs):
    world, _ = generated_world(specs)
    lanes = lane_index(world, CFG.n_lanes)
    change_hdv_lanes(world, lanes, CFG)
    assert lanes == lane_index(world, CFG.n_lanes)
    for lane_no, lane in enumerate(lanes, start=1):
        assert all(veh.active and veh.lane == lane_no for veh in lane)


# -- step mechanics -------------------------------------------------------


def test_step_requires_exactly_active_cav_actions():
    world = reset(CFG, seed=0)
    with pytest.raises(ValueError, match="active CAVs"):
        step(world, {}, CFG)
    actions = {vid: ActionCommand.from_index(4) for vid in world.active_cav_ids()}
    actions[99] = ActionCommand.from_index(4)
    with pytest.raises(ValueError):
        step(world, actions, CFG)


def test_inactive_vehicles_never_move():
    frozen = cav(0, lane=3, x=123.0, v=7.0, active=False, outcome=Outcome.COLLIDED)
    world = world_of(frozen, cav(1, lane=1, x=10.0, v=10.0))
    step(world, {1: ActionCommand.from_index(4)}, CFG)
    assert world.vehicle(0) == frozen


def test_hdv_follows_leader_after_cav_cuts_in():
    # CAV swings from lane 1 into lane 2 right ahead of a fast HDV; phase
    # order means the HDV's acceleration must already see the CAV this step
    world = world_of(
        cav(0, lane=1, x=60.0, v=10.0),
        vehicle(1, lane=2, x=50.0, v=20.0),
    )
    step(world, {0: ActionCommand(Lateral.RIGHT, Longitudinal.MAINTAIN)}, CFG)
    hdv = world.vehicle(1)
    assert world.vehicle(0).lane == 2
    # free-road update would have been v=20 (at v_max=25 it still accelerates)
    assert hdv.v < 20.0


def test_hdv_lane_changes_are_sequential_by_id():
    # hdv 1 wants lane 2 (slow leader in lane 1); hdv 2 behind in lane 3 can
    # only enter lane 2 if hdv 1 has not already taken the spot ahead of it
    world = world_of(
        vehicle(0, lane=1, x=58.0, v=0.0),
        vehicle(1, lane=1, x=50.0, v=10.0),
        vehicle(2, lane=3, x=50.0, v=10.0),
        vehicle(3, lane=3, x=58.0, v=0.0),
    )
    step(world, {}, CFG)
    assert world.vehicle(1).lane == 2
    # lane 2 now holds hdv 1 exactly alongside: front-gap safety vetoes hdv 2
    assert world.vehicle(2).lane == 3


def test_speed_and_position_bounds_via_random_rollouts():
    for seed in range(5):
        world = random_rollout(CFG, seed=seed, n_steps=60)
        for veh in world.vehicles:
            assert 0.0 <= veh.v <= CFG.v_max
            assert 0.0 <= veh.x <= CFG.road_length
            assert 1 <= veh.lane <= CFG.n_lanes
            assert veh.active == (veh.outcome is Outcome.RUNNING)


def test_step_determinism():
    a = reset(CFG, seed=5)
    b = reset(CFG, seed=5)
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(30):
        if episode_done(a, CFG):
            break
        act_a = {vid: ActionCommand.from_index(int(rng_a.integers(9)))
                 for vid in a.active_cav_ids()}
        act_b = {vid: ActionCommand.from_index(int(rng_b.integers(9)))
                 for vid in b.active_cav_ids()}
        step(a, act_a, CFG)
        step(b, act_b, CFG)
    assert same_worlds(a, b)


def simulator_digest(config, seeds):
    """sha256 over every vehicle's state after every step of one random-action
    episode per seed, plus each step's collisions and exits."""
    digest = hashlib.sha256()
    for seed in seeds:
        world = reset(config, seed)
        rng = np.random.default_rng(seed)
        while not episode_done(world, config):
            actions = {vid: ActionCommand.from_index(int(rng.integers(9)))
                       for vid in world.active_cav_ids()}
            events = step(world, actions, config)
            digest.update(repr([(v.id, v.lane, v.x, v.v, v.active, v.outcome.value)
                                for v in world.vehicles]).encode())
            digest.update(repr((events.collisions,
                                [(vid, o.value) for vid, o in events.exits])).encode())
    return digest.hexdigest()


def test_simulator_golden_digest():
    # Pinned from the per-query-rescan simulator: a refactor of the simulator
    # must reproduce its trajectories byte for byte.
    assert simulator_digest(CFG, range(200)) == \
        "d2e0d0b7d311019e1bed82174c282f6562f7381c6c6c57373059c3beb05c8cb1"


# -- episode termination --------------------------------------------------


def test_episode_done_on_budget_or_no_cavs():
    world = world_of(cav(0), step_index=0)
    assert not episode_done(world, CFG)
    world.step_index = CFG.max_steps
    assert episode_done(world, CFG)
    gone = world_of(cav(0, active=False, outcome=Outcome.COLLIDED), step_index=1)
    assert episode_done(gone, CFG)


def test_trace_rows_cover_every_vehicle():
    world = reset(CFG, seed=1)
    rows = trace_rows(world)
    assert len(rows) == 14
    assert rows[0]["step"] == 0
    assert rows[0]["kind"] == "CAV_RAMP1"
    assert rows[-1]["outcome"] == "Running"
    assert float(rows[0]["x"]) == world.vehicle(0).x
