import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import random_rollout, vehicle, world_of
from ramplab.config import ScenarioConfig
from ramplab.representation import (
    AGENT_GRID_CENTER,
    AGENT_GRID_COLS,
    build_adjacency,
    build_feature_matrix,
    build_local_grid,
    build_scene_grid,
    build_state,
    feature_width,
    grid_rows,
    grid_width,
    occupancy_value,
    scene_grid_cols,
    stack_states,
)
from ramplab.simulation import KIND_CODE, VehicleKind

CFG = ScenarioConfig()


def cav(vid, **kw):
    kw.setdefault("kind", VehicleKind.CAV_RAMP1)
    return vehicle(vid, **kw)


def legal_values(grid):
    flat = np.abs(grid.reshape(-1))
    return np.all((flat == 0.0) | ((flat >= 0.2) & (flat <= 1.0)))


# -- value coding and widths ----------------------------------------------


def test_occupancy_coding():
    assert occupancy_value(0.0, 25.0) == pytest.approx(0.2)
    assert occupancy_value(25.0, 25.0) == pytest.approx(1.0)
    assert occupancy_value(12.5, 25.0) == pytest.approx(0.6)


def test_grid_widths():
    assert grid_width(CFG, "agent_centric") == 153
    assert scene_grid_cols(CFG) == 201
    assert grid_width(CFG, "scene_centric") == 603
    assert feature_width(CFG) == 10
    with pytest.raises(ValueError):
        grid_width(CFG, "pixel")


# -- agent-centric grid ---------------------------------------------------


def test_local_grid_ego_cell():
    world = world_of(cav(0, lane=2, x=100.0, v=12.5))
    grid = build_local_grid(world, 0, CFG)
    assert grid.shape == (3, AGENT_GRID_COLS)
    assert grid[1, AGENT_GRID_CENTER] == pytest.approx(0.6)
    assert np.count_nonzero(grid) == 1


def test_local_grid_neighbour_columns():
    world = world_of(
        cav(0, lane=2, x=100.0, v=12.5),
        vehicle(1, lane=1, x=103.0, v=25.0),   # +3 m -> 1.5 cells, rounds up
        vehicle(2, lane=3, x=97.0, v=0.0),     # -3 m -> rounds away from ego
    )
    grid = build_local_grid(world, 0, CFG)
    assert grid[0, 27] == pytest.approx(1.0)
    assert grid[2, 23] == pytest.approx(0.2)
    assert np.count_nonzero(grid) == 3


def test_local_grid_radius_is_inclusive():
    world = world_of(
        cav(0, lane=2, x=100.0, v=12.5),
        vehicle(1, lane=1, x=150.0, v=25.0),
        vehicle(2, lane=1, x=50.0, v=25.0),
        vehicle(3, lane=3, x=150.5, v=25.0),   # 50.5 m: out of range
    )
    grid = build_local_grid(world, 0, CFG)
    assert grid[0, 50] == pytest.approx(1.0)
    assert grid[0, 0] == pytest.approx(1.0)
    assert np.count_nonzero(grid[2]) == 0


def test_local_grid_cell_conflict_nearest_wins():
    world = world_of(
        cav(0, lane=2, x=100.0, v=0.0),
        vehicle(1, lane=1, x=103.2, v=10.0),   # both land in column 27
        vehicle(2, lane=1, x=104.8, v=20.0),
    )
    grid = build_local_grid(world, 0, CFG)
    assert grid[0, 27] == pytest.approx(occupancy_value(10.0, 25.0))


def test_local_grid_cell_conflict_tie_lower_id_wins():
    world = world_of(
        cav(0, lane=2, x=100.0, v=0.0),
        vehicle(1, lane=1, x=104.0, v=5.0),
        vehicle(2, lane=1, x=104.0, v=15.0),
    )
    grid = build_local_grid(world, 0, CFG)
    assert grid[0, 27] == pytest.approx(occupancy_value(5.0, 25.0))


def test_local_grid_skips_inactive_and_requires_cav():
    world = world_of(
        cav(0, lane=2, x=100.0, v=12.5),
        vehicle(1, lane=1, x=103.0, v=25.0, active=False),
    )
    assert np.count_nonzero(build_local_grid(world, 0, CFG)) == 1
    with pytest.raises(ValueError, match="not a CAV"):
        build_local_grid(world_of(vehicle(0)), 0, CFG)


def test_local_grid_inactive_ego_is_blank():
    world = world_of(cav(0, lane=2, x=100.0, v=12.5, active=False),
                     vehicle(1, lane=1, x=103.0, v=25.0))
    assert np.count_nonzero(build_local_grid(world, 0, CFG)) == 0


@settings(max_examples=60, deadline=None)
@given(dx=st.floats(min_value=-50.0, max_value=50.0))
def test_local_grid_column_bounds_and_monotonicity(dx):
    world = world_of(cav(0, lane=2, x=200.0, v=0.0),
                     vehicle(1, lane=1, x=200.0 + dx, v=25.0))
    grid = build_local_grid(world, 0, CFG)
    cols = np.nonzero(grid[0])[0]
    assert len(cols) == 1
    col = int(cols[0])
    assert 0 <= col <= 50
    # a cell never lies on the wrong side of the ego
    if dx >= 1.0:
        assert col > AGENT_GRID_CENTER
    if dx <= -1.0:
        assert col < AGENT_GRID_CENTER


def test_stacked_rows_follow_cav_id_order():
    world = world_of(
        cav(0, lane=1, x=10.0, v=25.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=390.0, v=0.0, active=False),
        vehicle(2, lane=3, x=12.0, v=5.0),
    )
    sr = build_state(world, CFG, "agent_centric").sr
    assert sr.shape == (2, 153)
    assert np.allclose(sr[0], build_local_grid(world, 0, CFG).reshape(-1))
    assert np.count_nonzero(sr[1]) == 0


# -- scene-centric grid ---------------------------------------------------


def test_scene_grid_absolute_columns_and_cav_negation():
    world = world_of(
        cav(0, lane=2, x=20.0, v=12.5),
        vehicle(1, lane=1, x=10.6, v=25.0),
        vehicle(2, lane=3, x=400.0, v=5.0),
    )
    grid = build_scene_grid(world, CFG)
    assert grid.shape == (3, 201)
    assert grid[1, 10] == pytest.approx(-0.6)
    assert grid[0, 5] == pytest.approx(1.0)
    assert grid[2, 200] == pytest.approx(occupancy_value(5.0, 25.0))


def test_scene_grid_conflict_faster_wins_tie_lower_id():
    world = world_of(
        vehicle(0, lane=1, x=10.0, v=10.0),
        vehicle(1, lane=1, x=10.4, v=20.0),
        vehicle(2, lane=2, x=50.0, v=15.0),
        vehicle(3, lane=2, x=50.4, v=15.0),
    )
    grid = build_scene_grid(world, CFG)
    assert grid[0, 5] == pytest.approx(occupancy_value(20.0, 25.0))
    assert grid[1, 25] == pytest.approx(occupancy_value(15.0, 25.0))
    # tie resolution keeps vehicle 2's cell (same value, so indistinguishable
    # by magnitude: assert via a CAV/HDV pair where sign reveals the winner)
    tie = world_of(
        vehicle(0, lane=1, x=10.0, v=15.0),
        cav(1, lane=1, x=10.4, v=15.0),
    )
    assert build_scene_grid(tie, CFG)[0, 5] == pytest.approx(occupancy_value(15.0, 25.0))


def test_scene_centric_rows_share_one_grid():
    world = world_of(
        cav(0, lane=1, x=10.0, v=25.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=200.0, v=10.0),
        cav(2, kind=VehicleKind.CAV_RAMP2, lane=2, x=300.0, v=10.0, active=False),
        vehicle(3, lane=3, x=12.0, v=5.0),
    )
    snap = build_state(world, CFG, "scene_centric")
    flat = build_scene_grid(world, CFG).reshape(-1).astype(np.float32)
    assert snap.sr.shape == (1, 603)
    np.testing.assert_array_equal(snap.sr[0], flat)
    rows = grid_rows(stack_states([snap]))
    assert rows.shape == (3, 603) and rows.dtype == np.float32
    np.testing.assert_array_equal(rows[0], flat)
    np.testing.assert_array_equal(rows[1], flat)
    # the inactive CAV's row is +0.0 even under the negated CAV cells
    assert np.count_nonzero(rows[2]) == 0 and not np.signbit(rows[2]).any()
    assert np.signbit(flat).any()


@pytest.mark.parametrize("representation", ["agent_centric", "scene_centric"])
def test_grid_rows_of_a_row_subset_match_the_full_rows(representation):
    states = stack_states([build_state(random_rollout(CFG, seed=s, n_steps=3), CFG,
                                       representation) for s in range(3)])
    states.alive[1, 2] = False   # row 6: +0.0, also under negated CAV cells
    full = np.where(states.alive[:, :, None], states.sr, np.float32(0.0)).reshape(12, -1)
    assert grid_rows(states).tobytes() == full.tobytes()
    for rows in (np.array([6]), np.array([0, 5, 6, 11]), np.arange(12)[::-1]):
        assert grid_rows(states, rows).tobytes() == full[rows].tobytes()


# -- node features --------------------------------------------------------


def test_feature_rows_hand_computed():
    world = world_of(
        cav(0, lane=1, x=100.0, v=10.0),
        vehicle(1, lane=1, x=150.0, v=5.0),
        vehicle(2, lane=2, x=90.0, v=5.0),
    )
    feats = build_feature_matrix(world, CFG)
    assert feats.shape == (3, 10)
    np.testing.assert_allclose(
        feats[0],
        [0.25, 0.4, 1.0, 2.0, 0.125, 1.0, 1.0, 1.0, 0.025, 1.0],
    )
    np.testing.assert_allclose(
        feats[1],
        [0.375, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0, 0.125, 0.15, 1.0],
    )


def test_feature_rows_inactive_zero_and_kind_codes():
    world = world_of(
        cav(0, lane=1, x=100.0, v=10.0, active=False),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=50.0, v=5.0),
        vehicle(2, lane=3, x=10.0, v=5.0),
    )
    feats = build_feature_matrix(world, CFG)
    assert np.count_nonzero(feats[0]) == 0
    assert feats[1, 3] == 3.0
    assert feats[2, 3] == 1.0
    # the inactive vehicle is invisible to the distance scan
    assert feats[1, 4] == 1.0


def feature_matrix_oracle(world, config):
    """Per-(vehicle, lane, direction) rescan of every vehicle, the reference
    the sorted-lane pass of build_feature_matrix must match exactly."""
    def nearest_in_lane(x, lane, exclude, ahead):
        best = None
        for veh in world.vehicles:
            if not veh.active or veh.lane != lane or veh.id == exclude:
                continue
            dx = veh.x - x if ahead else x - veh.x
            if dx > 0 and (best is None or dx < best):
                best = dx
        return best

    out = np.zeros((len(world.vehicles), feature_width(config)))
    for veh in world.vehicles:
        if not veh.active:
            continue
        row = [veh.x / config.road_length, veh.v / config.v_max, float(veh.lane),
               KIND_CODE[veh.kind]]
        for ahead in (True, False):
            for lane in range(1, config.n_lanes + 1):
                dist = nearest_in_lane(veh.x, lane, veh.id, ahead)
                row.append(1.0 if dist is None else dist / config.road_length)
        out[veh.id] = row
    return out


# a few shared positions so that equal x, in one lane and across lanes, is common
SHARED_X = st.sampled_from([0.0, 0.1, 0.30000000000000004, 57.0, 57.000000000000014, 400.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(list(VehicleKind)),
        st.integers(min_value=1, max_value=3),
        SHARED_X | st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=25.0),
        st.booleans(),
    ),
    min_size=1, max_size=10,
))
@example([(VehicleKind.HDV, 1, 100.0, 5.0, True), (VehicleKind.CAV_RAMP1, 1, 100.0, 5.0, True),
          (VehicleKind.HDV, 2, 100.0, 5.0, True), (VehicleKind.HDV, 1, 120.0, 5.0, False)])
def test_feature_matrix_matches_rescan_oracle(specs):
    world = world_of(*(
        vehicle(vid, kind=kind, lane=lane, x=x, v=v, active=active)
        for vid, (kind, lane, x, v, active) in enumerate(specs)
    ))
    got = build_feature_matrix(world, CFG)
    assert got.tobytes() == feature_matrix_oracle(world, CFG).tobytes()


# -- interaction graph ----------------------------------------------------


def test_adjacency_cliques_and_perception():
    world = world_of(
        cav(0, lane=1, x=0.0, v=10.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=300.0, v=10.0),
        vehicle(2, lane=1, x=50.0, v=5.0),
        vehicle(3, lane=1, x=51.0, v=5.0),
    )
    adj = build_adjacency(world, CFG)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 1.0)
    assert adj[0, 1] == 1.0                    # CAVs pair up regardless of range
    assert adj[0, 2] == 1.0                    # 50 m: inclusive boundary
    assert adj[0, 3] == 0.0                    # 51 m: out of range
    assert adj[1, 2] == 0.0 and adj[2, 3] == 0.0


def test_adjacency_inactive_keeps_self_loop_only():
    world = world_of(
        cav(0, lane=1, x=0.0, v=10.0, active=False),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=10.0, v=10.0),
        vehicle(2, lane=1, x=5.0, v=5.0),
    )
    adj = build_adjacency(world, CFG)
    assert adj[0, 1] == 0.0 and adj[0, 2] == 0.0 and adj[0, 0] == 1.0
    assert adj[1, 2] == 1.0


def test_mask_is_kind_based():
    world = world_of(
        cav(0, active=False),
        cav(1, kind=VehicleKind.CAV_RAMP2),
        vehicle(2),
    )
    snap = build_state(world, CFG, "agent_centric")
    np.testing.assert_array_equal(snap.mask, [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(snap.alive, [False, True])


def test_build_state_refuses_cavs_that_are_not_vehicles_0_to_m_minus_1():
    world = world_of(cav(0), vehicle(1), cav(2))
    for representation in ("agent_centric", "scene_centric"):
        with pytest.raises(ValueError, match="vehicles 0..1"):
            build_state(world, CFG, representation)


# -- snapshots ------------------------------------------------------------


def test_build_state_shapes_and_flags():
    world = random_rollout(CFG, seed=0, n_steps=3)
    snap = build_state(world, CFG, "agent_centric")
    assert snap.sr.shape == (4, 153) and snap.sr.dtype == np.float32
    assert snap.features.shape == (14, 10)
    assert snap.adjacency.shape == (14, 14) and snap.adjacency.dtype == bool
    assert snap.mask.tolist() == [1.0] * 4 + [0.0] * 10
    assert snap.n_cavs == 4
    lean = build_state(world, CFG, "agent_centric", feature_rows=0, with_adjacency=False)
    assert lean.features is None and lean.adjacency is None
    cavs_only = build_state(world, CFG, "agent_centric", feature_rows=4)
    assert cavs_only.features.tobytes() == snap.features[:4].tobytes()
    scene = build_state(world, CFG, "scene_centric")
    assert scene.sr.shape == (1, 603) and scene.sr.dtype == np.float32
    assert grid_rows(stack_states([scene])).shape == (4, 603)
    with pytest.raises(ValueError):
        build_state(world, CFG, "pixel")


def test_alive_tracks_activity():
    world = world_of(
        cav(0, lane=1, x=10.0, v=10.0),
        cav(1, kind=VehicleKind.CAV_RAMP2, lane=2, x=20.0, v=10.0, active=False),
    )
    snap = build_state(world, CFG, "agent_centric")
    np.testing.assert_array_equal(snap.alive, [True, False])


def test_rollout_invariants():
    for seed in range(4):
        world = random_rollout(CFG, seed=seed, n_steps=25)
        snap = build_state(world, CFG, "agent_centric")
        assert legal_values(snap.sr)
        assert legal_values(build_scene_grid(world, CFG))
        feats = build_feature_matrix(world, CFG)
        for veh in world.vehicles:
            if not veh.active:
                assert np.count_nonzero(feats[veh.id]) == 0
        for row in range(snap.n_cavs):
            if not snap.alive[row]:
                assert np.count_nonzero(snap.sr[row]) == 0
