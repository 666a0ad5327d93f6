"""State encoders: speed-coded occupancy grids and the interaction graph.

Two grid families share one value coding (0 for empty, otherwise
``0.2 + 0.8 * v / v_max`` so even a stopped vehicle is visible):

* agent-centric: per CAV, a lanes x 51 window covering +-50 m around the ego
  at 2 m per cell, ego in the centre column;
* scene-centric: one shared lanes x (road_length / 2 m + 1) grid in absolute
  coordinates, with CAV cells negated to mark them.

The interaction graph couples every pair of active CAVs, and each active CAV
to active HDVs within a perception radius.  Node features are normalised
position and speed, lane, an intention code, and per-lane leader/follower
distances with 1.0 standing in for "no neighbour".
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields

import numpy as np

from ramplab.config import ScenarioConfig
from ramplab.simulation import KIND_CODE, VehicleKind, WorldState, lane_index

CELL_M = 2.0
GRID_RADIUS_M = 50.0
AGENT_GRID_COLS = 51
AGENT_GRID_CENTER = 25
OCCUPANCY_FLOOR = 0.2
PERCEPTION_RADIUS_M = 50.0


def occupancy_value(v: float, v_max: float) -> float:
    return OCCUPANCY_FLOOR + (1.0 - OCCUPANCY_FLOOR) * (v / v_max)


def _round_half_away(z: float) -> int:
    return int(math.copysign(math.floor(abs(z) + 0.5), z))


def feature_width(config: ScenarioConfig) -> int:
    # position, speed, lane, intention, plus leader and follower per lane
    return 4 + 2 * config.n_lanes


def scene_grid_cols(config: ScenarioConfig) -> int:
    return _round_half_away(config.road_length / CELL_M) + 1


def grid_width(config: ScenarioConfig, representation: str) -> int:
    """Flattened per-CAV grid length for the given representation."""
    if representation == "agent_centric":
        return config.n_lanes * AGENT_GRID_COLS
    if representation == "scene_centric":
        return config.n_lanes * scene_grid_cols(config)
    raise ValueError(f"unknown representation {representation!r}")


def build_local_grid(world: WorldState, cav_id: int, config: ScenarioConfig) -> np.ndarray:
    """Ego-centred lanes x 51 occupancy grid for one CAV.

    Cells hold the speed code of the occupant; when two vehicles round into
    the same cell the one nearer the ego wins (lower id on exact ties).  An
    inactive ego sees an all-zero grid.
    """
    grid = np.zeros((config.n_lanes, AGENT_GRID_COLS))
    ego = world.vehicle(cav_id)
    if not ego.kind.is_cav:
        raise ValueError(f"vehicle {cav_id} is not a CAV")
    if not ego.active:
        return grid
    entries = []
    for veh in world.active_vehicles():
        dx = veh.x - ego.x
        if abs(dx) <= GRID_RADIUS_M:
            entries.append((abs(dx), veh.id, veh))
    # paint far to near so the nearest occupant of a cell wins
    entries.sort(reverse=True)
    for _, _, veh in entries:
        col = AGENT_GRID_CENTER + _round_half_away((veh.x - ego.x) / CELL_M)
        grid[veh.lane - 1, col] = occupancy_value(veh.v, config.v_max)
    return grid


def build_scene_grid(world: WorldState, config: ScenarioConfig) -> np.ndarray:
    """Absolute-coordinate lanes x cols grid shared by all CAVs.

    CAV cells carry negated speed codes.  When two vehicles round into the
    same cell the stronger (faster) code wins, lower id on exact ties.
    """
    cols = scene_grid_cols(config)
    grid = np.zeros((config.n_lanes, cols))
    entries = [
        (occupancy_value(veh.v, config.v_max), -veh.id, veh)
        for veh in world.active_vehicles()
    ]
    entries.sort()
    for value, _, veh in entries:
        col = min(max(_round_half_away(veh.x / CELL_M), 0), cols - 1)
        grid[veh.lane - 1, col] = -value if veh.kind.is_cav else value
    return grid


def build_feature_matrix(world: WorldState, config: ScenarioConfig,
                         n_rows: int | None = None) -> np.ndarray:
    """Per-vehicle node features, one row per vehicle id for the leading
    ``n_rows`` vehicles (default: every vehicle); inactive rows zero.

    Columns: x / road_length, v / v_max, lane, intention code, then the
    normalised distance to the nearest leader in each lane and to the nearest
    follower in each lane (1.0 when there is none).  Leaders are strictly
    ahead and followers strictly behind, so neither the vehicle itself nor
    one at the same x counts.
    """
    vehicles = world.vehicles[:n_rows]
    out = np.zeros((len(vehicles), feature_width(config)))
    lanes = [[veh.x for veh in lane] for lane in lane_index(world, config.n_lanes)]
    for veh in vehicles:
        if not veh.active:
            continue
        leaders, followers = [], []
        for xs in lanes:
            ahead, behind = bisect_right(xs, veh.x), bisect_left(xs, veh.x) - 1
            leaders.append((xs[ahead] - veh.x) / config.road_length if ahead < len(xs) else 1.0)
            followers.append((veh.x - xs[behind]) / config.road_length if behind >= 0 else 1.0)
        out[veh.id] = [
            veh.x / config.road_length,
            veh.v / config.v_max,
            float(veh.lane),
            KIND_CODE[veh.kind],
            *leaders,
            *followers,
        ]
    return out


def build_adjacency(world: WorldState, config: ScenarioConfig) -> np.ndarray:
    """Symmetric 0/1 interaction matrix with self-loops on every vehicle.

    Active CAVs are fully connected to each other; an active CAV links to an
    active HDV within the perception radius.  Inactive vehicles keep only
    their self-loop.
    """
    n = len(world.vehicles)
    adj = np.eye(n)
    cavs = world.active_cav_ids()
    # each HDV's x read once; at 14 vehicles, element assignments beat a
    # fancy assignment per CAV row and column
    hdvs = [(veh.id, veh.x) for veh in world.vehicles
            if veh.active and veh.kind is VehicleKind.HDV]
    for i_pos, i in enumerate(cavs):
        for j in cavs[i_pos + 1:]:
            adj[i, j] = adj[j, i] = 1.0
        x = world.vehicles[i].x
        for j, x_j in hdvs:
            if abs(x - x_j) <= PERCEPTION_RADIUS_M:
                adj[i, j] = adj[j, i] = 1.0
    return adj


@dataclass
class StateSnapshot:
    """Everything the networks may consume about one world state: float32
    arrays, except the 0/1 ``adjacency`` (bool) and ``alive``.

    The m CAVs are vehicles 0..m-1, so CAV row i is vehicle i throughout.
    ``sr`` is one agent-centric grid row per CAV, or the one flattened
    scene-centric grid; :func:`grid_rows` gives the per-CAV rows the
    networks read.  ``adjacency``/``mask`` rows follow vehicle id order, and
    so do ``features`` rows: one per vehicle (n, f), or in a ``madqn``
    snapshot the leading m, the CAVs' own.  ``mask`` is 1.0 on the CAV rows
    and 0.0 on the rest, and ``alive`` flags which CAVs were active when
    the snapshot was taken.  ``features`` and ``adjacency`` are None where
    the network does not read them (see ``QNetwork.observe``).
    """

    sr: np.ndarray
    features: np.ndarray | None
    adjacency: np.ndarray | None
    mask: np.ndarray
    alive: np.ndarray

    @property
    def n_cavs(self) -> int:
        return len(self.alive)


@dataclass
class StateBatch:
    """``B`` states stacked along a leading axis, as the networks take them:
    ``sr`` (B, m, w) or (B, 1, w), ``alive`` (bool) (B, m), ``features``
    (B, n, f), or (B, m, f) for ``madqn``, and bool ``adjacency`` (B, n, n),
    None where the variant reads none.  The replay stores them narrower and
    gives them back in these dtypes."""

    sr: np.ndarray
    alive: np.ndarray
    features: np.ndarray | None = None
    adjacency: np.ndarray | None = None


def stack_states(snaps: list[StateSnapshot]) -> StateBatch:
    """Snapshots of one scenario stacked along a new leading axis."""
    def stacked(name):
        values = [getattr(s, name) for s in snaps]
        return None if values[0] is None else np.array(values)

    return StateBatch(**{f.name: stacked(f.name) for f in fields(StateBatch)})


def batch_of_one(snap: StateSnapshot) -> StateBatch:
    """``snap`` as a batch of one whose arrays view the snapshot's where
    ``stack_states`` copies them."""
    def one(value):
        return None if value is None else value[None]

    return StateBatch(snap.sr[None], snap.alive[None], one(snap.features), one(snap.adjacency))


def grid_rows(states: StateBatch, rows: np.ndarray | None = None) -> np.ndarray:
    """(r, w) grid rows of the scene-major CAV rows ``rows`` (default: all
    B*m), one per CAV: its own agent-centric row or the shared scene grid,
    +0.0 for CAVs inactive in that state.  A product with ``alive`` would
    give -0.0 in the negated CAV cells of a scene grid."""
    rows = np.arange(states.alive.size) if rows is None else rows
    grids = states.sr.reshape(-1, states.sr.shape[-1])
    out = grids.take(rows // states.alive.shape[1] if states.sr.shape[1] == 1 else rows, axis=0)
    out[~states.alive.reshape(-1)[rows]] = 0.0   # a fresh copy: take
    return out


def build_state(
    world: WorldState,
    config: ScenarioConfig,
    representation: str,
    *,
    feature_rows: int | None = None,
    with_adjacency: bool = True,
) -> StateSnapshot:
    """Snapshot the world into network inputs under the given representation.

    ``features`` holds the leading ``feature_rows`` vehicles' rows (default:
    every vehicle's), or is None for 0.  Raises ``ValueError`` unless the
    CAVs are vehicles 0..m-1, as ``simulation.reset`` makes them."""
    cavs = world.cav_ids()
    m = len(cavs)
    if cavs != list(range(m)):
        raise ValueError(f"the CAVs must be vehicles 0..{m - 1}, got {cavs}")
    if representation == "agent_centric":
        sr = np.zeros((m, config.n_lanes * AGENT_GRID_COLS))
        for vid in range(m):
            sr[vid] = build_local_grid(world, vid, config).reshape(-1)
    elif representation == "scene_centric":
        sr = build_scene_grid(world, config).reshape(1, -1)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    features = (build_feature_matrix(world, config, feature_rows).astype(np.float32)
                if feature_rows != 0 else None)
    adjacency = build_adjacency(world, config).astype(bool) if with_adjacency else None
    return StateSnapshot(
        sr=sr.astype(np.float32),
        features=features,
        adjacency=adjacency,
        mask=(np.arange(len(world.vehicles)) < m).astype(np.float32),
        alive=np.array([veh.active for veh in world.vehicles[:m]], dtype=bool),
    )
