"""Discrete-time microscopic highway simulator with two off-ramps.

A straight multi-lane segment (lane 1 leftmost, lane ``n_lanes`` rightmost)
carries two vehicle populations: human-driven vehicles (HDVs) that follow the
intelligent-driver controller plus a gap-incentive lane-change rule, and
automated vehicles (CAVs) driven by externally supplied lateral/longitudinal
commands.  Each CAV is assigned one of the two off-ramps on the rightmost lane
and leaves the world when it crosses its ramp (or any ramp, or the end of the
road).

One call to :func:`step` advances the world by ``dt`` in fixed phases:
HDV lane changes (sequential by id), CAV lane changes, HDV accelerations from
post-lane-change leaders, a simultaneous forward-Euler speed/position update,
ramp-exit resolution, then CAV collision resolution.  Inactive vehicles are
frozen in place and ignored by every phase.  Every phase finds lane
neighbours in :func:`lane_index`.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from ramplab.config import ConfigError, ScenarioConfig
from ramplab.idm import idm_acceleration

# Vehicles spawn on [0, SPAWN_LENGTH) in per-lane slots wide enough to hold a
# standstill gap between neighbours.
SPAWN_LENGTH = 80.0
# Commanded CAV acceleration magnitude, m/s^2.
CAV_COMMAND_ACCEL = 2.0
# An HDV changes lane only if the candidate lane buys at least this much
# acceleration, m/s^2.
LANE_CHANGE_INCENTIVE = 0.1
# Floor on the net gap fed to the car-following controller; a smaller (or
# contact) gap just means "brake as hard as the model can".
MIN_INTERACTION_GAP = 0.1

N_ACTIONS = 9
# keep-lane / maintain-speed; substituted for CAVs that are no longer active.
FILLER_ACTION_INDEX = 4


class VehicleKind(enum.Enum):
    HDV = "HDV"
    CAV_RAMP1 = "CAV_RAMP1"
    CAV_RAMP2 = "CAV_RAMP2"

    @property
    def is_cav(self) -> bool:
        return self is not VehicleKind.HDV


# Intention code used in graph node features: 1 through-traffic, 2/3 ramp CAVs.
KIND_CODE = {
    VehicleKind.HDV: 1.0,
    VehicleKind.CAV_RAMP1: 2.0,
    VehicleKind.CAV_RAMP2: 3.0,
}


class Outcome(enum.Enum):
    RUNNING = "Running"
    EXITED_CORRECT_RAMP = "ExitedCorrectRamp"
    EXITED_WRONG_RAMP = "ExitedWrongRamp"
    REACHED_END = "ReachedEnd"
    COLLIDED = "Collided"


class Lateral(enum.IntEnum):
    LEFT = 0
    KEEP = 1
    RIGHT = 2


class Longitudinal(enum.IntEnum):
    ACCELERATE = 0
    MAINTAIN = 1
    DECELERATE = 2


@dataclass(frozen=True)
class ActionCommand:
    """One joint lateral/longitudinal command for a single CAV."""

    lateral: Lateral
    longitudinal: Longitudinal

    @classmethod
    def from_index(cls, index: int) -> "ActionCommand":
        """The command at ``index`` = 3 * lateral + longitudinal, one of
        ``N_ACTIONS`` built once."""
        if not 0 <= index < N_ACTIONS:
            raise ValueError(f"action index must lie in [0, {N_ACTIONS}), got {index}")
        return _COMMANDS[index]

    @property
    def index(self) -> int:
        return 3 * int(self.lateral) + int(self.longitudinal)


_COMMANDS = tuple(ActionCommand(Lateral(i // 3), Longitudinal(i % 3)) for i in range(N_ACTIONS))
# A CAV's acceleration, m/s^2, indexed by its Longitudinal command.
_COMMAND_ACCEL = (CAV_COMMAND_ACCEL, 0.0, -CAV_COMMAND_ACCEL)


@dataclass
class VehicleState:
    id: int
    kind: VehicleKind
    lane: int
    x: float
    v: float
    active: bool = True
    outcome: Outcome = Outcome.RUNNING


@dataclass
class WorldState:
    step_index: int
    vehicles: list[VehicleState]
    collision_count: int = 0

    def vehicle(self, vid: int) -> VehicleState:
        veh = self.vehicles[vid]
        assert veh.id == vid
        return veh

    def active_vehicles(self) -> list[VehicleState]:
        return [v for v in self.vehicles if v.active]

    def cav_ids(self) -> list[int]:
        return [v.id for v in self.vehicles if v.kind.is_cav]

    def active_cav_ids(self) -> list[int]:
        return [v.id for v in self.vehicles if v.kind.is_cav and v.active]

    def active_hdv_ids(self) -> list[int]:
        return [v.id for v in self.vehicles if v.kind is VehicleKind.HDV and v.active]


@dataclass
class StepEvents:
    """What happened during one world step."""

    exits: list[tuple[int, Outcome]] = field(default_factory=list)
    collisions: list[tuple[int, int]] = field(default_factory=list)


def target_ramp_x(kind: VehicleKind, config: ScenarioConfig) -> float | None:
    """Longitudinal position of this vehicle's assigned off-ramp (None for HDVs)."""
    if kind is VehicleKind.CAV_RAMP1:
        return config.ramp1_x
    if kind is VehicleKind.CAV_RAMP2:
        return config.ramp2_x
    return None


def spawn_capacity(config: ScenarioConfig) -> int:
    """Number of spawn slots: lanes times slots wide enough for a standstill gap."""
    slot = config.idm.s0 + config.vehicle_length
    return config.n_lanes * int(SPAWN_LENGTH // slot)


def reset(config: ScenarioConfig, seed: int) -> WorldState:
    """Create a fresh world with vehicles scattered over the spawn region.

    Vehicle ids are assigned CAVs first (the first half targeting ramp 1, the
    rest ramp 2), then HDVs.  Slots are drawn without replacement from a fixed
    per-lane grid using a generator seeded with ``seed``, so equal seeds give
    identical worlds.
    """
    config.validate()
    capacity = spawn_capacity(config)
    per_lane = capacity // config.n_lanes
    n_total = config.n_cav + config.n_hdv
    if n_total > capacity:
        raise ConfigError(
            f"{n_total} vehicles exceed spawn capacity "
            f"{capacity} ({per_lane} slots x {config.n_lanes} lanes)"
        )
    spacing = SPAWN_LENGTH / per_lane
    slots = [
        (lane, i * spacing)
        for lane in range(1, config.n_lanes + 1)
        for i in range(per_lane)
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(slots))

    n_ramp1 = (config.n_cav + 1) // 2
    vehicles = []
    for vid in range(n_total):
        lane, x = slots[order[vid]]
        if vid < n_ramp1:
            kind = VehicleKind.CAV_RAMP1
        elif vid < config.n_cav:
            kind = VehicleKind.CAV_RAMP2
        else:
            kind = VehicleKind.HDV
        speed = config.cav_depart_speed if kind.is_cav else config.hdv_depart_speed
        vehicles.append(VehicleState(id=vid, kind=kind, lane=lane, x=float(x), v=speed))
    return WorldState(step_index=0, vehicles=vehicles, collision_count=0)


# Per lane, its active vehicles in (x, id) order; see lane_index.
LaneIndex = list[list[VehicleState]]


def _lane_order(veh: VehicleState) -> tuple[float, int]:
    return veh.x, veh.id


def _x(veh: VehicleState) -> float:
    return veh.x


def lane_index(world: WorldState, n_lanes: int) -> LaneIndex:
    """Active vehicles of each lane (lane ``k`` at index ``k - 1``) in x order,
    lower id first on equal x.

    This order alone decides lane neighbours: the first vehicle past a bisect
    point, or the first of a tie group behind it, is the nearest one with the
    lowest id.  A query at a vehicle's own x leaves it out by strictness.
    """
    lanes: LaneIndex = [[] for _ in range(n_lanes)]
    for veh in world.vehicles:
        if veh.active:
            lanes[veh.lane - 1].append(veh)
    for lane in lanes:
        lane.sort(key=_x)  # stable, so equal x keeps id order
    return lanes


def _following_accel(veh: VehicleState, lane: list[VehicleState], config: ScenarioConfig) -> float:
    """IDM acceleration of ``veh`` behind its leader (strictly ahead) in the
    sorted ``lane``."""
    ahead = bisect_right(lane, veh.x, key=_x)
    if ahead == len(lane):
        return idm_acceleration(veh.v, math.inf, 0.0, config.idm)
    leader = lane[ahead]
    gap = max(leader.x - veh.x - config.vehicle_length, MIN_INTERACTION_GAP)
    return idm_acceleration(veh.v, gap, leader.v, config.idm)


def hdv_lane_change(world: WorldState, vehicle_id: int, lanes: LaneIndex, config: ScenarioConfig) -> int:
    """Lane an HDV picks for this step: its own, or an adjacent lane that is
    both safe and buys at least ``LANE_CHANGE_INCENTIVE`` of acceleration.

    ``lanes`` is the world's :func:`lane_index`.  Safety in the candidate lane
    requires a net front gap of at least ``s0`` to the nearest vehicle at or
    ahead of x (so one exactly alongside blocks) and a net rear gap of at
    least ``s0 + v_rear * T`` to the nearest one strictly behind.  When both
    neighbours qualify the faster lane wins, ties going to the rightmost.
    """
    veh = world.vehicle(vehicle_id)
    assert veh.active and veh.kind is VehicleKind.HDV
    current_accel = _following_accel(veh, lanes[veh.lane - 1], config)

    best_lane = veh.lane
    best_accel = -math.inf
    for lane in (veh.lane - 1, veh.lane + 1):
        if not 1 <= lane <= config.n_lanes:
            continue
        others = lanes[lane - 1]
        front = bisect_left(others, veh.x, key=_x)
        if front < len(others):
            front_gap = others[front].x - veh.x - config.vehicle_length
            if front_gap < config.idm.s0:
                continue
        if front > 0:
            # the first of the nearest tie group behind, i.e. its lowest id
            rear = others[bisect_left(others, others[front - 1].x, key=_x)]
            rear_gap = veh.x - rear.x - config.vehicle_length
            if rear_gap < config.idm.s0 + rear.v * config.idm.T_headway:
                continue
        accel = _following_accel(veh, others, config)
        if accel - current_accel < LANE_CHANGE_INCENTIVE:
            continue
        # rightmost wins on equal gain, hence >= while scanning left-to-right
        if accel >= best_accel:
            best_accel = accel
            best_lane = lane
    return best_lane


def change_hdv_lanes(world: WorldState, lanes: LaneIndex, config: ScenarioConfig) -> None:
    """Apply :func:`hdv_lane_change` to every active HDV in id order, so each
    one sees the moves of lower ids, keeping the index ``lanes`` current."""
    for vid in world.active_hdv_ids():
        veh = world.vehicle(vid)
        lane = hdv_lane_change(world, vid, lanes, config)
        if lane != veh.lane:
            lanes[veh.lane - 1].remove(veh)
            veh.lane = lane
            insort(lanes[lane - 1], veh, key=_lane_order)


def _clamped_lane(lane: int, lateral: Lateral, n_lanes: int) -> int:
    # LEFT, KEEP and RIGHT are 0, 1 and 2: a lane change of -1, 0 or +1
    return min(max(lane + lateral - 1, 1), n_lanes)


def _euler_speed(v: float, accel: float, config: ScenarioConfig) -> float:
    return min(max(v + accel * config.dt, 0.0), config.v_max)


def resolve_ramp_exit(veh: VehicleState, x_before: float, config: ScenarioConfig) -> Outcome:
    """Outcome for a vehicle that moved from ``x_before`` to ``veh.x`` this step.

    A CAV on the rightmost lane exits at the first ramp whose position it
    crossed (correct only when it is its assigned ramp); anything reaching the
    end of the road leaves as through traffic.
    """
    if veh.kind.is_cav and veh.lane == config.n_lanes:
        for ramp_x, matching in (
            (config.ramp1_x, VehicleKind.CAV_RAMP1),
            (config.ramp2_x, VehicleKind.CAV_RAMP2),
        ):
            if x_before < ramp_x <= veh.x:
                if veh.kind is matching:
                    return Outcome.EXITED_CORRECT_RAMP
                return Outcome.EXITED_WRONG_RAMP
    if veh.x >= config.road_length:
        return Outcome.REACHED_END
    return Outcome.RUNNING


def detect_collisions(world: WorldState, config: ScenarioConfig) -> list[tuple[int, int]]:
    """Same-lane pairs of active vehicles closer than one vehicle length,
    at least one of them a CAV.  Pairs are (lower id, higher id), sorted."""
    pairs = []
    for lane in lane_index(world, config.n_lanes):
        for i, a in enumerate(lane):
            for b in lane[i + 1:]:
                if b.x - a.x >= config.vehicle_length:
                    break
                if a.kind.is_cav or b.kind.is_cav:
                    pairs.append((min(a.id, b.id), max(a.id, b.id)))
    return sorted(pairs)


def episode_done(world: WorldState, config: ScenarioConfig) -> bool:
    """True once every CAV is inactive or the step budget is spent.

    (Vacuously true at step 0 for worlds with no CAVs; drive those by calling
    :func:`step` directly.)
    """
    if world.step_index >= config.max_steps:
        return True
    return all(not world.vehicle(vid).active for vid in world.cav_ids())


def step(
    world: WorldState,
    actions: dict[int, ActionCommand],
    config: ScenarioConfig,
) -> StepEvents:
    """Advance the world by one time step in place and report events.

    ``actions`` must hold exactly one command per *active* CAV, keyed by id.
    """
    expected = set(world.active_cav_ids())
    if set(actions) != expected:
        raise ValueError(
            f"actions must cover exactly the active CAVs {sorted(expected)}, "
            f"got {sorted(actions)}"
        )
    x_before = {veh.id: veh.x for veh in world.vehicles}

    # 1. HDV lane changes, sequential in id order: each driver sees the moves
    # of lower-id drivers already applied.
    change_hdv_lanes(world, lane_index(world, config.n_lanes), config)

    # 2. CAV lane changes.
    for vid in sorted(actions):
        veh = world.vehicle(vid)
        veh.lane = _clamped_lane(veh.lane, actions[vid].lateral, config.n_lanes)

    # 3. HDV accelerations against post-lane-change leaders at current positions.
    lanes = lane_index(world, config.n_lanes)
    hdv_accel = {veh.id: _following_accel(veh, lanes[veh.lane - 1], config)
                 for veh in world.active_vehicles() if veh.kind is VehicleKind.HDV}

    # 4. Simultaneous speed/position update.
    for veh in world.active_vehicles():
        if veh.kind is VehicleKind.HDV:
            accel = hdv_accel[veh.id]
        else:
            accel = _COMMAND_ACCEL[actions[veh.id].longitudinal]
        veh.v = _euler_speed(veh.v, accel, config)
        veh.x += veh.v * config.dt

    events = StepEvents()

    # 5. Ramp exits and end-of-road departures.
    for veh in world.active_vehicles():
        outcome = resolve_ramp_exit(veh, x_before[veh.id], config)
        if outcome is not Outcome.RUNNING:
            veh.active = False
            veh.outcome = outcome
            veh.x = min(veh.x, config.road_length)
            events.exits.append((veh.id, outcome))

    # 6. Collisions among whoever is still on the road.
    events.collisions = detect_collisions(world, config)
    for a, b in events.collisions:
        for vid in (a, b):
            veh = world.vehicle(vid)
            if veh.kind.is_cav and veh.active:
                veh.active = False
                veh.outcome = Outcome.COLLIDED
    world.collision_count += len(events.collisions)

    world.step_index += 1
    return events


TRACE_FIELDS = ("step", "id", "kind", "lane", "x", "v", "active", "outcome")


def trace_rows(world: WorldState) -> list[dict]:
    """One CSV-ready row per vehicle at the world's current step."""
    return [
        {
            "step": world.step_index,
            "id": veh.id,
            "kind": veh.kind.value,
            "lane": veh.lane,
            "x": repr(veh.x),
            "v": repr(veh.v),
            "active": int(veh.active),
            "outcome": veh.outcome.value,
        }
        for veh in world.vehicles
    ]
