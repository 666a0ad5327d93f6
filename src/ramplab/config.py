"""Typed configuration for scenarios, networks, and training runs.

Everything loads from JSON with strict unknown-key rejection so that a typo in
a field name fails loudly instead of silently running a different experiment.
Nested dataclasses mirror the JSON structure one-to-one; ``asdict`` of a config
round-trips through ``load`` unchanged.
"""
from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

MODEL_VARIANTS = ("gitsr", "madqn_transformer", "madqn")
REPRESENTATIONS = ("agent_centric", "scene_centric")


class ConfigError(ValueError):
    """Invalid, inconsistent, or unknown configuration input."""


@dataclass
class IdmParams:
    """Car-following parameters for the intelligent-driver controller.

    Parameters
    ----------
    a_max : float
        Maximum acceleration, m/s^2.
    b_comf : float
        Comfortable braking deceleration, m/s^2.
    v0 : float
        Desired (free-flow) speed, m/s.
    T_headway : float
        Safe time headway, s.
    s0 : float
        Minimum standstill gap, m.
    delta : float
        Free-road acceleration exponent.
    """

    a_max: float = 1.5
    b_comf: float = 2.0
    v0: float = 25.0
    T_headway: float = 1.0
    s0: float = 2.0
    delta: float = 4.0

    def validate(self) -> None:
        for name in ("a_max", "b_comf", "v0", "T_headway", "s0", "delta"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"idm.{name} must be positive, got {value!r}")


@dataclass
class ScenarioConfig:
    """Static description of one highway scenario.

    Lane indices run 1..n_lanes with lane ``n_lanes`` the rightmost (ramp)
    lane.  Both off-ramps sit on the rightmost lane.
    """

    n_cav: int = 4
    n_hdv: int = 10
    v_max: float = 25.0
    road_length: float = 400.0
    n_lanes: int = 3
    ramp1_x: float = 250.0
    ramp2_x: float = 370.0
    dt: float = 0.5
    hdv_depart_speed: float = 5.0
    cav_depart_speed: float = 10.0
    vehicle_length: float = 5.0
    max_steps: int = 160
    idm: IdmParams = field(default_factory=IdmParams)

    def validate(self) -> None:
        if self.n_cav < 0 or self.n_hdv < 0:
            raise ConfigError("vehicle counts must be non-negative")
        if self.n_lanes < 2:
            raise ConfigError(f"n_lanes must be >= 2, got {self.n_lanes}")
        if not self.v_max > 0:
            raise ConfigError(f"v_max must be positive, got {self.v_max}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.vehicle_length > 0:
            raise ConfigError("vehicle_length must be positive")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 < self.ramp1_x < self.ramp2_x < self.road_length:
            raise ConfigError(
                "ramps must satisfy 0 < ramp1_x < ramp2_x < road_length, got "
                f"{self.ramp1_x}, {self.ramp2_x}, {self.road_length}"
            )
        for name in ("hdv_depart_speed", "cav_depart_speed"):
            speed = getattr(self, name)
            if not 0.0 <= speed <= self.v_max:
                raise ConfigError(f"{name}={speed} outside [0, v_max={self.v_max}]")
        self.idm.validate()


@dataclass
class EpsilonConfig:
    """Linear exploration decay: start -> end over decay_steps environment steps."""

    start: float = 0.99
    end: float = 0.001
    decay_steps: int = 40000

    def validate(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ConfigError(
                f"need 0 <= end <= start <= 1, got start={self.start} end={self.end}"
            )
        if self.decay_steps < 1:
            raise ConfigError(f"decay_steps must be >= 1, got {self.decay_steps}")


@dataclass
class RewardWeights:
    """Scalarisation weights for the shared team reward."""

    w1: float = 3.0   # speed
    w2: float = 9.0   # collision
    w3: float = 15.0  # exit intention

    def validate(self) -> None:
        for name in ("w1", "w2", "w3"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"reward weight {name} must be positive")


@dataclass
class TrainingConfig:
    episodes: int = 3000
    warmup_steps: int = 20000
    batch: int = 32
    lr: float = 1e-4
    gamma: float = 0.9
    buffer_capacity: int = 1_000_000
    target_update_interval: int = 200
    checkpoint_interval: int = 250
    epsilon: EpsilonConfig = field(default_factory=EpsilonConfig)
    weights: RewardWeights = field(default_factory=RewardWeights)

    def validate(self) -> None:
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.buffer_capacity < self.batch:
            raise ConfigError(f"buffer_capacity must be >= batch, got "
                              f"{self.buffer_capacity} < {self.batch}")
        if self.target_update_interval < 1:
            raise ConfigError("target_update_interval must be >= 1")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        self.epsilon.validate()
        self.weights.validate()


@dataclass
class NetworkConfig:
    """Shapes of the encoders and Q head.

    The transformer uses ``n_heads`` heads of width ``d_head`` whose concat
    must equal ``d_model``.  The graph encoder maps the per-vehicle feature
    width to ``d_model`` through ``gcn_layers`` layers of width ``gcn_hidden``.
    """

    n_blocks: int = 2
    n_heads: int = 4
    d_model: int = 128
    d_head: int = 32
    mlp_hidden: int = 256
    gcn_layers: int = 2
    gcn_hidden: int = 128
    q_hidden: int = 256

    def validate(self) -> None:
        for name in (
            "n_blocks", "n_heads", "d_model", "d_head",
            "mlp_hidden", "gcn_layers", "gcn_hidden", "q_hidden",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"network.{name} must be >= 1")
        if self.n_heads * self.d_head != self.d_model:
            raise ConfigError(
                f"n_heads * d_head must equal d_model, got "
                f"{self.n_heads} * {self.d_head} != {self.d_model}"
            )

    def gcn_dims(self, feature_width: int) -> list[int]:
        """Layer widths from raw node features up to the shared model width."""
        return [feature_width] + [self.gcn_hidden] * (self.gcn_layers - 1) + [self.d_model]


@dataclass
class ExperimentConfig:
    """One full experiment: scenario, model variant, and training schedule."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    model_variant: str = "gitsr"
    representation: str = "agent_centric"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    output_dir: str = "runs"

    def validate(self) -> None:
        if self.model_variant not in MODEL_VARIANTS:
            raise ConfigError(
                f"model_variant must be one of {MODEL_VARIANTS}, got {self.model_variant!r}"
            )
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(
                f"representation must be one of {REPRESENTATIONS}, got {self.representation!r}"
            )
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        self.scenario.validate()
        if self.scenario.n_cav < 1:
            raise ConfigError("scenario.n_cav must be >= 1: an episode ends when no CAV is left")
        self.network.validate()
        self.training.validate()


def _from_dict(cls: type, data: Any, ctx: str) -> Any:
    """Build dataclass ``cls`` from a JSON object, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{ctx}: expected a JSON object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}")
    kwargs = {}
    for name, value in data.items():
        target = hints[name]
        where = f"{ctx}.{name}"
        if dataclasses.is_dataclass(target):
            kwargs[name] = _from_dict(target, value, where)
        elif target is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{where}: expected a number, got {value!r}")
            kwargs[name] = float(value)
        elif target is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}: expected an integer, got {value!r}")
            kwargs[name] = value
        elif target is str:
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string, got {value!r}")
            kwargs[name] = value
        elif target == list[int]:
            if not isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, int) for v in value
            ):
                raise ConfigError(f"{where}: expected a list of integers, got {value!r}")
            kwargs[name] = list(value)
        else:  # pragma: no cover - would mean a new unhandled field type
            raise ConfigError(f"{where}: unsupported field type {target!r}")
    return cls(**kwargs)


def _read_json(path: str | Path) -> Any:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment JSON file."""
    cfg = _from_dict(ExperimentConfig, _read_json(path), "experiment")
    cfg.validate()
    return cfg
