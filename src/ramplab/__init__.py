"""Cooperative highway off-ramp decision-making lab.

Microscopic dual-ramp highway simulator, occupancy-grid and interaction-graph
state encoders, a from-scratch reverse-mode autodiff stack with transformer and
graph-convolution encoders, and a multi-agent DQN trainer on top.
"""

from ramplab.config import (
    ConfigError,
    ExperimentConfig,
    IdmParams,
    ScenarioConfig,
    TrainingConfig,
    load_experiment_config,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "IdmParams",
    "ScenarioConfig",
    "TrainingConfig",
    "load_experiment_config",
]

__version__ = "0.1.0"
