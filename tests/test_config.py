import dataclasses
import json

import pytest

from ramplab.config import (
    ConfigError,
    ExperimentConfig,
    IdmParams,
    NetworkConfig,
    ScenarioConfig,
    TrainingConfig,
    load_experiment_config,
)
from ramplab.runs import write_json


def load_experiment_dict(tmp_path, data):
    """Load an experiment config the way the CLI does, from a written file."""
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(data))
    return load_experiment_config(path)


def test_scenario_defaults():
    cfg = ScenarioConfig()
    assert (cfg.n_cav, cfg.n_hdv) == (4, 10)
    assert (cfg.v_max, cfg.road_length, cfg.n_lanes) == (25.0, 400.0, 3)
    assert (cfg.ramp1_x, cfg.ramp2_x) == (250.0, 370.0)
    assert cfg.dt == 0.5
    assert (cfg.hdv_depart_speed, cfg.cav_depart_speed) == (5.0, 10.0)
    cfg.validate()


def test_training_defaults():
    cfg = ExperimentConfig()
    t = cfg.training
    assert (t.episodes, t.warmup_steps, t.batch) == (3000, 20000, 32)
    assert (t.lr, t.gamma, t.buffer_capacity) == (1e-4, 0.9, 1_000_000)
    assert (t.epsilon.start, t.epsilon.end, t.epsilon.decay_steps) == (0.99, 0.001, 40000)
    assert (t.weights.w1, t.weights.w2, t.weights.w3) == (3.0, 9.0, 15.0)
    n = cfg.network
    assert (n.n_blocks, n.n_heads, n.d_model, n.d_head) == (2, 4, 128, 32)
    cfg.validate()


def test_experiment_round_trip(tmp_path):
    cfg = ExperimentConfig(seeds=[7, 8])
    path = tmp_path / "exp.json"
    write_json(path, dataclasses.asdict(cfg))
    assert load_experiment_config(path) == cfg


def test_scenario_round_trip(tmp_path):
    cfg = ScenarioConfig(n_cav=2, idm=IdmParams(a_max=2.5))
    path = tmp_path / "exp.json"
    write_json(path, {"scenario": dataclasses.asdict(cfg)})
    assert load_experiment_config(path).scenario == cfg


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"n_cavz": 4}}))
    with pytest.raises(ConfigError, match="n_cavz"):
        load_experiment_config(path)


def test_nested_unknown_key_named_with_context(tmp_path):
    with pytest.raises(ConfigError, match="scenario.idm"):
        load_experiment_dict(tmp_path, {"scenario": {"idm": {"wrong": 1.0}}})


def test_type_mismatches_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n_cav"):
        load_experiment_dict(tmp_path, {"scenario": {"n_cav": "four"}})
    with pytest.raises(ConfigError, match="dt"):
        load_experiment_dict(tmp_path, {"scenario": {"dt": True}})
    with pytest.raises(ConfigError, match="seeds"):
        load_experiment_dict(tmp_path, {"seeds": [1, "two"]})


def test_int_accepted_for_float_field(tmp_path):
    cfg = load_experiment_dict(tmp_path, {"scenario": {"v_max": 30, "cav_depart_speed": 10}})
    assert cfg.scenario.v_max == 30.0
    assert isinstance(cfg.scenario.v_max, float)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_experiment_config(tmp_path / "nope.json")


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_experiment_config(path)


@pytest.mark.parametrize("field,value", [
    ("ramp1_x", 380.0),       # would sit past ramp2
    ("ramp2_x", 500.0),       # past the road end
    ("dt", 0.0),
    ("n_lanes", 1),
    ("cav_depart_speed", 30.0),
    ("max_steps", 0),
])
def test_scenario_validation_rejects(field, value):
    cfg = dataclasses.replace(ScenarioConfig(), **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_idm_params_positive():
    with pytest.raises(ConfigError, match="s0"):
        IdmParams(s0=0.0).validate()


def test_head_split_must_tile_model_width():
    with pytest.raises(ConfigError, match="d_model"):
        NetworkConfig(n_heads=3, d_head=32, d_model=128).validate()


def test_gcn_dims():
    assert NetworkConfig().gcn_dims(10) == [10, 128, 128]
    assert NetworkConfig(gcn_layers=1, d_model=8, n_heads=2, d_head=4).gcn_dims(10) == [10, 8]


def test_variant_and_representation_whitelists():
    with pytest.raises(ConfigError, match="model_variant"):
        dataclasses.replace(ExperimentConfig(), model_variant="dqn").validate()
    with pytest.raises(ConfigError, match="representation"):
        dataclasses.replace(ExperimentConfig(), representation="global").validate()


def test_seeds_must_be_nonempty_and_distinct():
    with pytest.raises(ConfigError, match="seeds"):
        dataclasses.replace(ExperimentConfig(), seeds=[]).validate()
    with pytest.raises(ConfigError, match="distinct"):
        dataclasses.replace(ExperimentConfig(), seeds=[1, 1]).validate()


def test_a_replay_smaller_than_the_batch_is_refused():
    """Such a replay never holds a batch, so training would take no step."""
    TrainingConfig(batch=8, buffer_capacity=8).validate()
    with pytest.raises(ConfigError, match="buffer_capacity"):
        TrainingConfig(batch=8, buffer_capacity=4).validate()


def test_an_experiment_needs_a_cav_but_a_scenario_does_not():
    """With no CAV every episode ends at step 0; the simulator alone may
    still run human-only traffic."""
    ScenarioConfig(n_cav=0).validate()
    with pytest.raises(ConfigError, match="n_cav"):
        ExperimentConfig(scenario=ScenarioConfig(n_cav=0)).validate()
