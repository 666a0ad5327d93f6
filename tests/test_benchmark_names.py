"""The benchmark (``benchmark/``) reaches into ramplab by name: it patches
functions and methods from outside to trace and check them, and imports a few
entry points. Each such name must still resolve, so that a rename fails here
instead of in a benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def traced_targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("benchmark_tracing", BENCHMARK / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


# patched by benchmark/workload.py, besides the traced targets
WORKLOAD_PATCHED = (
    "ramplab.simulation:step",
    "ramplab.trainer:train_on_batch",
    "ramplab.idm:idm_acceleration",
    "ramplab.autodiff:graph_nodes",
    "ramplab.optim:clip_global_grad_norm",
    "ramplab.replay:ReplayBuffer.add",
)
# imported by benchmark/workload.py
WORKLOAD_IMPORTED = (
    "ramplab.trainer:Trainer",
    "ramplab.trainer:evaluate_policy",
    "ramplab.config:EpsilonConfig",
    "ramplab.config:ExperimentConfig",
    "ramplab.config:TrainingConfig",
    "ramplab.network:build_network",
    "ramplab.network:network_from_checkpoint",
    "ramplab.network:save_checkpoint",
    "ramplab.runs:package_content_hash",
)


@pytest.mark.parametrize("target", [*traced_targets(), *WORKLOAD_PATCHED, *WORKLOAD_IMPORTED])
def test_benchmark_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
