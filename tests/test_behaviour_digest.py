"""``scripts/behaviour_digest.py``: a cell run twice gives one digest, so a
digest that differs between two checkouts points at their code."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("behaviour_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_a_cell_digests_the_same_twice(tmp_path):
    script = load_script()
    first = script.cell_digest("gitsr", "agent_centric", tmp_path / "first")
    second = script.cell_digest("gitsr", "agent_centric", tmp_path / "second")
    assert first == second and len(first) == 64
    run = tmp_path / "first" / "gitsr" / "agent_centric"
    assert {p.name for p in run.iterdir()} == {"config.json", "run", "evaluate.csv", "trace.csv"}


def test_the_csv_digest_drops_only_wall_ms(tmp_path):
    script = load_script()
    path = tmp_path / "metrics.csv"
    path.write_text("episode,return,wall_ms,epsilon\r\n1,0.5,12.345,1.0\r\n")
    assert script.csv_without_wall_ms(path) == b"episode,return,epsilon\n1,0.5,1.0"
