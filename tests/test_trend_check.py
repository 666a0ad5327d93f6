"""``scripts/run_trend_check.py`` at a tiny budget. Criterion 8 runs it at
full budget and is opt-in, so this run is what catches a rename in the
trainer or runs modules that the script uses."""
import csv
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_trend_check.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_trend_check", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_trend_check_writes_its_report_and_metrics(tmp_path, capsys):
    script = load_script()
    code = script.main(["--episodes", "2", "--seeds", "0", "--window", "1",
                        "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "trend_report.json").read_text())
    assert set(report) == {"episodes", "window", "seeds", "arms", "ordering_holds"}
    assert (report["episodes"], report["window"], report["seeds"]) == (2, 1, [0])
    assert set(report["arms"]) == set(script.ARMS)
    for variant in script.ARMS:
        assert set(report["arms"][variant]) == {"per_seed", "mean"}
        assert set(report["arms"][variant]["per_seed"]) == {"0"}
        arm = tmp_path / variant
        with open(arm / "seed_0" / "metrics.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        summary = json.loads((arm / "summary.json").read_text())
        assert summary["seeds"] == [0]
        assert (arm / "seed_0" / "checkpoints" / "final" / "params.bin").is_file()


def test_trend_check_reports_a_bad_config_in_one_error_line(tmp_path, capsys):
    """A config error (repeated seeds, or a window of under one episode)
    exits 2 with the CLI's one-line ``error:`` on stderr, no traceback, and
    nothing written."""
    out = tmp_path / "trend"
    for argv, message in ((["--seeds", "0", "0"], "seeds must be distinct"),
                          (["--window", "0"], "window must be >= 1, got 0"),
                          (["--window", "-3"], "window must be >= 1, got -3")):
        code = load_script().main(["--episodes", "2", "--out", str(out), *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()


def test_trend_check_reports_an_out_that_is_a_file_in_one_error_line(tmp_path, capsys):
    """An I/O error (here --out naming a file, not a directory) is the same
    one ``error:`` line and exit 2, and the file is left as it was."""
    out = tmp_path / "trend"
    out.write_text("kept\n")
    code = load_script().main(["--episodes", "2", "--seeds", "0", "--window", "1",
                               "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"
