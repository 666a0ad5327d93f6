#!/usr/bin/env python3
"""One sha256 per variant x representation cell over what a same-seed run
writes, to check that a refactor changed no output byte.

Each cell trains at a tiny budget that still takes gradient steps and wraps
the replay ring, then evaluates and traces its final checkpoint greedily,
all through the command line (``ramplab.cli.main``).  The digest covers
``metrics.csv`` and the evaluate CSV less their ``wall_ms`` column, the
final checkpoint's ``manifest.json`` and ``params.bin``, and the trace CSV.
Run as a script, it imports ramplab from the ``src`` beside it, so running
it in two checkouts and diffing the outputs compares their code:

    python3 scripts/behaviour_digest.py > digests.txt

It then also defaults BLAS to one thread (before numpy loads), since a
product may round differently under another thread count.
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ramplab import cli
from ramplab.config import MODEL_VARIANTS, REPRESENTATIONS

# The default scenario (4 CAVs, 10 HDVs) with a small network: 150-700 env
# steps, all but the first 48 taking a gradient step, through a 96-slot ring;
# epsilon falls to 0.05 within 48 steps, so the actor mostly acts greedily
CONFIG = {
    "training": {"episodes": 6, "warmup_steps": 48, "batch": 8, "buffer_capacity": 96,
                 "target_update_interval": 16, "checkpoint_interval": 1000,
                 "epsilon": {"start": 1.0, "end": 0.05, "decay_steps": 48}},
    "network": {"n_blocks": 1, "n_heads": 2, "d_model": 16, "d_head": 8, "mlp_hidden": 32,
                "gcn_layers": 2, "gcn_hidden": 16, "q_hidden": 32},
    "seeds": [0],
}
EVAL_EPISODES = 2


def run_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"ramplab {' '.join(argv)} exited {code}")


def csv_without_wall_ms(path: Path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()


def cell_digest(variant: str, representation: str, workdir: Path) -> str:
    """Train, evaluate and trace one cell under ``workdir``; the sha256 of
    what they wrote."""
    out = workdir / variant / representation
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    cell = ("--config", str(config), "--variant", variant, "--representation", representation)
    run_cli("train", *cell, "--out", str(out / "run"))
    checkpoint = out / "run" / "seed_0" / "checkpoints" / "final"
    run_cli("evaluate", *cell, "--checkpoint", str(checkpoint),
            "--episodes", str(EVAL_EPISODES), "--out", str(out / "evaluate.csv"))
    run_cli("trace", *cell, "--checkpoint", str(checkpoint), "--out", str(out / "trace.csv"))
    parts = [
        ("metrics.csv", csv_without_wall_ms(out / "run" / "seed_0" / "metrics.csv")),
        ("manifest.json", (checkpoint / "manifest.json").read_bytes()),
        ("params.bin", (checkpoint / "params.bin").read_bytes()),
        ("evaluate.csv", csv_without_wall_ms(out / "evaluate.csv")),
        ("trace.csv", (out / "trace.csv").read_bytes()),
    ]
    digest = hashlib.sha256()
    for name, data in parts:
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for variant in MODEL_VARIANTS:
            for representation in REPRESENTATIONS:
                digest = cell_digest(variant, representation, Path(workdir))
                print(f"{variant}/{representation}", digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
