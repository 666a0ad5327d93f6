"""Run-directory bookkeeping: metrics CSVs, aggregate summaries, provenance.

A training run directory holds a copy of its config, a provenance record,
one metrics CSV per seed, and checkpoints.  The provenance record names what
a bit-for-bit rerun must match: the package content hash, seeds, Python and
numpy, and the BLAS library with its thread-count variables and the thread
count it actually runs with, since BLAS builds and thread counts may sum
matrix products in different orders.
Floats in CSVs are written with ``repr`` so parsing them back is exact.
"""
from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

import ramplab
from ramplab.trainer import METRICS_COLUMNS, EpisodeMetrics, metrics_csv_row

SUMMARY_METRICS = ("return", "success_rate", "collisions", "mean_speed")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Thread-count getters of OpenBLAS builds: plain, 64-bit interface, and the
# prefixed builds that numpy wheels bundle.
OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads")


def package_content_hash() -> str:
    """SHA-256 over the package's source files (names + bytes, sorted)."""
    pkg_dir = Path(ramplab.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class MetricsWriter:
    """Streaming per-episode CSV writer, flushed after every row."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(METRICS_COLUMNS)
        self._fh.flush()

    def write(self, metrics: EpisodeMetrics) -> None:
        self._writer.writerow(metrics_csv_row(metrics))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_metrics_csv(path: str | Path, rows: list[EpisodeMetrics]) -> None:
    with MetricsWriter(path) as writer:
        for row in rows:
            writer.write(row)


def _metric_value(m: EpisodeMetrics, name: str) -> float:
    return {
        "return": m.return_total,
        "success_rate": m.success_rate,
        "collisions": float(m.collisions),
        "mean_speed": m.mean_speed,
    }[name]


def summarize_final_window(
    per_seed: dict[int, list[EpisodeMetrics]], window: int
) -> dict:
    """Mean and std (across seeds) of each metric's per-seed mean over the
    final ``window`` episodes."""
    summary: dict = {
        "window_episodes": window,
        "seeds": sorted(per_seed),
        "metrics": {},
    }
    for name in SUMMARY_METRICS:
        per_seed_mean = {}
        for seed, rows in per_seed.items():
            tail = rows[-window:]
            per_seed_mean[seed] = float(np.mean([_metric_value(m, name) for m in tail]))
        values = [per_seed_mean[s] for s in sorted(per_seed)]
        summary["metrics"][name] = {
            "per_seed_mean": {str(s): per_seed_mean[s] for s in sorted(per_seed)},
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
        }
    return summary


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs with, asked from the library itself
    (unset thread variables leave it at one per core); None when no OpenBLAS
    with a known getter is mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def write_run_info(directory: str | Path, cfg_dict: dict, seeds: list[int]) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "package": "ramplab",
        "version": ramplab.__version__,
        "package_sha256": package_content_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seeds": seeds,
        "config": cfg_dict,
    }
    Path(directory, "run_info.json").write_text(json.dumps(info, indent=2) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
