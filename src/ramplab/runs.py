"""Training cells and their run directories.

:func:`train_cell` trains one config over its seeds for ``ramplab train``,
for each ``ramplab ablate`` grid cell and for each trend-script arm.  Its run
directory holds ``config.json``, a provenance record (``run_info.json``),
``seed_<s>/metrics.csv``, ``seed_<s>/checkpoints/`` and ``summary.json``,
the final-window means across seeds.  The provenance record names what
a bit-for-bit rerun must match: the package content hash, seeds, Python and
numpy, and the BLAS library with its thread-count variables and the thread
count it actually runs with, since BLAS builds and thread counts may sum
matrix products in different orders.  It also records the allocator
settings :func:`keep_freed_heap` applied.
Floats in CSVs are written with ``repr`` so parsing them back is exact.
"""
from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import ramplab
from ramplab.config import ExperimentConfig
from ramplab.network import save_checkpoint
from ramplab.trainer import METRICS_COLUMNS, EpisodeMetrics, Trainer, metrics_csv_row

SUMMARY_METRICS = ("return", "success_rate", "collisions", "mean_speed")
# summary.json averages each seed's last min(SUMMARY_WINDOW, episodes) episodes.
SUMMARY_WINDOW = 100
# Episodes between progress lines, and the window of their mean return.
PROGRESS_EVERY = 25
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Thread-count getters of OpenBLAS builds: plain, 64-bit interface, and the
# prefixed builds that numpy wheels bundle.
OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads")
# glibc's mallopt settings (malloc.h name, parameter number, value) that
# `ramplab` runs apply: no block under 32 MiB is mmapped, and the heap is
# trimmed only past 1 GiB of free top.  At glibc's defaults the learner's
# temporaries go back to the kernel and are faulted in again on the next
# step.  benchmark/run.py gives its children the same values through their
# MALLOC_ environment.
HEAP_SETTINGS = (("M_MMAP_THRESHOLD", -3, 32 << 20), ("M_TRIM_THRESHOLD", -1, 1 << 30))
# What keep_freed_heap applied in this process, for run_info.json.
heap_settings_applied: dict[str, int] = {}


def package_content_hash() -> str:
    """SHA-256 over the package's source files (names + bytes, sorted)."""
    pkg_dir = Path(ramplab.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class MetricsWriter:
    """Streaming per-episode CSV writer on an open file, flushed after every row."""

    def __init__(self, fh):
        self._fh = fh
        self._writer = csv.writer(fh)
        self._writer.writerow(METRICS_COLUMNS)
        fh.flush()

    def write(self, metrics: EpisodeMetrics) -> None:
        self._writer.writerow(metrics_csv_row(metrics))
        self._fh.flush()


def metric_value(m: EpisodeMetrics, name: str) -> float:
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
            per_seed_mean[seed] = float(np.mean([metric_value(m, name) for m in tail]))
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


def keep_freed_heap() -> dict[str, int]:
    """Apply :data:`HEAP_SETTINGS` through libc's ``mallopt`` and return
    those it accepted; nothing is applied where libc has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return {}
    for name, param, value in HEAP_SETTINGS:
        if mallopt(param, value) == 1:
            heap_settings_applied[name] = value
    return dict(heap_settings_applied)


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
        "malloc": dict(heap_settings_applied),
        "seeds": seeds,
        "config": cfg_dict,
    }
    Path(directory, "run_info.json").write_text(json.dumps(info, indent=2) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def train_cell(cfg: ExperimentConfig, out_dir: str | Path) -> dict[int, list[EpisodeMetrics]]:
    """Train ``cfg`` once per seed in ``cfg.seeds`` into the run directory
    ``out_dir``; returns each seed's episode metrics.  A config that fails
    validation raises before anything is written."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", dataclasses.asdict(cfg))
    write_run_info(out_dir, dataclasses.asdict(cfg), cfg.seeds)
    episodes = cfg.training.episodes
    per_seed = {}
    for seed in cfg.seeds:
        print(f"training seed {seed} ({cfg.model_variant}, {cfg.representation})", flush=True)
        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        ckpt_dir = seed_dir / "checkpoints"
        trainer = Trainer(cfg, seed)
        rows = per_seed[seed] = []
        t0 = time.perf_counter()
        with open(seed_dir / "metrics.csv", "w", newline="") as fh:
            writer = MetricsWriter(fh)

            def on_episode(m: EpisodeMetrics) -> None:
                writer.write(m)
                rows.append(m)
                if m.episode % PROGRESS_EVERY == 0:
                    recent = float(np.mean([r.return_total for r in rows[-PROGRESS_EVERY:]]))
                    print(f"  seed {seed} episode {m.episode}/{episodes}: mean return "
                          f"(last {PROGRESS_EVERY}) {recent:.1f}, eps {m.epsilon:.3f}, "
                          f"{time.perf_counter() - t0:.0f}s", flush=True)

            trainer.train(on_episode=on_episode,
                          on_checkpoint=lambda net, tag: save_checkpoint(ckpt_dir / tag, net))
    window = min(SUMMARY_WINDOW, episodes)
    write_json(out_dir / "summary.json", summarize_final_window(per_seed, window))
    return per_seed
