"""Command-line front end: train, evaluate, ablate, trace.

All subcommands validate configuration fully before touching the filesystem,
so a bad invocation exits (code 2) without partial outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import sys
import traceback
import uuid
from pathlib import Path

from ramplab.config import (
    MODEL_VARIANTS,
    REPRESENTATIONS,
    ConfigError,
    ExperimentConfig,
    load_experiment_config,
)
from ramplab.network import CheckpointError, TrainingError, network_from_checkpoint, network_meta
from ramplab.representation import feature_width, grid_width
from ramplab.runs import (
    SUMMARY_METRICS,
    SUMMARY_WINDOW,
    MetricsWriter,
    keep_freed_heap,
    metric_value,
    summarize_final_window,
    train_cell,
    write_json,
    write_run_info,
)
from ramplab.simulation import TRACE_FIELDS, reset, trace_rows
from ramplab.trainer import (
    METRICS_COLUMNS,
    evaluate_policy,
    greedy_actions,
    metrics_csv_row,
    rollout,
)

TRACE_COLUMNS = TRACE_FIELDS + ("action", "r_speed", "r_collision", "r_intention", "r_total")


def _load_config(args, apply_episodes: bool = True) -> ExperimentConfig:
    """Load the experiment config and fold in CLI overrides.

    ``apply_episodes`` is off for evaluate, where --episodes counts
    rollouts rather than overriding the training schedule.
    """
    cfg = load_experiment_config(args.config)
    updates = {}
    if getattr(args, "variant", None):
        updates["model_variant"] = args.variant
    if getattr(args, "representation", None):
        updates["representation"] = args.representation
    if getattr(args, "out", None):
        updates["output_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    if apply_episodes and getattr(args, "episodes", None) is not None:
        cfg = dataclasses.replace(
            cfg, training=dataclasses.replace(cfg.training, episodes=args.episodes)
        )
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seeds=[args.seed])
    cfg.validate()
    return cfg


def _check_net_matches(meta: dict, cfg: ExperimentConfig) -> None:
    widths = grid_width(cfg.scenario, cfg.representation), feature_width(cfg.scenario)
    wanted = network_meta(cfg.model_variant, cfg.representation, *widths, cfg.network)
    problems = list(_meta_diff(meta, wanted))
    if problems:
        raise CheckpointError("checkpoint does not fit config: " + "; ".join(problems))


def _meta_diff(saved: dict, wanted: dict, prefix: str = ""):
    """``<key> <saved> vs config <wanted>`` for each leaf ``saved`` differs in."""
    for key, value in wanted.items():
        if isinstance(value, dict):
            yield from _meta_diff(saved[key], value, f"{prefix}{key}.")
        elif saved[key] != value:
            yield f"{prefix}{key} {saved[key]!r} vs config {value!r}"


@contextlib.contextmanager
def _output_file(path: Path):
    """A text file open for writing that replaces ``path`` only if the block
    completes.  It is a sibling temporary file, opened before the block runs,
    so an output that cannot be written fails before any work is done, and a
    block that fails leaves nothing behind and any file at ``path`` as it was."""
    if path.is_dir():
        raise IsADirectoryError(f"output file {path} is a directory")
    staging = path.with_name(f".{path.name}.{uuid.uuid4().hex}")
    fh = open(staging, "w", newline="")
    try:
        with fh:
            yield fh
        staging.replace(path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_cell(cfg, cfg.output_dir)
    summary = json.loads(Path(cfg.output_dir, "summary.json").read_text())
    for name, stats in summary["metrics"].items():
        print(f"{name}: {stats['mean']:.4f} +- {stats['std']:.4f} "
              f"(final {summary['window_episodes']} episodes)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args, apply_episodes=False)
    n_episodes = args.episodes if args.episodes is not None else 10
    if n_episodes < 0:
        raise ConfigError(f"--episodes must be non-negative, got {n_episodes}")
    net = network_from_checkpoint(args.checkpoint)
    _check_net_matches(net.meta(), cfg)
    seed = args.seed if args.seed is not None else 0
    with _output_file(Path(args.out or "evaluation.csv")) as fh:
        writer = MetricsWriter(fh)
        rows = evaluate_policy(net, cfg, n_episodes, seed)
        for m in rows:
            writer.write(m)
    aggregate = {"episodes": n_episodes}
    if rows:
        for name in SUMMARY_METRICS:
            aggregate[f"{name}_mean"] = sum(metric_value(r, name) for r in rows) / len(rows)
    print(json.dumps(aggregate))
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", dataclasses.asdict(cfg))
    write_run_info(out_dir, dataclasses.asdict(cfg), cfg.seeds)
    window = min(SUMMARY_WINDOW, cfg.training.episodes)
    table: dict = {}
    failures: dict = {}
    columns = ("row_type", "representation") + METRICS_COLUMNS
    with open(out_dir / "combined.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, restval="")
        writer.writeheader()
        for variant in MODEL_VARIANTS:
            for representation in REPRESENTATIONS:
                cell = f"{variant}/{representation}"
                cell_cfg = dataclasses.replace(
                    cfg, model_variant=variant, representation=representation,
                    output_dir=str(out_dir / variant / representation),
                )
                try:
                    per_seed = train_cell(cell_cfg, cell_cfg.output_dir)
                except Exception as exc:  # cell isolation: keep the grid going
                    failures[cell] = f"{type(exc).__name__}: {exc}"
                    cell_dir = Path(cell_cfg.output_dir)
                    cell_dir.mkdir(parents=True, exist_ok=True)
                    (cell_dir / "error.txt").write_text(traceback.format_exc())
                    print(f"ablation cell {cell} failed: {failures[cell]}", file=sys.stderr)
                    continue
                for rows in per_seed.values():
                    for m in rows:
                        writer.writerow(dict(zip(
                            columns, ["episode", representation, *metrics_csv_row(m)])))
                summary = summarize_final_window(per_seed, window)
                table[cell] = {name: stats["mean"] for name, stats in summary["metrics"].items()}
                writer.writerow({"row_type": "aggregate", "representation": representation,
                                 "variant": variant,
                                 **{name: repr(v) for name, v in table[cell].items()}})
                fh.flush()
    report = {"window_episodes": window, "cells": table, "failures": failures}
    write_json(out_dir / "ablation_summary.json", report)
    print(json.dumps(report["cells"], indent=2))
    return 0 if not failures else 1


def cmd_trace(args) -> int:
    cfg = _load_config(args)
    net = network_from_checkpoint(args.checkpoint)
    _check_net_matches(net.meta(), cfg)
    seed = args.seed if args.seed is not None else 0

    world = reset(cfg.scenario, seed)
    all_rows: list[dict] = []
    for row in trace_rows(world):
        all_rows.append({**row, "action": "", "r_speed": "",
                         "r_collision": "", "r_intention": "", "r_total": ""})

    def record(s, actions, reward, s_next, done) -> None:
        acted = {vid: int(actions[vid]) for vid in range(s.n_cavs) if s.alive[vid]}
        for i, row in enumerate(trace_rows(world)):
            # reward cells appear once per step, on its first row, so the
            # r_total column sums to the episode return
            all_rows.append({
                **row,
                "action": acted.get(row["id"], ""),
                "r_speed": repr(reward.speed) if i == 0 else "",
                "r_collision": repr(reward.collision) if i == 0 else "",
                "r_intention": repr(reward.intention) if i == 0 else "",
                "r_total": repr(reward.total) if i == 0 else "",
            })

    out_path = Path(args.out or "trace.csv")
    with _output_file(out_path) as fh:
        return_total, *_ = rollout(world, cfg, net, functools.partial(greedy_actions, net), record)
        writer = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        writer.writeheader()
        writer.writerows(all_rows)
    print(json.dumps({"steps": world.step_index, "return": return_total,
                      "trace": str(out_path)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramplab",
        description="Cooperative off-ramp decision-making: training and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, episodes=True, cell=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint directory")
        p.add_argument("--seed", type=int, help="override: run only this seed")
        if episodes:
            p.add_argument("--episodes", type=int, help="override episode count")
        p.add_argument("--out", help="output directory or file")
        if cell:
            p.add_argument("--variant", choices=MODEL_VARIANTS, help="override model variant")
            p.add_argument("--representation", choices=REPRESENTATIONS,
                           help="override grid representation")

    p_train = sub.add_parser("train", help="train the configured variant over all seeds")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="greedy rollouts from a checkpoint")
    common(p_eval, checkpoint=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_ablate = sub.add_parser("ablate", help="run the variant x representation grid")
    common(p_ablate, cell=False)   # ablate runs every cell
    p_ablate.set_defaults(func=cmd_ablate)

    p_trace = sub.add_parser("trace", help="dump one greedy episode as CSV")
    common(p_trace, checkpoint=True, episodes=False)
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_heap()
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
