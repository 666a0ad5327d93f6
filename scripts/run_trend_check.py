#!/usr/bin/env python3
"""Scaled head-to-head of the graph-and-transformer agent vs the plain MLP
baseline on the full merge scenario.

Trains both variants for the same episode budget across several seeds with an
exploration schedule compressed to fit that budget, then compares mean return
over the final window of episodes.  The ordering is reported, not asserted:
the result lands in ``trend_report.json`` either way.  Each arm is one
training cell (``ramplab.runs.train_cell``) with its run directory under
``<out>/<variant>/``.
"""
import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ramplab.config import ConfigError, EpsilonConfig, ExperimentConfig, TrainingConfig
from ramplab.runs import keep_freed_heap, train_cell

ARMS = ("gitsr", "madqn")


def scaled_config(variant: str, episodes: int) -> ExperimentConfig:
    # schedule compressed for a short budget: exploration must finish well
    # before the final scoring window (early episodes run ~40 steps)
    training = dataclasses.replace(
        TrainingConfig(),
        episodes=episodes,
        warmup_steps=2_000,
        lr=2e-4,
        epsilon=EpsilonConfig(start=0.99, end=0.05, decay_steps=8_000),
        checkpoint_interval=max(episodes, 1_000),
    )
    return ExperimentConfig(training=training, model_variant=variant)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--window", type=int, default=50,
                        help="final episodes averaged per run")
    parser.add_argument("--out", default="runs/trend")
    args = parser.parse_args(argv)
    keep_freed_heap()

    out_dir = Path(args.out)
    cfgs = [dataclasses.replace(scaled_config(variant, args.episodes), seeds=args.seeds,
                                output_dir=str(out_dir / variant)) for variant in ARMS]
    try:
        if args.window < 1:
            raise ConfigError(f"window must be >= 1, got {args.window}")
        for cfg in cfgs:
            cfg.validate()
    except ConfigError as exc:
        # the CLI's report of a bad config, before anything is written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arms: dict[str, dict] = {}
    for variant, cfg in zip(ARMS, cfgs):
        per_seed = {
            str(seed): float(np.mean([m.return_total for m in rows[-args.window:]]))
            for seed, rows in train_cell(cfg, cfg.output_dir).items()
        }
        arms[variant] = {
            "per_seed": per_seed,
            "mean": float(np.mean(list(per_seed.values()))),
        }
    report = {
        "episodes": args.episodes,
        "window": args.window,
        "seeds": args.seeds,
        "arms": arms,
        "ordering_holds": bool(arms["gitsr"]["mean"] >= arms["madqn"]["mean"]),
    }
    (out_dir / "trend_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
