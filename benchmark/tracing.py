"""Spans around the layer boundaries of ramplab, recorded from outside.

The program carries no tracing code. :func:`patch` swaps a public function or
method of a ``ramplab`` module for a wrapper, also where another ramplab
module imported the function by name, and :class:`Spans` records one span per
wrapped call: name, start, end and the id of the enclosing span. Spans stay
in memory until the run ends. A span is named after the module that defines
the wrapped function and the function itself (``simulation.step``,
``network.q_values``, ``optim.step`` for ``Adam.step``).
"""
from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

# The layer boundaries the traced run wraps, as "module:attribute path".
TRACED = (
    "ramplab.trainer:Trainer.run_episode",
    "ramplab.trainer:evaluate_policy",
    "ramplab.trainer:train_on_batch",
    "ramplab.trainer:td_targets",
    "ramplab.trainer:select_actions",
    "ramplab.trainer:update_target",
    "ramplab.network:QNetwork.q_values",
    "ramplab.network:GitsrNetwork.forward_batch",
    "ramplab.network:TransformerOnlyNetwork.forward_batch",
    "ramplab.network:BaselineNetwork.forward_batch",
    "ramplab.autodiff:backward",
    "ramplab.optim:Adam.step",
    "ramplab.optim:clip_global_grad_norm",
    "ramplab.replay:ReplayBuffer.add",
    "ramplab.replay:ReplayBuffer.sample",
    "ramplab.representation:build_state",
    "ramplab.simulation:step",
    "ramplab.simulation:reset",
    "ramplab.rewards:compute_reward",
)


def span_name(target: str) -> str:
    module, _, path = target.partition(":")
    return f"{module.rpartition('.')[2]}.{path.rpartition('.')[2]}"


def patch(target: str, make_wrapper) -> None:
    """Replace ``target`` ("ramplab.module:name" or "ramplab.module:Class.name")
    with ``make_wrapper(original)``. A module-level function is also replaced
    in every other loaded ramplab module that bound it by name."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)
    if outer:
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ramplab") and mod is not owner:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


def before(hook):
    """Wrapper factory that calls ``hook()`` before each call."""
    def make(fn):
        def wrapper(*args, **kwargs):
            hook()
            return fn(*args, **kwargs)
        return wrapper
    return make


def after(hook):
    """Wrapper factory that calls ``hook(args, result)`` after each call."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result
        return wrapper
    return make


class Spans:
    """In-memory span log; ids are list positions, parent -1 for a root."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    def current(self) -> str | None:
        return self.names[self._open[-1]] if self._open else None

    def wrap(self, target: str) -> None:
        name = span_name(target)
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open)
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = len(names)
                names.append(name)
                parents.append(open_[-1] if open_ else -1)
                ends.append(0.0)
                open_.append(sid)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    open_.pop()
            return wrapper

        patch(target, make)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "parent", "start_s", "end_s"))
            for sid, row in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                out.writerow((sid, *row))


class SpanTable:
    """The spans that lie wholly inside the measured window [t0, t1], with
    self time = duration minus the time covered by direct children."""

    def __init__(self, spans: Spans, t0: float, t1: float):
        starts = np.asarray(spans.starts, dtype=float)
        ends = np.asarray(spans.ends, dtype=float)
        inside = (starts >= t0) & (ends <= t1)
        parents = np.asarray(spans.parents, dtype=np.intp)
        dur = ends - starts
        has_parent = inside & (parents >= 0)
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        keep = np.flatnonzero(inside)
        names = np.asarray(spans.names, dtype=object)
        self.wall = t1 - t0
        self.name = names[keep]
        self.parent = np.array([names[p] if p >= 0 else "" for p in parents[keep]],
                               dtype=object)
        self.module = np.array([n.partition(".")[0] for n in self.name], dtype=object)
        self.dur = dur[keep]
        self.self_time = dur[keep] - covered[keep]

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        sel = self.name == name
        if parent is not None:
            sel &= self.parent == parent
        return self.dur[sel]

    def self_times(self, name: str) -> np.ndarray:
        return self.self_time[self.name == name]

    def module_self(self, module: str) -> float:
        return float(self.self_time[self.module == module].sum())
