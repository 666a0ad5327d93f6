"""FIFO experience replay in preallocated ring arrays, with seeded uniform
sampling.  Each state is stored once: a transition's ``s_next`` is the next
transition's ``s``, as in Dopamine's circular replay (Castro et al.,
arXiv:1812.06110).  Occupancy grids are stored as their occupied cells."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ramplab.representation import StateBatch, StateSnapshot


@dataclass
class Batch:
    """Stacked transitions: the states at both ends, the per-CAV action
    indices actually taken (filler for CAVs already inactive), the shared
    reward and whether the step ended the episode.  On a terminal row
    ``s_next`` is the terminal state, as stored."""

    s: StateBatch
    actions: np.ndarray    # (B, m) int64
    reward: np.ndarray     # (B,) float64
    s_next: StateBatch
    done: np.ndarray       # (B,) bool


class ReplayBuffer:
    """Ring arrays sized for ``capacity`` transitions; at capacity the oldest
    transition is overwritten first.

    Transition ``k`` (the k-th added) keeps its actions, reward and done in
    slot ``k mod capacity``.  States live in rings of ``capacity + 1`` slots:
    transition k's ``s`` in slot ``k mod (capacity + 1)`` and its ``s_next``
    in the slot after it, which is the next transition's ``s``.  An
    :meth:`add` whose ``s`` is the previous ``s_next`` object (as
    ``trainer.rollout`` passes it) writes ``s_next`` only.  Any other ``s``
    (the first state of an episode, after a terminal ``s_next``) is written
    over the previous ``s_next``, which first moves to a side store keyed by
    its transition slot; an entry leaves the side store when its transition
    slot is overwritten.

    The first :meth:`add` lays the rings out: one per state field it holds
    (None fields get none), with that array's shape and dtype, except the
    grid ``sr``.  A grid is mostly empty, so its rings ``sr_cells`` and
    ``sr_values`` hold the flat indices and values of its cells whose bits
    are not all zero (so -0.0 is kept), K per state, padded with the index
    one past the grid.  Each vehicle paints at most one cell per grid row,
    so K starts at rows x vehicles; a state with more cells re-lays the two
    rings at its count.  :meth:`sample` scatters the cells back into zeros.
    The rings come from ``np.zeros``, so their pages are touched only as the
    buffer fills.
    """

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._adds = 0
        self._last_next: StateSnapshot | None = None
        self._side: dict[int, dict[str, np.ndarray]] = {}

    def _allocate(self, s: StateSnapshot, actions: np.ndarray) -> None:
        first = {f.name: np.asarray(getattr(s, f.name)) for f in fields(StateBatch)
                 if f.name != "sr" and getattr(s, f.name) is not None}
        self._states = {name: np.zeros((self.capacity + 1, *a.shape), dtype=a.dtype)
                        for name, a in first.items()}
        sr = np.asarray(s.sr)
        self._grid_shape = sr.shape
        self._grid_size = sr.size      # also the pad index, one past the grid
        self._states["sr_cells"] = np.zeros((self.capacity + 1, 0),
                                            dtype=np.min_scalar_type(self._grid_size))
        self._states["sr_values"] = np.zeros((self.capacity + 1, 0), dtype=sr.dtype)
        self._bits = np.dtype(f"u{sr.itemsize}")    # cells are picked by bit pattern
        self._widen(sr.shape[0] * len(s.mask))
        self._actions = np.zeros((self.capacity, *np.shape(actions)), dtype=np.int64)
        self._reward = np.zeros(self.capacity)
        self._done = np.zeros(self.capacity, dtype=bool)

    def _widen(self, k: int) -> None:
        """Re-lay the cell rings and side entries at ``k`` cells per state,
        copying only the slots written so far."""
        written = min(self._adds + 1, self.capacity + 1)
        for name, fill in (("sr_cells", self._grid_size), ("sr_values", 0)):
            old = self._states[name]
            ring = np.zeros((self.capacity + 1, k), dtype=old.dtype)
            ring[:written, :old.shape[1]] = old[:written]
            ring[:written, old.shape[1]:] = fill
            self._states[name] = ring
            for entry in self._side.values():
                entry[name] = np.pad(entry[name], (0, k - len(entry[name])),
                                     constant_values=fill)

    def __len__(self) -> int:
        return min(self._adds, self.capacity)

    def add(self, s: StateSnapshot, actions: np.ndarray, reward: float,
            s_next: StateSnapshot, done: bool) -> None:
        k = self._adds
        if not k:
            self._allocate(s, actions)
        slot = k % self.capacity
        self._side.pop(slot, None)
        at = k % (self.capacity + 1)
        if s is not self._last_next:
            # the previous transition outlives this add unless capacity is 1
            if k and self.capacity > 1:
                self._side[(k - 1) % self.capacity] = {
                    name: ring[at].copy() for name, ring in self._states.items()}
            self._write(at, s)
        self._write((k + 1) % (self.capacity + 1), s_next)
        self._last_next = s_next
        self._actions[slot] = actions
        self._reward[slot] = reward
        self._done[slot] = done
        self._adds += 1

    def _write(self, at: int, snap: StateSnapshot) -> None:
        for name, ring in self._states.items():
            if name not in ("sr_cells", "sr_values"):
                ring[at] = getattr(snap, name)
        values = self._states["sr_values"]
        grid = np.asarray(snap.sr, dtype=values.dtype).reshape(self._grid_size)
        cells = grid.view(self._bits).nonzero()[0]
        n = len(cells)
        if n > values.shape[1]:
            self._widen(n)
            values = self._states["sr_values"]
        self._states["sr_cells"][at, :n] = cells
        self._states["sr_cells"][at, n:] = self._grid_size
        values[at, :n] = grid[cells]

    def sample(self, batch_size: int) -> Batch:
        """Uniform sample without replacement."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from buffer of {len(self)}")
        idx = self._rng.choice(len(self), size=batch_size, replace=False)
        # the s slot of the latest transition k with k mod capacity == idx:
        # k = idx + capacity q, and k mod (capacity + 1) = (idx - q) mod (capacity + 1)
        at = (idx - (self._adds - 1 - idx) // self.capacity) % (self.capacity + 1)
        # s rows then s_next rows; slot capacity + 1 wraps to 0, and take
        # gathers faster than ring[at]
        at = np.concatenate([at, at + 1])
        rows = {name: ring.take(at, axis=0, mode="wrap") for name, ring in self._states.items()}
        for row, slot in enumerate(idx.tolist(), start=batch_size):
            detached = self._side.get(slot)
            if detached is not None:
                for name, value in detached.items():
                    rows[name][row] = value
        # scatter each grid's cells into zeros through flat indices; the pad
        # index lands in a scratch column that is then dropped
        cells, values = rows.pop("sr_cells"), rows.pop("sr_values")
        width = self._grid_size + 1
        grids = np.zeros((len(cells), width), dtype=values.dtype)
        grids.reshape(-1)[cells + np.arange(0, grids.size, width)[:, None]] = values
        rows["sr"] = grids[:, :-1].reshape(-1, *self._grid_shape)
        return Batch(
            s=StateBatch(**{name: a[:batch_size] for name, a in rows.items()}),
            actions=self._actions[idx],
            reward=self._reward[idx],
            s_next=StateBatch(**{name: a[batch_size:] for name, a in rows.items()}),
            done=self._done[idx],
        )
