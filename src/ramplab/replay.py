"""FIFO experience replay in preallocated ring arrays, with seeded uniform
sampling.  Each state is stored once: a transition's ``s_next`` is the next
transition's ``s``, as in Dopamine's circular replay (Castro et al.,
arXiv:1812.06110).  Each ring holds its field at the narrowest exact width:
occupancy grids as their occupied cells, bools packed eight to a byte, and
action indices in the smallest unsigned type that holds them."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ramplab.representation import StateBatch, StateSnapshot
from ramplab.simulation import N_ACTIONS


@dataclass
class Batch:
    """Stacked transitions: the states at both ends, the per-CAV action
    indices actually taken (filler for CAVs already inactive), the shared
    reward and whether the step ended the episode.  On a terminal row
    ``s_next`` is unspecified: a DQN target does not bootstrap there, and
    the next episode's first state may have overwritten it.  The replay
    hands every field back in the dtype and shape the network observed,
    whatever width its ring stores it in."""

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
    must follow a terminal transition (or be the first state added); it is
    written over that transition's ``s_next``.

    The first :meth:`add` lays the rings out: one per state field it holds
    (None fields get none), with that array's shape and dtype, except:

    * bool fields (``adjacency``, ``alive``) are ``np.packbits`` rows;
    * actions take the smallest unsigned type that holds an index below
      ``N_ACTIONS`` (uint8);
    * the grid ``sr`` is mostly empty, so its rings ``sr_cells`` and
      ``sr_values`` hold the flat indices and values of its cells whose
      bits are not all zero (so -0.0 is kept), K per state, padded with
      the index one past the grid.  Each vehicle paints at most one cell
      per grid row, so K is rows x vehicles.

    :meth:`sample` unpacks, widens and scatters them back, so a batch holds
    each field as observed.  The rings come from ``np.zeros``, so their
    pages are touched only as the buffer fills.
    """

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._adds = 0
        self._last_next: StateSnapshot | None = None

    def _allocate(self, s: StateSnapshot, actions: np.ndarray) -> None:
        first = {f.name: np.asarray(getattr(s, f.name)) for f in fields(StateBatch)
                 if f.name != "sr" and getattr(s, f.name) is not None}
        self._observed = {name: (a.shape, a.dtype) for name, a in first.items()}
        self._states = {}
        for name, a in first.items():
            if a.dtype == bool:
                slot, dtype = np.packbits(a).shape, np.uint8
            else:
                slot, dtype = a.shape, a.dtype
            self._states[name] = np.zeros((self.capacity + 1, *slot), dtype=dtype)
        sr = np.asarray(s.sr)
        self._grid_shape = sr.shape
        self._grid_size = sr.size      # also the pad index, one past the grid
        k = sr.shape[0] * len(s.mask)
        self._states["sr_cells"] = np.zeros((self.capacity + 1, k),
                                            dtype=np.min_scalar_type(self._grid_size))
        self._states["sr_values"] = np.zeros((self.capacity + 1, k), dtype=sr.dtype)
        self._bits = np.dtype(f"u{sr.itemsize}")    # cells are picked by bit pattern
        self._actions = np.zeros((self.capacity, *np.shape(actions)),
                                 dtype=np.min_scalar_type(N_ACTIONS - 1))
        self._reward = np.zeros(self.capacity)
        self._done = np.zeros(self.capacity, dtype=bool)

    def __len__(self) -> int:
        return min(self._adds, self.capacity)

    def add(self, s: StateSnapshot, actions: np.ndarray, reward: float,
            s_next: StateSnapshot, done: bool) -> None:
        """Store one transition.  Raises ``ValueError``, with nothing
        written, if ``s`` is neither the previous ``s_next`` object nor the
        first state after a terminal transition, if an action lies outside
        [0, N_ACTIONS), or if a grid has more than K occupied cells."""
        k = self._adds
        fresh = s is not self._last_next
        if fresh and k and not self._done[(k - 1) % self.capacity]:
            raise ValueError("s must be the previous s_next unless that transition was terminal")
        if not all(0 <= a < N_ACTIONS for a in np.ravel(actions).tolist()):
            raise ValueError(f"actions must lie in [0, {N_ACTIONS}), got {actions}")
        if not k:
            self._allocate(s, actions)
        at = k % (self.capacity + 1)
        writes = [(at, s)] if fresh else []
        writes.append(((at + 1) % (self.capacity + 1), s_next))
        cells = [self._cells(snap) for _, snap in writes]     # may raise: write nothing yet
        for (to, snap), (grid, occupied) in zip(writes, cells):
            self._write(to, snap, grid, occupied)
        self._last_next = s_next
        slot = k % self.capacity
        self._actions[slot] = actions
        self._reward[slot] = reward
        self._done[slot] = done
        self._adds += 1

    def _cells(self, snap: StateSnapshot) -> tuple[np.ndarray, np.ndarray]:
        """The flat grid of ``snap`` and the indices of its occupied cells."""
        grid = np.asarray(snap.sr, dtype=self._states["sr_values"].dtype).reshape(self._grid_size)
        cells = grid.view(self._bits).nonzero()[0]
        k = self._states["sr_cells"].shape[1]
        if len(cells) > k:
            raise ValueError(f"grid has {len(cells)} occupied cells, more than K = {k}")
        return grid, cells

    def _write(self, at: int, snap: StateSnapshot, grid: np.ndarray, cells: np.ndarray) -> None:
        for name, (_, dtype) in self._observed.items():
            value = getattr(snap, name)
            self._states[name][at] = np.packbits(value) if dtype == bool else value
        n = len(cells)
        self._states["sr_cells"][at, :n] = cells
        self._states["sr_cells"][at, n:] = self._grid_size
        self._states["sr_values"][at, :n] = grid[cells]

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
        # scatter each grid's cells into zeros through flat indices; the pad
        # index lands in a scratch column that is then dropped
        cells, values = rows.pop("sr_cells"), rows.pop("sr_values")
        width = self._grid_size + 1
        grids = np.zeros((len(cells), width), dtype=values.dtype)
        grids.reshape(-1)[cells + np.arange(0, grids.size, width)[:, None]] = values
        rows["sr"] = grids[:, :-1].reshape(-1, *self._grid_shape)
        for name, (shape, dtype) in self._observed.items():
            if dtype == bool:
                bits = np.unpackbits(rows[name], axis=1, count=math.prod(shape))
                rows[name] = bits.view(bool).reshape(-1, *shape)
            else:
                rows[name] = rows[name].astype(dtype, copy=False)
        return Batch(
            s=StateBatch(**{name: a[:batch_size] for name, a in rows.items()}),
            actions=self._actions[idx].astype(np.int64),
            reward=self._reward[idx],
            s_next=StateBatch(**{name: a[batch_size:] for name, a in rows.items()}),
            done=self._done[idx],
        )
