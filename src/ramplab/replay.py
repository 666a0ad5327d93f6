"""FIFO experience replay in preallocated ring arrays, with seeded uniform
sampling."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ramplab.representation import StateBatch, StateSnapshot


@dataclass
class Batch:
    """Stacked transitions: the states at both ends, the per-CAV action
    indices actually taken (filler for CAVs already inactive), the shared
    reward and whether the step ended the episode."""

    s: StateBatch
    actions: np.ndarray    # (B, m) int64
    reward: np.ndarray     # (B,) float64
    s_next: StateBatch
    done: np.ndarray       # (B,) bool


class ReplayBuffer:
    """Ring arrays sized for ``capacity`` transitions; at capacity the oldest
    transition is overwritten first.

    The first :meth:`add` lays the rings out: one for s and one for s_next
    per state field it holds (None fields get none), each with that array's
    shape and dtype.  The rings come from ``np.zeros``, so their pages are
    touched only as the buffer fills.
    """

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._adds = 0

    def _allocate(self, s: StateSnapshot, actions: np.ndarray) -> None:
        first = {f.name: np.asarray(getattr(s, f.name)) for f in fields(StateBatch)
                 if getattr(s, f.name) is not None}
        self._s, self._s_next = ({name: np.zeros((self.capacity, *a.shape), dtype=a.dtype)
                                  for name, a in first.items()} for _ in range(2))
        self._actions = np.zeros((self.capacity, *np.shape(actions)), dtype=np.int64)
        self._reward = np.zeros(self.capacity)
        self._done = np.zeros(self.capacity, dtype=bool)

    def __len__(self) -> int:
        return min(self._adds, self.capacity)

    def add(self, s: StateSnapshot, actions: np.ndarray, reward: float,
            s_next: StateSnapshot, done: bool) -> None:
        if not self._adds:
            self._allocate(s, actions)
        slot = self._adds % self.capacity
        for rings, snap in ((self._s, s), (self._s_next, s_next)):
            for name, ring in rings.items():
                ring[slot] = getattr(snap, name)
        self._actions[slot] = actions
        self._reward[slot] = reward
        self._done[slot] = done
        self._adds += 1

    def sample(self, batch_size: int) -> Batch:
        """Uniform sample without replacement."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from buffer of {len(self)}")
        idx = self._rng.choice(len(self), size=batch_size, replace=False)
        return Batch(
            s=self._states(self._s, idx),
            actions=self._actions[idx],
            reward=self._reward[idx],
            s_next=self._states(self._s_next, idx),
            done=self._done[idx],
        )

    def _states(self, rings: dict[str, np.ndarray], idx: np.ndarray) -> StateBatch:
        return StateBatch(**{name: ring[idx] for name, ring in rings.items()})
