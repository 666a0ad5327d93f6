"""FIFO experience replay in preallocated ring arrays, with seeded uniform
sampling."""
from __future__ import annotations

from dataclasses import dataclass

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


# Ring dtypes of the state fields other than float32; adjacency is 0/1.
RING_DTYPES = {"cav_ids": np.intp, "alive": bool, "adjacency": bool}


class ReplayBuffer:
    """Ring arrays sized for ``capacity`` transitions; at capacity the oldest
    transition is overwritten first.

    ``shapes`` gives the state fields to keep and their per-state shapes (see
    :func:`~ramplab.representation.snapshot_shapes`); each has one ring for s
    and one for s_next.  The rings come from ``np.zeros``, so their pages are
    touched only as the buffer fills.
    """

    def __init__(self, capacity: int, seed: int, shapes: dict[str, tuple[int, ...]]):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._adds = 0

        def rings() -> dict[str, np.ndarray]:
            return {name: np.zeros((capacity, *shape), dtype=RING_DTYPES.get(name, np.float32))
                    for name, shape in shapes.items()}

        self._s, self._s_next = rings(), rings()
        self._actions = np.zeros((capacity, *shapes["alive"]), dtype=np.int64)
        self._reward = np.zeros(capacity)
        self._done = np.zeros(capacity, dtype=bool)

    def __len__(self) -> int:
        return min(self._adds, self.capacity)

    def add(self, s: StateSnapshot, actions: np.ndarray, reward: float,
            s_next: StateSnapshot, done: bool) -> None:
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
