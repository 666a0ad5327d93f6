"""FIFO experience replay in preallocated ring arrays, with seeded uniform
sampling.  Each state is stored once: a transition's ``s_next`` is the next
transition's ``s``, as in Dopamine's circular replay (Castro et al.,
arXiv:1812.06110)."""
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
    slot ``k mod capacity``.  States live in one ring per state field with
    ``capacity + 1`` slots: transition k's ``s`` in slot ``k mod
    (capacity + 1)`` and its ``s_next`` in the slot after it, which is the
    next transition's ``s``.  An :meth:`add` whose ``s`` is the previous
    ``s_next`` object (as ``trainer.rollout`` passes it) writes ``s_next``
    only.  Any other ``s`` (the first state of an episode, after a terminal
    ``s_next``) is written over the previous ``s_next``, which first moves to
    a side store keyed by its transition slot; an entry leaves the side
    store when its transition slot is overwritten.

    The first :meth:`add` lays the rings out: one per state field it holds
    (None fields get none), with that array's shape and dtype.  The rings
    come from ``np.zeros``, so their pages are touched only as the buffer
    fills.
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
                 if getattr(s, f.name) is not None}
        self._states = {name: np.zeros((self.capacity + 1, *a.shape), dtype=a.dtype)
                        for name, a in first.items()}
        self._actions = np.zeros((self.capacity, *np.shape(actions)), dtype=np.int64)
        self._reward = np.zeros(self.capacity)
        self._done = np.zeros(self.capacity, dtype=bool)

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
            ring[at] = getattr(snap, name)

    def sample(self, batch_size: int) -> Batch:
        """Uniform sample without replacement."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from buffer of {len(self)}")
        idx = self._rng.choice(len(self), size=batch_size, replace=False)
        # the s slot of the latest transition k with k mod capacity == idx:
        # k = idx + capacity q, and k mod (capacity + 1) = (idx - q) mod (capacity + 1)
        at = (idx - (self._adds - 1 - idx) // self.capacity) % (self.capacity + 1)
        s_next = self._states_at(at + 1)
        for row, slot in enumerate(idx.tolist()):
            detached = self._side.get(slot)
            if detached is not None:
                for name, value in detached.items():
                    getattr(s_next, name)[row] = value
        return Batch(
            s=self._states_at(at),
            actions=self._actions[idx],
            reward=self._reward[idx],
            s_next=s_next,
            done=self._done[idx],
        )

    def _states_at(self, at: np.ndarray) -> StateBatch:
        # slot capacity + 1 wraps to 0; take gathers faster than ring[at]
        return StateBatch(**{name: ring.take(at, axis=0, mode="wrap")
                             for name, ring in self._states.items()})
