import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import scenario, small_experiment
from ramplab.config import MODEL_VARIANTS, REPRESENTATIONS, ExperimentConfig
from ramplab.network import build_network
from ramplab.replay import Batch, ReplayBuffer
from ramplab.representation import StateBatch, StateSnapshot, grid_rows, stack_states
from ramplab.simulation import ActionCommand, episode_done, reset, step
from ramplab.trainer import Trainer


def stub_snapshot(tag: int) -> StateSnapshot:
    # three vehicles: K = 2 grid rows x 3 = 6, room for the full 2 x 3 grid
    return StateSnapshot(
        sr=np.full((2, 3), tag, dtype=np.float32), features=None, adjacency=None,
        mask=np.array([1, 1, 0], dtype=np.float32), alive=np.array([True, True]),
    )


def stub_buffer(capacity: int, seed: int) -> ReplayBuffer:
    return ReplayBuffer(capacity, seed)


def add_episode(buf: ReplayBuffer, first: int, n: int, done: bool = False) -> None:
    """Transitions tag -> tag + 1 with reward tag, for tags first to
    first + n - 1, each s the previous s_next object; ``done`` ends the
    last one."""
    s = stub_snapshot(first)
    for tag in range(first, first + n):
        s_next = stub_snapshot(tag + 1)
        buf.add(s, np.array([4, 4]), float(tag), s_next, done and tag == first + n - 1)
        s = s_next


def test_grows_then_overwrites_oldest():
    buf = stub_buffer(capacity=3, seed=0)
    add_episode(buf, 0, 5)
    assert len(buf) == 3
    batch = buf.sample(3)
    assert set(batch.reward) == {2.0, 3.0, 4.0}
    # every field of a transition comes from the same slot
    np.testing.assert_array_equal(batch.s.sr[:, 0, 0], batch.reward)
    np.testing.assert_array_equal(batch.s_next.sr[:, 0, 0], batch.reward + 1)


def test_sample_without_replacement():
    buf = stub_buffer(capacity=10, seed=1)
    add_episode(buf, 0, 10)
    batch = buf.sample(10)
    assert len(set(batch.reward)) == 10


def test_sample_more_than_stored_raises():
    buf = stub_buffer(capacity=4, seed=2)
    add_episode(buf, 0, 1)
    with pytest.raises(ValueError):
        buf.sample(2)


def test_sampling_is_seed_deterministic():
    def draws(seed):
        buf = stub_buffer(capacity=50, seed=seed)
        add_episode(buf, 0, 50)
        return list(buf.sample(5).reward) + list(buf.sample(5).reward)

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)


def test_capacity_one_ring():
    buf = stub_buffer(capacity=1, seed=3)
    add_episode(buf, 0, 1, done=True)
    add_episode(buf, 9, 1)
    assert len(buf) == 1
    assert buf.sample(1).reward[0] == 9.0


@pytest.mark.parametrize("representation", ["scene_centric", "agent_centric"])
def test_sampled_states_equal_build_state_bit_for_bit(representation):
    """For every variant, the rings (grid cells, one scene grid per
    scene-centric state, bool adjacency) give back exactly what the network
    observed, and the grid rows it reads from them, including states with
    inactive CAVs, after the ring has wrapped over several episodes.  On a
    terminal row ``s_next`` is unspecified and not compared."""
    config = scenario(n_cav=3, n_hdv=4, max_steps=40)
    for variant in MODEL_VARIANTS:
        net = build_network(small_experiment(model_variant=variant, representation=representation,
                                             scenario=config), 0)
        rng = np.random.default_rng(0)
        stored = []
        for seed in range(6):
            world = reset(config, seed)
            snap = net.observe(world, config)
            while not episode_done(world, config):
                step(world, {vid: ActionCommand.from_index(int(rng.integers(9)))
                             for vid in world.active_cav_ids()}, config)
                snap_next = net.observe(world, config)
                stored.append((snap, snap_next, episode_done(world, config)))
                snap = snap_next
        capacity = 2 * len(stored) // 3
        buf = ReplayBuffer(capacity, 0)
        for tag, (snap, snap_next, done) in enumerate(stored):
            buf.add(snap, np.zeros(3, dtype=np.int64), float(tag), snap_next, done)
        kept = stored[-capacity:]
        alive = np.array([s.alive for s, _, _ in kept])
        assert alive.all(axis=1).any() and not alive.all()
        assert 1 < sum(done for _, _, done in kept) < capacity

        batch = buf.sample(capacity)
        for b, tag in enumerate(batch.reward):
            snap, snap_next, done = stored[int(tag)]
            ends = ((batch.s, snap),) if done else ((batch.s, snap), (batch.s_next, snap_next))
            for got, want in ends:
                for f in dataclasses.fields(StateBatch):
                    if getattr(want, f.name) is None:
                        assert getattr(got, f.name) is None, (variant, f.name)
                        continue
                    a, w = getattr(got, f.name)[b], np.asarray(getattr(want, f.name))
                    assert (a.dtype, a.shape, a.tobytes()) == (w.dtype, w.shape, w.tobytes()), \
                        (variant, f.name)
                rows = grid_rows(stack_states([want]))
                got_rows = grid_rows(got).reshape(len(got.sr), *rows.shape)
                assert got_rows[b].tobytes() == rows.tobytes()


class TwoRingReplay:
    """Reference: the layout the one-ring buffer replaced, which copies s and
    s_next of every transition into rings of their own."""

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._adds = 0

    def add(self, s, actions, reward, s_next, done) -> None:
        if not self._adds:
            first = {f.name: np.asarray(getattr(s, f.name)) for f in dataclasses.fields(StateBatch)
                     if getattr(s, f.name) is not None}
            self._s, self._s_next = ({name: np.zeros((self.capacity, *a.shape), dtype=a.dtype)
                                      for name, a in first.items()} for _ in range(2))
            self._actions = np.zeros((self.capacity, *np.shape(actions)), dtype=np.int64)
            self._reward = np.zeros(self.capacity)
            self._done = np.zeros(self.capacity, dtype=bool)
        slot = self._adds % self.capacity
        for rings, snap in ((self._s, s), (self._s_next, s_next)):
            for name, ring in rings.items():
                ring[slot] = getattr(snap, name)
        self._actions[slot] = actions
        self._reward[slot] = reward
        self._done[slot] = done
        self._adds += 1

    def sample(self, batch_size: int) -> Batch:
        idx = self._rng.choice(min(self._adds, self.capacity), size=batch_size, replace=False)
        return Batch(
            s=StateBatch(**{name: ring[idx] for name, ring in self._s.items()}),
            actions=self._actions[idx], reward=self._reward[idx],
            s_next=StateBatch(**{name: ring[idx] for name, ring in self._s_next.items()}),
            done=self._done[idx],
        )


def random_snapshot(rng: np.random.Generator) -> StateSnapshot:
    # grids of 0-6 cells, some -0.0, against K = 2 rows x 3 vehicles
    sr = rng.standard_normal((2, 3)) * rng.choice([0.0, -0.0, 1.0], size=(2, 3))
    return StateSnapshot(
        sr=sr.astype(np.float32),
        features=rng.standard_normal((3, 2)).astype(np.float32),
        adjacency=rng.random((3, 3)) < 0.5,
        mask=np.array([1, 1, 0], dtype=np.float32),
        alive=rng.random(2) < 0.5,
    )


def assert_batches_equal(got: Batch, want: Batch) -> None:
    """Byte for byte, except ``s_next`` on terminal rows, which is
    unspecified."""
    for name in ("actions", "reward", "done"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for end, rows in (("s", slice(None)), ("s_next", ~want.done)):
        for f in dataclasses.fields(StateBatch):
            a, b = getattr(getattr(got, end), f.name), getattr(getattr(want, end), f.name)
            if b is None:
                assert a is None, (end, f.name)
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (end, f.name)
            assert a[rows].tobytes() == b[rows].tobytes(), (end, f.name)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    ops=st.lists(st.tuples(st.sampled_from(["continue", "equal", "unrelated"]),
                           st.booleans(), st.integers(min_value=0, max_value=7)),
                 min_size=1, max_size=60),
)
def test_one_ring_batches_equal_the_two_ring_reference(capacity, seed, ops):
    """Random adds whose s continues the previous s_next, equals it in a new
    object, or is unrelated, with random done flags: every batch equals the
    two-ring reference's (terminal rows' s_next aside), and the RNG is
    consumed alike.  An s that is not the previous s_next object after a
    non-terminal transition is refused and leaves the buffer as it was."""
    rng = np.random.default_rng(seed)
    buf, ref = ReplayBuffer(capacity, seed), TwoRingReplay(capacity, seed)
    s_next, was_done = None, False
    for kind, done, n_sample in ops:
        if s_next is None or kind == "unrelated":
            s = random_snapshot(rng)
        elif kind == "equal":
            s = dataclasses.replace(s_next, **{
                name: np.array(getattr(s_next, name)) for name in ("sr", "features", "adjacency",
                                                                   "mask", "alive")})
        else:
            s = s_next
        new_next = random_snapshot(rng)
        actions = rng.integers(0, 9, size=2)
        reward = float(rng.standard_normal())
        if s_next is not None and s is not s_next and not was_done:
            with pytest.raises(ValueError, match="previous s_next"):
                buf.add(s, actions, reward, new_next, done)
        else:
            for b in (buf, ref):
                b.add(s, actions, reward, new_next, done)
            s_next, was_done = new_next, done
        if 0 < n_sample <= len(buf):
            assert_batches_equal(buf.sample(n_sample), ref.sample(n_sample))
    assert_batches_equal(buf.sample(len(buf)), ref.sample(len(buf)))
    assert buf._rng.bit_generator.state == ref._rng.bit_generator.state


def test_grids_with_signed_zeros_or_subnormals_sample_back_bit_for_bit():
    """Cells are picked by bit pattern, so -0.0 and subnormals come back as
    stored, up to a grid whose every cell is set (K = 6 for the stub);
    every batch equals the two-ring reference."""
    tiny = np.float32(1e-45)    # the smallest subnormal
    grids = [
        np.zeros((2, 3)),
        [[-0.0, 0, 0], [0, 0, 0]],
        [[tiny, -tiny, 0], [0, -0.0, 1]],
        [[0, 0, 2.5], [0, 0, 0]],
        [[0, -0.0, 0], [1e-40, 0, 0]],
        np.full((2, 3), -0.0),
        [[1, 2, 3], [4, -5, 6]],
        [[0, 0, 0], [0, 0, -tiny]],
    ]
    snaps = [dataclasses.replace(stub_snapshot(0), sr=np.array(g, dtype=np.float32))
             for g in grids]
    # (s, s_next) per add; an add is terminal when the next add's s is not
    # its s_next, and that s is then written over the terminal s_next
    adds = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 0), (2, 6), (6, 5), (0, 3)]
    buf, ref = ReplayBuffer(4, 5), TwoRingReplay(4, 5)
    for k, (i, j) in enumerate(adds):
        done = k + 1 < len(adds) and adds[k + 1][0] != j
        for b in (buf, ref):
            b.add(snaps[i], np.array([k, k]), float(k), snaps[j], done)
        assert_batches_equal(buf.sample(len(buf)), ref.sample(len(buf)))
    assert buf._states["sr_cells"].shape == (5, 6)


def buffer_contents(buf: ReplayBuffer) -> tuple:
    rings = [buf._states, {"actions": buf._actions, "reward": buf._reward, "done": buf._done}]
    return (buf._adds, id(buf._last_next), buf._rng.bit_generator.state,
            [(name, ring.tobytes()) for group in rings for name, ring in group.items()])


@pytest.mark.parametrize("case", ["s_next too dense", "fresh s too dense",
                                  "fresh s_next too dense", "s does not continue",
                                  "action below range", "action past range"])
def test_add_refuses_before_writing_anything(case):
    """A grid with more than K occupied cells, an s that is neither the
    previous s_next object nor the first state after a terminal transition,
    or an action outside [0, 9) raises ValueError and leaves every ring,
    counter and the RNG as they were.  An int64 -1 would otherwise wrap in
    the uint8 action ring, and index the last Q column before it."""
    def snap(tag, n_cells=1):
        # one vehicle: K = 2 grid rows x 1
        sr = np.zeros((2, 3), dtype=np.float32)
        sr.flat[:n_cells] = tag
        return dataclasses.replace(stub_snapshot(tag), sr=sr, mask=np.ones(1, dtype=np.float32))

    terminal = case not in ("s does not continue", "action below range", "action past range")
    buf = stub_buffer(capacity=3, seed=4)
    s = snap(1)
    for tag in range(2, 7):     # the ring wraps
        s_next = snap(tag)
        buf.add(s, np.array([tag, tag]), float(tag), s_next, terminal and tag == 6)
        s = s_next
    s, s_next = {"s_next too dense": (s, snap(9, 3)), "fresh s too dense": (snap(9, 3), snap(7)),
                 "fresh s_next too dense": (snap(7), snap(9, 3)),
                 "s does not continue": (snap(7), snap(8))}.get(case, (s, snap(7)))
    actions = {"action below range": [1, -1], "action past range": [9, 1]}.get(case, [1, 1])
    before = buffer_contents(buf)
    match = ("3 occupied cells, more than K = 2" if terminal else
             "previous s_next" if case == "s does not continue" else r"actions must lie in \[0, 9\)")
    with pytest.raises(ValueError, match=match):
        buf.add(s, np.array(actions), 1.0, s_next, False)
    assert buffer_contents(buf) == before


def test_trainer_replay_stores_one_snapshot_per_transition():
    """Past capacity and over several episodes, a default-scenario gitsr
    buffer holds one state slot per transition plus one, and 13 B of
    actions (one byte each), reward and done."""
    cfg = ExperimentConfig()
    capacity = 100
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(
        cfg.training, warmup_steps=10 ** 9, buffer_capacity=capacity))
    trainer = Trainer(cfg, seed=0)
    while trainer.env_steps < 3 * capacity:
        trainer.run_episode()
    buf = trainer.buffer
    snap = trainer.net.observe(reset(cfg.scenario, 0), cfg.scenario)
    snapshot_bytes = sum(np.asarray(getattr(snap, f.name)).nbytes
                         for f in dataclasses.fields(StateBatch)
                         if getattr(snap, f.name) is not None)
    per_transition = cfg.scenario.n_cav + 8 + 1
    assert (snapshot_bytes, per_transition) == (3208, 13)
    assert buf._actions.nbytes + buf._reward.nbytes + buf._done.nbytes == capacity * 13
    ring_bytes = (sum(ring.nbytes for ring in buf._states.values())
                  + buf._actions.nbytes + buf._reward.nbytes + buf._done.nbytes)
    assert ring_bytes <= capacity * (snapshot_bytes + per_transition) + snapshot_bytes
    assert buf._done.sum() > 1


def readme_ring_bytes() -> dict[tuple[str, str], int]:
    """README's "Replay memory" table: ring bytes per transition by
    (model_variant, representation)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Replay memory", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (\d+) +\| (\d+) +\|$", section, re.MULTILINE)
    return {(variant, representation): int(n) for variant, *cells in rows
            for representation, n in zip(REPRESENTATIONS, cells)}


README_RING_BYTES = readme_ring_bytes()


@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_ring_bytes_per_transition(variant, representation):
    """Ring bytes per stored transition at the default scenario, ring
    ``nbytes`` over capacity less the one extra state slot, are exactly
    README's table.  The grid rings hold K = rows x vehicles cells a state
    (2-byte indices and float32 values), against 2448 B (agent-centric)
    and 2412 B (scene-centric) of dense grid; bools take a bit each, and
    actions a byte."""
    cfg = dataclasses.replace(ExperimentConfig(), model_variant=variant,
                              representation=representation)
    capacity = 1000
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(
        cfg.training, warmup_steps=10 ** 9, buffer_capacity=capacity))
    trainer = Trainer(cfg, seed=0)
    trainer.run_episode()
    buf = trainer.buffer
    k = {"agent_centric": cfg.scenario.n_cav, "scene_centric": 1}[representation] * 14
    assert buf._states["sr_cells"].shape == buf._states["sr_values"].shape == (capacity + 1, k)
    state_slot = sum(ring[0].nbytes for ring in buf._states.values())
    ring_bytes = (sum(ring.nbytes for ring in buf._states.values())
                  + buf._actions.nbytes + buf._reward.nbytes + buf._done.nbytes)
    assert (ring_bytes - state_slot) / capacity == README_RING_BYTES[variant, representation]
