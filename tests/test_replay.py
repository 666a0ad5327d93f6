import numpy as np
import pytest

from _helpers import scenario
from ramplab.replay import ReplayBuffer
from ramplab.representation import (
    StateSnapshot,
    build_state,
    grid_rows,
    stack_states,
)
from ramplab.simulation import ActionCommand, episode_done, reset, step


def stub_snapshot(tag: int) -> StateSnapshot:
    return StateSnapshot(
        sr=np.full((2, 3), tag, dtype=np.float32), features=None, adjacency=None,
        mask=np.ones(2, dtype=np.float32), cav_ids=(0, 1), alive=np.array([True, True]),
    )


def stub_buffer(capacity: int, seed: int) -> ReplayBuffer:
    return ReplayBuffer(capacity, seed)


def add_stub(buf: ReplayBuffer, tag: int) -> None:
    buf.add(stub_snapshot(tag), np.array([4, 4]), float(tag), stub_snapshot(tag + 1), False)


def test_grows_then_overwrites_oldest():
    buf = stub_buffer(capacity=3, seed=0)
    for tag in range(5):
        add_stub(buf, tag)
    assert len(buf) == 3
    batch = buf.sample(3)
    assert set(batch.reward) == {2.0, 3.0, 4.0}
    # every field of a transition comes from the same slot
    np.testing.assert_array_equal(batch.s.sr[:, 0, 0], batch.reward)
    np.testing.assert_array_equal(batch.s_next.sr[:, 0, 0], batch.reward + 1)


def test_sample_without_replacement():
    buf = stub_buffer(capacity=10, seed=1)
    for tag in range(10):
        add_stub(buf, tag)
    batch = buf.sample(10)
    assert len(set(batch.reward)) == 10


def test_sample_more_than_stored_raises():
    buf = stub_buffer(capacity=4, seed=2)
    add_stub(buf, 0)
    with pytest.raises(ValueError):
        buf.sample(2)


def test_sampling_is_seed_deterministic():
    def draws(seed):
        buf = stub_buffer(capacity=50, seed=seed)
        for tag in range(50):
            add_stub(buf, tag)
        return list(buf.sample(5).reward) + list(buf.sample(5).reward)

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)


def test_capacity_one_ring():
    buf = stub_buffer(capacity=1, seed=3)
    add_stub(buf, 0)
    add_stub(buf, 9)
    assert len(buf) == 1
    assert buf.sample(1).reward[0] == 9.0


@pytest.mark.parametrize("representation", ["scene_centric", "agent_centric"])
def test_sampled_states_equal_build_state_bit_for_bit(representation):
    """The rings (one scene grid per scene-centric state, bool adjacency)
    give back exactly what build_state made, and the grid rows the networks
    read from them, including states with inactive CAVs and terminal states
    with none left."""
    config = scenario(n_cav=3, n_hdv=4, max_steps=40)
    n_episodes = 6
    buf = ReplayBuffer(n_episodes * config.max_steps, 0)
    rng = np.random.default_rng(0)
    stored = []
    for seed in range(n_episodes):
        world = reset(config, seed)
        snap = build_state(world, config, representation)
        while not episode_done(world, config):
            step(world, {vid: ActionCommand.from_index(int(rng.integers(9)))
                         for vid in world.active_cav_ids()}, config)
            snap_next = build_state(world, config, representation)
            buf.add(snap, np.zeros(3, dtype=np.int64), float(len(stored)), snap_next,
                    episode_done(world, config))
            stored.append((snap, snap_next))
            snap = snap_next
    alive = np.array([s.alive for s, _ in stored])
    assert alive.all(axis=1).any() and not alive.all()
    assert not np.array([n.alive for _, n in stored]).any(axis=1).all()

    batch = buf.sample(len(stored))
    for b, tag in enumerate(batch.reward):
        for got, snap in ((batch.s, stored[int(tag)][0]), (batch.s_next, stored[int(tag)][1])):
            assert got.sr[b].dtype == snap.sr.dtype
            assert got.sr[b].tobytes() == snap.sr.tobytes()
            rows = grid_rows(stack_states([snap]))
            got_rows = grid_rows(got).reshape(len(got.sr), *rows.shape)
            assert got_rows[b].tobytes() == rows.tobytes()
            assert got.features[b].tobytes() == snap.features.tobytes()
            assert got.adjacency[b].dtype == snap.adjacency.dtype == bool
            assert got.adjacency[b].tobytes() == snap.adjacency.tobytes()
            np.testing.assert_array_equal(got.alive[b], snap.alive)
            np.testing.assert_array_equal(got.cav_ids[b], snap.cav_ids)
