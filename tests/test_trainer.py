import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    random_rollout, reference_squared_error, scenario, small_experiment, vehicle, world_of,
)
from ramplab import autodiff as ad
from ramplab import network as network_module
from ramplab import trainer as trainer_module
from ramplab.autodiff import no_grad
from ramplab.config import MODEL_VARIANTS, EpsilonConfig
from ramplab.network import TrainingError, build_network
from ramplab.optim import Adam, clip_global_grad_norm
from ramplab.replay import Batch
from ramplab.representation import StateBatch, build_state, feature_width, stack_states
from ramplab.simulation import FILLER_ACTION_INDEX, Outcome, VehicleKind, reset
from ramplab.trainer import (
    MAX_GRAD_NORM,
    EpisodeMetrics,
    Trainer,
    _episode_outcome_stats,
    epsilon,
    evaluate_policy,
    explore_draws,
    greedy_actions,
    metrics_csv_row,
    rollout,
    select_actions,
    td_targets,
    train_on_batch,
    update_target,
)

EPS_CFG = EpsilonConfig()


# -- exploration schedule -------------------------------------------------


def test_epsilon_endpoints_and_midpoint():
    assert epsilon(0, EPS_CFG) == pytest.approx(0.99)
    assert epsilon(20_000, EPS_CFG) == pytest.approx(0.4955)
    assert epsilon(40_000, EPS_CFG) == pytest.approx(0.001)
    assert epsilon(1_000_000, EPS_CFG) == pytest.approx(0.001)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=0, max_value=100_000),
       b=st.integers(min_value=0, max_value=100_000))
def test_epsilon_never_increases(a, b):
    lo, hi = sorted((a, b))
    assert epsilon(hi, EPS_CFG) <= epsilon(lo, EPS_CFG) <= EPS_CFG.start
    assert epsilon(hi, EPS_CFG) >= EPS_CFG.end


def test_select_actions_greedy_and_tie_break():
    q = np.array([[0.0, 5.0, 5.0, 0, 0, 0, 0, 0, 0],
                  [9.0, 0.0, 0, 0, 0, 0, 0, 0, 0]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    picked = select_actions(q, explore_draws(len(q), 0.0, rng))
    np.testing.assert_array_equal(picked, [1, 0])
    assert rng.bit_generator.state == state   # greedy rows draw nothing


def test_select_actions_rejects_non_finite():
    q = np.full((1, 9), np.nan)
    with pytest.raises(TrainingError):
        select_actions(q, explore_draws(len(q), 0.0, np.random.default_rng(0)))


def test_select_actions_full_exploration_is_uniform():
    rng = np.random.default_rng(123)
    q = np.zeros((100_000, 9))
    draws = select_actions(q, explore_draws(len(q), 1.0, rng))
    counts = np.bincount(draws, minlength=9)
    expected = len(draws) / 9
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < scipy.stats.chi2.isf(1e-3, df=8)


def test_select_actions_partial_exploration_mixes():
    rng = np.random.default_rng(5)
    q = np.zeros((10_000, 9))
    q[:, 3] = 1.0
    draws = select_actions(q, explore_draws(len(q), 0.5, rng))
    frac_greedy = float(np.mean(draws == 3))
    # greedy picks plus the 1/9 of random picks that land on 3
    assert frac_greedy == pytest.approx(0.5 + 0.5 / 9, abs=0.03)


# -- TD targets -----------------------------------------------------------


class FakeTargetNet:
    """Duck-typed stand-in returning one fixed Q row per (scene, CAV)."""

    def __init__(self, q_rows):
        self.q_rows = np.asarray(q_rows, dtype=float)

    def forward_batch(self, states, active_only=False):
        out = lambda: None
        out.data = self.q_rows[states.alive.reshape(-1)] if active_only else self.q_rows
        return out


def fake_batch(rewards, done, at_s, at_next):
    """Only what td_targets reads besides the network's output."""
    at_s = np.array(at_s)
    return Batch(
        s=StateBatch(sr=None, alive=at_s),
        actions=np.zeros(at_s.shape, dtype=np.int64),
        reward=np.array(rewards, dtype=float),
        s_next=StateBatch(sr=None, alive=np.array(at_next)),
        done=np.array(done),
    )


def test_td_targets_bootstrap_and_cutoffs():
    batch = fake_batch([1.0, -2.0], [False, True],
                       [[True, True], [True, True]], [[True, False], [True, True]])
    q_rows = np.array([
        [2.0, 1.0, 0.0], [5.0, 0.0, 0.0],      # scene 0, CAVs 0 and 1
        [7.0, 9.0, 8.0], [1.0, 1.0, 1.0],      # scene 1 (terminal: ignored)
    ])
    y = td_targets(batch, FakeTargetNet(q_rows), gamma=0.9)
    np.testing.assert_allclose(y, [[1.0 + 0.9 * 2.0, 1.0], [-2.0, -2.0]])


def test_td_targets_inactive_at_start_gets_raw_reward():
    # a CAV inactive at s is inactive at s_next (see
    # test_replay_never_reactivates_a_cav)
    batch = fake_batch([3.0], [False], [[False, True]], [[False, True]])
    y = td_targets(batch, FakeTargetNet(np.full((2, 3), 10.0)), gamma=0.9)
    np.testing.assert_allclose(y, [[3.0, 3.0 + 9.0]])


class UncallableTargetNet:
    def forward_batch(self, states, active_only=False):
        raise AssertionError("the target network ran without a bootstrap row")


def test_td_targets_without_a_bootstrap_row_skips_the_target_network():
    # terminal, or every CAV inactive at s_next: no row bootstraps
    batch = fake_batch([1.5, -0.5, 2.0], [True, False, False],
                       [[True, True], [False, True], [True, True]],
                       [[True, True], [False, False], [False, False]])
    y = td_targets(batch, UncallableTargetNet(), gamma=0.9)
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, [[1.5, 1.5], [-0.5, -0.5], [2.0, 2.0]])


def test_replay_never_reactivates_a_cav():
    """td_targets bootstraps every CAV active at a non-terminal s_next, which
    is the same as every CAV active at both ends because no stored
    transition reactivates a CAV: on every non-terminal row of a trainer's
    replay, before and after its ring wraps, the CAVs active at s_next are
    among those active at s.  A row paired with a state of another episode
    breaks this wherever that state has a CAV active that the row's s had
    lost."""
    capacity = 60
    cfg = small_experiment(model_variant="madqn")
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(
        cfg.training, warmup_steps=10 ** 9, buffer_capacity=capacity))
    trainer = Trainer(cfg, seed=0)
    lost = 0
    while trainer.env_steps < 5 * capacity:
        trainer.run_episode()
        batch = trainer.buffer.sample(len(trainer.buffer))
        live = ~batch.done
        assert not (batch.s_next.alive & ~batch.s.alive)[live].any()
        lost += np.count_nonzero(~batch.s.alive[live])
    assert trainer.buffer._adds > 2 * capacity and lost > capacity


# -- gradient steps -------------------------------------------------------


def solo_cfg(**kw):
    return small_experiment(
        scenario=scenario(n_cav=1, n_hdv=2, max_steps=20), **kw
    )


def rollout_snaps(cfg, n, seed0=0):
    """What ``cfg``'s network observes of ``n`` reachable worlds."""
    net = build_network(cfg, seed=0)
    return [net.observe(random_rollout(cfg.scenario, seed=seed0 + i, n_steps=3), cfg.scenario)
            for i in range(n)]


def frozen_batch(snaps, actions, rewards):
    """Terminal transitions from ``snaps`` with every CAV active at s."""
    states = stack_states(snaps)
    alive = np.ones_like(states.alive)
    return Batch(
        s=dataclasses.replace(states, alive=alive),
        actions=np.array(actions, dtype=np.int64),
        reward=np.array(rewards, dtype=float),
        s_next=dataclasses.replace(states, alive=~alive),
        done=np.ones(len(snaps), dtype=bool),
    )


def test_fixed_point_has_zero_loss_and_frozen_params():
    cfg = solo_cfg(model_variant="gitsr")
    net = build_network(cfg, seed=0)
    target = net.clone()
    opt = Adam(net.store, lr=1e-3)
    snaps = rollout_snaps(cfg, 4)
    actions = [2, 5, 0, 7]
    with no_grad():
        q = net.forward_batch(stack_states(snaps)).data
    batch = frozen_batch(snaps, [[a] for a in actions],
                         [float(q[b, actions[b]]) for b in range(4)])
    before = {name: p.data.tobytes() for name, p in net.store.items()}
    loss = train_on_batch(batch, net, target, opt, gamma=0.9)
    assert loss == 0.0
    after = {name: p.data.tobytes() for name, p in net.store.items()}
    assert before == after


def test_overfits_a_frozen_batch():
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=1)
    target = net.clone()
    opt = Adam(net.store, lr=1e-3)
    rng = np.random.default_rng(2)
    snaps = rollout_snaps(cfg, 16, seed0=100)
    actions, rewards = [], []
    for _ in range(16):
        actions.append([int(rng.integers(9)) for _ in range(2)])
        rewards.append(float(rng.normal()))
    batch = frozen_batch(snaps, actions, rewards)
    first = train_on_batch(batch, net, target, opt, gamma=0.9)
    for _ in range(199):
        last = train_on_batch(batch, net, target, opt, gamma=0.9)
    assert last < first * 0.2


def test_train_on_batch_rejects_batch_without_active_cavs():
    cfg = small_experiment(model_variant="madqn")
    net = build_network(cfg, seed=3)
    batch = frozen_batch(rollout_snaps(cfg, 2), [[0, 0], [1, 1]], [1.0, 2.0])
    batch.s.alive[:] = False
    with pytest.raises(TrainingError, match="no active CAVs"):
        train_on_batch(batch, net, net.clone(), Adam(net.store, 1e-4), gamma=0.9)


@pytest.mark.parametrize("dtype, bad, message", [
    (np.float32, np.nan, "non-finite gradient in parameter 'gcn.l0.w'"),
    (np.float64, 1e200, "overflows"),   # finite, but its square is not
])
def test_train_on_batch_rejects_non_finite_gradient_before_adam(monkeypatch, dtype, bad,
                                                                message):
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=3, dtype=dtype)
    opt = Adam(net.store, 1e-3)
    batch = frozen_batch(rollout_snaps(cfg, 2), [[0, 4], [1, 7]], [1.0, 2.0])
    train_on_batch(batch, net, net.clone(), opt, gamma=0.9)
    before = {name: p.data.tobytes() for name, p in net.store.items()}
    moments = {name: opt.m[name].tobytes() + opt.v[name].tobytes() for name in opt.m}

    def poisoned_backward(loss):
        ad.backward(loss)
        net.store.params["gcn.l0.w"].grad[0, 0] = bad

    monkeypatch.setattr(trainer_module, "backward", poisoned_backward)
    with pytest.raises(TrainingError, match=message):
        train_on_batch(batch, net, net.clone(), opt, gamma=0.9)
    assert opt.t == 1
    assert {name: p.data.tobytes() for name, p in net.store.items()} == before
    assert {name: opt.m[name].tobytes() + opt.v[name].tobytes() for name in opt.m} == moments


# Reference: the per-(transition, CAV) loops the vectorised code replaced.
# Their forwards run on the active rows, as the learner's do: a float32
# GEMM's row results may depend on its row count, and these references check
# the loops byte for byte.  The active-rows forward itself is checked against
# an all-rows learner in test_learner_identity's
# test_row_subset_learner_matches_the_all_rows_learner.
def loop_td_targets(batch, target_net, gamma):
    n_scenes, n_cavs = batch.actions.shape
    boot = [b * n_cavs + i for b in range(n_scenes) for i in range(n_cavs)
            if not batch.done[b] and batch.s_next.alive[b, i]]
    # no CAV of a terminal row's s_next is a token of the target forward
    live_next = batch.s_next.alive & ~batch.done[:, None]
    q_next = {}
    if boot:
        with no_grad():
            q_next = dict(zip(boot, target_net.forward_batch(
                dataclasses.replace(batch.s_next, alive=live_next), active_only=True).data))
    y = np.empty((n_scenes, n_cavs))
    for b in range(n_scenes):
        reward = float(batch.reward[b])
        for i in range(n_cavs):
            row = b * n_cavs + i
            y[b, i] = reward + gamma * float(q_next[row].max()) if row in q_next else reward
    return y


def loop_train_on_batch(batch, net, target_net, optimizer, gamma):
    y = loop_td_targets(batch, target_net, gamma)
    n_scenes, n_cavs = batch.actions.shape
    rows, cols, targets = [], [], []
    for b in range(n_scenes):
        for i in range(n_cavs):
            if batch.s.alive[b, i]:
                rows.append(b * n_cavs + i)
                cols.append(int(batch.actions[b, i]))
                targets.append(y[b, i])
    net.store.zero_grads()
    loss = reference_squared_error(net.forward_batch(batch.s, active_only=True),
                                   np.arange(len(rows)), np.array(cols), np.array(targets))
    ad.backward(loss)
    clip_global_grad_norm(net.store, MAX_GRAD_NORM)
    optimizer.step()
    return loss.item()


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_vectorised_learner_matches_per_cav_loops(variant):
    cfg = small_experiment(model_variant=variant)
    rng = np.random.default_rng(11)
    net = build_network(cfg, seed=12)
    target = build_network(cfg, seed=13)
    twin = net.clone()
    opt, twin_opt = Adam(net.store, 1e-3), Adam(twin.store, 1e-3)
    for trial in range(4):
        states = stack_states(rollout_snaps(cfg, 6, seed0=10 * trial))
        next_states = stack_states(rollout_snaps(cfg, 6, seed0=10 * trial + 5))
        alive = rng.random(states.alive.shape) < 0.6
        alive[0, 0] = True
        batch = Batch(
            s=dataclasses.replace(states, alive=alive),
            actions=rng.integers(9, size=alive.shape),
            reward=rng.normal(size=6),
            s_next=dataclasses.replace(next_states,
                                       alive=rng.random(alive.shape) < 0.6),
            done=rng.random(6) < 0.3,
        )
        y = td_targets(batch, target, gamma=0.9)
        assert y.dtype == np.float64
        assert y.tobytes() == loop_td_targets(batch, target, gamma=0.9).tobytes()
        loss = train_on_batch(batch, net, target, opt, gamma=0.9)
        assert math.isfinite(loss)
        assert loss == loop_train_on_batch(batch, twin, target, twin_opt, gamma=0.9)
        for (name, p), (_, q) in zip(net.store.items(), twin.store.items()):
            assert p.data.tobytes() == q.data.tobytes(), name


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_td_targets_ignore_s_next_on_terminal_rows(variant):
    """Replay leaves a terminal row's s_next unspecified: the next episode's
    first state may overwrite it.  Replacing every terminal row's s_next
    with an unrelated state, whose CAVs are active or not, leaves the
    targets byte-identical."""
    cfg = small_experiment(model_variant=variant)
    target = build_network(cfg, seed=14)
    rng = np.random.default_rng(15)
    s = stack_states(rollout_snaps(cfg, 8))
    actions, reward = np.zeros(s.alive.shape, dtype=np.int64), rng.normal(size=8)
    done = np.array([True, False, True, True, False, False, True, False])
    s_next = rollout_snaps(cfg, 8, seed0=20)
    unrelated = [dataclasses.replace(snap, alive=rng.random(snap.n_cavs) < 0.5)
                 for snap in rollout_snaps(cfg, 8, seed0=40)]
    replaced = [u if d else n for u, n, d in zip(unrelated, s_next, done)]
    assert stack_states(replaced).sr.tobytes() != stack_states(s_next).sr.tobytes()

    seen = []
    forward_batch = target.forward_batch

    def spy(states, active_only=False):
        seen.append(states.alive.copy())
        return forward_batch(states, active_only)

    target.forward_batch = spy

    def targets(ends):
        return td_targets(Batch(s, actions, reward, stack_states(ends), done), target, gamma=0.9)

    y = targets(s_next)
    assert (y != reward[:, None]).any()     # some rows bootstrap
    assert y.tobytes() == targets(replaced).tobytes()
    # nor does any CAV of a terminal row's s_next reach the target forward
    assert len(seen) == 2 and not any(alive[done].any() for alive in seen)


def test_update_target_copies_then_goes_stale():
    cfg = small_experiment(model_variant="madqn")
    net = build_network(cfg, seed=4)
    target = build_network(cfg, seed=5)
    assert any(p.data.tobytes() != q.data.tobytes()
               for (_, p), (_, q) in zip(net.store.items(), target.store.items()))
    update_target(net, target)
    assert target.store.buffer.tobytes() == net.store.buffer.tobytes()
    assert not np.shares_memory(target.store.buffer, net.store.buffer)
    for (_, p), (_, q) in zip(net.store.items(), target.store.items()):
        assert p.data.tobytes() == q.data.tobytes()
    net.store.params["qhead.b2"].data += 0.5
    assert net.store.params["qhead.b2"].data.tobytes() != \
        target.store.params["qhead.b2"].data.tobytes()


# -- episode loop ---------------------------------------------------------


def test_trainer_warmup_reports_unit_epsilon_and_no_learning():
    cfg = small_experiment()
    cfg = dataclasses.replace(
        cfg, training=dataclasses.replace(cfg.training, warmup_steps=10_000)
    )
    trainer = Trainer(cfg, seed=0)
    before = {name: p.data.tobytes() for name, p in trainer.net.store.items()}
    metrics = trainer.run_episode()
    assert metrics.epsilon == 1.0
    assert trainer.grad_steps == 0
    assert len(trainer.buffer) == trainer.env_steps > 0
    after = {name: p.data.tobytes() for name, p in trainer.net.store.items()}
    assert before == after


def test_trainer_epsilon_counts_post_warmup_steps():
    cfg = small_experiment()
    trainer = Trainer(cfg, seed=0)
    warm = cfg.training.warmup_steps
    trainer.env_steps = warm - 1
    assert trainer.current_epsilon() == 1.0
    trainer.env_steps = warm
    assert trainer.current_epsilon() == pytest.approx(EPS_CFG.start)
    trainer.env_steps = warm + cfg.training.epsilon.decay_steps
    assert trainer.current_epsilon() == pytest.approx(EPS_CFG.end)


def test_trainer_learns_after_warmup_and_updates_target():
    trainer = Trainer(small_experiment(), seed=1)
    trainer.train()
    assert trainer.episodes_run == 2
    assert trainer.env_steps > trainer.cfg.training.warmup_steps
    assert trainer.grad_steps > trainer.cfg.training.target_update_interval


def test_trainer_checkpoint_cadence():
    tags = []
    trainer = Trainer(small_experiment(), seed=2)
    trainer.train(on_checkpoint=lambda net, tag: tags.append(tag))
    # every second episode plus the final copy
    assert tags == ["ep_000002", "final"]


def test_same_seed_trainers_are_identical():
    def run():
        trainer = Trainer(small_experiment(model_variant="madqn"), seed=7)
        metrics = trainer.train()
        rows = [metrics_csv_row(m)[:8] for m in metrics]   # drop wall_ms
        params = {name: p.data.tobytes() for name, p in trainer.net.store.items()}
        return rows, params

    (rows_a, params_a), (rows_b, params_b) = run(), run()
    assert rows_a == rows_b
    assert params_a == params_b


def test_different_seeds_diverge():
    def returns(seed):
        trainer = Trainer(small_experiment(model_variant="madqn"), seed=seed)
        return [m.return_total for m in trainer.train()]

    assert returns(1) != returns(2)


# -- bookkeeping ----------------------------------------------------------


def reference_act(self, snap):
    """The actor with the forward on every post-warm-up step: one draw per
    row, then a random action for an exploring row, the greedy one else."""
    actions = np.full(snap.n_cavs, FILLER_ACTION_INDEX, dtype=np.int64)
    alive = np.flatnonzero(snap.alive)
    if self.env_steps < self.cfg.training.warmup_steps:
        for row in alive:
            actions[row] = self.explore_rng.integers(9)
        return actions
    q, eps = self.net.q_values(snap), self.current_epsilon()
    chosen = np.empty(snap.n_cavs, dtype=np.int64)
    for i in range(snap.n_cavs):
        if self.explore_rng.random() < eps:
            chosen[i] = self.explore_rng.integers(9)
        else:
            chosen[i] = np.argmax(q[i])
    actions[alive] = chosen[alive]
    return actions


def test_actor_skips_the_forward_when_every_active_cav_explores(monkeypatch):
    cfg = small_experiment(training=dataclasses.replace(
        small_experiment().training, episodes=8,
        epsilon=EpsilonConfig(start=0.9, end=0.4, decay_steps=60)))
    calls = []
    counted = network_module.QNetwork.q_values

    def counting(net, snap):
        calls.append(snap.n_cavs)
        return counted(net, snap)

    monkeypatch.setattr(network_module.QNetwork, "q_values", counting)
    runs = []
    for act in (Trainer._act, reference_act):
        monkeypatch.setattr(Trainer, "_act", act)
        calls.clear()
        trainer = Trainer(cfg, seed=5)
        rows = [metrics_csv_row(m)[:-1] for m in trainer.train()]
        runs.append((rows, trainer.net.store, len(calls)))
    (rows, store, n_calls), (ref_rows, ref_store, ref_calls) = runs
    assert rows == ref_rows
    for name, tensor in store.items():
        assert tensor.data.tobytes() == ref_store.params[name].data.tobytes(), name
    assert 0 < n_calls < ref_calls


def test_outcome_stats_counts_correct_exits():
    def cav(vid, outcome):
        return vehicle(vid, kind=VehicleKind.CAV_RAMP1, active=False, outcome=outcome)

    world = world_of(
        cav(0, Outcome.EXITED_CORRECT_RAMP),
        cav(1, Outcome.EXITED_CORRECT_RAMP),
        cav(2, Outcome.EXITED_CORRECT_RAMP),
        cav(3, Outcome.COLLIDED),
        vehicle(4),
    )
    world.collision_count = 1
    success, collisions = _episode_outcome_stats(world)
    assert success == 0.75 and collisions == 1
    all_home = world_of(cav(0, Outcome.EXITED_CORRECT_RAMP))
    assert _episode_outcome_stats(all_home) == (1.0, 0)


def test_greedy_actions_filler_for_inactive():
    cfg = small_experiment()
    net = build_network(cfg, seed=8)
    world = random_rollout(cfg.scenario, seed=9, n_steps=2)
    dead = world.vehicle(1)
    world.vehicles[1] = dataclasses.replace(dead, active=False, outcome=Outcome.COLLIDED)
    snap = build_state(world, cfg.scenario, cfg.representation)
    idx = greedy_actions(net, snap)
    assert idx[1] == FILLER_ACTION_INDEX
    assert idx[0] == int(np.argmax(net.q_values(snap)[0]))


def test_metrics_csv_row_formatting():
    row = metrics_csv_row(EpisodeMetrics(
        episode=3, seed=1, variant="gitsr", return_total=1.25, success_rate=0.5,
        collisions=2, mean_speed=10.0, epsilon=0.4955, wall_ms=12.3456,
    ))
    assert row == ["3", "1", "gitsr", "1.25", "0.5", "2", "10.0", "0.4955", "12.346"]


def test_evaluate_policy_is_greedy_and_deterministic():
    cfg = small_experiment()
    net = build_network(cfg, seed=10)
    a = evaluate_policy(net, cfg, n_episodes=3, seed=0)
    b = evaluate_policy(net, cfg, n_episodes=3, seed=0)
    c = evaluate_policy(net, cfg, n_episodes=3, seed=1)
    assert [m.return_total for m in a] == [m.return_total for m in b]
    assert [m.return_total for m in a] != [m.return_total for m in c]
    assert all(m.epsilon == 0.0 for m in a)
    assert [m.episode for m in a] == [0, 1, 2]


def test_rollout_snapshots_the_terminal_state_only_for_on_step(monkeypatch):
    cfg = small_experiment()
    net = build_network(cfg, seed=10)
    calls = []

    def counting_build_state(*args, **kwargs):
        calls.append(1)
        return build_state(*args, **kwargs)

    monkeypatch.setattr(network_module, "build_state", counting_build_state)
    policy = functools.partial(greedy_actions, net)
    for with_on_step in (False, True):
        calls.clear()
        next_states = []
        world = reset(cfg.scenario, 3)
        rollout(world, cfg, net, policy,
                (lambda s, a, r, s_next, done: next_states.append(s_next))
                if with_on_step else None)
        assert world.step_index > 0
        assert len(calls) == world.step_index + with_on_step
        assert all(s_next is not None for s_next in next_states)


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_replay_rings_take_the_layout_of_the_observed_state(variant):
    """After one episode the rings hold one array per field the network
    observes, at its narrowest exact width: float32 features as observed
    (madqn's m CAV rows, the others' n vehicle rows), bools packed eight to
    a byte, actions as uint8, and the grid as K = rows x vehicles uint16
    cell indices and float32 values; every state ring has capacity + 1
    slots: s and s_next share them."""
    cfg = small_experiment(model_variant=variant)    # 2 CAVs, 5 vehicles
    trainer = Trainer(cfg, seed=2)
    trainer.run_episode()
    slots = cfg.training.buffer_capacity + 1
    f = feature_width(cfg.scenario)
    k = 2 * 5       # agent-centric: a grid row per CAV, a cell per vehicle and row
    want = {"alive": ((slots, 1), np.uint8),
            "sr_cells": ((slots, k), np.uint16), "sr_values": ((slots, k), np.float32)}
    want |= {"gitsr": {"features": ((slots, 5, f), np.float32), "adjacency": ((slots, 4), np.uint8)},
             "madqn": {"features": ((slots, 2, f), np.float32)},
             "madqn_transformer": {}}[variant]
    buf = trainer.buffer
    assert {name: (ring.shape, ring.dtype) for name, ring in buf._states.items()} == \
        {name: (shape, np.dtype(dtype)) for name, (shape, dtype) in want.items()}
    assert buf._actions.dtype == np.uint8
