"""The learner's cheaper formulations against the plain ones they replaced.

The elementwise references are ReLU as a select on ``a > 0``, LayerNorm
statistics through ``ndarray.mean``, ``np.add.at`` scatters, and the
finite-gradient check ahead of the clip; they change no output byte.  The
all-rows references compute Q for every CAV row (every CAV a transformer
token, the inactive ones masked out of the others' attention; the graph
readout projecting every node before it mixes) and gather the active rows
after; the learner's forwards run on the active CAV rows alone, which is
exact in real arithmetic, so float64 agrees to rounding and ``madqn``,
whose rows never mix, to the byte.
Both paths run in this one process on the same batches, so the comparison
holds on any BLAS build and thread count.
"""
import dataclasses
import functools

import numpy as np
import pytest

from _helpers import reference_squared_error
from ramplab import network as network_module
from ramplab.autodiff import _node, backward, matmul, no_grad, relu, scene_matmul, select_rows
from ramplab.config import ExperimentConfig, TrainingConfig
from ramplab.network import build_network
from ramplab.optim import Adam, clip_global_grad_norm
from ramplab.trainer import MAX_GRAD_NORM, Trainer, td_targets, train_on_batch, update_target


def reference_relu(a):
    keep = a.data > 0

    def vjp(g):
        return (g * keep,)

    return _node(np.where(keep, a.data, 0.0), "relu", (a,), vjp)


def reference_layer_norm_rows(a, gain, bias, eps=1e-5):
    mu = a.data.mean(axis=1, keepdims=True)
    centred = a.data - mu
    std = np.sqrt((centred * centred).mean(axis=1, keepdims=True) + eps)
    y = centred / std

    def vjp(g):
        dy = g * gain.data
        dx = (dy - dy.mean(axis=1, keepdims=True) - y * (dy * y).mean(axis=1, keepdims=True)) / std
        return dx, (g * y).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return _node(y * gain.data + bias.data, "layer_norm", (a, gain, bias), vjp)


def reference_select_rows(a, indices):
    indices = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        da = np.zeros_like(a.data)
        np.add.at(da, indices, g)
        return (da,)

    return _node(a.data[indices].copy(), "select_rows", (a,), vjp)


def reference_train_on_batch(batch, net, target_net, optimizer, gamma):
    # The forward runs on the active rows, as the learner's does, so the
    # float32 bytes compared hang only on the reference ops; the all-rows
    # forward is checked in test_row_subset_learner_matches_the_all_rows_learner.
    rows = np.flatnonzero(batch.s.alive)
    y = td_targets(batch, target_net, gamma)
    net.store.zero_grads()
    q = net.forward_batch(batch.s, active_only=True)
    loss = reference_squared_error(q, np.arange(rows.size), batch.actions.reshape(-1)[rows],
                                   y.reshape(-1)[rows])
    backward(loss)
    net.store.check_finite_grads()
    clip_global_grad_norm(net.store, MAX_GRAD_NORM)
    optimizer.step()
    return loss.item()


def all_nodes_gcn_forward(features, e_norm, weights, n_cavs=None, rows=None):
    """Every layer projects every node and then mixes; the CAV rows are
    picked from the last layer's output."""
    n = e_norm.shape[-1]
    mixer = e_norm.reshape(-1, n, n)
    h = features
    for w in weights:
        h = relu(scene_matmul(mixer, matmul(h, w)))
    if n_cavs is None:
        return h
    assert rows is None
    return select_rows(h, (np.arange(len(mixer))[:, None] * n + np.arange(n_cavs)).reshape(-1))


def all_rows_td_targets(batch, target_net, gamma):
    with no_grad():
        q_next = target_net.forward_batch(batch.s_next).data
    n_scenes, n_cavs = batch.actions.shape
    best = q_next.max(axis=1).reshape(n_scenes, n_cavs).astype(np.float64)
    bootstrap = batch.s.alive & ~batch.done[:, None] & batch.s_next.alive
    reward = batch.reward[:, None]
    return np.where(bootstrap, reward + gamma * best, reward)


def all_rows_train_on_batch(batch, net, target_net, optimizer, gamma):
    scene, cav = np.nonzero(batch.s.alive)
    y = all_rows_td_targets(batch, target_net, gamma)
    net.store.zero_grads()
    q_all = net.forward_batch(batch.s)
    loss = reference_squared_error(q_all, scene * batch.actions.shape[1] + cav,
                                   batch.actions[scene, cav], y[scene, cav])
    backward(loss)
    clip_global_grad_norm(net.store, MAX_GRAD_NORM)
    optimizer.step()
    return loss.item()


STEPS = 24


@functools.lru_cache(maxsize=None)
def replay_batches(variant, representation):
    """A fixed list of default-size batches (B=32) from random-action play."""
    training = dataclasses.replace(TrainingConfig(), warmup_steps=10 ** 9, buffer_capacity=400)
    cfg = ExperimentConfig(training=training, model_variant=variant,
                           representation=representation)
    trainer = Trainer(cfg, seed=3)
    while len(trainer.buffer) < 200:
        trainer.run_episode()
    return cfg, [trainer.buffer.sample(training.batch) for _ in range(STEPS)]


@pytest.fixture(scope="module", params=[("gitsr", "agent_centric"), ("madqn", "scene_centric")],
                ids=lambda p: p[0])
def replay(request):
    return replay_batches(*request.param)


def learn(cfg, batches, step, dtype=np.float32):
    net = build_network(cfg, seed=5, dtype=dtype)
    target = net.clone()
    opt = Adam(net.store, cfg.training.lr)
    losses = []
    for i, batch in enumerate(batches):
        losses.append(step(batch, net, target, opt, cfg.training.gamma))
        if i % 8 == 7:
            update_target(net, target)
    return net, opt, losses


def test_learner_is_byte_identical_to_the_reference_formulations(replay, monkeypatch):
    cfg, batches = replay
    net, opt, losses = learn(cfg, batches, train_on_batch)
    monkeypatch.setattr(network_module, "relu", reference_relu)
    monkeypatch.setattr(network_module, "layer_norm_rows", reference_layer_norm_rows)
    monkeypatch.setattr(network_module, "select_rows", reference_select_rows)
    ref_net, ref_opt, ref_losses = learn(cfg, batches, reference_train_on_batch)
    assert losses == ref_losses
    assert opt.t == ref_opt.t == STEPS
    for name, p in net.store.items():
        assert p.data.tobytes() == ref_net.store.params[name].data.tobytes(), name
        assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
        assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name


@pytest.mark.parametrize("variant, representation, dtype", [
    ("gitsr", "agent_centric", np.float64),
    ("madqn_transformer", "agent_centric", np.float64),
    ("madqn", "scene_centric", np.float32),
], ids=["gitsr-float64", "madqn_transformer-float64", "madqn-float32"])
def test_row_subset_learner_matches_the_all_rows_learner(variant, representation, dtype,
                                                         monkeypatch):
    cfg, batches = replay_batches(variant, representation)
    assert not all(batch.s.alive.all() for batch in batches)   # some rows are cut
    net, opt, losses = learn(cfg, batches, train_on_batch, dtype)
    monkeypatch.setattr(network_module, "gcn_forward", all_nodes_gcn_forward)
    ref_net, ref_opt, ref_losses = learn(cfg, batches, all_rows_train_on_batch, dtype)
    assert opt.t == ref_opt.t == STEPS
    if dtype == np.float32:
        assert losses == ref_losses
        for name, p in net.store.items():
            assert p.data.tobytes() == ref_net.store.params[name].data.tobytes(), name
            assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
            assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
        return
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12)
    for name, p in net.store.items():
        ref = ref_net.store.params[name].data
        assert np.abs(p.data - ref).max() <= 1e-12 * np.abs(ref).max(), name
