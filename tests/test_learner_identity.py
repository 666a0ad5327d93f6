"""The learner's cheaper elementwise formulations change no output byte.

The references below are the plain formulations: ReLU as a select on
``a > 0``, LayerNorm statistics through ``ndarray.mean``, ``np.add.at``
scatters, and the finite-gradient check ahead of the clip.
Both paths run in this one process on the same batches, so the comparison
holds on any BLAS build and thread count.
"""
import dataclasses

import numpy as np
import pytest

from ramplab import network as network_module
from ramplab.autodiff import Tensor, _node, backward, mean_all, mul, sub
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


def reference_gather(a, rows, cols):
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def vjp(g):
        da = np.zeros_like(a.data)
        np.add.at(da, (rows, cols), g[:, 0])
        return (da,)

    return _node(a.data[rows, cols][:, None].copy(), "gather", (a,), vjp)


def reference_train_on_batch(batch, net, target_net, optimizer, gamma):
    scene, cav = np.nonzero(batch.s.alive)
    y = td_targets(batch, target_net, gamma)
    net.store.zero_grads()
    q_all = net.forward_batch(batch.s)
    pred = reference_gather(q_all, scene * batch.actions.shape[1] + cav,
                            batch.actions[scene, cav])
    diff = sub(pred, Tensor(y[scene, cav].astype(net.store.dtype)[:, None]))
    loss = mean_all(mul(diff, diff))
    backward(loss)
    net.store.check_finite_grads()
    clip_global_grad_norm(net.store, MAX_GRAD_NORM)
    optimizer.step()
    return loss.item()


STEPS = 24


@pytest.fixture(scope="module", params=[("gitsr", "agent_centric"), ("madqn", "scene_centric")],
                ids=lambda p: p[0])
def replay(request):
    """A fixed list of default-size batches (B=32) from random-action play."""
    variant, representation = request.param
    training = dataclasses.replace(TrainingConfig(), warmup_steps=10 ** 9, buffer_capacity=400)
    cfg = ExperimentConfig(training=training, model_variant=variant,
                           representation=representation)
    trainer = Trainer(cfg, seed=3)
    while len(trainer.buffer) < 200:
        trainer.run_episode()
    return cfg, [trainer.buffer.sample(training.batch) for _ in range(STEPS)]


def learn(cfg, batches, step):
    net = build_network(cfg, seed=5)
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

