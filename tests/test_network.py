import copy
import dataclasses
import hashlib
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from _helpers import random_rollout, scenario, small_experiment, tiny_network
from ramplab import network as network_module
from ramplab.autodiff import (
    Tensor,
    backward,
    graph_nodes,
    mul,
    no_grad,
    squared_error_at,
    sum_all,
)
from ramplab.config import MODEL_VARIANTS, ExperimentConfig
from ramplab.network import (
    CheckpointError,
    TrainingError,
    build_network,
    gcn_forward,
    gcn_normalize,
    load_checkpoint,
    multi_head_attention,
    network_from_checkpoint,
    q_head,
    save_checkpoint,
    transformer_encode,
)
from ramplab.optim import Adam
from ramplab.representation import StateBatch, build_state, grid_rows, stack_states
from ramplab.simulation import ActionCommand, episode_done, reset, step


def make_snap(net, seed, config):
    """What ``net`` observes of a reachable world."""
    return net.observe(random_rollout(config, seed=seed, n_steps=4), config)


def mha_params(rng, d):
    return [Tensor(rng.normal(size=(d, d)) / np.sqrt(d), requires_grad=True)
            for _ in range(4)]


def naive_mha(x, wq, wk, wv, wo, n_heads):
    d = x.shape[1]
    dh = d // n_heads
    q, k, v = x @ wq, x @ wk, x @ wv
    outs = []
    for i in range(n_heads):
        sl = slice(i * dh, (i + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
    return np.hstack(outs) @ wo


# -- attention ------------------------------------------------------------


def test_attention_matches_naive_loop_oracle():
    rng = np.random.default_rng(0)
    for d, n_heads in [(4, 1), (4, 2), (8, 2), (8, 4), (12, 3)]:
        for n in (1, 2, 7):
            x = rng.normal(size=(n, d))
            wq, wk, wv, wo = mha_params(rng, d)
            got = multi_head_attention(Tensor(x), wq, wk, wv, wo, n_heads).data
            want = naive_mha(x, wq.data, wk.data, wv.data, wo.data, n_heads)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_attention_single_token_reduces_to_value_path():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 8))
    wq, wk, wv, wo = mha_params(rng, 8)
    out = multi_head_attention(Tensor(x), wq, wk, wv, wo, 2).data
    np.testing.assert_allclose(out, x @ wv.data @ wo.data, rtol=1e-12)


def test_attention_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(2)
    x = np.tile(rng.normal(size=(1, 8)), (5, 1))
    wq, wk, wv, wo = mha_params(rng, 8)
    out = multi_head_attention(Tensor(x), wq, wk, wv, wo, 4).data
    np.testing.assert_allclose(out, np.tile(out[:1], (5, 1)), rtol=1e-10, atol=1e-12)


def test_attention_rejects_uneven_head_split():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6))
    wq, wk, wv, wo = mha_params(rng, 6)
    with pytest.raises(ValueError):
        multi_head_attention(Tensor(x), wq, wk, wv, wo, 4)


def test_attention_block_mask_isolates_scenes():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    wq, wk, wv, wo = mha_params(rng, 8)
    stacked = multi_head_attention(Tensor(np.vstack([a, b])), wq, wk, wv, wo, 2,
                                   n_scenes=2).data
    alone_a = multi_head_attention(Tensor(a), wq, wk, wv, wo, 2).data
    alone_b = multi_head_attention(Tensor(b), wq, wk, wv, wo, 2).data
    np.testing.assert_allclose(stacked, np.vstack([alone_a, alone_b]), rtol=1e-9, atol=1e-12)


# -- transformer stack ----------------------------------------------------


def test_encoder_permutation_equivariance():
    cfg = tiny_network()
    net = build_network(small_experiment(network=cfg, model_variant="madqn_transformer"),
                        seed=9, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, net.input_width))
    perm = np.array([2, 0, 3, 1])
    out = transformer_encode(Tensor(x), net.transformer, cfg.n_heads).data
    out_p = transformer_encode(Tensor(x[perm]), net.transformer, cfg.n_heads).data
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-9, atol=1e-11)


def test_encoder_blank_grids_collapse_to_one_row():
    cfg = tiny_network()
    net = build_network(small_experiment(network=cfg, model_variant="madqn_transformer"),
                        seed=10, dtype=np.float64)
    out = transformer_encode(Tensor(np.zeros((3, net.input_width))),
                             net.transformer, cfg.n_heads).data
    np.testing.assert_allclose(out, np.tile(out[:1], (3, 1)), rtol=1e-9, atol=1e-11)


# -- graph convolution ----------------------------------------------------


def test_gcn_normalize_hand_examples():
    np.testing.assert_allclose(gcn_normalize(np.array([[1.0]])), [[1.0]])
    np.testing.assert_allclose(gcn_normalize(np.array([[0.0]])), [[1.0]])
    pair = gcn_normalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(pair, np.full((2, 2), 0.5))
    lonely = gcn_normalize(np.zeros((3, 3)))
    np.testing.assert_allclose(lonely, np.eye(3))


def test_gcn_normalize_matches_matrix_oracle():
    rng = np.random.default_rng(6)
    adj = (rng.random((7, 7)) < 0.4).astype(float)
    adj = np.maximum(adj, adj.T)
    a_tilde = np.minimum(adj + np.eye(7), 1.0)
    d_half = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    np.testing.assert_allclose(gcn_normalize(adj), d_half @ a_tilde @ d_half,
                               rtol=1e-12, atol=1e-14)


def test_gcn_forward_matches_naive_loop():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(6, 5))
    e_norm = gcn_normalize((rng.random((6, 6)) < 0.5).astype(float))
    weights = [Tensor(rng.normal(size=(5, 4)), requires_grad=True),
               Tensor(rng.normal(size=(4, 3)), requires_grad=True)]
    got = gcn_forward(Tensor(feats), e_norm, weights).data
    h = feats
    for w in weights:
        h = np.maximum(e_norm @ (h @ w.data), 0.0)
    np.testing.assert_allclose(got, h, rtol=1e-12, atol=1e-14)
    assert np.all(got >= 0.0)       # final layer is rectified too


def test_gcn_forward_stacked_scenes_match_single_calls():
    rng = np.random.default_rng(8)
    adj = (rng.random((3, 4, 4)) < 0.5).astype(float)
    feats = rng.normal(size=(12, 5))
    weights = [Tensor(rng.normal(size=(5, 3)), requires_grad=True)]
    stacked = gcn_forward(Tensor(feats), gcn_normalize(adj), weights).data
    singles = [gcn_forward(Tensor(feats[4 * b:4 * b + 4]), gcn_normalize(adj[b]), weights).data
               for b in range(3)]
    np.testing.assert_allclose(stacked, np.vstack(singles), rtol=1e-12, atol=1e-14)


# -- q head ---------------------------------------------------------------


def qhead_params(rng, in_width, hidden=6):
    return (
        Tensor(rng.normal(size=(in_width, hidden))),
        Tensor(rng.normal(size=(1, hidden))),
        Tensor(rng.normal(size=(hidden, 9))),
        Tensor(rng.normal(size=(1, 9))),
    )


def test_q_head_with_and_without_graph():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4))
    h = rng.normal(size=(5, 4))
    cav_rows = np.array([0, 3])
    w1, b1, w2, b2 = qhead_params(rng, 8)
    out = q_head(Tensor(x), Tensor(h[cav_rows]), w1, b1, w2, b2).data
    fused = np.hstack([x, h[cav_rows]])
    want = np.maximum(fused @ w1.data + b1.data, 0) @ w2.data + b2.data
    np.testing.assert_allclose(out, want, rtol=1e-12)
    w1s, b1s, w2s, b2s = qhead_params(rng, 4)
    alone = q_head(Tensor(x), None, w1s, b1s, w2s, b2s).data
    want_alone = np.maximum(x @ w1s.data + b1s.data, 0) @ w2s.data + b2s.data
    np.testing.assert_allclose(alone, want_alone, rtol=1e-12)
    assert out.shape == alone.shape == (2, 9)


def test_q_head_zero_input_yields_bias_row():
    rng = np.random.default_rng(9)
    w1, b1, w2, b2 = qhead_params(rng, 4)
    out = q_head(Tensor(np.zeros((3, 4))), None, w1, b1, w2, b2).data
    want = np.maximum(b1.data, 0) @ w2.data + b2.data
    np.testing.assert_allclose(out, np.tile(want, (3, 1)), rtol=1e-12)


# -- network variants -----------------------------------------------------


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_forward_shapes_and_finiteness(variant):
    cfg = small_experiment(model_variant=variant)
    net = build_network(cfg, seed=0)
    snap = make_snap(net, 0, cfg.scenario)
    q = net.q_values(snap)
    assert q.shape == (2, 9)
    assert q.dtype == np.float32
    assert np.all(np.isfinite(q))


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_batched_forward_matches_singles(variant):
    cfg = small_experiment(model_variant=variant)
    net = build_network(cfg, seed=1, dtype=np.float64)
    snaps = [make_snap(net, s, cfg.scenario) for s in range(3)]
    batched = net.forward_batch(stack_states(snaps)).data
    singles = np.vstack([net.forward(s).data for s in snaps])
    assert batched.shape == (6, 9)
    np.testing.assert_allclose(batched, singles, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("representation", ["agent_centric", "scene_centric"])
@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_q_values_equal_a_stacked_batch_of_one_and_leave_the_snapshot_alone(variant,
                                                                           representation):
    """q_values views its snapshot's arrays as a batch of one; the bytes
    must be those of the copies stack_states makes, on snapshots whose
    CAVs are all, some or none active, and the snapshot must not change."""
    cfg = small_experiment(model_variant=variant, representation=representation,
                           scenario=scenario(n_cav=4, n_hdv=3, max_steps=20))
    net = build_network(cfg, seed=7)
    rng = np.random.default_rng(8)
    snaps = []
    for seed in range(3):
        snap = net.observe(random_rollout(cfg.scenario, seed=seed, n_steps=6), cfg.scenario)
        snaps += [snap, dataclasses.replace(snap, alive=np.zeros(4, dtype=bool))]
        snaps += [dataclasses.replace(snap, alive=rng.random(4) < 0.5) for _ in range(3)]
    assert any(0 < snap.alive.sum() < 4 for snap in snaps)
    for snap in snaps:
        before = {name: value.tobytes() for name, value in vars(snap).items()
                  if isinstance(value, np.ndarray)}
        q = net.q_values(snap)
        assert q.tobytes() == net.forward_batch(stack_states([snap])).data.tobytes()
        assert {name: getattr(snap, name).tobytes() for name in before} == before


def test_gitsr_tape_size_does_not_grow_with_batch():
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=2)
    snaps = [make_snap(net, s, cfg.scenario) for s in range(8)]
    sizes = [len(graph_nodes(net.forward_batch(stack_states(snaps[:b])))) for b in (1, 8)]
    assert sizes[0] == sizes[1]


def test_backward_frees_the_learner_graph_and_refuses_a_second_pass():
    """The default gitsr learner graph: once backward returns, every
    interior activation is freed, though the caller still holds q and the
    loss, and a second pass raises without touching a gradient."""
    cfg = ExperimentConfig()
    net = build_network(cfg, seed=0)
    states = stack_states([make_snap(net, s, cfg.scenario) for s in range(32)])
    q = net.forward_batch(states, active_only=True)
    rng = np.random.default_rng(0)
    loss = squared_error_at(q, rng.integers(0, 9, len(q.data)), rng.normal(size=len(q.data)))
    nodes = graph_nodes(loss)
    interior = [weakref.ref(n.data) for n in nodes
                if n.op != "leaf" and n is not q and n is not loss]
    assert len(interior) > 20
    del nodes
    backward(loss)
    assert sum(ref() is not None for ref in interior) == 0
    grads = {name: (p.grad, p.grad.tobytes()) for name, p in net.store.items()}
    with pytest.raises(ValueError, match="consumed"):
        backward(loss)
    for name, p in net.store.items():
        assert p.grad is grads[name][0] and p.grad.tobytes() == grads[name][1]


def test_baseline_rows_are_independent():
    # swapping the other CAV's observation must not move a baseline row
    cfg = small_experiment(model_variant="madqn")
    net = build_network(cfg, seed=2)
    snap_a, snap_b = make_snap(net, 3, cfg.scenario), make_snap(net, 4, cfg.scenario)
    q_a = net.q_values(snap_a)
    hybrid = dataclasses.replace(
        snap_a,
        sr=np.vstack([snap_a.sr[0], snap_b.sr[1]]),
        features=np.vstack([snap_a.features[0], snap_b.features[1]]),
    )
    q_h = net.q_values(hybrid)
    np.testing.assert_array_equal(q_a[0], q_h[0])
    assert not np.array_equal(q_a[1], q_h[1])


def test_baseline_refuses_features_of_every_vehicle():
    """madqn's forward reads its CAVs' own feature rows, as observe keeps
    them; a (B, n, f) stack of every vehicle's rows is refused rather than
    misread."""
    cfg = small_experiment(model_variant="madqn")
    net = build_network(cfg, seed=2)
    worlds = [random_rollout(cfg.scenario, seed=s, n_steps=4) for s in range(3)]
    full = stack_states([build_state(w, cfg.scenario, cfg.representation) for w in worlds])
    assert full.features.shape == (3, 5, 10)
    with pytest.raises(ValueError, match=r"one feature row per CAV \(2 a scene\), got 5"):
        net.forward_batch(full)


def test_gitsr_uses_graph_and_transformer_paths():
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=3)
    snap = make_snap(net, 5, cfg.scenario)
    q0 = net.q_values(snap)
    # perturbing the features of an HDV a CAV can perceive flows via the GCN
    hdv_row = next(
        i for i in range(snap.features.shape[0])
        if i >= snap.n_cavs and snap.adjacency[:snap.n_cavs, i].any()
    )
    bumped = dataclasses.replace(snap, features=snap.features.copy())
    bumped.features[hdv_row, 1] += 0.5
    assert not np.array_equal(net.q_values(bumped), q0)
    # perturbing the grid flows through the transformer
    shifted = dataclasses.replace(snap, sr=snap.sr.copy())
    shifted.sr[0, 0] += 0.5
    assert not np.array_equal(net.q_values(shifted), q0)


def two_block_experiment(variant):
    """Two transformer blocks and two graph layers, so the active-rows
    forward runs a block on its tokens alone after another, and reads the
    graph out after a layer that still sees every node."""
    return small_experiment(model_variant=variant,
                            network=dataclasses.replace(tiny_network(), n_blocks=2,
                                                        gcn_layers=2))


@pytest.mark.parametrize("representation", ["agent_centric", "scene_centric"])
@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_observe_builds_exactly_the_fields_forward_reads(variant, representation):
    """What a network observes gives the Q rows of the full snapshot, and
    each optional field it observes is one its forward cannot do without."""
    cfg = small_experiment(model_variant=variant, representation=representation)
    net = build_network(cfg, seed=4)
    world = random_rollout(cfg.scenario, seed=6, n_steps=4)
    full = build_state(world, cfg.scenario, representation)
    if variant == "madqn":      # reads only its CAVs' feature rows
        full = dataclasses.replace(full, features=full.features[:full.n_cavs])
    seen = net.observe(world, cfg.scenario)
    assert net.forward(seen).data.tobytes() == net.forward(full).data.tobytes()
    for name in ("sr", "features", "adjacency", "mask", "alive"):
        if getattr(seen, name) is not None:
            assert getattr(seen, name).tobytes() == getattr(full, name).tobytes()
    for name in ("features", "adjacency"):
        if getattr(seen, name) is not None:
            with pytest.raises((AttributeError, TypeError)):
                net.forward(dataclasses.replace(full, **{name: None}))


# Some CAVs of each of three scenes marked inactive: the active rows are 1, 2
# and 5 of six; every CAV of the last two scenes is active.
SOME_ALIVE = np.array([[0, 1], [1, 0], [0, 1], [1, 1], [1, 1]], dtype=bool)


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_forward_on_a_row_subset_matches_the_full_forward(variant):
    """The active-rows forward gives the all-rows forward's rows of the
    active CAVs, when some CAVs are inactive and when none is."""
    cfg = two_block_experiment(variant)
    net = build_network(cfg, seed=6, dtype=np.float64)
    states = stack_states([make_snap(net, s, cfg.scenario) for s in range(5)])
    for alive in (SOME_ALIVE, np.ones_like(SOME_ALIVE)):
        some = dataclasses.replace(states, alive=alive)
        full = net.forward_batch(some).data
        got = net.forward_batch(some, active_only=True).data
        assert got.shape == (np.count_nonzero(alive), 9)
        np.testing.assert_allclose(got, full[alive.reshape(-1)], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_row_subset_loss_gradient_matches_finite_differences(variant):
    cfg = two_block_experiment(variant)
    net = build_network(cfg, seed=7, dtype=np.float64)
    states = stack_states([make_snap(net, s, cfg.scenario) for s in range(3)])
    states = dataclasses.replace(states, alive=SOME_ALIVE[:3])
    rng = np.random.default_rng(7)
    weights = Tensor(rng.normal(size=(3, 9)))

    def loss():
        return sum_all(mul(net.forward_batch(states, active_only=True), weights))

    net.store.zero_grads()
    backward(loss())
    eps = 1e-6
    for name, p in net.store.items():
        assert p.grad is not None, name
        for flat in rng.choice(p.data.size, size=min(4, p.data.size), replace=False):
            i = np.unravel_index(flat, p.data.shape)
            keep = p.data[i]
            with no_grad():
                p.data[i] = keep + eps
                hi = loss().item()
                p.data[i] = keep - eps
                lo = loss().item()
            p.data[i] = keep
            numeric = (hi - lo) / (2 * eps)
            assert abs(p.grad[i] - numeric) <= 1e-6 * max(1.0, abs(numeric)), (name, i)


# -- inactive CAVs leave the transformer ----------------------------------


def padded_reference_q(net, states):
    """Q rows computed for every CAV row: every token embedded, and in every
    block each token attending, in an explicit loop, to its scene's active
    tokens if it is active and to itself only if not."""
    alive = states.alive
    n_scenes, m = alive.shape
    x = grid_rows(states) @ net.transformer.embed_w.data + net.transformer.embed_b.data
    dh = x.shape[1] // net.net_cfg.n_heads
    for blk in net.transformer.blocks:
        q, k, v = x @ blk.wq.data, x @ blk.wk.data, x @ blk.wv.data
        attended = np.zeros_like(x)
        for b, i in np.ndindex(n_scenes, m):
            keys = [b * m + j for j in range(m) if alive[b, i] and alive[b, j] or i == j]
            for h in range(net.net_cfg.n_heads):
                c = slice(h * dh, (h + 1) * dh)
                s = k[keys, c] @ q[b * m + i, c] / np.sqrt(dh)
                e = np.exp(s - s.max())
                attended[b * m + i, c] = e / e.sum() @ v[keys, c]
        h = attended @ blk.wo.data + x
        y = np.maximum(h @ blk.mlp_w1.data + blk.mlp_b1.data, 0) @ blk.mlp_w2.data
        y += blk.mlp_b2.data
        centred = y - y.mean(axis=1, keepdims=True)
        x = centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + 1e-5)
        x = x * blk.ln_g.data + blk.ln_b.data
    if net.variant == "gitsr":
        graph = gcn_forward(Tensor(states.features.reshape(-1, states.features.shape[-1])),
                            gcn_normalize(states.adjacency.astype(float)), net.gcn_weights).data
        # every node's row, of which the CAVs', nodes 0..m-1 of each scene
        graph = graph.reshape(n_scenes, -1, graph.shape[1])[:, :m]
        x = np.hstack([x, graph.reshape(x.shape[0], -1)])
    return np.maximum(x @ net.q_w1.data + net.q_b1.data, 0) @ net.q_w2.data + net.q_b2.data


MIXED_ALIVE = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0],
                        [0, 0, 0, 1], [1, 1, 1, 0], [0, 1, 1, 0]], dtype=bool)


def mixed_batch(variant, representation):
    """Six four-CAV scenes with 4, 0, 2, 1, 3 and 2 CAVs marked active."""
    cfg = small_experiment(model_variant=variant, representation=representation,
                           scenario=scenario(n_cav=4, n_hdv=4, max_steps=30),
                           network=dataclasses.replace(tiny_network(), n_blocks=2, gcn_layers=2))
    net = build_network(cfg, seed=1, dtype=np.float64)
    snaps = [build_state(random_rollout(cfg.scenario, seed, 3), cfg.scenario, representation)
             for seed in range(len(MIXED_ALIVE))]
    return net, dataclasses.replace(stack_states(snaps), alive=MIXED_ALIVE)


def scene(states, b):
    return StateBatch(**{f.name: None if getattr(states, f.name) is None
                         else getattr(states, f.name)[b:b + 1]
                         for f in dataclasses.fields(StateBatch)})


@pytest.mark.parametrize("representation", ["agent_centric", "scene_centric"])
@pytest.mark.parametrize("variant", ["gitsr", "madqn_transformer"])
def test_packed_forward_matches_a_padded_reference(variant, representation):
    net, states = mixed_batch(variant, representation)
    want = padded_reference_q(net, states)
    np.testing.assert_allclose(net.forward_batch(states).data, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(net.forward_batch(states, active_only=True).data,
                               want[states.alive.reshape(-1)], rtol=0, atol=1e-12)
    m = states.alive.shape[1]
    for b in range(len(states.alive)):   # one scene: its active rows are the whole scene
        one = scene(states, b)
        np.testing.assert_allclose(net.forward_batch(one).data, want[b * m:(b + 1) * m],
                                   rtol=0, atol=1e-12)
        if one.alive.any():
            np.testing.assert_allclose(net.forward_batch(one, active_only=True).data,
                                       want[b * m + np.flatnonzero(one.alive)],
                                       rtol=0, atol=1e-12)


def snapshots_with_gone_cavs(cfg, count=3):
    """Snapshots of random play in which some, not all, CAVs have left."""
    out = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        world = reset(cfg.scenario, seed)
        while not episode_done(world, cfg.scenario):
            step(world, {vid: ActionCommand.from_index(int(rng.integers(9)))
                         for vid in world.active_cav_ids()}, cfg.scenario)
            snap = build_state(world, cfg.scenario, cfg.representation)
            if 0 < snap.alive.sum() < snap.n_cavs:
                out.append(snap)
                break
        if len(out) == count:
            return out
    raise AssertionError("random play left no partly active scene")


@pytest.mark.parametrize("representation", ["agent_centric", "scene_centric"])
@pytest.mark.parametrize("variant", ["gitsr", "madqn_transformer"])
def test_every_inactive_cav_gets_the_same_finite_q_row(variant, representation):
    cfg = small_experiment(model_variant=variant, representation=representation,
                           scenario=scenario(n_cav=4, n_hdv=4, max_steps=60))
    net = build_network(cfg, seed=2, dtype=np.float64)
    snaps = snapshots_with_gone_cavs(cfg)
    states = stack_states(snaps)
    q = net.forward_batch(states).data
    gone = q[~states.alive.reshape(-1)]
    assert len(gone) >= 3 and np.isfinite(gone).all()
    np.testing.assert_allclose(gone, np.tile(gone[:1], (len(gone), 1)), rtol=0, atol=1e-12)
    for snap in snaps:   # the actor's B=1 forward gives the same row
        np.testing.assert_allclose(net.q_values(snap)[~snap.alive], gone[:(~snap.alive).sum()],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(q, padded_reference_q(net, states), rtol=0, atol=1e-12)


def test_transformer_only_scene_centric_gives_every_active_cav_one_q_row():
    """Pins a known defect of the madqn_transformer x scene_centric ablation
    cell: every CAV's input row is the same scene grid and the transformer
    has no ego or positional signal, so all active CAVs get bit-identical Q
    rows and take the same greedy action.  An ego marker in the grid rows
    would end this; the test then changes with it."""
    cfg = small_experiment(model_variant="madqn_transformer", representation="scene_centric",
                           scenario=scenario(max_steps=30))
    net = build_network(cfg, seed=3)
    checked = 0
    for env_seed in range(5):
        rng = np.random.default_rng(env_seed)
        world = reset(cfg.scenario, env_seed)
        while True:
            snap = net.observe(world, cfg.scenario)
            if snap.alive.sum() > 1:
                q = net.q_values(snap)[snap.alive]
                assert np.isfinite(q).all()
                np.testing.assert_array_equal(q, np.tile(q[:1], (len(q), 1)))
                checked += 1
            if episode_done(world, cfg.scenario):
                break
            step(world, {vid: ActionCommand.from_index(int(rng.integers(9)))
                         for vid in world.active_cav_ids()}, cfg.scenario)
    assert checked >= 20


def test_network_seed_determinism():
    cfg = small_experiment()
    a = build_network(cfg, seed=11)
    b = build_network(cfg, seed=11)
    c = build_network(cfg, seed=12)
    names_a = [n for n, _ in a.store.items()]
    assert names_a == [n for n, _ in b.store.items()]
    for (_, pa), (_, pb) in zip(a.store.items(), b.store.items()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert any(pa.data.tobytes() != pc.data.tobytes()
               for (_, pa), (_, pc) in zip(a.store.items(), c.store.items()))


# sha256 of the parameters' little-endian bytes, in store order, of the
# default network at seed 0: pins the initial draw and its order
INITIAL_WEIGHTS = [
    ("gitsr", "agent_centric", np.float32,
     "3ff1271345e7c6c8317e50f13bf3f29322414b548c1919c60748ad218d74f1f8"),
    ("gitsr", "scene_centric", np.float32,
     "a53b4fdc8ea69b45d2b9c13d2c303411b573e7f597f5d1e063594a4249c28fd0"),
    ("madqn_transformer", "agent_centric", np.float32,
     "296aeb16d2747820f2e32c762f7ab839bc1eb27a56a2f052a762980506fd77c6"),
    ("madqn_transformer", "scene_centric", np.float32,
     "781485afdb8f56c9d34b519ac8ce9e886b5fe58409edc750f9cd9ae30c301854"),
    ("madqn", "agent_centric", np.float32,
     "667cb888c6769349360eb028a101b934509bd21a69392364ed3b8049fb9122d2"),
    ("madqn", "scene_centric", np.float32,
     "6248c92194d4daa6245f651f62ebf2d529f697a3480bcd09ae7241288fee6dcd"),
    ("gitsr", "agent_centric", np.float64,
     "8dbb1290dfcc7ef739f2c58bd6d9bf81419b9f695c00228fee3ee57a8a9c793f"),
]


@pytest.mark.parametrize("variant, representation, dtype, digest", INITIAL_WEIGHTS)
def test_initial_weights_are_pinned(variant, representation, dtype, digest):
    net = build_network(ExperimentConfig(model_variant=variant, representation=representation),
                        seed=0, dtype=dtype)
    raw = b"".join(p.data.astype(f"<f{p.data.itemsize}").tobytes() for _, p in net.store.items())
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("move, bound", [("build", 1.5), ("save", 0.5), ("load", 1.5)])
def test_build_save_and_load_move_the_buffer_whole(move, bound, tmp_path):
    """Traced peak of each move, in parameter bytes, for the default gitsr:
    a build casts each float64 draw into the buffer (no copy of the network
    and no float64 one), a save writes the buffer as it is, and a load reads
    the blob into the array the network keeps.  The first call in a process
    also imports modules lazily, so a second is traced."""
    net = build_network(ExperimentConfig(), seed=0)
    save_checkpoint(tmp_path / "ckpt", net)
    run = {"build": lambda: build_network(ExperimentConfig(), seed=0),
           "save": lambda: save_checkpoint(tmp_path / "ckpt", net),
           "load": lambda: network_from_checkpoint(tmp_path / "ckpt")}[move]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * net.store.buffer.nbytes


def test_each_network_owns_one_buffer_that_its_parameters_view(tmp_path):
    net = build_network(small_experiment(model_variant="gitsr"), seed=8)
    save_checkpoint(tmp_path, net)
    nets = [net, net.clone(), network_from_checkpoint(tmp_path)]
    for owner in nets:
        for name, p in owner.store.items():
            assert [np.shares_memory(p.data, other.store.buffer) for other in nets] == \
                [other is owner for other in nets], name


def test_checkpoint_of_another_float_dtype_loads_as_float32(tmp_path):
    """A float64 blob, with its offsets in float64 bytes, loads cast to float32."""
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=6)
    save_checkpoint(tmp_path, net)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["dtype"] = "<f8"
    for entry in manifest["params"]:
        entry["offset"] *= 2
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "params.bin").write_bytes(net.store.buffer.astype("<f8").tobytes())
    restored = network_from_checkpoint(tmp_path)
    assert restored.store.dtype == np.float32
    assert restored.store.buffer.tobytes() == net.store.buffer.tobytes()


@pytest.mark.parametrize("source", ["clone", "checkpoint"])
def test_copies_draw_nothing_and_own_their_parameters(source, tmp_path, monkeypatch):
    """A clone or a loaded network holds its source's weights, drawn by no
    one, in writable arrays of its own (never views of the read-only blob):
    a step on it moves no byte of the source network or the checkpoint."""
    net = build_network(small_experiment(model_variant="gitsr"), seed=8)
    before = {name: p.data.copy() for name, p in net.store.items()}
    save_checkpoint(tmp_path, net)

    def no_draw(*args):
        raise AssertionError("an initial weight was drawn")

    monkeypatch.setattr(network_module, "_initial", no_draw)
    twin = net.clone() if source == "clone" else network_from_checkpoint(tmp_path)
    for name, p in twin.store.items():
        assert p.data.tobytes() == before[name].tobytes()
        assert p.data.flags.writeable
        p.grad = np.ones_like(p.data)
    Adam(twin.store, 1e-3).step()
    _, stored = load_checkpoint(tmp_path)
    for name, p in twin.store.items():
        assert not np.array_equal(p.data, before[name])
        assert net.store.params[name].data.tobytes() == before[name].tobytes()
        assert stored[name].tobytes() == before[name].tobytes()


def test_clone_copies_parameters():
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=4)
    twin = net.clone()
    snap = make_snap(net, 6, cfg.scenario)
    np.testing.assert_array_equal(net.q_values(snap), twin.q_values(snap))
    twin.store.params["qhead.b2"].data += 1.0
    assert not np.array_equal(net.q_values(snap), twin.q_values(snap))


def test_nan_weight_reaches_the_q_check():
    # a NaN pre-activation propagates through ReLU instead of becoming 0
    cfg = small_experiment(model_variant="gitsr")
    net = build_network(cfg, seed=2)
    snap = make_snap(net, 1, cfg.scenario)
    assert np.isfinite(net.q_values(snap)).all()
    net.store.params["qhead.w1"].data[0, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite Q values"):
        net.q_values(snap)


def test_check_finite_grads_names_offender():
    net = build_network(small_experiment(), seed=5)
    for name, p in net.store.items():
        p.grad = np.zeros_like(p.data)
    net.store.params["qhead.w1"].grad[0, 0] = np.nan
    with pytest.raises(TrainingError, match="qhead.w1"):
        net.store.check_finite_grads()


# -- checkpoints ----------------------------------------------------------


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_checkpoint_round_trip_is_bit_exact(variant, tmp_path):
    cfg = small_experiment(model_variant=variant)
    net = build_network(cfg, seed=6)
    save_checkpoint(tmp_path, net)
    meta, arrays = load_checkpoint(tmp_path)
    assert meta["variant"] == variant
    for name, p in net.store.items():
        assert arrays[name].tobytes() == p.data.astype("<f4").tobytes()
    restored = network_from_checkpoint(tmp_path)
    snap = make_snap(net, 7, cfg.scenario)
    np.testing.assert_array_equal(net.q_values(snap), restored.q_values(snap))


def test_save_checkpoint_refuses_non_finite_weights(tmp_path):
    net = build_network(small_experiment(), seed=6)
    net.store.params["qhead.w1"].data[0, 0] = np.nan
    with pytest.raises(CheckpointError, match="qhead.w1"):
        save_checkpoint(tmp_path / "ckpt", net)
    assert not (tmp_path / "ckpt" / "manifest.json").exists()
    assert not (tmp_path / "ckpt" / "params.bin").exists()


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    cfg = small_experiment(model_variant="gitsr")
    old, new = build_network(cfg, seed=6), build_network(cfg, seed=7)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, old)

    write_text = Path.write_text

    def failing_manifest(path, *args, **kwargs):
        if path.name == "manifest.json":
            raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    rename = Path.rename

    def failing_final_rename(path, target):
        if Path(target) == ckpt and not path.name.endswith(".old"):
            raise OSError("rename failed")
        return rename(path, target)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_text", failing_manifest)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, new)
    with monkeypatch.context() as patched:
        patched.setattr(Path, "rename", failing_final_rename)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(ckpt, new)
    new.store.params["qhead.b2"].data[0, 0] = np.inf
    with pytest.raises(CheckpointError):
        save_checkpoint(ckpt, new)

    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]   # no staging or .old left behind
    _, arrays = load_checkpoint(ckpt)
    for name, p in old.store.items():
        assert arrays[name].tobytes() == p.data.astype("<f4").tobytes()


def test_checkpoint_rejects_mismatched_architecture(tmp_path):
    save_checkpoint(tmp_path, build_network(small_experiment(model_variant="gitsr"), seed=7))
    path = tmp_path / "manifest.json"
    pristine = json.loads(path.read_text())

    def madqn_meta(manifest):
        manifest["meta"]["variant"] = "madqn"

    def narrower_qhead(manifest):
        next(e for e in manifest["params"] if e["name"] == "qhead.w2")["shape"][1] = 5

    def extra_parameter(manifest):
        manifest["params"].append({"name": "extra.w", "shape": [1, 1], "offset": 0})

    for damage, culprit in [(madqn_meta, "qhead.w1"), (narrower_qhead, "qhead.w2"),
                            (extra_parameter, "extra.w")]:
        manifest = copy.deepcopy(pristine)
        damage(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError,
                           match=f"does not fit its parameters: '{culprit}'"):
            network_from_checkpoint(tmp_path)


def test_checkpoint_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nowhere")
