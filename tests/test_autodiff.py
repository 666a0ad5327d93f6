"""Gradient checks: every operation against central finite differences."""
import numpy as np
import pytest

from _helpers import reference_squared_error
from ramplab import autodiff as ad
from ramplab.network import ParamStore
from ramplab.optim import clip_global_grad_norm

RNG = np.random.default_rng(7)


def leaf(shape, scale=1.0):
    return ad.Tensor(RNG.normal(size=shape) * scale, requires_grad=True)


def finite_diff(f, tensors, eps=1e-6):
    """Central-difference gradient of scalar f() wrt each tensor's data."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f().item()
            flat[i] = keep - eps
            lo = f().item()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check_op(build, *tensors, atol=1e-7):
    loss = build()
    ad.backward(loss)
    numeric = finite_diff(build, tensors)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-5)


# -- finite-difference checks, one per op ---------------------------------


def test_matmul_grads():
    a, b = leaf((3, 4)), leaf((4, 2))
    check_op(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), a, b)


def test_scene_matmul_grads_and_layout():
    e = RNG.normal(size=(2, 3, 3))
    a = leaf((6, 4))
    out = ad.scene_matmul(e, a)
    np.testing.assert_allclose(out.data, np.vstack([e[0] @ a.data[:3], e[1] @ a.data[3:]]))
    w = ad.Tensor(RNG.normal(size=(6, 4)))
    check_op(lambda: ad.sum_all(ad.mul(ad.scene_matmul(e, a), w)), a)


def test_scene_matmul_with_fewer_output_rows_than_nodes():
    e = RNG.normal(size=(2, 1, 3))   # one output row per scene from three
    a = leaf((6, 4))
    out = ad.scene_matmul(e, a)
    np.testing.assert_allclose(out.data, np.vstack([e[0] @ a.data[:3], e[1] @ a.data[3:]]))
    w = ad.Tensor(RNG.normal(size=(2, 4)))
    check_op(lambda: ad.sum_all(ad.mul(ad.scene_matmul(e, a), w)), a)


def naive_scene_attention(q, k, v, n_scenes, n_heads):
    """Per scene, per head: softmax(q k^T / sqrt(d/h)) v, column blocks joined."""
    m, dh = q.shape[0] // n_scenes, q.shape[1] // n_heads
    out = np.zeros_like(q)
    for b in range(n_scenes):
        for i in range(n_heads):
            r, c = slice(b * m, (b + 1) * m), slice(i * dh, (i + 1) * dh)
            s = q[r, c] @ k[r, c].T / np.sqrt(dh)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            out[r, c] = (e / e.sum(axis=1, keepdims=True)) @ v[r, c]
    return out


def test_scene_attention_grads_and_oracle():
    q, k, v = leaf((6, 4)), leaf((6, 4)), leaf((6, 4))
    out = ad.scene_attention(q, k, v, 2, 2)
    np.testing.assert_allclose(out.data, naive_scene_attention(q.data, k.data, v.data, 2, 2),
                               rtol=1e-12, atol=1e-14)
    w = ad.Tensor(RNG.normal(size=(6, 4)))
    check_op(lambda: ad.sum_all(ad.mul(ad.scene_attention(q, k, v, 2, 2), w)), q, k, v)


def test_scene_attention_is_shift_invariant_and_overflow_safe():
    # a shared first key column shifts every score of a row by ~1e3
    rng = np.random.default_rng(11)
    qs, k, v = rng.normal(size=(3, 1)), rng.normal(size=(3, 1)), rng.normal(size=(3, 2))
    ones = np.ones((3, 1))
    big = ad.scene_attention(ad.Tensor(np.hstack([1e3 * np.sqrt(2) * ones, qs])),
                             ad.Tensor(np.hstack([ones, k])), ad.Tensor(v), 1, 1)
    small = ad.scene_attention(ad.Tensor(np.hstack([0 * ones, qs])),
                               ad.Tensor(np.hstack([ones, k])), ad.Tensor(v), 1, 1)
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, small.data, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_key_reductions_match_axis_reductions_bytes(dtype):
    for shape in [(32, 4, 4, 4), (40, 4, 7, 7), (1, 4, 4, 4), (200, 4, 1, 1)]:
        a = RNG.normal(size=shape).astype(dtype)
        for ufunc in (np.maximum, np.add):
            got = ad._reduce_keys(ufunc, a)
            assert got.tobytes() == ufunc.reduce(a, axis=-1, keepdims=True).tobytes()


def test_scene_attention_rejects_uneven_scene_split():
    x = ad.Tensor(np.zeros((6, 4)))
    with pytest.raises(ValueError):
        ad.scene_attention(x, x, x, 4, 2)


def masked_naive_attention(q, k, v, alive, n_heads):
    """Every token of every scene, ghost keys masked in an explicit loop: an
    active token sees its scene's active tokens, an inactive one itself."""
    n_scenes, m = alive.shape
    dh = q.shape[1] // n_heads
    out = np.zeros_like(q)
    for b in range(n_scenes):
        for i in range(m):
            keys = [b * m + j for j in range(m) if alive[b, i] and alive[b, j] or i == j]
            for h in range(n_heads):
                c = slice(h * dh, (h + 1) * dh)
                s = k[keys, c] @ q[b * m + i, c] / np.sqrt(dh)
                e = np.exp(s - s.max())
                out[b * m + i, c] = e / e.sum() @ v[keys, c]
    return out


def test_scene_attention_key_mask_on_every_row_and_on_the_active_rows():
    alive = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    q, k, v = leaf((12, 4)), leaf((12, 4)), leaf((12, 4))
    full = ad.scene_attention(q, k, v, 4, 2, alive)
    np.testing.assert_allclose(full.data, masked_naive_attention(q.data, k.data, v.data, alive, 2),
                               rtol=1e-12, atol=1e-14)
    rows = np.flatnonzero(alive)
    qa, ka, va = (leaf((rows.size, 4)) for _ in range(3))
    for t, src in zip((qa, ka, va), (q, k, v)):
        t.data[...] = src.data[rows]
    packed = ad.scene_attention(qa, ka, va, 4, 2, alive)
    np.testing.assert_allclose(packed.data, full.data[rows], rtol=1e-12, atol=1e-14)
    w = ad.Tensor(RNG.normal(size=(12, 4)))
    check_op(lambda: ad.sum_all(ad.mul(ad.scene_attention(q, k, v, 4, 2, alive), w)), q, k, v)
    wa = ad.Tensor(w.data[rows])
    check_op(lambda: ad.sum_all(ad.mul(ad.scene_attention(qa, ka, va, 4, 2, alive), wa)),
             qa, ka, va)
    with pytest.raises(ValueError):
        ad.scene_attention(qa, ka, va, 4, 2, alive[:, :2])


def test_backward_hands_a_shared_gradient_to_each_leaf_as_its_own_copy():
    """By the one-owner rule add copies for its second parent; the clip
    scales leaf gradients in place, so each leaf, and a leaf reached twice,
    is scaled exactly once."""
    shapes = ([(name, (2, 3)) for name in "wab"] + [(name, (2, 1)) for name in "xu"]
              + [(name, (2, 2)) for name in "yz"])
    store = ParamStore(shapes, RNG.normal(size=30))
    w, a, b, x, u, y, z = (store.params[name] for name in "wabxuyz")
    coef = RNG.normal(size=(2, 3))
    # both concats split the one array add gives them into column views
    split = ad.add(ad.concat_cols([x, y]), ad.concat_cols([u, z]))
    summed = ad.add(ad.add(w, w), ad.add(a, ad.add(b, split)))
    ad.backward(ad.sum_all(ad.mul(summed, ad.Tensor(coef))))
    want = {"w": 2 * coef, "a": coef, "b": coef, "x": coef[:, :1], "y": coef[:, 1:],
            "u": coef[:, :1], "z": coef[:, 1:]}
    norm = clip_global_grad_norm(store, 1e-3)
    for name, t in store.items():
        np.testing.assert_allclose(t.grad, want[name] * (1e-3 / norm), rtol=1e-12)


ALIVE = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

OPS = {
    "matmul": lambda: ad.matmul(leaf((3, 4)), leaf((4, 2))),
    "scene_matmul": lambda: ad.scene_matmul(RNG.normal(size=(2, 1, 3)), leaf((6, 4))),
    "add": lambda: ad.add(leaf((2, 3)), leaf((2, 3))),
    "dense": lambda: ad.dense(leaf((3, 4)), leaf((4, 2)), leaf((1, 2))),
    "mul": lambda: ad.mul(leaf((2, 3)), leaf((2, 3))),
    "relu": lambda: ad.relu(leaf((3, 4))),
    "layer_norm_rows": lambda: ad.layer_norm_rows(leaf((3, 4)), leaf((1, 4)), leaf((1, 4))),
    "scene_attention": lambda: ad.scene_attention(leaf((6, 4)), leaf((6, 4)), leaf((6, 4)),
                                                  2, 2),
    "scene_attention_key_mask": lambda: ad.scene_attention(
        leaf((12, 4)), leaf((12, 4)), leaf((12, 4)), 4, 2, ALIVE),
    "scene_attention_active_rows": lambda: ad.scene_attention(
        leaf((6, 4)), leaf((6, 4)), leaf((6, 4)), 4, 2, ALIVE),
    "concat_cols": lambda: ad.concat_cols([leaf((3, 1)), leaf((3, 2)), leaf((3, 4))]),
    "select_rows": lambda: ad.select_rows(leaf((5, 3)), np.array([3, 0, -1])),
    "sum_all": lambda: ad.sum_all(leaf((3, 4))),
    "squared_error_at": lambda: ad.squared_error_at(leaf((4, 3)), np.array([0, 2, 2, 1]),
                                                    RNG.normal(size=4)),
}


@pytest.mark.parametrize("build", OPS.values(), ids=OPS.keys())
def test_every_vjp_hands_each_parent_an_array_of_its_own(build):
    """The one-owner rule: no returned gradient shares memory with another,
    nor with the node's or a parent's data (exactly, so disjoint views pass)."""
    node = build()
    grads = node._vjp(RNG.normal(size=node.data.shape))
    assert [g.shape for g in grads] == [p.data.shape for p in node._parents]
    held = [node.data] + [p.data for p in node._parents]
    for i, g in enumerate(grads):
        for other in list(grads[i + 1:]) + held:
            assert not np.shares_memory(g, other)


def test_add_mul_grads():
    a, b = leaf((2, 3)), leaf((2, 3))
    check_op(lambda: ad.sum_all(ad.mul(ad.add(a, b), b)), a, b)


def matmul_then_bias(x, w, b):
    """The two-node chain that ``dense`` fuses: a matmul, then a new array
    with the bias row added."""
    y = ad.matmul(x, w)

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True)

    return ad._node(y.data + b.data, "add_bias", (y, b), vjp)


def test_dense_grads():
    x, w, b = leaf((4, 3)), leaf((3, 2)), leaf((1, 2))
    np.testing.assert_allclose(ad.dense(x, w, b).data, x.data @ w.data + b.data)
    check_op(lambda: ad.sum_all(ad.mul(ad.dense(x, w, b), ad.dense(x, w, b))), x, w, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_is_byte_identical_to_matmul_then_bias(dtype):
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=shape).astype(dtype) for shape in ((37, 19), (19, 23), (1, 23))]
    probe = ad.Tensor(rng.normal(size=(37, 23)).astype(dtype))
    results = []
    for op in (ad.dense, matmul_then_bias):
        x, w, b = (ad.Tensor(arr.copy(), requires_grad=True) for arr in arrays)
        y = op(x, w, b)
        ad.backward(ad.sum_all(ad.mul(y, probe)))
        results.append([t.tobytes() for t in (y.data, x.grad, w.grad, b.grad)])
    assert results[0] == results[1]


def test_dense_is_one_tape_node():
    x, w, b = leaf((2, 3)), leaf((3, 4)), leaf((1, 4))
    assert [n.op for n in ad.graph_nodes(ad.dense(x, w, b))] == ["leaf", "leaf", "leaf", "dense"]
    with pytest.raises(ValueError):
        ad.dense(x, w, leaf((1, 3)))


def test_relu_grads_away_from_kink():
    x = ad.Tensor(np.array([[1.0, -2.0, 3.0], [-0.5, 0.7, -4.0]]), requires_grad=True)
    check_op(lambda: ad.sum_all(ad.mul(ad.relu(x), ad.relu(x))), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_maps_negative_zero_to_zero_and_propagates_nan(dtype):
    x = ad.Tensor(np.array([[-0.0, np.nan, 2.0, -1.0]], dtype=dtype), requires_grad=True)
    y = ad.relu(x)
    assert y.data.dtype == dtype
    assert y.data[0, 0] == 0.0 and not np.signbit(y.data[0, 0])
    assert np.isnan(y.data[0, 1])
    ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(np.ones((1, 4), dtype=dtype)))))
    assert x.grad.tolist() == [[0.0, 0.0, 1.0, 0.0]]


def test_layer_norm_rows_grads():
    x, gain, bias = leaf((3, 6)), leaf((1, 6)), leaf((1, 6))
    out = ad.layer_norm_rows(x, gain, bias)
    assert out.data.shape == (3, 6)
    w = RNG.normal(size=(3, 6))
    check_op(
        lambda: ad.sum_all(
            ad.mul(ad.layer_norm_rows(x, gain, bias), ad.Tensor(w))
        ),
        x, gain, bias, atol=1e-6,
    )


def test_layer_norm_rows_statistics():
    x = ad.Tensor(RNG.normal(size=(4, 8)) * 3 + 2)
    ones = ad.Tensor(np.ones((1, 8)))
    zeros = ad.Tensor(np.zeros((1, 8)))
    y = ad.layer_norm_rows(x, ones, zeros).data
    np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(y.std(axis=1), np.ones(4), atol=1e-3)


def test_concat_and_slice_grads():
    a, b = leaf((3, 2)), leaf((3, 4))
    check_op(
        lambda: ad.sum_all(ad.mul(ad.concat_cols([a, b]), ad.concat_cols([a, b]))),
        a, b,
    )


def test_select_rows_gradient_on_distinct_rows():
    # a negative index counts back from the end: rows 3, 0 and 1, distinct
    a = leaf((4, 3))
    idx = np.array([-1, 0, -3])
    np.testing.assert_array_equal(ad.select_rows(a, idx).data, a.data[[3, 0, 1]])
    check_op(lambda: ad.sum_all(ad.mul(ad.select_rows(a, idx), ad.select_rows(a, idx))), a)
    b = leaf((3, 2))
    ad.backward(ad.sum_all(ad.select_rows(b, np.array([-1, 0]))))
    np.testing.assert_array_equal(b.grad, [[1, 1], [0, 0], [1, 1]])


def test_distinct_index_scatters_match_add_at_bytes():
    # distinct indices are scattered by assignment; a -0.0 upstream gradient
    # must still land as the +0.0 that adding onto zero gives
    a = leaf((6, 3))
    idx = np.array([4, 0, 5, 2])
    w = RNG.normal(size=(4, 3))
    w[1, 2] = -0.0
    ad.backward(ad.sum_all(ad.mul(ad.select_rows(a, idx), ad.Tensor(w))))
    want = np.zeros_like(a.data)
    np.add.at(want, idx, w)
    assert a.grad.tobytes() == want.tobytes()


def test_sum_all_grads():
    y = leaf((3, 4))
    ad.backward(ad.sum_all(y))
    np.testing.assert_allclose(y.grad, np.ones((3, 4)))


def test_squared_error_at_grads_with_repeated_columns():
    q = leaf((5, 4))
    cols = np.array([1, 3, 1, 0, 1])
    y = RNG.normal(size=5)
    loss = ad.squared_error_at(q, cols, y)
    assert loss.data.shape == (1, 1)
    np.testing.assert_allclose(loss.item(), np.mean((q.data[np.arange(5), cols] - y) ** 2))
    assert [n.op for n in ad.graph_nodes(loss)] == ["leaf", "squared_error_at"]
    check_op(lambda: ad.squared_error_at(q, cols, y), q)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 42, 300])
def test_squared_error_at_is_byte_identical_to_the_generic_ops(dtype, n):
    """Loss and gradient bytes equal those of the gather, subtract, square,
    sum and scale nodes the TD loss was once built from, with float64
    targets cast to the store dtype first, also under an upstream gradient
    other than 1."""
    rng = np.random.default_rng(n)
    q_data = rng.normal(size=(n, 9)).astype(dtype)
    cols = rng.integers(9, size=n)
    cols[: n // 2] = cols[0]                 # many rows share one column
    y = rng.normal(size=n) * 3
    y[0] = q_data[0, cols[0]]                # a zero error
    results = []
    for op in (ad.squared_error_at, reference_squared_error):
        q = ad.Tensor(q_data.copy(), requires_grad=True)
        loss = op(q, cols, y) if op is ad.squared_error_at else op(q, np.arange(n), cols, y)
        ad.backward(ad.mul(loss, ad.Tensor(np.full((1, 1), 0.7, dtype=dtype))))
        assert loss.data.dtype == q.grad.dtype == dtype
        results.append((loss.data.tobytes(), q.grad.tobytes()))
    assert results[0] == results[1]


def test_squared_error_at_turns_a_negative_zero_gradient_positive():
    # -0.0 - 0.0 is -0.0, and so would be its gradient entry; adding onto
    # zeros, as a scatter does, gives +0.0
    q = ad.Tensor(np.array([[-0.0, 1.0], [2.0, 3.0]]), requires_grad=True)
    ad.backward(ad.squared_error_at(q, np.array([0, 1]), np.array([0.0, 1.0])))
    assert q.grad.tolist() == [[0.0, 0.0], [0.0, 2.0]]
    assert not np.signbit(q.grad).any()


def test_matmul_grad_closed_form():
    # d/dW sum(x @ W) = x^T @ ones
    x = ad.Tensor(RNG.normal(size=(5, 3)))
    w = leaf((3, 2))
    ad.backward(ad.sum_all(ad.matmul(x, w)))
    np.testing.assert_allclose(w.grad, x.data.T @ np.ones((5, 2)))


# -- tape semantics -------------------------------------------------------


def test_backward_requires_scalar_and_grad():
    x = leaf((2, 2))
    with pytest.raises(ValueError):
        ad.backward(ad.relu(x))
    plain = ad.Tensor(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        ad.backward(plain)


def test_grad_accumulates_across_backward_calls():
    x = leaf((2, 2))
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))


def test_a_consumed_graph_refuses_a_second_pass():
    x = leaf((2, 2))
    h = ad.relu(x)
    ad.backward(ad.sum_all(h))
    first = x.grad.copy()
    # h is no leaf: a pass through it must not give it a .grad or reach x
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(ad.sum_all(h))
    assert h.grad is None
    np.testing.assert_array_equal(x.grad, first)


def test_no_grad_suppresses_taping_but_not_leaf_flags():
    x = leaf((2, 2))
    with ad.no_grad():
        y = ad.relu(x)
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    assert y._parents == ()
    assert not y.requires_grad
    assert w.requires_grad            # leaves keep their flag for later use
    z = ad.relu(x)
    assert z.requires_grad and z._parents


def test_backward_sets_grad_on_leaves_only():
    x = leaf((2, 2))
    h = ad.relu(x)
    ad.backward(ad.sum_all(h))
    assert x.grad is not None
    assert h.grad is None


def test_shared_subexpression_fans_in():
    x = leaf((2, 2))
    h = ad.relu(x)
    loss = ad.sum_all(ad.add(h, h))
    ad.backward(loss)
    expected = 2.0 * (x.data > 0)
    np.testing.assert_allclose(x.grad, expected)


def test_deep_chain_backward_is_iterative():
    # would blow the recursion limit if backward recursed
    x = ad.Tensor(np.ones((1, 1)), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.relu(y)
    ad.backward(ad.sum_all(y))
    np.testing.assert_allclose(x.grad, [[1.0]])


def test_graph_nodes_topological_order():
    x = leaf((2, 2))
    h = ad.relu(x)
    loss = ad.sum_all(h)
    order = ad.graph_nodes(loss)
    assert order.index(x) < order.index(h) < order.index(loss)
    ops = [n.op for n in order]
    assert ops == ["leaf", "relu", "sum"]


def test_every_array_entry_but_tensor_names_the_tape_op_of_its_name():
    """A forward written against ``ops`` runs on either table, so each entry
    of ``on_arrays`` but ``Tensor`` must stand for an autodiff op that
    builds a node under the same name."""
    names = set(vars(ad.on_arrays)) - {"Tensor"}
    assert names
    for name in sorted(names):
        op = getattr(ad, name, None)
        assert callable(op) and op.__name__ == name and op.__module__ == ad.__name__, name
        assert "_node" in op.__code__.co_names, name


def test_tensor_rejects_non_2d():
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros((2, 2, 2)))


def test_backward_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        h = ad.relu(ad.matmul(a, b))
        ad.backward(ad.sum_all(ad.mul(h, h)))
        return a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()
