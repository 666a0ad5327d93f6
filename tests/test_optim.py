import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ramplab.config import ExperimentConfig
from ramplab.network import ParamStore, build_network
from ramplab.optim import (
    BETA1,
    BETA2,
    EPS,
    SUBNORMAL_FLUSH_EVERY,
    Adam,
    clip_global_grad_norm,
)


def store_with(dtype=np.float64, **arrays):
    """A store of ``dtype`` holding ``arrays``, laid out in their order."""
    shapes = [(name, np.shape(arr)) for name, arr in arrays.items()]
    store = ParamStore(shapes, np.zeros(sum(np.size(arr) for arr in arrays.values()), dtype))
    for name, arr in arrays.items():
        store.params[name].data[...] = arr
    return store


def set_grads(store, **grads):
    for name, g in grads.items():
        store.params[name].grad = np.asarray(g, dtype=float)


def test_first_step_moves_by_almost_lr():
    store = store_with(p=[[1.0]])
    opt = Adam(store, lr=0.1)
    set_grads(store, p=[[1.0]])
    opt.step()
    # bias correction makes the very first step lr * g / (|g| + eps)
    assert store.params["p"].data[0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)


def test_constant_gradient_steps_are_size_lr():
    store = store_with(p=[[0.0]])
    opt = Adam(store, lr=0.1)
    for _ in range(10):
        set_grads(store, p=[[2.0]])
        opt.step()
    want = -10 * 0.1 * (2.0 / (2.0 + 1e-8))
    assert store.params["p"].data[0, 0] == pytest.approx(want, abs=1e-9)


def test_update_direction_opposes_gradient_sign():
    store = store_with(p=[[0.0, 0.0]])
    opt = Adam(store, lr=0.01)
    set_grads(store, p=[[3.0, -0.004]])
    opt.step()
    p = store.params["p"].data[0]
    assert p[0] < 0.0 < p[1]
    # Adam normalises per coordinate: both moves are about lr in size
    assert abs(p[0]) == pytest.approx(0.01, rel=1e-5)
    assert abs(p[1]) == pytest.approx(0.01, rel=1e-3)


def test_missing_gradient_freezes_param_and_moments():
    store = store_with(a=[[1.0]], b=[[1.0]])
    opt = Adam(store, lr=0.1)
    set_grads(store, a=[[1.0]])
    opt.step()
    assert store.params["b"].data[0, 0] == 1.0
    assert opt.m["b"][0, 0] == 0.0 and opt.v["b"][0, 0] == 0.0
    assert opt.m["a"][0, 0] != 0.0


def test_step_clears_gradient_slots():
    store = store_with(a=[[1.0]])
    opt = Adam(store, lr=0.1)
    set_grads(store, a=[[1.0]])
    opt.step()
    assert store.params["a"].grad is None


def test_zero_gradient_is_a_no_op_update():
    store = store_with(a=[[5.0]])
    opt = Adam(store, lr=0.1)
    set_grads(store, a=[[0.0]])
    opt.step()
    assert store.params["a"].data[0, 0] == 5.0


def test_descends_a_quadratic():
    store = store_with(p=[[4.0]])
    opt = Adam(store, lr=0.05)
    for _ in range(400):
        p = store.params["p"].data[0, 0]
        set_grads(store, p=[[2.0 * p]])     # d/dp p^2
        opt.step()
    assert abs(store.params["p"].data[0, 0]) < 1e-2


def test_matches_textbook_adam_over_300_steps():
    """Standard m, v and bias corrections (Kingma & Ba, Algorithm 1); ``b``
    misses its gradient on every third step."""
    rng = np.random.default_rng(21)
    init = {"w": rng.standard_normal((6, 5)), "b": rng.standard_normal((1, 5))}
    store = store_with(**init)
    opt = Adam(store, lr=1e-2)
    ref = {name: arr.copy() for name, arr in init.items()}
    m = {name: np.zeros_like(arr) for name, arr in init.items()}
    v = {name: np.zeros_like(arr) for name, arr in init.items()}
    for t in range(1, 301):
        grads = {name: rng.standard_normal(arr.shape) for name, arr in init.items()}
        if t % 3 == 0:
            del grads["b"]
        for name, g in grads.items():
            m[name] = BETA1 * m[name] + (1 - BETA1) * g
            v[name] = BETA2 * v[name] + (1 - BETA2) * g * g
            m_hat = m[name] / (1 - BETA1 ** t)
            v_hat = v[name] / (1 - BETA2 ** t)
            ref[name] = ref[name] - 1e-2 * m_hat / (np.sqrt(v_hat) + EPS)
        before = [store.params["b"].data.copy(), opt.m["b"].copy(), opt.v["b"].copy()]
        set_grads(store, **grads)
        opt.step()
        if "b" not in grads:
            after = [store.params["b"].data, opt.m["b"], opt.v["b"]]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))
        for name in init:
            # the stored moments are the textbook ones pre-divided
            for got, want in ((store.params[name].data, ref[name]),
                              (opt.m[name], m[name] / (1 - BETA1)),
                              (opt.v[name], v[name] / (1 - BETA2))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (t, name)
    assert opt.t == 300


def test_flush_zeroes_subnormal_moments_and_moves_no_parameter():
    """One tiny gradient, then zeros: M decays by beta1 into the float32
    subnormals and sticks there (beta1 k 2^-149 rounds back to k for k <= 4),
    and V = g^2 starts there.  The flushes leave both exactly +0.0, and the
    parameters stay bit-identical to an Adam without the flush, written out
    here with the same float32 operations in the same order."""
    lr, steps = 1e-3, 10 * SUBNORMAL_FLUSH_EVERY
    init = np.array([[0.5, 1e-12, -3e-13]], dtype=np.float32)
    grad = np.array([[1e-19, -4e-20, 2e-20]], dtype=np.float32)
    store = store_with(np.float32, p=init)
    opt = Adam(store, lr)
    ref, m, v = init.copy(), np.zeros_like(init), np.zeros_like(init)
    for t in range(1, steps + 1):
        g = grad.copy() if t == 1 else np.zeros_like(grad)
        store.params["p"].grad = g.copy()
        opt.step()
        root = math.sqrt((1.0 - BETA2) / (1.0 - BETA2 ** t))
        m *= BETA1
        m += g
        v *= BETA2
        v += g * g
        ref -= m / (np.sqrt(v) + EPS / root) * (lr * (1.0 - BETA1) / ((1.0 - BETA1 ** t) * root))
        assert store.params["p"].data.tobytes() == ref.tobytes(), t
    tiny = np.finfo(np.float32).tiny
    assert (m != 0).all() and (np.abs(m) < tiny).all()    # stuck without the flush
    assert (v != 0).all() and (v < tiny).all()
    assert (ref[0, 1:] != init[0, 1:]).all()               # the small entries did move
    zeros = np.zeros_like(init).tobytes()
    assert opt.m["p"].tobytes() == zeros and opt.v["p"].tobytes() == zeros


def test_clip_scales_to_max_norm_and_reports_preclip():
    store = store_with(a=[[3.0]], b=[[4.0]])
    set_grads(store, a=[[3.0]], b=[[4.0]])
    norm = clip_global_grad_norm(store, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(store.params["a"].grad[0, 0] ** 2 + store.params["b"].grad[0, 0] ** 2)
    assert clipped == pytest.approx(1.0)


def test_clip_leaves_small_gradients_alone():
    store = store_with(a=[[0.3]])
    set_grads(store, a=[[0.3]])
    norm = clip_global_grad_norm(store, max_norm=10.0)
    assert norm == pytest.approx(0.3)
    assert store.params["a"].grad[0, 0] == 0.3


def test_clip_skips_missing_gradients():
    store = store_with(a=[[1.0]], b=[[1.0]])
    set_grads(store, a=[[6.0]])
    norm = clip_global_grad_norm(store, max_norm=3.0)
    assert norm == pytest.approx(6.0)
    assert store.params["a"].grad[0, 0] == pytest.approx(3.0)
    assert store.params["b"].grad is None


def test_clip_norm_of_huge_gradients_is_finite_and_exact():
    # squares of ~1e20 overflow float32, so the reduction must run in float64,
    # and the overflow must not surface as a warning
    store = store_with(np.float32, a=np.zeros((1, 2)), b=np.zeros((1, 1)))
    store.params["a"].grad = np.array([[3e20, 0.0]], dtype=np.float32)
    store.params["b"].grad = np.array([[4e20]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_global_grad_norm(store, max_norm=1.0)
    assert norm == pytest.approx(5e20, rel=1e-6)
    assert store.params["a"].grad[0, 0] == pytest.approx(0.6, rel=1e-6)
    assert store.params["b"].grad[0, 0] == pytest.approx(0.8, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_returns_non_finite_norm_and_leaves_gradients_unscaled(bad):
    store = store_with(np.float32, a=np.zeros((1, 2)), b=np.zeros((1, 1)))
    store.params["a"].grad = np.array([[bad, 30.0]], dtype=np.float32)
    store.params["b"].grad = np.array([[40.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_global_grad_norm(store, max_norm=1.0)
    assert not np.isfinite(norm)
    np.testing.assert_array_equal(store.params["a"].grad, [[bad, 30.0]])
    np.testing.assert_array_equal(store.params["b"].grad, [[40.0]])


def unit_normal_grads(store, rng):
    for _, tensor in store.items():
        tensor.grad = rng.standard_normal(tensor.data.shape).astype(store.dtype)


def test_float32_clip_norm_tracks_a_float64_reference():
    store = build_network(ExperimentConfig(), seed=0).store
    assert store.dtype == np.float32
    unit_normal_grads(store, np.random.default_rng(4))
    want = np.sqrt(sum(np.sum(t.grad.astype(np.float64) ** 2) for _, t in store.items()))
    assert clip_global_grad_norm(store, np.inf) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_moments_take_the_store_dtype(dtype):
    store = store_with(dtype, w=np.ones((3, 2)))
    opt = Adam(store, lr=0.1)
    unit_normal_grads(store, np.random.default_rng(0))
    opt.step()
    assert opt.m["w"].dtype == opt.v["w"].dtype == store.dtype
    assert store.params["w"].data.dtype == store.dtype


def test_float32_store_tracks_float64_store():
    rng = np.random.default_rng(7)
    init = {"w": rng.standard_normal((16, 8)), "b": rng.standard_normal((1, 8))}
    stores = {dtype: store_with(dtype, **init) for dtype in (np.float32, np.float64)}
    opts = {dtype: Adam(store, lr=1e-2) for dtype, store in stores.items()}
    grad_rng = np.random.default_rng(8)
    for _ in range(50):
        grads = {name: grad_rng.standard_normal(arr.shape) for name, arr in init.items()}
        for dtype, store in stores.items():
            for name, g in grads.items():
                store.params[name].grad = g.astype(dtype)
            opts[dtype].step()
    for name in init:
        np.testing.assert_allclose(stores[np.float32].params[name].data,
                                   stores[np.float64].params[name].data, rtol=0, atol=1e-5)


def test_clip_and_step_allocate_no_parameter_sized_arrays():
    store = build_network(ExperimentConfig(), seed=0).store
    assert store.dtype == np.float32
    param_bytes = sum(t.data.nbytes for _, t in store.items())
    opt = Adam(store, lr=1e-3)
    rng = np.random.default_rng(0)
    unit_normal_grads(store, rng)
    clip_global_grad_norm(store, 10.0)
    opt.step()                        # warm-up: lazy set-up is not a per-step cost
    unit_normal_grads(store, rng)
    tracemalloc.start()
    try:
        clip_global_grad_norm(store, 10.0)
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param_bytes / 4


def test_adam_state_is_two_moments_only():
    """Adam holds m and v and no other parameter-sized array: a step works
    in the gradient it consumes.  A scratch array the size of the largest
    parameter would not fit in the 64 KB slack."""
    store = build_network(ExperimentConfig(), seed=0).store
    param_bytes = sum(t.data.nbytes for _, t in store.items())
    assert max(t.data.nbytes for _, t in store.items()) > 64 * 1024
    tracemalloc.start()
    try:
        opt = Adam(store, lr=1e-3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * param_bytes <= held < 2 * param_bytes + 64 * 1024
