"""Adam with bias correction, plus global gradient-norm clipping.

Both update in place: a step allocates no array the size of a parameter.
``Adam.m`` and ``Adam.v`` hold the moments pre-divided by (1 - beta1) and
(1 - beta2), as views of one buffer each; see :class:`Adam`."""
from __future__ import annotations

import math

import numpy as np

from ramplab.network import ParamStore, param_views

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Adam sets its moment entries below the dtype's smallest normal to +0.0
# every this many steps (see Adam.step).
SUBNORMAL_FLUSH_EVERY = 100


def clip_global_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.
    Returns the pre-clip norm; a non-finite norm leaves the gradients as
    they are.  For float32 gradients the norm is finite exactly when every
    gradient entry is, so it doubles as the finite-gradient check."""
    total = 0.0
    # a float32 dot overflows for entries above ~1.8e19 (or meets NaN/inf);
    # only then is the sum redone in float64, which never overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for _, tensor in store.items():
            if tensor.grad is not None:
                g = tensor.grad.reshape(-1)
                sq = float(np.dot(g, g))
                if not math.isfinite(sq):
                    sq = float(np.einsum("i,i->", g, g, dtype=np.float64))
                total += sq
    norm = math.sqrt(total)
    if math.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
        for _, tensor in store.items():
            if tensor.grad is not None:
                # each leaf owns its gradient (see autodiff)
                tensor.grad *= factor
    return norm


class Adam:
    """Standard Adam over a parameter store, with moments in the store's dtype.

    ``m`` and ``v`` hold M = m / (1 - beta1) and V = v / (1 - beta2), the
    textbook moments pre-divided, so a step is ``M = beta1 M + g``,
    ``V = beta2 V + g^2`` and ``p -= lr' M / (sqrt(V) + eps')``, with
    (1 - beta1), (1 - beta2) and both bias corrections folded into the
    scalars lr' and eps' (Kingma & Ba, section 2).  A resume state saves
    them as stored.  In float32, V overflows for |g| above about 5.8e17
    (g^2 / (1 - beta2) > 3.4e38), against about 1.8e19 for the textbook v;
    the trainer clips the gradient norm to 10 first, so neither is reached.

    ``step`` consumes the gradients: each is overwritten as its parameter's
    work array, the leaf's own by the one-owner rule in ``autodiff``'s
    module docstring, and the slots are cleared afterwards.  Parameters
    with no gradient are left untouched and their moments do not advance.

    ``m`` and ``v`` are views of the flat ``m_buffer`` and ``v_buffer``, laid
    out as the store's parameters.  Every ``SUBNORMAL_FLUSH_EVERY`` steps the
    entries below the dtype's smallest normal number are set to +0.0.  Left
    alone, a moment whose gradient stays zero decays into the subnormals and
    sticks there (beta1 times k times the smallest subnormal rounds back to k
    for k <= 4), and every operation on a subnormal is slow.  The flush moves
    a step by less than lr * 1.2e-30 through M, since the denominator is at
    least eps', and changes sqrt(V) by less than 1.1e-19, under half an ulp of
    eps' >= 1e-8, so no parameter above about 2e-23 in magnitude moves.
    """

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m_buffer = np.zeros_like(store.buffer)
        self.v_buffer = np.zeros_like(store.buffer)
        self.m = param_views(store.shapes, self.m_buffer)
        self.v = param_views(store.shapes, self.v_buffer)

    def step(self) -> None:
        self.t += 1
        # lr (m / bc1) / (sqrt(v / bc2) + eps) with m = (1 - b1) M and
        # v = (1 - b2) V is step_size M / (sqrt(V) + eps_v)
        root = math.sqrt((1.0 - BETA2) / (1.0 - BETA2 ** self.t))
        step_size = self.lr * (1.0 - BETA1) / ((1.0 - BETA1 ** self.t) * root)
        eps_v = EPS / root
        for name, tensor in self.store.items():
            g = tensor.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += g
            v *= BETA2
            np.square(g, out=g)
            v += g
            np.sqrt(v, out=g)
            g += eps_v
            np.divide(m, g, out=g)
            g *= step_size
            tensor.data -= g
            tensor.grad = None
        if self.t % SUBNORMAL_FLUSH_EVERY == 0:
            tiny = np.finfo(self.m_buffer.dtype).tiny
            for moment in (self.m_buffer, self.v_buffer):
                moment[np.abs(moment) < tiny] = 0.0
