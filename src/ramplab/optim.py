"""Adam with bias correction, plus global gradient-norm clipping.

Both update in place: a step allocates no array the size of a parameter."""
from __future__ import annotations

import math

import numpy as np

from ramplab.network import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def clip_global_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.
    Returns the pre-clip norm; a non-finite norm leaves the gradients as
    they are.  For float32 gradients the norm is finite exactly when every
    gradient entry is, so it doubles as the finite-gradient check."""
    total = 0.0
    for _, tensor in store.items():
        if tensor.grad is not None:
            # float64 accumulation without a float64 copy: float32 squares
            # overflow for entries above ~1.8e19, their float64 sum never does
            g = tensor.grad.reshape(-1)
            total += float(np.einsum("i,i->", g, g, dtype=np.float64))
    norm = math.sqrt(total)
    if math.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
        for _, tensor in store.items():
            if tensor.grad is not None:
                # backward gives every leaf its own gradient array
                tensor.grad *= factor
    return norm


class Adam:
    """Standard Adam over a parameter store, with moments in the store's dtype.

    ``step`` consumes the gradients (slots are cleared afterwards); parameters
    with no gradient are left untouched and their moments do not advance.
    """

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}
        self._scratch = {name: np.empty_like(t.data) for name, t in store.items()}

    def step(self) -> None:
        self.t += 1
        # the bias corrections fold into two scalars (Kingma & Ba, section 2)
        sqrt_bc2 = math.sqrt(1.0 - BETA2 ** self.t)
        step_size = self.lr / (1.0 - BETA1 ** self.t)
        for name, tensor in self.store.items():
            g = tensor.grad
            if g is None:
                continue
            m, v, a = self.m[name], self.v[name], self._scratch[name]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v += a
            # lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(v, out=a)
            a /= sqrt_bc2
            a += EPS
            np.divide(m, a, out=a)
            a *= step_size
            tensor.data -= a
            tensor.grad = None
