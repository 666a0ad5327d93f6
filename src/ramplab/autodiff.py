"""Minimal reverse-mode automatic differentiation over 2-D numpy arrays.

Every operation builds a node holding its inputs and a vector-Jacobian
closure; :func:`backward` walks the graph once in reverse topological order,
consuming it, and accumulates gradients into ``.grad`` slots.  Only what
the encoders, the Q head and the TD loss (:func:`squared_error_at`) need is
implemented, and every tensor stays dense 2-D, which keeps each rule a few
lines of numpy.  A batch of B scenes is B equal row blocks stacked scene-major;
:func:`scene_attention` and :func:`scene_matmul` view those blocks as a
leading batch axis internally, so scenes never mix;
:func:`scene_matmul`'s mixer may return fewer rows per scene than it reads,
and :func:`scene_attention` may take a key mask and the masked-in rows only.

The one-owner rule: every VJP hands each parent an array of its own, sharing
memory with no other returned array and with no node's data (``add`` copies
for its second parent; :func:`concat_cols` hands out disjoint column views).
So a leaf keeps the gradient it is handed, and the clip and Adam scale and
overwrite ``.grad`` in place.

Gradient recording can be suspended with ``with no_grad(): ...`` for target
computations and finite-difference probes.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that turns off graph recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """A 2-D array plus an optional place in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        # leaves keep their flag even under no_grad; recording is gated per-op
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(op={self.op}, shape={self.data.shape}, grad={self.requires_grad})"


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(data, op=op)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _node(a.data @ b.data, "matmul", (a, b), vjp)


def scene_matmul(e: np.ndarray, a: Tensor) -> Tensor:
    """Per-scene product of a constant (B, r, n) stack with ``a``'s (B*n, k)
    rows, scene-major: scene b's r output rows are ``e[b] @ a[b*n:(b+1)*n]``."""
    n_scenes, r, n = e.shape
    k = a.data.shape[1]

    def vjp(g):
        return ((e.transpose(0, 2, 1) @ g.reshape(n_scenes, r, k)).reshape(-1, k),)

    return _node((e @ a.data.reshape(n_scenes, n, k)).reshape(-1, k), "scene_matmul", (a,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        return g, g.copy()

    return _node(a.data + b.data, "add", (a, b), vjp)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w`` plus a row-broadcast (1, k) bias, as one node: the bias is
    added in place, so no second (rows, k) array is made."""
    if b.data.shape != (1, w.data.shape[1]):
        raise ValueError(f"bias shape {b.data.shape} does not fit {w.data.shape}")
    y = x.data @ w.data
    y += b.data

    def vjp(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0, keepdims=True) if b.requires_grad else None,
        )

    return _node(y, "dense", (x, w, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        return g * b.data, g * a.data

    return _node(a.data * b.data, "mul", (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    # maximum, not a select on a > 0: the mask is true for a random half of
    # the entries, and a select through it costs several times as much.  The
    # weak scalar keeps float32, -0.0 maps to +0.0 and NaN propagates.
    y = np.maximum(a.data, 0)

    def vjp(g):
        return (g * (y > 0),)   # y > 0 exactly where a > 0, NaN included

    return _node(y, "relu", (a,), vjp)


LAYER_NORM_EPS = 1e-5   # added to each row's variance


def layer_norm_rows(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardisation followed by an affine map with (1, k) params."""
    # sum / k is what ndarray.mean computes, without its Python wrappers
    k = a.data.shape[1]
    mu = np.add.reduce(a.data, axis=1, keepdims=True) / k
    centred = a.data - mu
    std = np.sqrt(np.add.reduce(centred * centred, axis=1, keepdims=True) / k + LAYER_NORM_EPS)
    y = centred / std

    def vjp(g):
        dy = g * gain.data
        dx = (dy - dy.sum(axis=1, keepdims=True) / k
              - y * ((dy * y).sum(axis=1, keepdims=True) / k)) / std
        return dx, (g * y).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return _node(y * gain.data + bias.data, "layer_norm", (a, gain, bias), vjp)


def _reduce_keys(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over the last axis, kept as a length-1 axis.  On a
    batch, that is m-1 elementwise calls over the m key columns, about half
    the cost of an axis reduction; on a single scene the one reduction call
    is cheaper.  For fewer than 8 keys both give the same bytes, as both add
    left to right."""
    if a.size < 512 or a.shape[-1] < 2:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = ufunc(a[..., 0], a[..., 1])
    for j in range(2, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out[..., None]


def scene_attention(q: Tensor, k: Tensor, v: Tensor, n_scenes: int, n_heads: int,
                    alive: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention within each scene, all heads at once.

    ``q``, ``k`` and ``v`` are (B*m, d) with the B scenes' m rows stacked
    scene-major and head i in columns i*d/h to (i+1)*d/h; rows attend only to
    rows of their own scene.  The output has the same layout.

    ``alive``, a (B, m) boolean key mask, marks the active tokens: a token
    then attends to the active tokens of its scene and to itself, and an
    inactive one to itself only.  The rows may then be the active tokens
    only, one per true entry of ``alive`` in row-major order; they are
    zero-padded to the B blocks of m inside, so only the scores are padded.
    """
    rows, d = q.data.shape
    packed = alive is not None and rows != alive.size
    if alive is None:
        m, fits = rows // n_scenes, rows % n_scenes == 0
    else:
        m = alive.shape[1]
        fits = alive.shape[0] == n_scenes and (not packed or np.count_nonzero(alive) == rows)
    if d % n_heads or not fits:
        raise ValueError(f"{rows}x{d} does not split into {n_scenes} scenes x {n_heads} heads")
    d_head = d // n_heads
    c = 1.0 / math.sqrt(d_head)  # a Python float keeps float32 scores float32
    slots = np.flatnonzero(alive) if packed else None

    def heads(arr):  # (B*m, d) -> (B, h, m, d/h)
        if packed:
            padded = np.zeros((alive.size, d), dtype=arr.dtype)
            padded[slots] = arr
            arr = padded
        return arr.reshape(n_scenes, m, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(arr):  # (B, h, m, d/h) -> (B*m, d)
        arr = arr.transpose(0, 2, 1, 3).reshape(n_scenes * m, d)
        return arr[slots] if packed else arr

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    if alive is not None:
        seen = alive[:, :, None] & alive[:, None, :]
        seen.reshape(n_scenes, -1)[:, ::m + 1] = True   # and itself
        np.copyto(scores, -np.inf, where=~seen[:, None])
    e = np.exp(scores - _reduce_keys(np.maximum, scores))
    p = e / _reduce_keys(np.add, e)

    def vjp(g):
        gh = heads(g)
        dp = gh @ vh.transpose(0, 1, 3, 2)
        ds = p * (dp - _reduce_keys(np.add, dp * p)) * c
        dq, dk = ds @ kh, ds.transpose(0, 1, 3, 2) @ qh
        return merge(dq), merge(dk), merge(p.transpose(0, 1, 3, 2) @ gh)

    return _node(merge(p @ vh), "scene_attention", (q, k, v), vjp)


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    def vjp(g):
        return tuple(np.hsplit(g, np.cumsum([t.data.shape[1] for t in tensors[:-1]])))

    return _node(np.concatenate([t.data for t in tensors], axis=1), "concat", tuple(tensors),
                 vjp)


def select_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """The rows ``indices`` of ``a``, in their order; no two may name the
    same row (a negative index names the row it counts back to), as the
    gradient is scattered back by assignment."""
    indices = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[indices] = g + 0   # + 0 turns -0.0 into +0.0, as adding onto a zero does
        return (out,)

    return _node(a.data[indices].copy(), "select_rows", (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _node(a.data.sum(dtype=a.data.dtype).reshape(1, 1), "sum", (a,), vjp)


def squared_error_at(q: Tensor, cols: np.ndarray, y: np.ndarray) -> Tensor:
    """The (1, 1) mean over rows i of ``(q[i, cols[i]] - y[i])**2``, with
    ``y`` cast to ``q``'s dtype: a DQN loss at the taken actions.  It rounds
    as a gather, a subtraction, a square, a sum and a scale by ``1 / n``
    would, and so does its gradient, ``2 (q[i, cols[i]] - y[i]) / n`` at
    those entries and zero elsewhere."""
    rows = np.arange(len(cols))
    d = q.data[rows, cols] - np.asarray(y, dtype=q.data.dtype)
    c = 1.0 / len(d)   # a Python float keeps float32 float32

    def vjp(g):
        t = (g[0, 0] * c) * d
        out = np.zeros_like(q.data)
        out[rows, cols] = t + t + 0   # + 0 turns -0.0 into +0.0
        return (out,)

    return _node((d * d).sum(dtype=d.dtype).reshape(1, 1) * c, "squared_error_at", (q,), vjp)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """All nodes reachable from ``root`` in topological order (inputs first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires-grad leaf.

    ``loss`` must be a single-element tensor.  Gradients add onto whatever is
    already in ``.grad``; clear parameter grads between steps.  The graph is
    consumed: each interior node drops its VJP and parents once its VJP has
    run, and a second pass through it raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (built under no_grad?)")
    order = graph_nodes(loss)
    if any(n._vjp is None and n.requires_grad and n.op != "leaf" for n in order):
        raise ValueError("graph already consumed by an earlier backward")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # A walked node leaves the list and drops its closure and parents, so
    # its saved arrays die as soon as no pending node needs them.
    while order:
        node = order.pop()
        vjp, parents = node._vjp, node._parents
        node._vjp, node._parents = None, ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
