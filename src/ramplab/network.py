"""Q-value networks: transformer scene encoder, graph encoder, and head.

Three variants share one action-value interface (one 9-wide Q row per CAV):

* ``gitsr``          transformer over per-CAV grid rows, graph convolution
                     over the vehicle interaction graph, Q head on the
                     concatenation of both encodings;
* ``madqn_transformer``  transformer encoding only;
* ``madqn``          a plain MLP on each CAV's node features joined with its
                     flattened grid row.

Forwards take a :class:`~ramplab.representation.StateBatch` and run it as
one graph.  Grid rows from all scenes form one scene-major token matrix for
the dense layers; attention (``scene_attention``) and graph mixing
(``scene_matmul`` with the (B, n, n) normalised adjacency) run per scene on
a batch axis, so cross-scene mixing is structurally impossible.  Inactive
CAVs (exited or collided) leave the transformer: a key mask keeps them out
of every active CAV's attention, and an inactive CAV attends to itself only,
so all of them share one Q row.  A forward runs on every CAV row (acting)
or on exactly the active CAV rows (learning, TD targets); then only the
active CAVs are tokens, and the graph encoder's last projection and the Q
head run on their rows alone.  The CAVs are vehicles 0..m-1, so the graph
readout is the first m rows of each scene.  Each variant names the snapshot
fields its forward reads, the node feature rows included (``madqn`` reads
its CAVs' rows only), and :meth:`QNetwork.observe` builds only those.

One composition, two op tables: each variant writes its forward once,
against an op table ``ops``.  Learning runs it on the autodiff tape
(``forward_batch``, with the ``autodiff`` module as ``ops``); acting runs it
on plain arrays over every CAV row (``forward_arrays``, behind ``q_values``,
with ``autodiff.on_arrays``), which gives the same bytes and builds no node.

Parameters are views of one flat buffer, which starts on a 64-byte boundary,
in a :class:`ParamStore`.  A checkpoint is an array store (``save_arrays``,
``load_arrays``): a JSON manifest plus that buffer as one little-endian
float32 blob, entries back to back from offset 0 in store order; a load
refuses any other layout and a missing blob, and round-trips bit-exactly.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ramplab import autodiff
from ramplab.autodiff import Tensor, on_arrays, select_rows
from ramplab.config import ExperimentConfig, NetworkConfig, ScenarioConfig
from ramplab.representation import (
    StateBatch,
    StateSnapshot,
    batch_of_one,
    build_state,
    feature_width,
    grid_rows,
    grid_width,
)
from ramplab.simulation import N_ACTIONS, WorldState


class TrainingError(RuntimeError):
    """Numerical failure (non-finite value) during training."""


class CheckpointError(RuntimeError):
    """Checkpoint missing, malformed, or incompatible with the architecture."""


# A parameter buffer starts on a cache-line boundary.
BUFFER_ALIGN = 64


def aligned_empty(size: int, dtype) -> np.ndarray:
    """A fresh flat array of ``size`` values whose first byte lies on a
    ``BUFFER_ALIGN``-byte boundary (a view into a slightly larger block)."""
    nbytes = size * np.dtype(dtype).itemsize
    block = np.empty(nbytes + BUFFER_ALIGN, np.uint8)
    start = -block.ctypes.data % BUFFER_ALIGN
    return block[start:start + nbytes].view(dtype)


def param_views(shapes: list[tuple[str, tuple]], buffer: np.ndarray) -> dict[str, np.ndarray]:
    """The flat ``buffer`` as one view per named shape, back to back in
    ``shapes`` order (the checkpoint blob's layout); ``ValueError`` unless it
    is exactly as long as the shapes together, or on a repeated name."""
    sizes = [math.prod(shape) for _, shape in shapes]
    if buffer.shape != (sum(sizes),):
        raise ValueError(f"the parameters take a flat buffer of {sum(sizes)} values, "
                         f"not one of shape {buffer.shape}")
    views, start = {}, 0
    for (name, shape), size in zip(shapes, sizes):
        if name in views:
            raise ValueError(f"duplicate parameter {name!r}")
        views[name] = buffer[start:start + size].reshape(shape)
        start += size
    return views


class ParamStore:
    """Named learnable tensors, each with a gradient slot, whose values are
    views of one flat buffer (see ``param_views``): the network is copied,
    checked, saved and loaded whole."""

    def __init__(self, shapes: list[tuple[str, tuple]], buffer: np.ndarray):
        self.shapes = list(shapes)
        self.buffer = buffer
        self.dtype = buffer.dtype
        self.params: dict[str, Tensor] = {
            name: Tensor(view, requires_grad=True)
            for name, view in param_views(self.shapes, buffer).items()}

    def items(self):
        return self.params.items()

    def zero_grads(self) -> None:
        for tensor in self.params.values():
            tensor.grad = None

    def copy_from(self, other: "ParamStore") -> None:
        if self.shapes != other.shapes:
            raise ValueError("parameter stores do not describe the same network")
        self.buffer[...] = other.buffer

    def check_finite(self, message: str) -> None:
        """``CheckpointError`` of ``message`` and the first parameter holding a
        NaN or an infinity, if any; they are searched only if the buffer holds one."""
        # min and max propagate NaN, so both are finite exactly when every
        # value is, and neither makes an array the size of the buffer
        if not (math.isfinite(self.buffer.min()) and math.isfinite(self.buffer.max())):
            bad = next(name for name, t in self.params.items() if not np.isfinite(t.data).all())
            raise CheckpointError(f"{message} {bad!r}")

    def check_finite_grads(self) -> None:
        for name, tensor in self.params.items():
            if tensor.grad is not None and not np.isfinite(tensor.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {name!r}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _initial(rng: np.random.Generator, name: str, shape: tuple[int, int]) -> np.ndarray:
    """Biases (``b``, ``b1``, ...) start at zero, LayerNorm gains (``g``) at
    one, weights Glorot-uniform."""
    kind = name.rpartition(".")[2]
    if kind == "g":
        return np.ones(shape)
    if kind.startswith("b"):
        return np.zeros(shape)
    return _glorot(rng, *shape)


@dataclass
class BlockParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    ln_g: Tensor
    ln_b: Tensor


@dataclass
class TransformerParams:
    embed_w: Tensor
    embed_b: Tensor
    blocks: list[BlockParams]


def _block_param(field: str) -> str:   # BlockParams.mlp_w1 is "block<i>.mlp.w1"
    return field.replace("_", ".")


def transformer_shapes(cfg: NetworkConfig, input_width: int) -> list[tuple[str, tuple]]:
    d, hidden = cfg.d_model, cfg.mlp_hidden
    block = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
             "mlp_w1": (d, hidden), "mlp_b1": (1, hidden), "mlp_w2": (hidden, d),
             "mlp_b2": (1, d), "ln_g": (1, d), "ln_b": (1, d)}
    return [("embed.w", (input_width, d)), ("embed.b", (1, d))] + [
        (f"block{i}.{_block_param(f.name)}", block[f.name])
        for i in range(cfg.n_blocks) for f in dataclasses.fields(BlockParams)
    ]


def qhead_shapes(cfg: NetworkConfig, in_width: int) -> list[tuple[str, tuple]]:
    return [("qhead.w1", (in_width, cfg.q_hidden)), ("qhead.b1", (1, cfg.q_hidden)),
            ("qhead.w2", (cfg.q_hidden, N_ACTIONS)), ("qhead.b2", (1, N_ACTIONS))]


def multi_head_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    n_scenes: int = 1,
    alive: np.ndarray | None = None,
    ops=autodiff,
) -> Tensor:
    """Scaled dot-product attention with heads as column blocks of one
    projection, mixed by ``wo``; ``x`` holds ``n_scenes`` equal row blocks
    that attend only within themselves, under the (B, m) key mask ``alive``
    if given (see ``scene_attention``)."""
    attended = ops.scene_attention(ops.matmul(x, wq), ops.matmul(x, wk), ops.matmul(x, wv),
                                   n_scenes, n_heads, alive)
    return ops.matmul(attended, wo)


def transformer_encode(
    sr: Tensor,
    params: TransformerParams,
    n_heads: int,
    n_scenes: int = 1,
    alive: np.ndarray | None = None,
    ops=autodiff,
) -> Tensor:
    """Embed grid rows and run the blocks: attention, a single residual, then
    a layer-normalised MLP; the last block's output is the encoding.  With
    the key mask ``alive`` (see ``scene_attention``), ``sr`` may hold the
    active tokens only, on the tape."""
    x = ops.dense(sr, params.embed_w, params.embed_b)
    for blk in params.blocks:
        attended = multi_head_attention(x, blk.wq, blk.wk, blk.wv, blk.wo, n_heads, n_scenes,
                                        alive, ops)
        h = ops.add(attended, x)
        m = ops.dense(ops.relu(ops.dense(h, blk.mlp_w1, blk.mlp_b1)), blk.mlp_w2, blk.mlp_b2)
        x = ops.layer_norm_rows(m, blk.ln_g, blk.ln_b)
    return x


def gcn_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalised adjacency with guaranteed self-loops, over
    the last two axes, so a (B, n, n) stack is normalised per scene."""
    n = adjacency.shape[-1]
    a_tilde = np.minimum(adjacency, 1.0)   # a fresh array; 0/1 entries stay
    diagonal = np.arange(n)
    a_tilde[..., diagonal, diagonal] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(np.add.reduce(a_tilde, axis=-1))
    return a_tilde * d_inv_sqrt[..., :, None] * d_inv_sqrt[..., None, :]


def gcn_forward(
    features: Tensor,
    e_norm: np.ndarray,
    weights: list[Tensor],
    n_cavs: int | None = None,
    rows: np.ndarray | None = None,
    ops=autodiff,
) -> Tensor:
    """Stacked graph convolutions, ReLU after every layer including the last.

    ``e_norm`` is one (n, n) scene or a (B, n, n) stack whose scenes own
    consecutive n-row blocks of ``features``.  Every node's row is returned,
    or, given ``n_cavs`` (the CAVs are nodes 0..m-1 of each scene), one row
    per CAV, scene-major, or only the distinct ``rows`` among those.  The
    last layer mixes before it projects, ``relu((E[:m] H) W)``, so only the
    returned rows are projected.  ``rows`` needs the tape."""
    n = e_norm.shape[-1]
    mixer = e_norm.reshape(-1, n, n)
    h = features
    for w in weights[:-1]:
        h = ops.relu(ops.scene_matmul(mixer, ops.matmul(h, w)))
    readout = mixer if n_cavs is None else mixer[:, :n_cavs]
    mixed = ops.scene_matmul(readout, h)
    if rows is not None:
        mixed = select_rows(mixed, rows)
    return ops.relu(ops.matmul(mixed, weights[-1]))


def q_head(
    x_l: Tensor,
    h_graph: Tensor | None,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    ops=autodiff,
) -> Tensor:
    """Per-CAV action values from the scene encoding, optionally joined with
    the graph encoding's row for the same CAV."""
    fused = x_l if h_graph is None else ops.concat_cols([x_l, h_graph])
    return ops.dense(ops.relu(ops.dense(fused, w1, b1)), w2, b2)


def flat_rows(stacked: np.ndarray, dtype) -> np.ndarray:
    """(B, k, w) per-scene rows, or rows already scene-major, as one (N, w)
    input."""
    return stacked.reshape(-1, stacked.shape[-1]).astype(dtype, copy=False)


class QNetwork:
    """Common machinery: parameter store, stacking, checkpoint metadata.

    A network keeps the flat ``buffer`` it is given as its parameters, laid
    out in ``param_shapes`` order (see ``param_views``)."""

    variant = "base"

    def __init__(
        self,
        net_cfg: NetworkConfig,
        representation: str,
        input_width: int,
        feat_width: int,
        buffer: np.ndarray,
    ):
        net_cfg.validate()
        self.net_cfg = net_cfg
        self.representation = representation
        self.input_width = input_width
        self.feat_width = feat_width
        self.store = ParamStore(self.param_shapes(net_cfg, input_width, feat_width), buffer)
        params = self.store.params
        self.q_w1, self.q_b1, self.q_w2, self.q_b2 = (
            params[name] for name in ("qhead.w1", "qhead.b1", "qhead.w2", "qhead.b2"))
        self.gcn_weights = [t for name, t in params.items() if name.startswith("gcn.")]
        if "embed.w" in params:
            self.transformer = TransformerParams(params["embed.w"], params["embed.b"], [
                BlockParams(**{f.name: params[f"block{i}.{_block_param(f.name)}"]
                               for f in dataclasses.fields(BlockParams)})
                for i in range(net_cfg.n_blocks)
            ])

    @classmethod
    def param_shapes(cls, net_cfg: NetworkConfig, input_width: int,
                     feat_width: int) -> list[tuple[str, tuple]]:  # pragma: no cover
        """Every parameter's name and shape, in initialisation order."""
        raise NotImplementedError

    # -- forward ---------------------------------------------------------

    # Whether forward_batch reads the adjacency.
    reads_adjacency = False

    def feature_rows(self, scenario: ScenarioConfig) -> int | None:
        """How many leading vehicles' node feature rows forward_batch reads
        (None: every vehicle's)."""
        return 0

    def observe(self, world: WorldState, scenario: ScenarioConfig) -> StateSnapshot:
        """Snapshot of ``world`` in this network's representation, with only
        the feature rows and optional fields its forward reads built."""
        return build_state(world, scenario, self.representation,
                           feature_rows=self.feature_rows(scenario),
                           with_adjacency=self.reads_adjacency)

    def _forward(self, states: StateBatch, rows: np.ndarray | None,
                 ops) -> Tensor:  # pragma: no cover
        """The variant's composition, through the op table ``ops``: Q rows
        for every CAV of every stacked state, scene-major, or for the
        scene-major CAV ``rows`` alone (the active ones; tape only), in the
        same order."""
        raise NotImplementedError

    def forward_batch(self, states: StateBatch, active_only: bool = False) -> Tensor:
        """Q rows for every CAV of every stacked state, scene-major, or with
        ``active_only`` for the active CAVs alone, in the same order, on the
        tape."""
        rows = np.flatnonzero(states.alive) if active_only else None
        return self._forward(states, rows, autodiff)

    def forward_arrays(self, states: StateBatch) -> np.ndarray:
        """``forward_batch(states).data`` on every CAV row, byte for byte,
        computed on plain arrays: no tape node is built."""
        return self._forward(states, None, on_arrays)

    def forward(self, snap: StateSnapshot) -> Tensor:
        """Q rows of one snapshot, as ``forward_batch`` of ``batch_of_one``."""
        return self.forward_batch(batch_of_one(snap))

    def q_values(self, snap: StateSnapshot) -> np.ndarray:
        """Inference-only Q table (m x 9) for one snapshot: the bytes of
        ``forward(snap).data``, from ``forward_arrays``."""
        q = self.forward_arrays(batch_of_one(snap))
        if not np.isfinite(q).all():
            raise TrainingError("non-finite Q values in the network's output")
        return q

    # -- shared pieces ---------------------------------------------------

    def _encode(self, states: StateBatch, rows: np.ndarray | None, ops) -> Tensor:
        """Transformer encodings of every CAV row, or of the active ones
        (``rows``) as the only tokens; inactive CAVs are masked out of every
        other token's attention."""
        alive = None if states.alive.all() else states.alive
        return transformer_encode(ops.Tensor(flat_rows(grid_rows(states, rows), self.store.dtype)),
                                  self.transformer, self.net_cfg.n_heads, len(states.alive),
                                  alive, ops)

    # -- persistence -----------------------------------------------------

    def meta(self) -> dict:
        return network_meta(self.variant, self.representation, self.input_width,
                            self.feat_width, self.net_cfg)

    def clone(self) -> "QNetwork":
        buffer = aligned_empty(len(self.store.buffer), self.store.dtype)
        buffer[...] = self.store.buffer
        return type(self)(self.net_cfg, self.representation, self.input_width, self.feat_width,
                          buffer)


class GitsrNetwork(QNetwork):
    variant = "gitsr"

    @classmethod
    def param_shapes(cls, net_cfg, input_width, feat_width):
        dims = net_cfg.gcn_dims(feat_width)
        return (transformer_shapes(net_cfg, input_width)
                + [(f"gcn.l{i}.w", (dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
                + qhead_shapes(net_cfg, 2 * net_cfg.d_model))

    reads_adjacency = True

    def feature_rows(self, scenario: ScenarioConfig) -> int | None:
        return None

    def _forward(self, states: StateBatch, rows: np.ndarray | None, ops) -> Tensor:
        dtype = self.store.dtype
        x = self._encode(states, rows, ops)
        e_norm = gcn_normalize(states.adjacency.astype(dtype))
        h = gcn_forward(ops.Tensor(flat_rows(states.features, dtype)), e_norm, self.gcn_weights,
                        states.alive.shape[1], rows, ops)
        return q_head(x, h, self.q_w1, self.q_b1, self.q_w2, self.q_b2, ops)


class TransformerOnlyNetwork(QNetwork):
    variant = "madqn_transformer"

    @classmethod
    def param_shapes(cls, net_cfg, input_width, feat_width):
        return transformer_shapes(net_cfg, input_width) + qhead_shapes(net_cfg, net_cfg.d_model)

    def _forward(self, states: StateBatch, rows: np.ndarray | None, ops) -> Tensor:
        x = self._encode(states, rows, ops)
        return q_head(x, None, self.q_w1, self.q_b1, self.q_w2, self.q_b2, ops)


class BaselineNetwork(QNetwork):
    """Per-CAV MLP on the CAV's own node features joined with its own grid
    row; no attention and no graph mixing, so rows never interact."""

    variant = "madqn"

    @classmethod
    def param_shapes(cls, net_cfg, input_width, feat_width):
        return qhead_shapes(net_cfg, feat_width + input_width)

    def feature_rows(self, scenario: ScenarioConfig) -> int | None:
        """The CAVs' own rows, (m, f): no other row is read."""
        return scenario.n_cav

    def _inputs(self, states: StateBatch, rows: np.ndarray | None) -> np.ndarray:
        """Each CAV row's own features joined with its grid row.  Raises
        ``ValueError`` unless ``features`` holds m rows a scene, the CAVs'
        own, as :meth:`observe` makes them."""
        features = states.features
        if features.shape[-2] != states.alive.shape[1]:
            raise ValueError(f"madqn reads one feature row per CAV ({states.alive.shape[1]} a "
                             f"scene), got {features.shape[-2]}")
        own = features.reshape(-1, features.shape[-1])
        x = np.concatenate([own if rows is None else own[rows], grid_rows(states, rows)], axis=1)
        return flat_rows(x, self.store.dtype)

    def _forward(self, states: StateBatch, rows: np.ndarray | None, ops) -> Tensor:
        x = ops.Tensor(self._inputs(states, rows))
        return q_head(x, None, self.q_w1, self.q_b1, self.q_w2, self.q_b2, ops)


_VARIANTS = {
    cls.variant: cls for cls in (GitsrNetwork, TransformerOnlyNetwork, BaselineNetwork)
}


def build_network(cfg: ExperimentConfig, seed: int, dtype=np.float32) -> QNetwork:
    """Instantiate the configured variant, sized for the configured scenario,
    with weights drawn from ``seed`` in ``param_shapes`` order."""
    try:
        cls = _VARIANTS[cfg.model_variant]
    except KeyError:
        raise ValueError(f"unknown model variant {cfg.model_variant!r}") from None
    cfg.network.validate()
    widths = grid_width(cfg.scenario, cfg.representation), feature_width(cfg.scenario)
    size = sum(math.prod(shape) for _, shape in cls.param_shapes(cfg.network, *widths))
    net = cls(cfg.network, cfg.representation, *widths, aligned_empty(size, dtype))
    rng = np.random.default_rng(seed)
    # each draw is cast into its view as it is made: no copy of the network lives
    for name, tensor in net.store.items():
        tensor.data[...] = _initial(rng, name, tensor.data.shape)
    return net


# -- checkpoints ---------------------------------------------------------

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"


def save_arrays(directory: str | Path, meta: dict, shapes: list, buffer: np.ndarray) -> None:
    """Write ``meta`` and ``shapes`` as a manifest and the flat ``buffer``,
    laid out as ``param_views`` lays out ``shapes``, as one little-endian
    blob.  Both go into a sibling temporary directory that is then renamed
    into place, so a failed save leaves any previous store whole."""
    directory = Path(directory)
    dtype = buffer.dtype.newbyteorder("<")
    entries, offset = [], 0
    for name, shape in shapes:
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += dtype.itemsize * math.prod(shape)
    manifest = {"format": 1, "dtype": dtype.str, "meta": meta, "params": entries}
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    retired = staging.with_name(staging.name + ".old")
    staging.mkdir()
    try:
        (staging / BLOB_NAME).write_bytes(buffer.astype(dtype, copy=False))
        (staging / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
        if directory.exists():
            # a rename cannot replace a non-empty directory: move the old one aside
            directory.rename(retired)
        staging.rename(directory)
    except BaseException:
        if retired.exists() and not directory.exists():
            retired.rename(directory)   # the final rename failed: restore the old store
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(retired, ignore_errors=True)


def load_arrays(directory: str | Path, expected) -> tuple[dict, list, np.ndarray]:
    """The metadata, shapes and flat buffer (one fresh ``aligned_empty`` array
    in the manifest's dtype, in ``param_views`` layout) of the store at
    ``directory``.  The manifest must list the shapes that the hook
    ``expected(meta, n_entries)`` names, back to back from offset 0 in that
    order as ``save_arrays`` writes them, and the blob must be a file holding
    them all; only then is the array allocated.  Else: ``CheckpointError``."""
    directory = Path(directory)
    for name in (MANIFEST_NAME, BLOB_NAME):
        if not (directory / name).is_file():
            raise CheckpointError(f"no checkpoint file {directory / name}")
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
    try:
        meta, entries = manifest["meta"], manifest["params"]
        dtype = np.dtype(manifest["dtype"])
        if dtype.kind != "f":
            raise TypeError(f"parameter dtype {dtype} is not floating point")
        wanted = expected(meta, len(entries))
        given = {entry["name"]: tuple(entry["shape"]) for entry in entries}
        stored = [(entry["name"], entry["offset"]) for entry in entries]
        shapes = dict(wanted)
        if given != shapes:
            name = next(n for n in [*shapes, *sorted(given.keys() - shapes.keys())]
                        if given.get(n) != shapes.get(n))
            raise CheckpointError(f"checkpoint metadata does not fit its parameters: {name!r} is "
                                  f"{given.get(name)} given, {shapes.get(name)} expected")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint manifest: {type(exc).__name__}: {exc}") from exc
    offset = 0
    for (name, shape), (got, at) in zip(wanted, stored):
        if got != name or type(at) is not int or at != offset:
            raise CheckpointError(f"checkpoint parameters are not laid out in store order: {got!r} "
                                  f"at byte {at!r}, where {name!r} belongs at byte {offset}")
        offset += math.prod(shape) * dtype.itemsize
    if len(stored) != len(wanted):
        raise CheckpointError(f"checkpoint lists {len(stored)} parameters for {len(wanted)}")
    with open(directory / BLOB_NAME, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < offset:
            raise CheckpointError(f"checkpoint blob truncated: {size} bytes of {offset}")
        buffer = aligned_empty(offset // dtype.itemsize, dtype)
        fh.readinto(buffer)
    return meta, wanted, buffer


def network_meta(variant: str, representation: str, input_width: int, feat_width: int,
                 net_cfg: NetworkConfig) -> dict:
    """The checkpoint metadata of a network: what ``_architecture`` reads."""
    return {
        "variant": variant,
        "representation": representation,
        "input_width": input_width,
        "feature_width": feat_width,
        "network": dataclasses.asdict(net_cfg),
    }


def save_checkpoint(directory: str | Path, net: QNetwork) -> None:
    """Save ``net`` as a float32 store; refuses (``CheckpointError``, nothing
    written) a network with a non-finite value."""
    net.store.check_finite("refusing to save non-finite values in parameter")
    save_arrays(directory, net.meta(), net.store.shapes, net.store.buffer.astype("f4", copy=False))


def _architecture(meta: dict, n_params: int) -> tuple[type[QNetwork], NetworkConfig, str,
                                                      tuple[int, int], list[tuple[str, tuple]]]:
    """The variant, network sizes, representation, widths and parameter shapes
    that checkpoint metadata names, for a manifest of ``n_params`` entries."""
    try:
        cls = _VARIANTS[meta["variant"]]
        net_cfg = NetworkConfig(**meta["network"])
        widths = meta["input_width"], meta["feature_width"]
        if not all(type(size) is int for size in (*widths, *dataclasses.astuple(net_cfg))):
            raise TypeError("widths and network sizes must be integers")
        net_cfg.validate()
        if max(net_cfg.n_blocks, net_cfg.gcn_layers) > n_params:
            raise ValueError(f"{n_params} parameters cannot hold {net_cfg.n_blocks} blocks "
                             f"and {net_cfg.gcn_layers} graph layers")
        return cls, net_cfg, meta["representation"], widths, cls.param_shapes(net_cfg, *widths)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"unusable checkpoint metadata: {exc}") from exc


def load_checkpoint(directory: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and parameters of the checkpoint at ``directory``, one
    view per parameter of the buffer ``load_arrays`` reads."""
    meta, shapes, buffer = load_arrays(directory, lambda meta, n: _architecture(meta, n)[-1])
    return meta, param_views(shapes, buffer)


def network_from_checkpoint(directory: str | Path) -> QNetwork:
    """Rebuild the saved architecture in float32 around the array that
    ``load_arrays`` reads (cast into a new one if stored in another
    dtype), whose values must be finite."""
    meta, shapes, buffer = load_arrays(directory, lambda meta, n: _architecture(meta, n)[-1])
    cls, net_cfg, representation, widths, _ = _architecture(meta, len(shapes))
    if buffer.dtype != np.float32:
        stored, buffer = buffer, aligned_empty(len(buffer), np.float32)
        buffer[...] = stored
    net = cls(net_cfg, representation, *widths, buffer)
    net.store.check_finite("non-finite values in parameter")
    return net
