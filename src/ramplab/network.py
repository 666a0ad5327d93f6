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

Parameters are views of one flat buffer in a :class:`ParamStore`;
checkpoints are a JSON manifest plus that buffer as a little-endian float32
blob, and round-trip bit-exactly.
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

from ramplab.autodiff import (
    Tensor,
    add,
    concat_cols,
    dense,
    layer_norm_rows,
    matmul,
    no_grad,
    relu,
    scene_attention,
    scene_matmul,
    select_rows,
)
from ramplab.config import ExperimentConfig, NetworkConfig, ScenarioConfig
from ramplab.representation import (
    StateBatch,
    StateSnapshot,
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

    def non_finite(self) -> str | None:
        """The first parameter holding a NaN or an infinity, or None; the
        parameters are searched only when the buffer holds one."""
        # min and max propagate NaN, so both are finite exactly when every
        # value is, and neither makes an array the size of the buffer
        if math.isfinite(self.buffer.min()) and math.isfinite(self.buffer.max()):
            return None
        return next(name for name, t in self.params.items() if not np.isfinite(t.data).all())

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
) -> Tensor:
    """Scaled dot-product attention with heads as column blocks of one
    projection, mixed by ``wo``; ``x`` holds ``n_scenes`` equal row blocks
    that attend only within themselves, under the (B, m) key mask ``alive``
    if given (see ``scene_attention``)."""
    attended = scene_attention(matmul(x, wq), matmul(x, wk), matmul(x, wv), n_scenes, n_heads,
                               alive)
    return matmul(attended, wo)


def transformer_encode(
    sr: Tensor,
    params: TransformerParams,
    n_heads: int,
    n_scenes: int = 1,
    alive: np.ndarray | None = None,
) -> Tensor:
    """Embed grid rows and run the blocks: attention, a single residual, then
    a layer-normalised MLP; the last block's output is the encoding.  With
    the key mask ``alive`` (see ``scene_attention``), ``sr`` may hold the
    active tokens only."""
    x = dense(sr, params.embed_w, params.embed_b)
    for blk in params.blocks:
        attended = multi_head_attention(x, blk.wq, blk.wk, blk.wv, blk.wo, n_heads, n_scenes,
                                        alive)
        h = add(attended, x)
        m = dense(relu(dense(h, blk.mlp_w1, blk.mlp_b1)), blk.mlp_w2, blk.mlp_b2)
        x = layer_norm_rows(m, blk.ln_g, blk.ln_b)
    return x


def active_rows(states: StateBatch, active_only: bool) -> np.ndarray | None:
    """The scene-major CAV rows a forward runs on: the active ones, or None
    for every row."""
    return np.flatnonzero(states.alive) if active_only else None


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
) -> Tensor:
    """Stacked graph convolutions, ReLU after every layer including the last.

    ``e_norm`` is one (n, n) scene or a (B, n, n) stack whose scenes own
    consecutive n-row blocks of ``features``.  Every node's row is returned,
    or, given ``n_cavs`` (the CAVs are nodes 0..m-1 of each scene), one row
    per CAV, scene-major, or only the distinct ``rows`` among those.  The
    last layer mixes before it projects, ``relu((E[:m] H) W)``, so only the
    returned rows are projected."""
    n = e_norm.shape[-1]
    mixer = e_norm.reshape(-1, n, n)
    h = features
    for w in weights[:-1]:
        h = relu(scene_matmul(mixer, matmul(h, w)))
    readout = mixer if n_cavs is None else mixer[:, :n_cavs]
    mixed = scene_matmul(readout, h)
    if rows is not None:
        mixed = select_rows(mixed, rows)
    return relu(matmul(mixed, weights[-1]))


def q_head(
    x_l: Tensor,
    h_graph: Tensor | None,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
) -> Tensor:
    """Per-CAV action values from the scene encoding, optionally joined with
    the graph encoding's row for the same CAV."""
    fused = x_l if h_graph is None else concat_cols([x_l, h_graph])
    return dense(relu(dense(fused, w1, b1)), w2, b2)


def flat_rows(stacked: np.ndarray, dtype) -> Tensor:
    """(B, k, w) per-scene rows, or rows already scene-major, as one (N, w)
    input."""
    return Tensor(stacked.reshape(-1, stacked.shape[-1]).astype(dtype, copy=False))


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

    def forward_batch(self, states: StateBatch,
                      active_only: bool = False) -> Tensor:  # pragma: no cover
        """Q rows for every CAV of every stacked state, scene-major, or with
        ``active_only`` for the active CAVs alone, in the same order."""
        raise NotImplementedError

    def observe(self, world: WorldState, scenario: ScenarioConfig) -> StateSnapshot:
        """Snapshot of ``world`` in this network's representation, with only
        the feature rows and optional fields its forward reads built."""
        return build_state(world, scenario, self.representation,
                           feature_rows=self.feature_rows(scenario),
                           with_adjacency=self.reads_adjacency)

    def forward(self, snap: StateSnapshot) -> Tensor:
        """Q rows of one snapshot, as ``forward_batch`` of a batch of one
        whose arrays view the snapshot's where ``stack_states`` copies them."""
        def one(name):
            value = getattr(snap, name)
            return None if value is None else np.asarray(value)[None]

        return self.forward_batch(StateBatch(**{f.name: one(f.name)
                                                for f in dataclasses.fields(StateBatch)}))

    def q_values(self, snap: StateSnapshot) -> np.ndarray:
        """Inference-only Q table (m x 9) for one snapshot."""
        with no_grad():
            q = self.forward(snap).data
        if not np.isfinite(q).all():
            raise TrainingError("non-finite Q values in forward pass")
        return q

    # -- shared pieces ---------------------------------------------------

    def _encode(self, states: StateBatch, rows: np.ndarray | None) -> Tensor:
        """Transformer encodings of every CAV row, or of the active ones
        (``rows``, from ``active_rows``) as the only tokens; inactive CAVs
        are masked out of every other token's attention."""
        alive = None if states.alive.all() else states.alive
        return transformer_encode(flat_rows(grid_rows(states, rows), self.store.dtype),
                                  self.transformer, self.net_cfg.n_heads, len(states.alive),
                                  alive)

    # -- persistence -----------------------------------------------------

    def meta(self) -> dict:
        return {
            "variant": self.variant,
            "representation": self.representation,
            "input_width": self.input_width,
            "feature_width": self.feat_width,
            "network": dataclasses.asdict(self.net_cfg),
        }

    def clone(self) -> "QNetwork":
        return type(self)(self.net_cfg, self.representation, self.input_width, self.feat_width,
                          self.store.buffer.copy())


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

    def forward_batch(self, states: StateBatch, active_only: bool = False) -> Tensor:
        dtype = self.store.dtype
        rows = active_rows(states, active_only)
        x = self._encode(states, rows)
        e_norm = gcn_normalize(states.adjacency.astype(dtype))
        h = gcn_forward(flat_rows(states.features, dtype), e_norm, self.gcn_weights,
                        states.alive.shape[1], rows)
        return q_head(x, h, self.q_w1, self.q_b1, self.q_w2, self.q_b2)


class TransformerOnlyNetwork(QNetwork):
    variant = "madqn_transformer"

    @classmethod
    def param_shapes(cls, net_cfg, input_width, feat_width):
        return transformer_shapes(net_cfg, input_width) + qhead_shapes(net_cfg, net_cfg.d_model)

    def forward_batch(self, states: StateBatch, active_only: bool = False) -> Tensor:
        x = self._encode(states, active_rows(states, active_only))
        return q_head(x, None, self.q_w1, self.q_b1, self.q_w2, self.q_b2)


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

    def forward_batch(self, states: StateBatch, active_only: bool = False) -> Tensor:
        """Raises ``ValueError`` unless ``features`` holds m rows a scene,
        the CAVs' own, as :meth:`observe` makes them."""
        features = states.features
        if features.shape[-2] != states.alive.shape[1]:
            raise ValueError(f"madqn reads one feature row per CAV ({states.alive.shape[1]} a "
                             f"scene), got {features.shape[-2]}")
        rows = active_rows(states, active_only)
        own = features.reshape(-1, features.shape[-1])
        x = np.concatenate([own if rows is None else own[rows], grid_rows(states, rows)], axis=1)
        return q_head(flat_rows(x, self.store.dtype), None,
                      self.q_w1, self.q_b1, self.q_w2, self.q_b2)


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
    net = cls(cfg.network, cfg.representation, *widths, np.empty(size, dtype))
    rng = np.random.default_rng(seed)
    # each draw is cast into its view as it is made: no copy of the network lives
    for name, tensor in net.store.items():
        tensor.data[...] = _initial(rng, name, tensor.data.shape)
    return net


# -- checkpoints ---------------------------------------------------------

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"


def save_checkpoint(directory: str | Path, net: QNetwork) -> None:
    """Write a manifest plus the parameter buffer as one little-endian
    float32 blob.  Refuses (``CheckpointError``, nothing written) a network
    with a non-finite value.

    Both files are written into a sibling temporary directory that is then
    renamed into place, so a failed save leaves any previous checkpoint at
    ``directory`` whole."""
    directory = Path(directory)
    store = net.store
    bad = store.non_finite()
    if bad is not None:
        raise CheckpointError(f"refusing to save non-finite values in parameter {bad!r}")
    entries, offset = [], 0
    for name, shape in store.shapes:
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    manifest = {"format": 1, "dtype": "<f4", "meta": net.meta(), "params": entries}
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    retired = staging.with_name(staging.name + ".old")
    staging.mkdir()
    try:
        (staging / BLOB_NAME).write_bytes(store.buffer.astype("<f4", copy=False))
        (staging / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
        if directory.exists():
            # a rename cannot replace a non-empty directory: move the old one aside
            directory.rename(retired)
        staging.rename(directory)
    except BaseException:
        if retired.exists() and not directory.exists():
            retired.rename(directory)   # the final rename failed: restore the old checkpoint
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(retired, ignore_errors=True)


def _architecture(meta: dict, n_params: int) -> tuple[type[QNetwork], NetworkConfig, str,
                                                      tuple[int, int]]:
    """The variant, network sizes, representation and widths that checkpoint
    metadata names, for a manifest of ``n_params`` parameters."""
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
        return cls, net_cfg, meta["representation"], widths
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"unusable checkpoint metadata: {exc}") from exc


def load_checkpoint(directory: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and parameters of the checkpoint at ``directory``: one
    array per parameter in store order, each a view of one fresh flat array
    (their ``base``) read from the blob in the manifest's dtype.

    The manifest must list the parameters of the architecture its metadata
    names, with their shapes, in store order and back to back from offset 0,
    as ``save_checkpoint`` writes them, and the blob must hold them all; only
    then is the array allocated.  Anything else is a ``CheckpointError``."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
    try:
        meta, entries = manifest["meta"], manifest["params"]
        dtype = np.dtype(manifest["dtype"])
        if dtype.kind != "f":
            raise TypeError(f"parameter dtype {dtype} is not floating point")
        cls, net_cfg, _, widths = _architecture(meta, len(entries))
        wanted = cls.param_shapes(net_cfg, *widths)
        given = {entry["name"]: tuple(entry["shape"]) for entry in entries}
        stored = [(entry["name"], entry["offset"]) for entry in entries]
        shapes = dict(wanted)
        if given != shapes:
            name = next(n for n in [*shapes, *sorted(given.keys() - shapes.keys())]
                        if given.get(n) != shapes.get(n))
            raise CheckpointError(f"checkpoint metadata does not fit its parameters: {name!r} is "
                                  f"{given.get(name)} given, {shapes.get(name)} by the architecture")
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
        buffer = np.empty(offset // dtype.itemsize, dtype)
        fh.readinto(buffer)
    return meta, param_views(wanted, buffer)


def network_from_checkpoint(directory: str | Path) -> QNetwork:
    """Rebuild the saved architecture in float32 around the array that
    ``load_checkpoint`` reads, whose values must be finite."""
    meta, arrays = load_checkpoint(directory)
    cls, net_cfg, representation, widths = _architecture(meta, len(arrays))
    buffer = next(iter(arrays.values())).base.astype(np.float32, copy=False)
    net = cls(net_cfg, representation, *widths, buffer)
    bad = net.store.non_finite()
    if bad is not None:
        raise CheckpointError(f"non-finite values in parameter {bad!r}")
    return net
