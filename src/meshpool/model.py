"""Cluster-pooling network built on the tape autodiff engine.

The network is a stack of pooling blocks followed by a task head. Each
block runs a per-vertex MLP and, in parallel, pools the incoming features
to its cluster level and mixes the pooled rows through a learned cluster
correlation matrix. The block output is the MLP branch beside the mixed
cluster rows scattered back to vertices; those scattered columns are
constant on each cluster, so the output is kept split (``SplitFeatures``)
and every layer that consumes it multiplies the cluster part at cluster
rank. The segmentation head combines per-vertex features with a globally
pooled summary and the shape category, broadcast the same way; the
classification head reduces everything to one global descriptor.

Parameters live in a flat name -> Parameter dict so checkpointing and
optimizer loops stay trivial.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import Parameter, Tape, Tensor

CORR_INIT_GAIN = 0.1  # keeps psi psi^T from dwarfing the pooled features


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; hashable so caches can key on it."""

    in_dim: int = 22
    cluster_counts: tuple = (16, 8)
    update_widths: tuple = (128, 256)
    corr_width: int = 64
    head_hidden: tuple = (256, 256)
    head_final: int = 128
    task: str = "segmentation"
    num_labels: int = 3
    num_categories: int = 4
    pool: str = "max"

    def __post_init__(self):
        if self.task not in ("segmentation", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.pool not in ("max", "mean"):
            raise ValueError(f"unknown pool {self.pool!r}")
        object.__setattr__(self, "cluster_counts", tuple(int(c) for c in self.cluster_counts))
        object.__setattr__(self, "update_widths", tuple(int(w) for w in self.update_widths))
        object.__setattr__(self, "head_hidden", tuple(int(w) for w in self.head_hidden))

    @property
    def n_blocks(self) -> int:
        return len(self.cluster_counts)

    def block_in_dims(self):
        """Input width of every pooling block, then the head input width."""
        dims = [self.in_dim]
        for _ in self.cluster_counts:
            dims.append(self.update_widths[-1] + dims[-1])
        return dims

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _mlp_shapes(in_dim, widths):
    shapes = []
    d = in_dim
    for w in widths:
        shapes.append((d, w))
        d = w
    return shapes


def parameter_shapes(config: ModelConfig):
    """Ordered dict of parameter name -> array shape for ``config``."""
    shapes = {}

    def add_mlp(prefix, in_dim, widths):
        for i, (d, w) in enumerate(_mlp_shapes(in_dim, widths)):
            shapes[f"{prefix}.{i}.W"] = (d, w)
            shapes[f"{prefix}.{i}.b"] = (w,)

    dims = config.block_in_dims()
    for l in range(config.n_blocks):
        add_mlp(f"block{l}.update", dims[l], config.update_widths)
        add_mlp(f"block{l}.corr", dims[l], (config.corr_width,))
    head_in = dims[-1]
    add_mlp("head.mlp", head_in, config.head_hidden)
    if config.task == "segmentation":
        # per-vertex branch + pooled branch + one-hot category
        fuse_in = 2 * config.head_hidden[-1] + config.num_categories
        add_mlp("head.out", fuse_in, (config.head_final, config.num_labels))
    else:
        add_mlp("head.out", config.head_hidden[-1], (config.head_final, config.num_categories))
    return shapes


def init_params(config: ModelConfig, seed: int):
    """He-normal weights, zero biases, in fixed name order for determinism.

    Correlation-net weights are shrunk by CORR_INIT_GAIN because the block
    squares them (psi psi^T); at unit gain the product reaches 1e3-1e6 in
    the second block and swamps the update branch.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".b"):
            params[name] = Parameter(np.zeros(shape))
            continue
        fan_in = shape[0]
        w = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        if ".corr." in name:
            w *= CORR_INIT_GAIN
        params[name] = Parameter(w)
    return params


class SplitFeatures:
    """Per-vertex features whose trailing columns are constant per cluster.

    Stands for the N-row matrix ``concat([vertex, cluster[mask]])`` without
    building it: ``vertex`` is (N, dv), ``cluster`` is (p, dc) and ``mask``
    maps each of the N rows to its cluster row. A linear layer multiplies
    the cluster part once at p rows and scatters the product (see
    ``_linear``). ``data`` builds the dense matrix, for inspection only.
    """

    __slots__ = ("vertex", "cluster", "mask")

    def __init__(self, vertex: Tensor, cluster: Tensor, mask: np.ndarray):
        self.vertex, self.cluster, self.mask = vertex, cluster, mask

    @property
    def data(self) -> np.ndarray:
        return np.concatenate([self.vertex.data, self.cluster.data[self.mask]], axis=1)


def _linear(tape: Tape, params, name, x) -> Tensor:
    """x @ W + b for a Tensor or SplitFeatures x.

    A split input multiplies its per-vertex part by W's leading rows at N
    rows and its cluster part by W's trailing rows (plus b) at cluster rank,
    then scatters that product to the vertices.
    """
    w, b = params[f"{name}.W"].value, params[f"{name}.b"].value
    if isinstance(x, Tensor):
        return tape.bias_add(tape.matmul(x, w), b)
    per_vertex = tape.matmul(x.vertex, w)
    tail = tape.row_slice(w, x.vertex.data.shape[1])
    per_cluster = tape.bias_add(tape.matmul(x.cluster, tail), b)
    return tape.add(per_vertex, tape.cluster_scatter(per_cluster, x.mask))


def _mlp_forward(tape: Tape, params, prefix, x, n_layers, final_relu=True):
    h = x
    for i in range(n_layers):
        h = _linear(tape, params, f"{prefix}.{i}", h)
        if final_relu or i < n_layers - 1:
            h = tape.relu(h)
    return h


def _pool(tape: Tape, config, x, mask, p):
    """Cluster pooling of a Tensor or of SplitFeatures (part by part, since
    pooling acts column by column)."""
    pool = tape.cluster_max_pool if config.pool == "max" else tape.cluster_mean_pool
    if isinstance(x, Tensor):
        return pool(x, mask, p)
    return tape.concat([pool(x.vertex, mask, p),
                        pool(tape.cluster_scatter(x.cluster, x.mask), mask, p)], axis=1)


def pooling_block_forward(tape: Tape, params, config: ModelConfig, level: int,
                          x, mask: np.ndarray) -> SplitFeatures:
    """One block: per-vertex MLP alongside correlated cluster pooling.

    ``x`` is a Tensor or the previous block's SplitFeatures. The output is
    the per-vertex MLP branch plus the mixed cluster rows, kept at cluster
    rank as SplitFeatures.
    """
    p = config.cluster_counts[level]
    updated = _mlp_forward(tape, params, f"block{level}.update", x,
                           len(config.update_widths))
    pooled = _pool(tape, config, x, mask, p)
    corr = correlation_matrix(tape, params, config, level, x, mask)
    return SplitFeatures(updated, tape.matmul(corr, pooled), mask)


def correlation_matrix(tape: Tape, params, config: ModelConfig, level: int,
                       x, mask: np.ndarray) -> Tensor:
    """The psi psi^T cluster mixing matrix of one block (symmetric PSD)."""
    p = config.cluster_counts[level]
    psi = _pool(tape, config,
                _mlp_forward(tape, params, f"block{level}.corr", x, 1),
                mask, p)
    return tape.matmul(psi, tape.transpose(psi))


def _category_onehot(config: ModelConfig, category: int) -> np.ndarray:
    if not 0 <= int(category) < config.num_categories:
        raise ValueError(f"category {category} outside [0, {config.num_categories})")
    onehot = np.zeros((1, config.num_categories))
    onehot[0, int(category)] = 1.0
    return onehot


def seg_head_forward(tape: Tape, params, config: ModelConfig, x,
                     category: int) -> Tensor:
    """Per-vertex logits from the per-vertex branch and one summary row
    (global max pool plus category one-hot) broadcast to every vertex."""
    h = _mlp_forward(tape, params, "head.mlp", x, len(config.head_hidden))
    onehot = Tensor(_category_onehot(config, category), needs_grad=False)
    summary = tape.concat([tape.global_max_pool(h), onehot], axis=1)
    fused = SplitFeatures(h, summary, np.zeros(h.data.shape[0], dtype=np.int64))
    return _mlp_forward(tape, params, "head.out", fused, 2, final_relu=False)


def cls_head_forward(tape: Tape, params, config: ModelConfig, x) -> Tensor:
    h = _mlp_forward(tape, params, "head.mlp", x, len(config.head_hidden))
    pooled = tape.global_max_pool(h)
    return _mlp_forward(tape, params, "head.out", pooled, 2, final_relu=False)


def model_forward(tape: Tape, params, config: ModelConfig, features,
                  level_masks, category=None) -> Tensor:
    """Full network: features (N x in_dim) to logits.

    level_masks holds one vertex -> cluster id array per block. Returns
    per-vertex logits for segmentation (category required) or a single
    logits row for classification.
    """
    if len(level_masks) != config.n_blocks:
        raise ValueError(f"expected {config.n_blocks} cluster masks, got {len(level_masks)}")
    x = features if isinstance(features, Tensor) else Tensor(features, needs_grad=False)
    if x.data.ndim != 2 or x.data.shape[1] != config.in_dim:
        raise ValueError(f"features must be (N, {config.in_dim}), got {x.data.shape}")
    for level, mask in enumerate(level_masks):
        x = pooling_block_forward(tape, params, config, level, x, mask)
    if config.task == "segmentation":
        if category is None:
            raise ValueError("segmentation forward needs the shape category")
        return seg_head_forward(tape, params, config, x, category)
    return cls_head_forward(tape, params, config, x)
