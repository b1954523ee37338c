"""Cluster-pooling network built on the tape autodiff engine.

The network is a stack of pooling blocks followed by a task head. Each
block runs a per-vertex MLP and, in parallel, pools the incoming features
to its cluster level and mixes the pooled rows through a learned cluster
correlation matrix. The block output is the MLP branch beside the mixed
cluster rows scattered back to vertices; those scattered columns are
constant on each cluster, so the output is kept split (``SplitFeatures``)
and every layer that consumes it multiplies the cluster part at cluster
rank. Every MLP layer, split input or not, is one fused ``Tape.dense``
record (linear, bias and ReLU). One head serves both tasks: a per-vertex
MLP and a global max pool of it. Classification reads its logits from
the pooled row; segmentation appends the shape category to that row and
broadcasts it beside every vertex, split the same way.

Parameters live in one name -> Parameter ``ParameterSet``, whose flat
arrays the optimizer and the checkpoint handle whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterSet, Tape, Tensor

CORR_INIT_GAIN = 0.1  # keeps psi psi^T from dwarfing the pooled features

TASKS = ("segmentation", "classification")

MAX_CLASSES = 1 << 16  # the most labels or categories a model may have


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description. Every count is stored as a Python int
    (a list of them as a tuple), so two configs compare equal exactly when
    they describe the same network."""

    in_dim: int = 22
    cluster_counts: tuple = (16, 8)
    update_widths: tuple = (128, 256)
    corr_width: int = 64
    head_hidden: tuple = (256, 256)
    head_final: int = 128
    task: str = "segmentation"
    num_labels: int = 3
    num_categories: int = 4

    def __post_init__(self):
        """Raises ValueError naming the first field that breaks its rule.

        A count must be a Python or numpy int; a bool, float or str is
        rejected rather than rounded or compared by value.
        """
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("in_dim", "cluster_counts", "update_widths", "corr_width",
                     "head_hidden", "head_final", "num_labels", "num_categories"):
            value = getattr(self, name)
            listed = name in ("cluster_counts", "update_widths", "head_hidden")
            items = tuple(value) if listed else (value,)
            if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                       for n in items):
                what = "a list of integers" if listed else "an integer"
                raise ValueError(f"{name} must be {what}, got {value!r}")
            items = tuple(int(n) for n in items)
            value = items if listed else items[0]
            object.__setattr__(self, name, value)
            if name in ("num_labels", "num_categories"):
                if not 0 <= value <= MAX_CLASSES:
                    raise ValueError(f"{name} must be in [0, {MAX_CLASSES}], got {value}")
            elif min(items, default=0) < 1:
                raise ValueError(f"{name} must be a size, or a non-empty list of sizes, "
                                 f"of at least 1, got {value!r}")

    @property
    def n_blocks(self) -> int:
        return len(self.cluster_counts)

    def block_in_dims(self):
        """Input width of every pooling block, then the head input width."""
        dims = [self.in_dim]
        for _ in self.cluster_counts:
            dims.append(self.update_widths[-1] + dims[-1])
        return dims


def parameter_shapes(config: ModelConfig):
    """Ordered dict of parameter name -> array shape for ``config``."""
    shapes = {}

    def add_mlp(prefix, in_dim, widths):
        for i, (d, w) in enumerate(zip((in_dim, *widths), widths)):
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


def init_params(config: ModelConfig, seed: int) -> ParameterSet:
    """He-normal weights, zero biases, in fixed name order for determinism.

    Correlation-net weights are shrunk by CORR_INIT_GAIN because the block
    squares them (psi psi^T); at unit gain the product reaches 1e3-1e6 in
    the second block and swamps the update branch.
    """
    rng = np.random.default_rng(seed)
    params = ParameterSet(parameter_shapes(config))
    for name, p in params.items():
        if name.endswith(".b"):
            continue
        w = rng.standard_normal(p.data.shape) * np.sqrt(2.0 / p.data.shape[0])
        if ".corr." in name:
            w *= CORR_INIT_GAIN
        p.data[...] = w
    return params


class SplitFeatures:
    """Per-vertex features whose trailing columns are constant per cluster.

    Stands for the N-row matrix ``concat([vertex, cluster[mask]])`` without
    building it: ``vertex`` is (N, dv), ``cluster`` is (p, dc) and ``mask``
    maps each of the N rows to its cluster row. A layer multiplies the
    cluster part once at p rows and scatters the product (``Tape.dense``
    with ``cluster`` and ``mask``).
    """

    __slots__ = ("vertex", "cluster", "mask")

    def __init__(self, vertex: Tensor, cluster: Tensor, mask: np.ndarray):
        self.vertex, self.cluster, self.mask = vertex, cluster, mask


def _mlp_forward(tape: Tape, params, prefix, x, n_layers, final_relu=True):
    """ReLU layers (the last one linear unless ``final_relu``) on a Tensor
    or SplitFeatures x, one ``Tape.dense`` record each."""
    h = x
    for i in range(n_layers):
        w, b = params[f"{prefix}.{i}.W"].value, params[f"{prefix}.{i}.b"].value
        relu = final_relu or i < n_layers - 1
        if isinstance(h, SplitFeatures):
            h = tape.dense(h.vertex, w, b, relu, h.cluster, h.mask)
        else:
            h = tape.dense(h, w, b, relu)
    return h


def _pool(tape: Tape, x, mask, p):
    """Cluster max pooling of a Tensor or of SplitFeatures (part by part,
    since pooling acts column by column)."""
    pool = tape.cluster_max_pool
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
    pooled = _pool(tape, x, mask, p)
    corr = correlation_matrix(tape, params, config, level, x, mask)
    return SplitFeatures(updated, tape.matmul(corr, pooled), mask)


def correlation_matrix(tape: Tape, params, config: ModelConfig, level: int,
                       x, mask: np.ndarray) -> Tensor:
    """The psi psi^T cluster mixing matrix of one block (symmetric PSD)."""
    p = config.cluster_counts[level]
    psi = _pool(tape, _mlp_forward(tape, params, f"block{level}.corr", x, 1), mask, p)
    return tape.matmul(psi, tape.transpose(psi))


def model_forward(tape: Tape, params, config: ModelConfig, features,
                  level_masks, category=None) -> Tensor:
    """Full network: features (N x in_dim) to logits.

    level_masks holds one vertex -> cluster id array per block. After the
    blocks, the head runs its per-vertex MLP and max-pools it to one
    global row. Classification maps that row to a single logits row.
    Segmentation (category required) appends the category one-hot to the
    global row and broadcasts it beside every vertex's features, giving
    per-vertex logits.
    """
    if len(level_masks) != config.n_blocks:
        raise ValueError(f"expected {config.n_blocks} cluster masks, got {len(level_masks)}")
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.data.ndim != 2 or x.data.shape[1] != config.in_dim:
        raise ValueError(f"features must be (N, {config.in_dim}), got {x.data.shape}")
    if config.task == "segmentation":
        if category is None:
            raise ValueError("segmentation forward needs the shape category")
        if not 0 <= int(category) < config.num_categories:
            raise ValueError(f"category {category} outside [0, {config.num_categories})")
    for level, mask in enumerate(level_masks):
        x = pooling_block_forward(tape, params, config, level, x, mask)
    h = _mlp_forward(tape, params, "head.mlp", x, len(config.head_hidden))
    head_in = tape.global_max_pool(h)
    if config.task == "segmentation":
        onehot = np.zeros((1, config.num_categories))
        onehot[0, int(category)] = 1.0
        summary = tape.concat([head_in, Tensor(onehot)], axis=1)
        head_in = SplitFeatures(h, summary, np.zeros(h.data.shape[0], dtype=np.int64))
    return _mlp_forward(tape, params, "head.out", head_in, 2, final_relu=False)
