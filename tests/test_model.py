"""Network wiring: shapes, initialization, heads and block algebra."""

import numpy as np
import pytest

from meshpool.autodiff import Tape, Tensor
from meshpool.cache import PreprocessParams, preprocess_mesh
from meshpool.model import (
    CORR_INIT_GAIN,
    ModelConfig,
    correlation_matrix,
    init_params,
    model_forward,
    parameter_shapes,
    pooling_block_forward,
)
from meshpool.synth import DUMBBELL_RESOLUTIONS, deform, dumbbell
from meshpool.training import SampleRecord, forward_logits

from conftest import central_diff, max_rel_err

TINY = ModelConfig(
    in_dim=5,
    cluster_counts=(3, 2),
    update_widths=(8, 8),
    corr_width=6,
    head_hidden=(8, 8),
    head_final=8,
    task="segmentation",
    num_labels=3,
    num_categories=2,
)


def tiny_inputs(seed=0, n=12):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, TINY.in_dim))
    masks = [
        rng.permutation(np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)])),
        rng.permutation(np.concatenate([np.arange(2), rng.integers(0, 2, n - 2)])),
    ]
    return feats, [m.astype(np.int64) for m in masks]


def test_config_validation():
    with pytest.raises(ValueError, match="task"):
        ModelConfig(task="regression")
    with pytest.raises(ValueError, match="pool"):
        ModelConfig(pool="sum")


def test_block_in_dims_default():
    config = ModelConfig()
    assert config.block_in_dims() == [22, 278, 534]
    shapes = parameter_shapes(config)
    assert shapes["head.mlp.0.W"] == (534, 256)
    assert shapes["head.out.0.W"] == (2 * 256 + 4, 128)
    assert shapes["head.out.1.W"] == (128, 3)


def test_classification_head_shapes():
    config = ModelConfig(task="classification", num_categories=4)
    shapes = parameter_shapes(config)
    assert shapes["head.out.0.W"] == (256, 128)
    assert shapes["head.out.1.W"] == (128, 4)


def test_config_hash_tracks_fields():
    a = ModelConfig()
    assert a.config_hash() == ModelConfig().config_hash()
    assert a.config_hash() != ModelConfig(corr_width=65).config_hash()
    assert a.config_hash() != ModelConfig(pool="mean").config_hash()


def test_init_params_matches_declared_shapes():
    params = init_params(TINY, seed=0)
    shapes = parameter_shapes(TINY)
    assert set(params) == set(shapes)
    for name, shape in shapes.items():
        assert params[name].data.shape == shape
        if name.endswith(".b"):
            assert np.array_equal(params[name].data, np.zeros(shape))
    # same seed reproduces bit-identically, different seed does not
    again = init_params(TINY, seed=0)
    assert all(np.array_equal(params[n].data, again[n].data) for n in params)
    other = init_params(TINY, seed=1)
    assert any(not np.array_equal(params[n].data, other[n].data) for n in params)


def test_correlation_net_initialized_small():
    config = ModelConfig()  # wide layers give a tight std estimate
    params = init_params(config, seed=0)
    w = params["block0.corr.0.W"].data
    he = np.sqrt(2.0 / w.shape[0])
    assert np.std(w) == pytest.approx(CORR_INIT_GAIN * he, rel=0.15)
    assert np.std(params["block0.update.0.W"].data) == pytest.approx(he, rel=0.15)


def test_forward_output_shapes():
    feats, masks = tiny_inputs()
    params = init_params(TINY, seed=0)
    logits = model_forward(Tape(), params, TINY, feats, masks, category=1)
    assert logits.data.shape == (12, TINY.num_labels)

    cls_cfg = ModelConfig(
        in_dim=5, cluster_counts=(3, 2), update_widths=(8, 8), corr_width=6,
        head_hidden=(8, 8), head_final=8, task="classification", num_categories=4,
    )
    cls_params = init_params(cls_cfg, seed=0)
    out = model_forward(Tape(), cls_params, cls_cfg, feats, masks)
    assert out.data.shape == (1, 4)


def test_forward_validation():
    feats, masks = tiny_inputs()
    params = init_params(TINY, seed=0)
    with pytest.raises(ValueError, match="cluster masks"):
        model_forward(Tape(), params, TINY, feats, masks[:1], category=0)
    with pytest.raises(ValueError, match="features"):
        model_forward(Tape(), params, TINY, feats[:, :4], masks, category=0)
    with pytest.raises(ValueError, match="category"):
        model_forward(Tape(), params, TINY, feats, masks)
    with pytest.raises(ValueError, match="outside"):
        model_forward(Tape(), params, TINY, feats, masks, category=7)


def test_correlation_matrix_symmetric_psd():
    feats, masks = tiny_inputs(seed=3)
    params = init_params(TINY, seed=1)
    corr = correlation_matrix(Tape(), params, TINY, 0, Tensor(feats), masks[0]).data
    assert corr.shape == (3, 3)
    assert np.abs(corr - corr.T).max() < 1e-12
    assert np.linalg.eigvalsh(corr).min() >= -1e-10


def test_single_cluster_block_closed_form():
    """With one vertex and one cluster the block is an explicit formula."""
    config = ModelConfig(
        in_dim=4, cluster_counts=(1,), update_widths=(6,), corr_width=5,
        head_hidden=(4,), head_final=4, num_categories=1,
    )
    params = init_params(config, seed=2)
    x = np.random.default_rng(4).standard_normal((1, 4))
    out = pooling_block_forward(Tape(), params, config, 0, Tensor(x),
                                np.zeros(1, dtype=np.int64)).data

    relu = lambda a: np.maximum(a, 0.0)
    updated = relu(x @ params["block0.update.0.W"].data + params["block0.update.0.b"].data)
    psi = relu(x @ params["block0.corr.0.W"].data + params["block0.corr.0.b"].data)
    mixed = (psi @ psi.T).item() * x  # C is the 1x1 Gram matrix |psi|^2
    assert np.allclose(out, np.hstack([updated, mixed]), atol=1e-12)


def test_identical_cluster_embeddings_mix_uniformly():
    """Zero corr weights + shared bias: every cluster gets the same mixed row."""
    feats, masks = tiny_inputs(seed=5)
    params = init_params(TINY, seed=0)
    params["block0.corr.0.W"].value.data[...] = 0.0
    params["block0.corr.0.b"].value.data[...] = 0.5
    out = pooling_block_forward(Tape(), params, TINY, 0, Tensor(feats), masks[0]).data
    mixed = out[:, TINY.update_widths[-1]:]
    assert np.allclose(mixed - mixed[0], 0.0, atol=1e-12)


def test_mean_pool_variant_runs():
    feats, masks = tiny_inputs(seed=6)
    config = ModelConfig(
        in_dim=5, cluster_counts=(3, 2), update_widths=(8, 8), corr_width=6,
        head_hidden=(8, 8), head_final=8, task="segmentation",
        num_labels=3, num_categories=2, pool="mean",
    )
    params = init_params(config, seed=0)
    logits = model_forward(Tape(), params, config, feats, masks, category=0)
    assert logits.data.shape == (12, 3)
    assert np.isfinite(logits.data).all()


# ---------------------------------------------------------------------------
# cluster-rank layers against the materialized N-row network
# ---------------------------------------------------------------------------

def reference_forward(tape, params, config, feats, masks, category=None):
    """The network with every block output and the segmentation summary
    materialized as N-row matrices (concat + cluster_scatter) and multiplied
    by whole weight matrices, built from public tape ops only."""

    def mlp(prefix, x, n_layers, final_relu=True):
        for i in range(n_layers):
            x = tape.bias_add(tape.matmul(x, params[f"{prefix}.{i}.W"].value),
                              params[f"{prefix}.{i}.b"].value)
            if final_relu or i < n_layers - 1:
                x = tape.relu(x)
        return x

    pool = tape.cluster_max_pool if config.pool == "max" else tape.cluster_mean_pool
    x = Tensor(feats, needs_grad=False)
    for level, mask in enumerate(masks):
        p = config.cluster_counts[level]
        updated = mlp(f"block{level}.update", x, len(config.update_widths))
        pooled = pool(x, mask, p)
        psi = pool(mlp(f"block{level}.corr", x, 1), mask, p)
        mixed = tape.matmul(tape.matmul(psi, tape.transpose(psi)), pooled)
        x = tape.concat([updated, tape.cluster_scatter(mixed, mask)], axis=1)
    h = mlp("head.mlp", x, len(config.head_hidden))
    pooled = tape.global_max_pool(h)
    if config.task == "classification":
        return mlp("head.out", pooled, 2, final_relu=False)
    onehot = np.zeros((1, config.num_categories))
    onehot[0, category] = 1.0
    summary = tape.concat([pooled, Tensor(onehot, needs_grad=False)], axis=1)
    spread = tape.cluster_scatter(summary, np.zeros(len(feats), dtype=np.int64))
    return mlp("head.out", tape.concat([h, spread], axis=1), 2, final_relu=False)


def _loss_and_grads(forward, params, config, feats, masks, category, target):
    for p in params.values():
        p.zero_grad()
    tape = Tape()
    logits = forward(tape, params, config, feats, masks, category=category)
    tape.backward(tape.softmax_cross_entropy(logits, target))
    grads = {n: p.grad.copy() for n, p in params.items()}
    for p in params.values():
        p.zero_grad()
    return logits.data, grads


def _rel(a, b):
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-300)


@pytest.fixture(scope="module")
def dumbbell_inputs():
    base, labels = dumbbell(*DUMBBELL_RESOLUTIONS["a"])
    cache = preprocess_mesh(deform(base, seed=[3, 0]), PreprocessParams())
    return cache.features, cache.level_masks, labels


@pytest.mark.parametrize("task", ["segmentation", "classification"])
@pytest.mark.parametrize("pool", ["max", "mean"])
def test_cluster_rank_model_matches_materialized_reference(task, pool, dumbbell_inputs):
    feats, masks, labels = dumbbell_inputs
    config = ModelConfig(task=task, pool=pool, num_labels=3, num_categories=4)
    params = init_params(config, seed=1)
    category = 2 if task == "segmentation" else None
    rows = labels if task == "segmentation" else np.array([2])
    target = np.eye(config.num_labels if task == "segmentation" else 4)[rows]
    got_logits, got = _loss_and_grads(model_forward, params, config, feats, masks,
                                      category, target)
    ref_logits, ref = _loss_and_grads(reference_forward, params, config, feats, masks,
                                      category, target)
    assert _rel(got_logits, ref_logits) < 1e-12
    for name in params:
        assert _rel(got[name], ref[name]) < 1e-12, name


@pytest.mark.parametrize("task", ["segmentation", "classification"])
@pytest.mark.parametrize("pool", ["max", "mean"])
def test_forward_logits_bit_identical_to_recording_forward(task, pool):
    feats, masks = tiny_inputs(seed=7)
    config = ModelConfig(in_dim=5, cluster_counts=(3, 2), update_widths=(8, 8),
                         corr_width=6, head_hidden=(8, 8), head_final=8, task=task,
                         num_labels=3, num_categories=2, pool=pool)
    params = init_params(config, seed=3)
    record = SampleRecord("tiny", feats, masks, config.cluster_counts, category=1,
                          labels=np.zeros(len(feats), dtype=np.int64))
    category = 1 if task == "segmentation" else None
    recorded = model_forward(Tape(), params, config, feats, masks, category=category)
    assert np.array_equal(forward_logits(params, config, record), recorded.data)


class _SpyTape(Tape):
    """Keeps the inputs and outputs of every cluster pooling and concat."""

    def __init__(self):
        super().__init__()
        self.pools, self.concats = [], []

    def cluster_max_pool(self, x, mask, p):
        out = super().cluster_max_pool(x, mask, p)
        self.pools.append((x, out))
        return out

    def concat(self, parts, axis=1):
        parts = list(parts)
        self.concats.append(parts)
        return super().concat(parts, axis)


def test_features_and_onehot_get_no_gradient():
    feats, masks = tiny_inputs(seed=8)
    params = init_params(TINY, seed=0)
    tape = _SpyTape()
    features = Tensor(feats, needs_grad=False)
    logits = model_forward(tape, params, TINY, features, masks, category=1)
    tape.backward(tape.softmax_cross_entropy(logits, np.eye(3)[np.arange(12) % 3]))
    assert features.grad is None
    raw_in, raw_pooled = tape.pools[0]  # block 0 pools the raw features first
    assert raw_in is features and not raw_pooled.needs_grad
    recorded = {id(out) for out, _ in tape._records}
    assert id(raw_pooled) not in recorded
    onehot = tape.concats[-1][1]  # the summary: [global max pool, one-hot]
    assert onehot.data.shape == (1, TINY.num_categories) and onehot.grad is None
    assert all(p.grad.any() for name, p in params.items() if name.endswith(".W"))


@pytest.mark.parametrize("task", ["segmentation", "classification"])
def test_split_weights_match_finite_differences(task):
    """Every weight whose rows are split between a per-vertex and a
    cluster-rank product, checked entry by entry."""
    feats, masks = tiny_inputs(seed=9)
    config = ModelConfig(in_dim=5, cluster_counts=(3, 2), update_widths=(8, 8),
                         corr_width=6, head_hidden=(8, 8), head_final=8, task=task,
                         num_labels=3, num_categories=2)
    params = init_params(config, seed=4)
    rng = np.random.default_rng(10)
    for name in sorted(params):  # nonzero biases keep pool margins generic
        if name.endswith(".b"):
            params[name].value.data[...] = rng.uniform(0.01, 0.1, params[name].data.shape)
    category = 1 if task == "segmentation" else None
    target = np.eye(3)[np.arange(12) % 3] if task == "segmentation" else np.eye(2)[[1]]

    def loss(name, w):
        saved = params[name].value.data
        params[name].value.data = w
        try:
            logits = model_forward(Tape(record=False), params, config, feats, masks,
                                   category=category)
            return float(Tape(record=False).softmax_cross_entropy(logits, target).data)
        finally:
            params[name].value.data = saved

    _, grads = _loss_and_grads(model_forward, params, config, feats, masks,
                               category, target)
    split = ["block1.update.0.W", "block1.corr.0.W", "head.mlp.0.W"]
    if task == "segmentation":
        split.append("head.out.0.W")
    for name in split:
        fd = central_diff(lambda w: loss(name, w), params[name].data, eps=1e-6)
        assert max_rel_err(fd, grads[name]) < 1e-6, name
