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
from meshpool.training import SampleRecord, forward_logits, predict, record_from_cache

from conftest import central_diff, max_rel_err, split_features_data

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
    for field, value in (("in_dim", 0), ("corr_width", 0), ("head_final", -1),
                         ("cluster_counts", ()), ("cluster_counts", (4, 0)),
                         ("update_widths", ()), ("head_hidden", [8, 0])):
        with pytest.raises(ValueError, match=f"^{field} must be a.* of at least 1"):
            ModelConfig(**{field: value})


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


def test_configs_compare_by_value():
    a = ModelConfig()
    assert a == ModelConfig() and hash(a) == hash(ModelConfig())
    assert a != ModelConfig(corr_width=65)
    assert a != ModelConfig(head_final=129)
    # numpy ints and lists are stored as Python ints in tuples
    same = ModelConfig(in_dim=np.int64(22), cluster_counts=np.array([16, 8]),
                       update_widths=[128, 256], num_labels=np.int32(3))
    assert same == a
    assert type(same.in_dim) is int and type(same.cluster_counts[0]) is int
    assert type(same.num_labels) is int


@pytest.mark.parametrize("field,value,what", [
    ("in_dim", 14.0, "an integer"),
    ("corr_width", "64", "an integer"),
    ("head_final", True, "an integer"),
    ("num_labels", 3.0, "an integer"),
    ("num_categories", "4", "an integer"),
    ("cluster_counts", (6.7, 3), "a list of integers"),
    ("update_widths", "128", "a list of integers"),
    ("head_hidden", (256, False), "a list of integers"),
])
def test_config_rejects_counts_that_are_not_integers(field, value, what):
    with pytest.raises(ValueError) as info:
        ModelConfig(**{field: value})
    assert str(info.value) == f"{field} must be {what}, got {value!r}"


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
    out = split_features_data(pooling_block_forward(Tape(), params, config, 0, Tensor(x),
                                                    np.zeros(1, dtype=np.int64)))

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
    out = split_features_data(pooling_block_forward(Tape(), params, TINY, 0, Tensor(feats),
                                                    masks[0]))
    mixed = out[:, TINY.update_widths[-1]:]
    assert np.allclose(mixed - mixed[0], 0.0, atol=1e-12)


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

    pool = tape.cluster_max_pool
    x = Tensor(feats)
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
    summary = tape.concat([pooled, Tensor(onehot)], axis=1)
    spread = tape.cluster_scatter(summary, np.zeros(len(feats), dtype=np.int64))
    return mlp("head.out", tape.concat([h, spread], axis=1), 2, final_relu=False)


def _loss_and_grads(forward, params, config, feats, masks, category, labels):
    params.grad.fill(0.0)
    tape = Tape()
    logits = forward(tape, params, config, feats, masks, category=category)
    tape.backward(tape.softmax_cross_entropy(logits, labels))
    grads = {n: p.grad.copy() for n, p in params.items()}
    params.grad.fill(0.0)
    return logits.data, grads


def _rel(a, b):
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-300)


@pytest.fixture(scope="module")
def dumbbell_cache():
    base, labels = dumbbell(*DUMBBELL_RESOLUTIONS["a"])
    return preprocess_mesh(deform(base, seed=[3, 0]), PreprocessParams()), labels


@pytest.fixture(scope="module")
def dumbbell_inputs(dumbbell_cache):
    cache, labels = dumbbell_cache
    return cache.features, cache.level_masks, labels


# the ids name the pooling rule (cluster max pooling) beside the task
MAX_POOL_TASKS = dict(argvalues=["segmentation", "classification"],
                      ids=["max-segmentation", "max-classification"])


@pytest.mark.parametrize("task", **MAX_POOL_TASKS)
def test_cluster_rank_model_matches_materialized_reference(task, dumbbell_inputs):
    feats, masks, labels = dumbbell_inputs
    config = ModelConfig(task=task, num_labels=3, num_categories=4)
    params = init_params(config, seed=1)
    category = 2 if task == "segmentation" else None
    rows = labels if task == "segmentation" else np.array([2])
    got_logits, got = _loss_and_grads(model_forward, params, config, feats, masks,
                                      category, rows)
    ref_logits, ref = _loss_and_grads(reference_forward, params, config, feats, masks,
                                      category, rows)
    assert _rel(got_logits, ref_logits) < 1e-12
    for name in params:
        assert _rel(got[name], ref[name]) < 1e-12, name


@pytest.mark.parametrize("task", **MAX_POOL_TASKS)
def test_forward_logits_bit_identical_to_recording_forward(task):
    feats, masks = tiny_inputs(seed=7)
    config = ModelConfig(in_dim=5, cluster_counts=(3, 2), update_widths=(8, 8),
                         corr_width=6, head_hidden=(8, 8), head_final=8, task=task,
                         num_labels=3, num_categories=2)
    params = init_params(config, seed=3)
    record = SampleRecord("tiny", feats, masks, category=1,
                          labels=np.zeros(len(feats), dtype=np.int64))
    category = 1 if task == "segmentation" else None
    recorded = model_forward(Tape(), params, config, feats, masks, category=category)
    assert np.array_equal(forward_logits(params, config, record), recorded.data)


@pytest.mark.parametrize("task", **MAX_POOL_TASKS)
def test_layout_record_predicts_in_mesh_order(task, dumbbell_cache):
    cache, labels = dumbbell_cache
    config = ModelConfig(task=task, num_labels=3, num_categories=4)
    params = init_params(config, seed=6)
    category = 2 if task == "segmentation" else None
    record = record_from_cache("a", cache, 2, labels)
    assert not np.array_equal(record.order, np.arange(cache.n_vertices))

    def mesh_forward():
        return model_forward(Tape(record=False), params, config, cache.features,
                             cache.level_masks, category=category).data

    if task == "segmentation":  # centre the logits so the prediction varies
        params["head.out.1.b"].data[...] -= np.median(mesh_forward(), axis=0)
    mesh_logits = mesh_forward()
    logits = forward_logits(params, config, record)
    assert _rel(logits, mesh_logits) < 1e-12
    want = np.argmax(mesh_logits, axis=1)
    assert task == "classification" or len(np.unique(want)) == 3  # the order shows
    assert np.array_equal(predict(params, config, record), want)


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
    labels = np.arange(12) % 3 if task == "segmentation" else np.array([1])

    def loss(name, w):
        saved = params[name].value.data
        params[name].value.data = w
        try:
            logits = model_forward(Tape(record=False), params, config, feats, masks,
                                   category=category)
            return float(Tape(record=False).softmax_cross_entropy(logits, labels).data)
        finally:
            params[name].value.data = saved

    _, grads = _loss_and_grads(model_forward, params, config, feats, masks,
                               category, labels)
    split = ["block1.update.0.W", "block1.corr.0.W", "head.mlp.0.W"]
    if task == "segmentation":
        split.append("head.out.0.W")
    for name in split:
        fd = central_diff(lambda w: loss(name, w), params[name].data, eps=1e-6)
        assert max_rel_err(fd, grads[name]) < 1e-6, name
