"""Training loop determinism, metrics and checkpointing."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import meshpool
from meshpool.binio import array_to_str, read_container, str_to_array, write_container
from meshpool.model import MAX_CLASSES, ModelConfig, init_params, parameter_shapes
from meshpool.training import (
    CheckpointError,
    _shape_iou,
    SampleRecord,
    TrainConfig,
    TrainingError,
    evaluate_accuracy,
    evaluate_classification,
    evaluate_segmentation,
    forward_logits,
    load_checkpoint,
    predict,
    record_from_cache,
    save_checkpoint,
    split_dataset,
    train,
)
from meshpool.cache import (CACHE_KIND, FeatureCache, PreprocessParams, preprocess_mesh,
                            save_cache)
from meshpool.synth import DUMBBELL_RESOLUTIONS, deform, dumbbell

CLS_CONFIG = ModelConfig(
    in_dim=4, cluster_counts=(3, 2), update_widths=(8, 8), corr_width=6,
    head_hidden=(8, 8), head_final=8, task="classification", num_categories=2,
)
SEG_CONFIG = ModelConfig(
    in_dim=4, cluster_counts=(3, 2), update_widths=(8, 8), corr_width=6,
    head_hidden=(8, 8), head_final=8, task="segmentation",
    num_labels=2, num_categories=1,
)


def toy_masks(rng, n):
    m0 = rng.permutation(np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)]))
    m1 = rng.permutation(np.concatenate([np.arange(2), rng.integers(0, 2, n - 2)]))
    return [m0.astype(np.int64), m1.astype(np.int64)]


def toy_cls_records(n_samples=8, n=10, seed=0):
    """Linearly separable toy shapes: category shifts the feature mean."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_samples):
        cat = i % 2
        feats = 0.3 * rng.standard_normal((n, 4)) + (1.0 if cat else -1.0)
        records.append(SampleRecord(f"toy_{i}", feats, toy_masks(rng, n), cat))
    return records


def toy_seg_records(n_samples=4, n=12, seed=0):
    """Label is the sign of the first feature column."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_samples):
        feats = rng.standard_normal((n, 4))
        feats[:, 0] += 0.5 * np.sign(feats[:, 0])  # margin against noise
        labels = (feats[:, 0] > 0).astype(np.int64)
        records.append(SampleRecord(f"seg_{i}", feats, toy_masks(rng, n), 0,
                                    labels=labels))
    return records


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[n].data, b[n].data) for n in a)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_reduces_loss_and_fits_toy_task():
    records = toy_cls_records()
    params, history = train(records, CLS_CONFIG, TrainConfig(epochs=40, lr=3e-3, seed=0))
    assert len(history) == 40
    assert history[-1].mean_loss < history[0].mean_loss
    assert evaluate_accuracy(params, CLS_CONFIG, records) == 1.0


def test_training_is_deterministic():
    records = toy_cls_records()
    cfg = TrainConfig(epochs=5, seed=3)
    params_a, hist_a = train(records, CLS_CONFIG, cfg)
    params_b, hist_b = train(records, CLS_CONFIG, cfg)
    assert params_equal(params_a, params_b)
    assert [h.mean_loss for h in hist_a] == [h.mean_loss for h in hist_b]
    params_c, _ = train(records, CLS_CONFIG, TrainConfig(epochs=5, seed=4))
    assert not params_equal(params_a, params_c)


def test_training_on_a_step_memory_matches_fresh_arrays(monkeypatch):
    """Dense outputs in the reused memory, which grows mid-run when a larger
    mesh follows a smaller one, train the same state as fresh arrays."""
    from meshpool import training

    records = toy_seg_records(n_samples=2, n=12) + toy_seg_records(n_samples=2, n=40, seed=1)
    cfg = TrainConfig(epochs=3, seed=1, batch_size=2)
    first = np.random.default_rng([cfg.seed, 0]).permutation(len(records))[0]
    assert len(records[first].features) == 12  # the smaller mesh sizes the memory first

    def digest():
        params, _ = train(records, SEG_CONFIG, cfg)
        return hashlib.sha256(b"".join(a.tobytes() for a in (params.data, params.m, params.v)))

    class FreshTape(training.Tape):
        def __init__(self, memory=None):
            super().__init__()

    with_memory = digest().hexdigest()
    monkeypatch.setattr(training, "Tape", FreshTape)
    assert digest().hexdigest() == with_memory


def test_verbose_prints_one_line_per_epoch_and_changes_no_result(capsys):
    records = toy_cls_records()
    digests = []
    for verbose in (False, True):
        params, _ = train(records, CLS_CONFIG, TrainConfig(epochs=3, seed=2, verbose=verbose))
        digest = hashlib.sha256()
        for array in (params.data, params.m, params.v):
            digest.update(array.tobytes())
        digests.append(digest.hexdigest())
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == (
            [["epoch", str(e)] for e in range(3)] if verbose else [])
    assert digests[0] == digests[1]


def test_early_stop_halts_training():
    records = toy_cls_records()
    # threshold 0 is met after the first epoch
    _, history = train(records, CLS_CONFIG,
                       TrainConfig(epochs=50, early_stop_train_accuracy=0.0))
    assert len(history) == 1


def test_segmentation_training_runs():
    records = toy_seg_records()
    params, history = train(records, SEG_CONFIG,
                            TrainConfig(epochs=60, lr=3e-3, seed=0,
                                        early_stop_train_accuracy=1.0))
    assert len(history) <= 60
    assert evaluate_accuracy(params, SEG_CONFIG, records) == 1.0


def test_train_validation_errors():
    with pytest.raises(TrainingError, match="no training samples"):
        train([], CLS_CONFIG, TrainConfig(epochs=1))
    # segmentation sample without labels
    bad = toy_cls_records(n_samples=2)
    with pytest.raises(TrainingError, match="without labels"):
        train(bad, SEG_CONFIG, TrainConfig(epochs=1))
    out_of_range = toy_seg_records(n_samples=1)
    out_of_range[0].labels[0] = 7
    with pytest.raises(TrainingError, match="label outside"):
        train(out_of_range, SEG_CONFIG, TrainConfig(epochs=1))


@pytest.mark.parametrize("settings,message", [
    (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
    (dict(epochs=True), "epochs must be an integer, got True"),
    (dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(checkpoint_every=1.0, checkpoint_path="m.ckpt"),
     "checkpoint_every must be an integer, got 1.0"),
    (dict(checkpoint_every=1), "checkpoint_every must be 0 without a checkpoint_path, got 1"),
    # a bare TypeError, or lr 1.0 and a stop at accuracy 1
    (dict(lr="0.1"), "lr must be a number, got '0.1'"),
    (dict(lr=True), "lr must be a number, got True"),
    (dict(early_stop_train_accuracy="1"), "early_stop_train_accuracy must be a number, got '1'"),
    (dict(early_stop_train_accuracy=True), "early_stop_train_accuracy must be a number, got True"),
], ids=["float-epochs", "bool-epochs", "float-batch", "float-seed", "float-every",
        "every-without-path", "string-lr", "bool-lr", "string-early-stop", "bool-early-stop"])
def test_train_config_rejects_a_setting_train_cannot_use(settings, message):
    """Each of these passed the config and then died inside ``train`` with a
    TypeError, trained one epoch, saved no checkpoint or ran at a bool's
    value."""
    with pytest.raises(TrainingError) as info:
        TrainConfig(**settings)
    assert str(info.value) == message


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(3), seed=np.int64(1))
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 3, 1)
    cfg = TrainConfig(lr=np.float32(0.5), early_stop_train_accuracy=1)
    assert type(cfg.lr) is float and type(cfg.early_stop_train_accuracy) is float


@pytest.mark.parametrize("category", [2, -1])
def test_classification_category_outside_range_is_rejected(category):
    records = toy_cls_records(n_samples=2)
    records[1].category = category
    with pytest.raises(TrainingError, match=r"toy_1: category outside \[0, 2\)"):
        train(records, CLS_CONFIG, TrainConfig(epochs=1))
    with pytest.raises(TrainingError, match="category outside"):
        evaluate_accuracy(init_params(CLS_CONFIG, seed=0), CLS_CONFIG, records)


def test_record_from_cache_checks_labels():
    cache = FeatureCache(
        features=np.arange(20.0).reshape(5, 4),
        eigenvalues=np.zeros(3),
        level_masks=[np.array([2, 1, 0, 2, 1])],
        cluster_counts=(3,),
        mesh_hash="h",
        params_fingerprint="p",
    )
    labels = [0, 1, 0, 1, 1]
    rec = record_from_cache("m", cache, 1, labels=labels)
    assert rec.labels.dtype == np.int64
    # the cluster-contiguous layout: a stable sort by cluster, ids renumbered
    # by first appearance, and ``order`` maps each row back to its vertex
    assert list(rec.order) == [2, 1, 4, 0, 3]
    assert len(rec.level_masks) == 1 and list(rec.level_masks[0]) == [0, 1, 1, 2, 2]
    assert np.array_equal(rec.features, cache.features[rec.order])
    assert np.array_equal(rec.labels, np.asarray(labels)[rec.order])
    with pytest.raises(TrainingError, match=r"^m: labels of shape \(2,\) for 5 vertices$"):
        record_from_cache("m", cache, 1, labels=[0, 1])
    # a second column has the right length, and broke the loss much later
    with pytest.raises(TrainingError, match=r"^m: labels of shape \(5, 2\) for 5 vertices$"):
        record_from_cache("m", cache, 1, labels=np.zeros((5, 2)))


def test_record_from_cache_rejects_levels_that_do_not_nest():
    masks = [np.array([3, 1, 0, 2, 1, 2]), np.array([1, 0, 0, 1, 0, 1])]
    cache = FeatureCache(np.zeros((6, 4)), np.zeros(3), masks, (4, 2), "h", "p")
    rec = record_from_cache("m", cache, 0)
    assert list(rec.order) == [2, 1, 4, 3, 5, 0]
    assert [list(m) for m in rec.level_masks] == [[0, 1, 1, 2, 2, 3], [0, 0, 0, 1, 1, 1]]
    # fine cluster 1 also takes vertex 3 of coarse cluster 1; in the layout
    # its rows are still adjacent, across the coarse boundary
    masks[0] = np.array([3, 1, 0, 1, 1, 2])
    with pytest.raises(TrainingError, match="m: the level 0 clusters do not nest"):
        record_from_cache("m", cache, 0)
    masks[0] = np.array([0, 1, 1, 2, 2])
    with pytest.raises(TrainingError, match="m: level 0 mask has shape"):
        record_from_cache("m", cache, 0)


LAYOUT_CONFIG = ModelConfig(
    in_dim=14, cluster_counts=(6, 3), update_widths=(16, 16), corr_width=8,
    head_hidden=(16, 16), head_final=8, task="segmentation",
    num_labels=3, num_categories=1,
)


def test_layout_records_train_the_same_network():
    # the same three dumbbells as cluster-contiguous records (sliced cluster
    # ops) and as mesh-order records (gathered cluster ops): only the
    # summation order differs
    pre = PreprocessParams(n_eigenvectors=8, cluster_counts=LAYOUT_CONFIG.cluster_counts)
    layout, mesh_order = [], []
    for i, res in enumerate(("a", "b", "a")):
        base, labels = dumbbell(*DUMBBELL_RESOLUTIONS[res])
        cache = preprocess_mesh(deform(base, seed=[11, i]), pre)
        layout.append(record_from_cache(f"d{i}", cache, 0, labels))
        mesh_order.append(SampleRecord(f"d{i}", cache.features, cache.level_masks, 0,
                                       labels=labels))
    assert all(not np.all(np.diff(r.level_masks[0]) >= 0) for r in mesh_order)
    tcfg = TrainConfig(epochs=3, lr=3e-3, batch_size=2, seed=4)
    got, got_history = train(layout, LAYOUT_CONFIG, tcfg)
    want, want_history = train(mesh_order, LAYOUT_CONFIG, tcfg)
    for name in want:
        rel = np.abs(got[name].data - want[name].data).max() / np.abs(want[name].data).max()
        assert rel < 1e-9, name
    assert np.allclose([h.mean_loss for h in got_history],
                       [h.mean_loss for h in want_history], rtol=1e-12, atol=0.0)
    for a, b in zip(layout, mesh_order):  # predictions come back in mesh order
        assert np.array_equal(predict(got, LAYOUT_CONFIG, a), predict(got, LAYOUT_CONFIG, b))
    assert (evaluate_segmentation(got, LAYOUT_CONFIG, layout)
            == evaluate_segmentation(got, LAYOUT_CONFIG, mesh_order))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_classification_report_structure():
    records = toy_cls_records()
    params, _ = train(records, CLS_CONFIG,
                      TrainConfig(epochs=40, lr=3e-3,
                                  early_stop_train_accuracy=1.0))
    report = evaluate_classification(params, CLS_CONFIG, records)
    assert report.accuracy == 1.0
    assert report.confusion == {0: {0: 4}, 1: {1: 4}}
    assert report.per_category_accuracy == {0: 1.0, 1: 1.0}


def test_segmentation_report_structure():
    records = toy_seg_records()
    params, _ = train(records, SEG_CONFIG,
                      TrainConfig(epochs=60, lr=3e-3,
                                  early_stop_train_accuracy=1.0))
    report = evaluate_segmentation(params, SEG_CONFIG, records)
    assert report.accuracy == 1.0
    assert report.mean_iou == 1.0
    assert set(report.per_sample_accuracy) == {r.name for r in records}
    assert report.per_category_accuracy == {0: 1.0}
    assert report.per_category_iou == {0: 1.0}


def _fixed_predictions(monkeypatch, predictions):
    """Make scoring read ``predictions[record.name]`` instead of running the
    network, so a report can be checked against numbers worked out by hand."""
    monkeypatch.setattr(meshpool.training, "predict",
                        lambda params, config, record: np.array(predictions[record.name]))


def test_segmentation_iou_per_part_worked_by_hand(monkeypatch):
    config = ModelConfig(in_dim=4, cluster_counts=(2,), task="segmentation",
                         num_labels=3, num_categories=2)
    truths = {"a": [0, 0, 1, 1], "b": [0, 0, 0, 0], "c": [2, 2, 1, 0]}
    _fixed_predictions(monkeypatch, {
        # part 0: 1 hit of 2 in the union; part 1: 2 of 3; part 2 in
        # neither prediction nor truth counts 1.0
        "a": [0, 1, 1, 1],
        # part 0: 2 of 4; part 1 absent from both: 1.0; part 2 predicted
        # but absent from the truth: 0.0
        "b": [0, 0, 2, 2],
        # every part right
        "c": [2, 2, 1, 0],
    })
    records = [SampleRecord(name, None, [], category=int(name == "c"),
                            labels=np.array(truth)) for name, truth in truths.items()]
    report = evaluate_segmentation(None, config, records)
    iou_a, iou_b = (1 / 2 + 2 / 3 + 1) / 3, (2 / 4 + 1 + 0) / 3
    assert report.per_category_iou == pytest.approx({0: (iou_a + iou_b) / 2, 1: 1.0})
    assert report.mean_iou == pytest.approx((iou_a + iou_b + 1.0) / 3)
    assert report.per_sample_accuracy == {"a": 3 / 4, "b": 2 / 4, "c": 1.0}
    assert report.per_category_accuracy == {0: 5 / 8, 1: 1.0}
    assert report.accuracy == 9 / 12


def _per_part_loop_iou(pred, truth, n_labels):
    """Per-part IoU one label at a time: the reference for ``_shape_iou``."""
    scores = []
    for lab in range(n_labels):
        p, t = pred == lab, truth == lab
        union = int(np.logical_or(p, t).sum())
        scores.append(1.0 if union == 0 else float(np.logical_and(p, t).sum() / union))
    return float(np.mean(scores))


def test_shape_iou_bit_identical_to_the_per_part_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):  # small shapes, so some parts are often absent
        n_labels, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        pred, truth = rng.integers(0, n_labels, n), rng.integers(0, n_labels, n)
        assert _shape_iou(pred, truth, n_labels) == _per_part_loop_iou(pred, truth, n_labels)


def test_classification_report_lists_categories_in_ascending_id(monkeypatch):
    config = ModelConfig(in_dim=4, cluster_counts=(2,), task="classification",
                         num_categories=4)
    categories = {"s0": 3, "s1": 0, "s2": 2, "s3": 0, "s4": 3}
    _fixed_predictions(monkeypatch, {"s0": [3], "s1": [1], "s2": [2], "s3": [0], "s4": [0]})
    records = [SampleRecord(name, None, [], category) for name, category in categories.items()]
    report = evaluate_classification(None, config, records)
    assert list(report.per_category_accuracy.items()) == [(0, 0.5), (2, 1.0), (3, 0.5)]
    assert report.accuracy == 3 / 5
    # only the nonzero cells, true and then predicted ids ascending
    assert report.confusion == {0: {0: 1, 1: 1}, 2: {2: 1}, 3: {0: 1, 3: 1}}
    assert [(true, list(row)) for true, row in report.confusion.items()] == [
        (0, [0, 1]), (2, [2]), (3, [0, 3])]


MOST_CLASSES_CONFIG = replace(CLS_CONFIG, num_categories=MAX_CLASSES)


def test_classification_confusion_is_sized_by_the_records(monkeypatch):
    """At the most categories a config allows, a dense confusion would be
    65536 x 65536 int64 cells (32 GiB); the map holds the cells it needs."""
    _fixed_predictions(monkeypatch, {"s0": [MAX_CLASSES - 1], "s1": [7]})
    records = [SampleRecord("s0", None, [], MAX_CLASSES - 1), SampleRecord("s1", None, [], 3)]
    report = evaluate_classification(None, MOST_CLASSES_CONFIG, records)
    assert report.confusion == {3: {7: 1}, MAX_CLASSES - 1: {MAX_CLASSES - 1: 1}}
    assert report.accuracy == 0.5
    assert report.per_category_accuracy == {3: 0.0, MAX_CLASSES - 1: 1.0}


def test_classification_eval_at_the_most_categories_stays_small():
    records = toy_cls_records(n_samples=2)
    params = init_params(MOST_CLASSES_CONFIG, seed=0)  # 8 x 65536 output weights, 4 MiB
    tracemalloc.start()
    try:
        report = evaluate_classification(params, MOST_CLASSES_CONFIG, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert sum(n for row in report.confusion.values() for n in row.values()) == 2
    assert set(report.confusion) == {0, 1} and report.per_category_accuracy.keys() == {0, 1}


def test_forward_logits_shapes():
    records = toy_cls_records(n_samples=1)
    params = init_params(CLS_CONFIG, seed=0)
    assert forward_logits(params, CLS_CONFIG, records[0]).shape == (1, 2)


# ---------------------------------------------------------------------------
# dataset split
# ---------------------------------------------------------------------------

def test_split_is_stratified_and_deterministic():
    records = toy_cls_records(n_samples=16)
    train_recs, test_recs = split_dataset(records, test_fraction=0.25, seed=0)
    assert len(test_recs) == 4 and len(train_recs) == 12
    for cat in (0, 1):
        assert sum(1 for r in test_recs if r.category == cat) == 2
    again = split_dataset(records, test_fraction=0.25, seed=0)
    assert [r.name for r in again[1]] == [r.name for r in test_recs]
    names = {r.name for r in train_recs} | {r.name for r in test_recs}
    assert names == {r.name for r in records}


def test_split_small_strata_still_get_test_samples():
    records = toy_cls_records(n_samples=4)  # two per category
    _, test_recs = split_dataset(records, test_fraction=0.1, seed=0)
    assert sum(1 for r in test_recs if r.category == 0) == 1
    assert sum(1 for r in test_recs if r.category == 1) == 1


def test_split_by_explicit_groups():
    records = toy_cls_records(n_samples=12)
    groups = ["a"] * 6 + ["b"] * 6
    _, test_recs = split_dataset(records, 1 / 3, seed=1, groups=groups)
    test_names = {r.name for r in test_recs}
    assert sum(1 for r in records[:6] if r.name in test_names) == 2
    assert sum(1 for r in records[6:] if r.name in test_names) == 2
    with pytest.raises(ValueError, match="group key"):
        split_dataset(records, 0.25, groups=["a"])
    with pytest.raises(ValueError, match="test_fraction"):
        split_dataset(records, 1.5)


def test_split_zero_fraction_keeps_everything():
    records = toy_cls_records(n_samples=6)
    train_recs, test_recs = split_dataset(records, 0.0)
    assert len(train_recs) == 6 and not test_recs


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    records = toy_cls_records()
    params, _ = train(records, CLS_CONFIG, TrainConfig(epochs=3, seed=5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CLS_CONFIG, epoch=2, train_seed=5)
    loaded, config, epoch, train_seed = load_checkpoint(path)
    assert config == CLS_CONFIG
    assert (epoch, train_seed) == (2, 5)
    assert params_equal(params, loaded)
    # optimizer state must survive too
    assert np.array_equal(params.m, loaded.m) and np.array_equal(params.v, loaded.v)
    assert loaded.step == params.step == 3  # one batch of 8 per epoch


def test_checkpoint_rejects_other_architecture(tmp_path):
    params = init_params(CLS_CONFIG, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CLS_CONFIG, epoch=0, train_seed=0)
    with pytest.raises(CheckpointError, match="architecture .task 'classification', "
                                              "this run asks for 'segmentation'.$"):
        load_checkpoint(path, expected_config=SEG_CONFIG)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_checkpoint_rejects_non_checkpoint_container(tmp_path):
    from meshpool.binio import write_container
    path = tmp_path / "other.bin"
    write_container(path, {"stuff": np.zeros(3)})
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


CLS_SIZE = sum(np.prod(shape, dtype=int) for shape in parameter_shapes(CLS_CONFIG).values())


def _edit_config_json(arrays, edit):
    config = json.loads(array_to_str(arrays["config_json"]))
    edit(config)
    arrays["config_json"] = str_to_array(json.dumps(config, sort_keys=True))


@pytest.mark.parametrize("change,message", [
    (lambda a: _edit_config_json(a, lambda c: c.update(pool="max")),
     "checkpoint config has unknown field 'pool'; retrain with this version"),
    (lambda a: _edit_config_json(a, lambda c: c.pop("corr_width")),
     "checkpoint config has no field 'corr_width'; retrain with this version"),
    (lambda a: _edit_config_json(a, lambda c: c.update(task="regression")),
     "checkpoint config has a bad value (unknown task 'regression')"),
    (lambda a: _edit_config_json(a, lambda c: c.update(update_widths=8)),
     "checkpoint config has a bad value (update_widths must be a non-empty list of integers "
     "of at least 1, got 8)"),
    (lambda a: _edit_config_json(a, lambda c: c.update(num_categories=2**70)),
     f"checkpoint config has a bad value (num_categories must be in [0, 65536], got {2**70})"),
    (lambda a: _edit_config_json(a, lambda c: c.update(head_hidden=[])),
     "checkpoint config has a bad value (head_hidden must be a non-empty list of integers "
     "of at least 1, got [])"),
    (lambda a: _edit_config_json(a, lambda c: c.update(update_widths=[])),
     "checkpoint config has a bad value (update_widths must be a non-empty list of integers "
     "of at least 1, got [])"),
    (lambda a: _edit_config_json(a, lambda c: c.update(in_dim=14.0)),
     "checkpoint config has a bad value (in_dim must be an integer, got 14.0)"),
    (lambda a: _edit_config_json(a, lambda c: c.update(cluster_counts=[6.7, 3])),
     "checkpoint config has a bad value (cluster_counts must be a non-empty list of integers "
     "of at least 1, got [6.7, 3])"),
    (lambda a: _edit_config_json(a, lambda c: c.update(corr_width="64")),
     "checkpoint config has a bad value (corr_width must be an integer, got '64')"),
    (lambda a: _edit_config_json(a, lambda c: c.update(num_labels=True)),
     "checkpoint config has a bad value (num_labels must be an integer, got True)"),
    (lambda a: a.update(config_json=str_to_array("5")), "checkpoint config is not a JSON object"),
    (lambda a: a.update(config_json=str_to_array("{")), "checkpoint config is not valid JSON"),
    (lambda a: a.update(config_json=np.array([0xFF, 0x7B], dtype=np.uint8)),
     "checkpoint config is not valid JSON"),
    (lambda a: a.pop("epoch"), "not a checkpoint container"),
    (lambda a: a.pop("adam_v"), "missing section adam_v"),
    (lambda a: a.update(value=np.zeros(3)),
     f"section value holds float64 (3,), expected float64 ({CLS_SIZE},)"),
    (lambda a: a.update(adam_m=a["adam_m"].astype(np.float32)),
     f"section adam_m holds float32 ({CLS_SIZE},), expected float64 ({CLS_SIZE},)"),
    (lambda a: a.update(epoch=np.zeros(0, dtype=np.int64)),
     "section epoch holds int64 (0,), expected int64 (1,)"),
    (lambda a: a.update(train_seed=np.zeros(0, dtype=np.int64)),
     "section train_seed holds int64 (0,), expected int64 (1,)"),
    (lambda a: a.update(adam_t=np.zeros(0, dtype=np.int64)),
     "section adam_t holds int64 (0,), expected int64 (1,)"),
    (lambda a: a.update(adam_t=np.array([1.0])),
     "section adam_t holds float64 (1,), expected int64 (1,)"),
    (lambda a: a.update(kind=np.array([0xFF], dtype=np.uint8)), "section kind is not UTF-8 text"),
    (lambda a: a.update(kind=str_to_array("meshpool-checkpoint")),
     "older checkpoint kind 'meshpool-checkpoint'; retrain with this version"),
    (lambda a: a.update(epoch=np.array([-5], dtype=np.int64)),
     "section epoch must be at least -1, got -5"),
    (lambda a: a.update(adam_t=np.array([-1], dtype=np.int64)),
     "section adam_t must be at least 0, got -1"),
    (lambda a: a.update(train_seed=np.array([-7], dtype=np.int64)),
     "section train_seed must be at least 0, got -7"),
    (lambda a: a.update(feature_kind=str_to_array("meshpool-cache-0")),
     "checkpoint names feature kind 'meshpool-cache-0', this version builds "
     f"{CACHE_KIND!r}; retrain with this version"),
    (lambda a: a.pop("feature_kind"),
     f"checkpoint names no feature kind, this version builds {CACHE_KIND!r}; retrain"),
    (lambda a: a.update(feature_kind=np.array([0xFF], dtype=np.uint8)),
     "section feature_kind is not UTF-8 text"),
], ids=["unknown-field", "missing-field", "bad-task", "bad-widths", "huge-categories",
        "empty-head", "empty-widths", "float-in-dim", "float-cluster-count",
        "string-corr-width", "bool-num-labels", "not-object",
        "not-json", "not-utf8", "no-epoch", "no-moment", "bad-shape", "float32-moment",
        "empty-epoch", "empty-seed", "empty-step", "float-step", "kind-not-utf8", "old-kind",
        "epoch-minus-5", "step-minus-1", "seed-minus-7", "other-feature-kind",
        "no-feature-kind", "feature-kind-not-utf8"])
def test_checkpoint_rejects_a_bad_config_or_section(tmp_path, change, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(CLS_CONFIG, seed=0), CLS_CONFIG, epoch=0, train_seed=0)
    arrays = read_container(path)
    change(arrays)
    write_container(path, arrays)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_checkpoint_after_zero_epochs_loads(tmp_path):
    """``train`` with 0 epochs saves epoch -1, the one negative epoch."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(CLS_CONFIG, seed=0), CLS_CONFIG, epoch=-1, train_seed=0)
    assert load_checkpoint(path)[2] == -1


def test_resume_matches_uninterrupted_run(tmp_path):
    records = toy_cls_records()
    cfg_full = TrainConfig(epochs=6, seed=9)
    params_full, hist_full = train(records, CLS_CONFIG, cfg_full)

    params_half, hist_half = train(records, CLS_CONFIG, TrainConfig(epochs=4, seed=9))
    path = tmp_path / "resume.ckpt"
    save_checkpoint(path, params_half, CLS_CONFIG, epoch=3, train_seed=9)
    loaded, config, epoch, train_seed = load_checkpoint(path, expected_config=CLS_CONFIG)
    params_res, hist_res = train(records, config, TrainConfig(epochs=6, seed=train_seed),
                                 params=loaded, start_epoch=epoch + 1)
    assert params_equal(params_full, params_res)
    assert [h.mean_loss for h in hist_full[4:]] == [h.mean_loss for h in hist_res]


def test_periodic_checkpointing_during_train(tmp_path):
    records = toy_cls_records()
    path = tmp_path / "auto.ckpt"
    train(records, CLS_CONFIG,
          TrainConfig(epochs=4, seed=0, checkpoint_path=str(path), checkpoint_every=2))
    loaded, _, epoch, _ = load_checkpoint(path, expected_config=CLS_CONFIG)
    assert epoch == 3  # saved after epoch indices 1 and 3; the last one sticks


# Trains the default network on the caches named in argv[2:] (labels in the
# .npy file argv[1]) and prints one sha256 over the values and Adam moments.
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from meshpool.cache import load_cache
from meshpool.model import ModelConfig
from meshpool.training import TrainConfig, record_from_cache, train

labels = np.load(sys.argv[1])
caches = [load_cache(path) for path in sys.argv[2:]]
records = [record_from_cache(f"m{i}", c, 0, labels) for i, c in enumerate(caches)]
config = ModelConfig(in_dim=caches[0].features.shape[1],
                     cluster_counts=caches[0].cluster_counts, num_labels=3,
                     num_categories=1)
params, _ = train(records, config, TrainConfig(epochs=2, seed=1, batch_size=2))
digest = hashlib.sha256()
for array in (params.data, params.m, params.v):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_trained_state_does_not_depend_on_blas_threads(tmp_path):
    """Values and Adam moments are bit-identical at 1, 2 and 4 OpenBLAS
    threads, on 434-row meshes whose weight gradients span two row chunks."""
    base, labels = dumbbell(*DUMBBELL_RESOLUTIONS["b"])
    assert base.n_vertices == 434
    np.save(tmp_path / "labels.npy", labels)
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"m{i}.mpc"))
        save_cache(paths[-1], preprocess_mesh(deform(base, seed=[11, i]), PreprocessParams()))
    src = str(Path(meshpool.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE,
                               str(tmp_path / "labels.npy"), *paths],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests
