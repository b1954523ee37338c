"""Training loop, evaluation metrics and checkpointing.

Training is deterministic end to end: the per-epoch sample order comes
from a generator seeded with (seed, epoch), minibatches are realized as
gradient accumulation over single-mesh tapes (each backward seeded with
1/batch so the update equals the batch-mean gradient), and one Adam step
updates the whole flat parameter set. Because the only mutable state is
that set's values, Adam moments and step count, a checkpoint written after
epoch e and resumed reproduces the uninterrupted run bit for bit. Each
mesh-step builds a fresh ``Tape``; its outputs and gradients are ordinary
arrays that are freed once the step no longer holds them. A
``TrainConfig`` rejects a negative ``epochs``, ``checkpoint_every`` or
``seed``, a ``batch_size`` below 1, an ``lr`` that is not a finite
number above 0 and an early-stop accuracy outside [0, 1] when it is made,
so a bad setting fails before any record is loaded.

Records built from a cache (``record_from_cache``) are cluster-contiguous:
their vertices are stably sorted by (coarsest cluster id, ..., finest
cluster id), with each level's ids renumbered in order of first
appearance, so every cluster of every level is one row range and the
tape's pooling and scatter sums reduce slices instead of gathering rows.
The record keeps that ``order``, and ``forward_logits``/``predict`` map
their rows back, so every public output is in the mesh's own vertex order.

Both heads share one rule after the logits: each output row has one true
class, a vertex label for segmentation and the category for the single
row of classification. That truth is checked against the class count once
per record, and the loss, the prediction (argmax per row), the correct
count and the confusion matrix all read it as class ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .autodiff import ParameterSet, Tape, adam_step
from .binio import Sections, array_to_str, read_container, str_to_array, write_container
from .cache import CACHE_KIND, FeatureCache
from .model import ModelConfig, init_params, model_forward, parameter_shapes

CHECKPOINT_KIND = "meshpool-checkpoint-3"  # 3: records the feature kind it was trained on


class TrainingError(RuntimeError):
    """Training diverged or received an invalid sample."""


class CheckpointError(ValueError):
    """Checkpoint missing, malformed or built for a different model."""


@dataclass
class SampleRecord:
    """One preprocessed training sample.

    Its per-vertex arrays (features, labels, masks) share one row order:
    row r is mesh vertex ``order[r]``, or vertex r when ``order`` is None
    (a record built by hand, with any masks).
    """

    name: str
    features: np.ndarray
    level_masks: list
    category: int
    labels: np.ndarray = None
    order: np.ndarray = None


def _cluster_layout(name: str, masks):
    """(order, masks): the vertices stably sorted by (coarsest id, ...,
    finest id), and each level's mask in that order with its ids renumbered
    by first appearance, so every mask is non-decreasing. Raises
    TrainingError when a level's clusters do not nest in the coarser
    levels, since such a cluster would cover two row ranges."""
    order = np.lexsort(masks)  # the last key, the coarsest level, is primary
    laid = [None] * len(masks)
    starts = np.zeros(len(order), dtype=bool)  # rows that start a cluster
    starts[:1] = True
    for level in reversed(range(len(masks))):
        mask = masks[level][order]
        starts[1:] |= mask[1:] != mask[:-1]  # a coarser cluster's start is one too
        ids = mask[starts].tolist()  # a cluster that is not one row range repeats
        if len(set(ids)) != len(ids):
            raise TrainingError(f"{name}: the level {level} clusters do not nest "
                                f"in the coarser levels")
        laid[level] = np.cumsum(starts, dtype=np.int64) - 1
    return order, laid


def record_from_cache(name: str, cache: FeatureCache, category: int,
                      labels=None) -> SampleRecord:
    """A cluster-contiguous record of ``cache`` (see the module docstring);
    ``labels`` are given in mesh vertex order."""
    n = cache.n_vertices
    labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    if labels is not None and len(labels) != n:
        raise TrainingError(f"{name}: {len(labels)} labels for {n} vertices")
    masks = [np.asarray(m, dtype=np.int64) for m in cache.level_masks]
    for level, mask in enumerate(masks):
        if mask.shape != (n,):
            raise TrainingError(f"{name}: level {level} mask has shape {mask.shape} "
                                f"for {n} vertices")
    order, masks = _cluster_layout(name, masks)
    return SampleRecord(
        name=name,
        features=cache.features[order],
        level_masks=masks,
        category=int(category),
        labels=None if labels is None else labels[order],
        order=order,
    )


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 7e-4
    batch_size: int = 8
    seed: int = 0
    # stop once an evaluation pass over the training set reaches this
    early_stop_train_accuracy: float = None
    checkpoint_path: str = None
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables
    verbose: bool = False

    def __post_init__(self):
        """Raises TrainingError naming the first field that breaks its rule."""
        for name, bad, rule in (
                ("epochs", self.epochs < 0, "at least 0"),
                ("batch_size", self.batch_size < 1, "at least 1"),
                ("lr", not (math.isfinite(self.lr) and self.lr > 0), "finite and above 0"),
                ("checkpoint_every", self.checkpoint_every < 0, "at least 0"),
                ("seed", self.seed < 0, "at least 0"),
                ("early_stop_train_accuracy", self.early_stop_train_accuracy is not None
                 and not 0 <= self.early_stop_train_accuracy <= 1, "None or in [0, 1]")):
            if bad:
                raise TrainingError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_accuracy: float  # measured on the in-epoch (pre-update) predictions


def _truth(record: SampleRecord, config: ModelConfig) -> np.ndarray:
    """The true class of each output row: the vertex labels for
    segmentation, the category as a single row for classification."""
    if config.task == "segmentation":
        if record.labels is None:
            raise TrainingError(f"{record.name}: segmentation sample without labels")
        truth, n_classes, what = record.labels, config.num_labels, "label"
    else:
        truth, n_classes, what = np.array([record.category]), config.num_categories, "category"
    if truth.min() < 0 or truth.max() >= n_classes:
        raise TrainingError(f"{record.name}: {what} outside [0, {n_classes})")
    return truth


def _forward(tape: Tape, params, config: ModelConfig, record: SampleRecord):
    category = record.category if config.task == "segmentation" else None
    return model_forward(tape, params, config, record.features,
                         record.level_masks, category=category)


def _in_mesh_order(rows: np.ndarray, record: SampleRecord, config: ModelConfig) -> np.ndarray:
    """A record's output rows, per-vertex rows put back in the mesh's
    vertex order."""
    if record.order is None or config.task != "segmentation":
        return rows
    out = np.empty_like(rows)
    out[record.order] = rows
    return out


def forward_logits(params, config: ModelConfig, record: SampleRecord) -> np.ndarray:
    """Inference-only forward pass on a record-free tape; per-vertex logits
    come back in the mesh's vertex order.

    No op records a backward closure or keeps state that only backward
    needs, so eval, export and the early-stop pass pay for the forward
    alone. The logits are bit-identical to a recording forward's.
    """
    logits = _forward(Tape(record=False), params, config, record).data
    return _in_mesh_order(logits, record, config)


def predict(params, config: ModelConfig, record: SampleRecord) -> np.ndarray:
    """The predicted class of each output row (argmax over the logits):
    one per vertex in mesh vertex order for segmentation, a single row for
    classification."""
    return np.argmax(forward_logits(params, config, record), axis=1)


def _mesh_truth(record: SampleRecord, config: ModelConfig) -> np.ndarray:
    """``_truth`` in the row order ``predict`` returns."""
    return _in_mesh_order(_truth(record, config), record, config)


def _count_correct(pred: np.ndarray, truth: np.ndarray):
    """(correct, total) output rows of one record: its vertices for
    segmentation, the mesh itself for classification."""
    return int((pred == truth).sum()), len(truth)


def evaluate_accuracy(params, config: ModelConfig, records) -> float:
    """Vertex-weighted for segmentation, per-mesh for classification."""
    counts = [_count_correct(predict(params, config, r), _mesh_truth(r, config))
              for r in records]
    return sum(c for c, _ in counts) / sum(t for _, t in counts)


def train(records, config: ModelConfig, train_config: TrainConfig,
          params=None, start_epoch: int = 0):
    """Run (or resume) training; returns (params, history of EpochStats).

    Pass ``params`` and ``start_epoch`` from a loaded checkpoint to resume;
    the result is bit-identical to never having stopped because epoch
    shuffles depend only on (seed, epoch).
    """
    cfg = train_config
    if not records:
        raise TrainingError("no training samples")
    truths = [_truth(record, config) for record in records]
    if params is None:
        params = init_params(config, cfg.seed)
    history = []
    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(records))
        losses = []
        correct = total = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            for idx in batch:
                record, truth = records[idx], truths[idx]
                tape = Tape()
                logits = _forward(tape, params, config, record)
                loss = tape.softmax_cross_entropy(logits, truth)
                if not np.isfinite(loss.data):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch} on sample {record.name!r}")
                tape.backward(loss, seed=1.0 / len(batch))
                losses.append(float(loss.data))
                c, t = _count_correct(np.argmax(logits.data, axis=1), truth)
                correct += c
                total += t
            adam_step(params, cfg.lr)
        stats = EpochStats(epoch, float(np.mean(losses)), correct / total)
        history.append(stats)
        if cfg.verbose:
            print(f"epoch {epoch:4d}  loss {stats.mean_loss:.4f}  "
                  f"acc {stats.train_accuracy:.4f}", flush=True)
        if (cfg.checkpoint_path and cfg.checkpoint_every
                and (epoch + 1) % cfg.checkpoint_every == 0):
            save_checkpoint(cfg.checkpoint_path, params, config, epoch, cfg.seed)
        if (cfg.early_stop_train_accuracy is not None
                and stats.train_accuracy >= cfg.early_stop_train_accuracy
                and evaluate_accuracy(params, config, records) >= cfg.early_stop_train_accuracy):
            break
    return params, history


# ---- metrics ----------------------------------------------------------


@dataclass
class ClassificationReport:
    accuracy: float
    per_category_accuracy: dict
    confusion: np.ndarray  # confusion[truth, prediction]


@dataclass
class SegmentationReport:
    accuracy: float                    # total correct vertices / total vertices
    per_category_accuracy: dict
    mean_iou: float                    # per-part IoU averaged per shape, then shapes
    per_category_iou: dict
    per_sample_accuracy: dict = field(default_factory=dict)


def evaluate_classification(params, config: ModelConfig, records) -> ClassificationReport:
    confusion = np.zeros((config.num_categories, config.num_categories), dtype=np.int64)
    for record in records:
        confusion[_truth(record, config), predict(params, config, record)] += 1
    per_cat = {cat: float(confusion[cat, cat] / n)
               for cat, n in enumerate(confusion.sum(axis=1)) if n}
    accuracy = float(np.trace(confusion) / confusion.sum())
    return ClassificationReport(accuracy, per_cat, confusion)


def _shape_iou(pred, truth, labels) -> float:
    scores = []
    for lab in labels:
        p, t = pred == lab, truth == lab
        union = int(np.logical_or(p, t).sum())
        # a part absent from both prediction and truth counts as perfect
        scores.append(1.0 if union == 0 else float(np.logical_and(p, t).sum() / union))
    return float(np.mean(scores))


def evaluate_segmentation(params, config: ModelConfig, records) -> SegmentationReport:
    """Vertex accuracy and per-part IoU."""
    labels = np.arange(config.num_labels)
    totals = {}
    per_sample = {}
    for record in records:
        pred = predict(params, config, record)
        truth = _mesh_truth(record, config)
        correct, total = _count_correct(pred, truth)
        entry = totals.setdefault(record.category, {"correct": 0, "verts": 0, "ious": []})
        entry["correct"] += correct
        entry["verts"] += total
        entry["ious"].append(_shape_iou(pred, truth, labels))
        per_sample[record.name] = correct / total
    accuracy = sum(e["correct"] for e in totals.values()) / sum(e["verts"] for e in totals.values())
    all_ious = [iou for e in totals.values() for iou in e["ious"]]
    return SegmentationReport(
        accuracy=float(accuracy),
        per_category_accuracy={c: e["correct"] / e["verts"] for c, e in totals.items()},
        mean_iou=float(np.mean(all_ious)),
        per_category_iou={c: float(np.mean(e["ious"])) for c, e in totals.items()},
        per_sample_accuracy=per_sample,
    )


def split_dataset(records, test_fraction: float = 0.25, seed: int = 0, groups=None):
    """Deterministic stratified split into (train, test) lists.

    Strata default to the sample categories; pass ``groups`` to stratify by
    something else (for example mesh resolution). Every stratum with more
    than one member contributes at least one test sample.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    if groups is None:
        groups = [r.category for r in records]
    if len(groups) != len(records):
        raise ValueError("one group key per record required")
    by_group = {}
    for idx, key in enumerate(groups):
        by_group.setdefault(key, []).append(idx)
    rng = np.random.default_rng(seed)
    test_idx = set()
    for key in sorted(by_group, key=str):
        members = by_group[key]
        n_test = int(round(test_fraction * len(members)))
        if test_fraction > 0.0 and len(members) > 1:
            n_test = max(n_test, 1)
        picked = rng.permutation(len(members))[:n_test]
        test_idx.update(members[i] for i in picked)
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return train, test


# ---- checkpoints ------------------------------------------------------


def save_checkpoint(path, params, config: ModelConfig, epoch: int, train_seed: int) -> None:
    """Parameters plus Adam state plus the architecture and the feature
    kind (``cache.CACHE_KIND``) it was trained on, in one container."""
    write_container(path, {
        "kind": str_to_array(CHECKPOINT_KIND),
        "feature_kind": str_to_array(CACHE_KIND),
        "config_json": str_to_array(json.dumps(asdict(config), sort_keys=True)),
        "epoch": np.array([epoch], dtype=np.int64),
        "train_seed": np.array([train_seed], dtype=np.int64),
        "value": params.data,
        "adam_m": params.m,
        "adam_v": params.v,
        "adam_t": np.array([params.step], dtype=np.int64),
    })


def load_checkpoint(path, expected_config: ModelConfig = None):
    """Returns (params, config, epoch, train_seed).

    Raises CheckpointError when the file cannot be read, is not a checkpoint
    or is of an older kind, names no feature kind or another one than this
    version's ``CACHE_KIND``, its config is not valid JSON or has an
    unknown, missing or bad field, its architecture differs from
    ``expected_config``, a section is missing or has the wrong dtype or
    length, or a counter is out of range: ``epoch`` below -1 (the value
    ``train`` saves after 0 epochs), ``adam_t`` or ``train_seed`` below 0.
    """
    try:
        arrays = read_container(path)
    except (OSError, ValueError) as exc:  # each names the path
        raise CheckpointError(str(exc)) from exc
    sections = Sections(path, arrays, CheckpointError)
    kind = sections.text("kind") if "kind" in arrays else ""
    if kind != CHECKPOINT_KIND and kind.startswith("meshpool-checkpoint"):
        raise CheckpointError(f"{path}: older checkpoint kind {kind!r}; retrain with this version")
    if kind != CHECKPOINT_KIND or not {"config_json", "epoch", "train_seed"} <= arrays.keys():
        raise CheckpointError(f"{path}: not a checkpoint container")
    feature_kind = sections.text("feature_kind") if "feature_kind" in arrays else ""
    if feature_kind != CACHE_KIND:
        found = f"feature kind {feature_kind!r}" if "feature_kind" in arrays else "no feature kind"
        raise CheckpointError(f"{path}: checkpoint names {found}, this version builds "
                              f"{CACHE_KIND!r}; retrain with this version")
    try:
        saved = json.loads(array_to_str(arrays["config_json"]))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: checkpoint config is not valid JSON ({exc})") from exc
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path}: checkpoint config is not a JSON object")
    known = [f.name for f in fields(ModelConfig)]
    unknown = sorted(set(saved) - set(known))
    missing = [name for name in known if name not in saved]
    if unknown or missing:
        what = f"unknown field {unknown[0]!r}" if unknown else f"no field {missing[0]!r}"
        raise CheckpointError(f"{path}: checkpoint config has {what}; retrain with this version")
    try:
        config = ModelConfig(**saved)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint config has a bad value ({exc})") from exc
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"{path}: checkpoint built for a different architecture")
    shapes = parameter_shapes(config)
    size = sum(int(np.prod(shape)) for shape in shapes.values())
    value, m, v = (sections.array(name, np.float64, (size,))
                   for name in ("value", "adam_m", "adam_v"))
    step, epoch, train_seed = (int(sections.array(name, np.int64, (1,))[0])
                               for name in ("adam_t", "epoch", "train_seed"))
    for name, count, least in (("adam_t", step, 0), ("epoch", epoch, -1),
                               ("train_seed", train_seed, 0)):
        if count < least:
            raise CheckpointError(f"{path}: section {name} holds {count}, "
                                  f"expected at least {least}")
    return ParameterSet(shapes, value, m, v, step), config, epoch, train_seed
