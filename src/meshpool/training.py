"""Training loop, evaluation metrics and checkpointing.

Training is deterministic end to end: the per-epoch sample order comes
from a generator seeded with (seed, epoch), minibatches are realized as
gradient accumulation over single-mesh tapes (each backward seeded with
1/batch so the update equals the batch-mean gradient), and parameters are
stepped in sorted name order. Because the only mutable state is the
parameter dict plus Adam moments, a checkpoint written after epoch e and
resumed reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import Tape, adam_step
from .binio import array_to_str, read_container, str_to_array, write_container
from .cache import FeatureCache
from .model import ModelConfig, init_params, model_forward

CHECKPOINT_KIND = "meshpool-checkpoint"


class TrainingError(RuntimeError):
    """Training diverged or received an invalid sample."""


class CheckpointError(ValueError):
    """Checkpoint missing, malformed or built for a different model."""


@dataclass
class SampleRecord:
    """One preprocessed training sample."""

    name: str
    features: np.ndarray
    level_masks: list
    cluster_counts: tuple
    category: int
    labels: np.ndarray = None


def record_from_cache(name: str, cache: FeatureCache, category: int,
                      labels=None) -> SampleRecord:
    labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    if labels is not None and len(labels) != cache.n_vertices:
        raise TrainingError(f"{name}: {len(labels)} labels for {cache.n_vertices} vertices")
    return SampleRecord(
        name=name,
        features=cache.features,
        level_masks=list(cache.level_masks),
        cluster_counts=tuple(cache.cluster_counts),
        category=int(category),
        labels=labels,
    )


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 7e-4
    batch_size: int = 8
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # stop once an evaluation pass over the training set reaches this
    early_stop_train_accuracy: float = None
    checkpoint_path: str = None
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables
    verbose: bool = False


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_accuracy: float  # measured on the in-epoch (pre-update) predictions


def _target_onehot(record: SampleRecord, config: ModelConfig) -> np.ndarray:
    if config.task == "segmentation":
        if record.labels is None:
            raise TrainingError(f"{record.name}: segmentation sample without labels")
        labels = record.labels
        if labels.min() < 0 or labels.max() >= config.num_labels:
            raise TrainingError(f"{record.name}: label outside [0, {config.num_labels})")
        onehot = np.zeros((len(labels), config.num_labels))
        onehot[np.arange(len(labels)), labels] = 1.0
        return onehot
    onehot = np.zeros((1, config.num_categories))
    onehot[0, record.category] = 1.0
    return onehot


def _forward(tape: Tape, params, config: ModelConfig, record: SampleRecord):
    category = record.category if config.task == "segmentation" else None
    return model_forward(tape, params, config, record.features,
                         record.level_masks, category=category)


def forward_logits(params, config: ModelConfig, record: SampleRecord) -> np.ndarray:
    """Inference-only forward pass on a record-free tape.

    No op records a backward closure or keeps state that only backward
    needs, so eval, export and the early-stop pass pay for the forward
    alone. The logits are bit-identical to a recording forward's.
    """
    return _forward(Tape(record=False), params, config, record).data


def _count_correct(record: SampleRecord, pred, config: ModelConfig):
    """(correct, total) for one record: its vertices for segmentation, the
    mesh itself for classification."""
    if config.task == "segmentation":
        return int((pred == record.labels).sum()), len(record.labels)
    return int(pred == record.category), 1


def _accuracy(records, predictions, config: ModelConfig) -> float:
    """Vertex-weighted for segmentation, per-mesh for classification."""
    correct = total = 0
    for record, pred in zip(records, predictions):
        c, t = _count_correct(record, pred, config)
        correct += c
        total += t
    return correct / total


def _predict(logits: np.ndarray, config: ModelConfig):
    if config.task == "segmentation":
        return np.argmax(logits, axis=1)
    return int(np.argmax(logits[0]))


def evaluate_accuracy(params, config: ModelConfig, records) -> float:
    preds = [_predict(forward_logits(params, config, r), config) for r in records]
    return _accuracy(records, preds, config)


def train(records, config: ModelConfig, train_config: TrainConfig,
          params=None, start_epoch: int = 0):
    """Run (or resume) training; returns (params, history of EpochStats).

    Pass ``params`` and ``start_epoch`` from a loaded checkpoint to resume;
    the result is bit-identical to never having stopped because epoch
    shuffles depend only on (seed, epoch).
    """
    if not records:
        raise TrainingError("no training samples")
    cfg = train_config
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
                record = records[idx]
                tape = Tape()
                logits = _forward(tape, params, config, record)
                loss = tape.softmax_cross_entropy(logits, _target_onehot(record, config))
                if not np.isfinite(loss.data):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch} on sample {record.name!r}")
                tape.backward(loss, seed=1.0 / len(batch))
                losses.append(float(loss.data))
                c, t = _count_correct(record, _predict(logits.data, config), config)
                correct += c
                total += t
            for name in sorted(params):
                adam_step(params[name], cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
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
        pred = _predict(forward_logits(params, config, record), config)
        confusion[record.category, pred] += 1
    per_cat = {}
    for cat in range(config.num_categories):
        n = confusion[cat].sum()
        if n:
            per_cat[cat] = float(confusion[cat, cat] / n)
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
        pred = _predict(forward_logits(params, config, record), config)
        correct = int((pred == record.labels).sum())
        entry = totals.setdefault(record.category, {"correct": 0, "verts": 0, "ious": []})
        entry["correct"] += correct
        entry["verts"] += len(record.labels)
        entry["ious"].append(_shape_iou(pred, record.labels, labels))
        per_sample[record.name] = correct / len(record.labels)
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
    """Parameters plus Adam state plus the architecture, in one container."""
    arrays = {
        "kind": str_to_array(CHECKPOINT_KIND),
        "config_json": str_to_array(json.dumps(asdict(config), sort_keys=True)),
        "epoch": np.array([epoch], dtype=np.int64),
        "train_seed": np.array([train_seed], dtype=np.int64),
    }
    for name in sorted(params):
        p = params[name]
        arrays[f"param::{name}"] = p.value.data
        arrays[f"adam_m::{name}"] = p.m
        arrays[f"adam_v::{name}"] = p.v
        arrays[f"adam_t::{name}"] = np.array([p.step], dtype=np.int64)
    write_container(path, arrays)


def load_checkpoint(path, expected_config: ModelConfig = None):
    """Returns (params, config, epoch, train_seed).

    Raises CheckpointError when the file is not a checkpoint or its
    architecture differs from ``expected_config``.
    """
    try:
        arrays = read_container(path)
    except (FileNotFoundError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if "kind" not in arrays or array_to_str(arrays["kind"]) != CHECKPOINT_KIND:
        raise CheckpointError(f"{path}: not a checkpoint container")
    config = ModelConfig(**json.loads(array_to_str(arrays["config_json"])))
    if expected_config is not None and config.config_hash() != expected_config.config_hash():
        raise CheckpointError(f"{path}: checkpoint built for a different architecture")
    params = init_params(config, seed=0)
    for name, p in params.items():
        for prefix in ("param", "adam_m", "adam_v", "adam_t"):
            if f"{prefix}::{name}" not in arrays:
                raise CheckpointError(f"{path}: missing section {prefix}::{name}")
        stored = arrays[f"param::{name}"]
        if stored.shape != p.value.data.shape:
            raise CheckpointError(f"{path}: parameter {name} has shape {stored.shape}, "
                                  f"expected {p.value.data.shape}")
        p.value.data = stored.astype(np.float64, copy=True)
        p.value.grad = np.zeros_like(p.value.data)
        p.m = arrays[f"adam_m::{name}"].astype(np.float64, copy=True)
        p.v = arrays[f"adam_v::{name}"].astype(np.float64, copy=True)
        p.step = int(arrays[f"adam_t::{name}"][0])
    epoch = int(arrays["epoch"][0])
    train_seed = int(arrays["train_seed"][0])
    return params, config, epoch, train_seed
