"""Command line front end.

Subcommands cover the full pipeline on a dataset directory:

  synth       generate a synthetic labeled dataset (OBJ + manifest.json)
  preprocess  compute and cache per-mesh features and cluster hierarchies
  train       train a model on the manifest's train split
  eval        evaluate a checkpoint on a chosen split
  export      write a colored PLY of predicted labels or cluster ids

A dataset directory holds one OBJ per mesh, optional per-vertex label
files (one integer per line) and a manifest.json fixing the task and
naming every sample, its category and its train/test split. ``preprocess``,
``train`` and ``eval`` walk the manifest the same way: each sample's OBJ is
loaded and its features are read from, or built into,
``<dataset>/cache/<name>.mpc``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cache import PreprocessParams, get_features, load_cache, preprocess_mesh
from .checks import integer
from .mesh import load_obj, write_obj
from .model import TASKS, ModelConfig
from .ply import label_colors, write_ply
from .spectral import EigensolverError
from .synth import make_classification_dataset, make_segmentation_dataset
from .training import (CheckpointError, TrainConfig, TrainingError,
                       evaluate_classification, evaluate_segmentation,
                       load_checkpoint, predict, record_from_cache,
                       save_checkpoint, split_dataset, train)

MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "test")  # the split of every manifest sample


def _parse_clusters(text: str):
    try:
        counts = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cluster list {text!r}")
    if not counts:
        raise argparse.ArgumentTypeError("empty cluster list")
    return counts


def _add_preprocess_flags(p: argparse.ArgumentParser) -> None:
    # None when not given: PreprocessParams' defaults then apply, and export
    # --what labels, which follows its checkpoint, refuses either flag
    defaults = PreprocessParams()
    p.add_argument("--eigs", type=int, default=None,
                   help=f"number of eigenvector feature columns "
                        f"(default {defaults.n_eigenvectors})")
    p.add_argument("--clusters", type=_parse_clusters, default=None,
                   help=f"comma separated cluster counts "
                        f"(default {','.join(map(str, defaults.cluster_counts))})")


def _params_from_args(args) -> PreprocessParams:
    """The preprocessing the flags ask for; PreprocessParams' defaults fill
    in the ones not given."""
    given = {"n_eigenvectors": args.eigs, "cluster_counts": args.clusters}
    return PreprocessParams(**{k: v for k, v in given.items() if v is not None})


def _checkpoint_params(config: ModelConfig) -> PreprocessParams:
    """The preprocessing a checkpoint's model was trained on."""
    return PreprocessParams(n_eigenvectors=config.in_dim - 6,
                            cluster_counts=config.cluster_counts)


def load_manifest(dataset_dir: Path) -> dict:
    """The dataset's manifest, checked for every key the manifest walk reads.
    The optional class counts and each sample's ``category`` are ints of
    at least 0, ``obj`` and any ``labels`` are strings, and a ``name`` is a
    bare file name, so its cache stays in ``<dataset>/cache``, and no other
    sample's, so no two samples share a cache.

    Raises ValueError naming the sample and key at fault.
    """
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {dataset_dir}")
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("task") not in TASKS:
        raise ValueError(f"{path}: 'task' must be one of {', '.join(TASKS)}")
    for key in ("num_labels", "num_categories"):
        integer(f"{path}: {key!r}", manifest.get(key, 0), ValueError, 0)
    if not isinstance(manifest.get("samples"), list):
        raise ValueError(f"{path}: 'samples' must be a list")
    first = {}  # sample name -> index of the first sample with it
    for i, entry in enumerate(manifest["samples"]):
        for key in ("name", "obj", "category", "split"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{path}: sample {i} has no {key!r}")
        name = entry["name"]
        # a bare file name: no separator of this platform, not "." or ".."
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"{path}: sample {i} 'name' must be a file name "
                             f"without a directory, got {name!r}")
        if first.setdefault(name, i) != i:
            raise ValueError(f"{path}: samples {first[name]} and {i} are both named "
                             f"{name!r}; each would overwrite the other's cache")
        for key in ("obj", "labels"):  # labels are optional
            if not isinstance(entry.get(key, ""), str):
                raise ValueError(f"{path}: sample {i} {key!r} must be a string, "
                                 f"got {entry[key]!r}")
        integer(f"{path}: sample {i} 'category'", entry["category"], ValueError, 0)
        if entry["split"] not in SPLITS:
            raise ValueError(f"{path}: sample {i} has split {entry['split']!r}, "
                             f"not one of {', '.join(SPLITS)}")
    return manifest


def _walk_manifest(dataset_dir: Path, manifest: dict, params: PreprocessParams, splits=None):
    """Yield (entry, FeatureCache) for each manifest sample in ``splits``
    (every sample when None), reusing a valid ``<dataset>/cache/<name>.mpc``
    and computing and saving it otherwise."""
    cache_dir = dataset_dir / "cache"
    cache_dir.mkdir(exist_ok=True)
    for entry in manifest["samples"]:
        if splits is None or entry["split"] in splits:
            mesh = load_obj(dataset_dir / entry["obj"])
            yield entry, get_features(mesh, params, cache_dir / f"{entry['name']}.mpc")


def _read_labels(path: Path, n: int, num_labels) -> np.ndarray:
    """A label file's one integer per line, one line for each of ``n``
    vertices, each in [0, num_labels) unless that is None; raises
    ValueError naming the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns on a file without data
            labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
        if labels.ndim != 1:
            raise ValueError(f"{labels.shape[1]} columns, expected one integer per line")
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
        if num_labels is not None and (labels.min() < 0 or labels.max() >= num_labels):
            raise ValueError(f"label outside [0, {num_labels})")
    except UserWarning:
        raise ValueError(f"{path}: no labels") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return labels


def _sample_records(dataset_dir: Path, manifest: dict, params: PreprocessParams,
                    config: ModelConfig, splits=SPLITS):
    """SampleRecords of the requested splits, with their label files, whose
    labels a segmentation ``config`` must have room for."""
    num_labels = config.num_labels if config.task == "segmentation" else None
    records = {split: [] for split in splits}
    for entry, cache in _walk_manifest(dataset_dir, manifest, params, splits):
        labels = (_read_labels(dataset_dir / entry["labels"], cache.n_vertices, num_labels)
                  if entry.get("labels") else None)
        records[entry["split"]].append(
            record_from_cache(entry["name"], cache, entry["category"], labels))
    return records


def _split_results(params, config: ModelConfig, records: dict) -> dict:
    """Split name -> the fields of the task's report that the JSON shows,
    for each non-empty split."""
    evaluate = evaluate_segmentation if config.task == "segmentation" else evaluate_classification
    results = {}
    for split, split_records in records.items():
        if split_records:
            report = evaluate(params, config, split_records)
            fields = ("accuracy", "mean_iou", "per_category_accuracy", "confusion")
            results[split] = {key: getattr(report, key) for key in fields if hasattr(report, key)}
    return results


# ---- synth ------------------------------------------------------------


def _cmd_synth(args) -> int:
    integer("--count", args.count, ValueError, 1)
    integer("--seed", args.seed, ValueError, 0)
    if args.task == "classification":
        samples = make_classification_dataset(n_per_class=args.count, seed=args.seed)
        num_labels = 0
        groups = [s.category for s in samples]
    else:
        samples = make_segmentation_dataset(n_meshes=args.count, seed=args.seed)
        num_labels = 3
        groups = [s.name.rsplit("_", 1)[0] for s in samples]  # stratify by resolution
    train_part, test_part = split_dataset(samples, test_fraction=args.test_fraction,
                                          seed=args.seed, groups=groups)
    test_names = {s.name for s in test_part}
    out = Path(args.output)  # made once every flag has passed its rule
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for sample in samples:
        obj_name = f"{sample.name}.obj"
        write_obj(out / obj_name, sample.mesh)
        entry = {
            "name": sample.name,
            "obj": obj_name,
            "category": int(sample.category),
            "split": "test" if sample.name in test_names else "train",
        }
        if sample.labels is not None:
            label_name = f"{sample.name}.labels.txt"
            np.savetxt(out / label_name, sample.labels, fmt="%d")
            entry["labels"] = label_name
        entries.append(entry)
    manifest = {
        "task": args.task,
        "num_categories": len({e["category"] for e in entries}),
        "num_labels": num_labels,
        "samples": entries,
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(entries)} meshes ({len(train_part)} train / "
          f"{len(test_part)} test) to {out}")
    return 0


# ---- preprocess -------------------------------------------------------


def _cmd_preprocess(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params = _params_from_args(args)
    for entry, _ in _walk_manifest(dataset_dir, manifest, params):
        print(f"cached {entry['name']}")
    print(f"{len(manifest['samples'])} caches in {dataset_dir / 'cache'} "
          f"(fingerprint {params.fingerprint()[:12]})")
    return 0


# ---- train ------------------------------------------------------------


def _model_config_from(manifest: dict, params_pre: PreprocessParams) -> ModelConfig:
    return ModelConfig(
        in_dim=6 + params_pre.n_eigenvectors,
        cluster_counts=params_pre.cluster_counts,
        task=manifest["task"],
        num_labels=max(manifest.get("num_labels", 0), 1),
        num_categories=manifest.get("num_categories", 4),
    )


def _cmd_train(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params_pre = _params_from_args(args)
    config = _model_config_from(manifest, params_pre)
    out_path = Path(args.output) if args.output else dataset_dir / "model.ckpt"
    params, start_epoch, seed = None, 0, 0 if args.seed is None else args.seed
    if args.resume:  # a resumed run keeps the seed it was started with
        params, config, last_epoch, seed = load_checkpoint(args.resume, expected_config=config)
        if args.seed not in (None, seed):
            raise CheckpointError(f"--seed {args.seed} disagrees with the checkpoint's {seed}")
        start_epoch = last_epoch + 1
        print(f"resuming from {args.resume} at epoch {start_epoch}")
    train_config = TrainConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch, seed=seed,
        early_stop_train_accuracy=args.early_stop,
        checkpoint_path=str(out_path), checkpoint_every=args.checkpoint_every,
        verbose=args.verbose,
    )
    records = _sample_records(dataset_dir, manifest, params_pre, config)
    params, history = train(records["train"], config, train_config,
                            params=params, start_epoch=start_epoch)
    final_epoch = history[-1].epoch if history else start_epoch - 1
    save_checkpoint(out_path, params, config, final_epoch, seed)

    with open(out_path.with_suffix(".history.json"), "w") as fh:
        json.dump([asdict(h) for h in history], fh, indent=2)

    summary = {"epochs_run": len(history), "checkpoint": str(out_path)}
    for split, numbers in _split_results(params, config, records).items():
        for key in ("accuracy", "mean_iou"):
            if key in numbers:
                summary[f"{split}_{key}"] = numbers[key]
    print(json.dumps(summary, indent=2))
    return 0


# ---- eval -------------------------------------------------------------


def _cmd_eval(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params, config, epoch, _ = load_checkpoint(args.model)
    if config.task != manifest["task"]:
        raise CheckpointError(f"{args.model}: checkpoint trained for {config.task}, "
                              f"dataset {dataset_dir} is for {manifest['task']}")
    splits = SPLITS if args.split == "all" else (args.split,)
    records = _sample_records(dataset_dir, manifest, _checkpoint_params(config), config, splits)
    result = {"checkpoint": str(args.model), "trained_epochs": epoch + 1,
              **_split_results(params, config, records)}
    print(json.dumps(result, indent=2))
    return 0


# ---- export -----------------------------------------------------------


def _export_features(obj_path: Path, mesh, params: PreprocessParams):
    """The features of ``mesh``: from the dataset cache ``preprocess`` writes
    beside a synth OBJ when that cache is valid for this mesh and ``params``,
    otherwise computed in memory. Export writes no cache: the file it looks
    up may belong to another sample of the manifest."""
    try:
        return load_cache(obj_path.parent / "cache" / f"{obj_path.stem}.mpc",
                          mesh=mesh, params=params)
    except (FileNotFoundError, ValueError):  # ValueError covers container + mismatch errors
        return preprocess_mesh(mesh, params)


def _cmd_export(args) -> int:
    obj_path = Path(args.input)
    if args.what == "labels" and (args.eigs, args.clusters) != (None, None):
        raise ValueError("--eigs and --clusters apply to --what clusters only; "
                         "labels follow the checkpoint")
    mesh = load_obj(obj_path)
    if args.what == "clusters":
        cache = _export_features(obj_path, mesh, _params_from_args(args))
        level = integer("--level", args.level, ValueError, 0, len(cache.level_masks) - 1)
        ids = cache.level_masks[level]
    else:
        if not args.model:
            raise ValueError("--model is required to export predicted labels")
        params, config, _, _ = load_checkpoint(args.model)
        cache = _export_features(obj_path, mesh, _checkpoint_params(config))
        record = record_from_cache(obj_path.stem, cache, args.category)
        # one row for classification: every vertex shows the shape's class
        ids = np.broadcast_to(predict(params, config, record), mesh.n_vertices)
    write_ply(args.output, mesh, label_colors(ids))
    print(f"wrote {args.output}")
    return 0


# ---- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshpool",
        description="Spectral feature extraction and cluster-pooling networks "
                    "for triangle meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--output", required=True, help="dataset directory to create")
    p.add_argument("--task", choices=TASKS, default="classification")
    p.add_argument("--count", type=int, default=20,
                   help="meshes per class (classification) or in total (segmentation)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="compute feature caches for a dataset")
    p.add_argument("--input", required=True, help="dataset directory")
    _add_preprocess_flags(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train on the manifest's train split")
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--output", default=None, help="checkpoint path (default INPUT/model.ckpt)")
    p.add_argument("--seed", type=int, default=None,
                   help="training seed (default 0, or the checkpoint's with --resume)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--early-stop", type=float, default=None,
                   help="stop once train accuracy reaches this value")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="save every K epochs while training")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--verbose", action="store_true")
    _add_preprocess_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--split", choices=SPLITS + ("all",), default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export", help="write a colored PLY for one mesh")
    p.add_argument("--input", required=True, help="OBJ file")
    p.add_argument("--output", required=True, help="PLY file to write")
    p.add_argument("--what", choices=("labels", "clusters"), default="labels")
    p.add_argument("--model", default=None, help="checkpoint (required for labels)")
    p.add_argument("--level", type=int, default=0, help="hierarchy level for clusters")
    p.add_argument("--category", type=int, default=0,
                   help="shape category fed to the segmentation head")
    _add_preprocess_flags(p)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EigensolverError, TrainingError, OSError, ValueError) as exc:
        # ValueError covers MeshError and the container, cache and checkpoint errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
