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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cache import PreprocessParams, get_features
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
    # None when not given: eval and export then take the checkpoint's values
    p.add_argument("--eigs", type=int, default=None,
                   help="number of eigenvector feature columns (default 16, "
                        "or the checkpoint's for eval and export)")
    p.add_argument("--clusters", type=_parse_clusters, default=None,
                   help="comma separated cluster counts (default 16,8, "
                        "or the checkpoint's for eval and export)")


def _params_from_args(args) -> PreprocessParams:
    """The preprocessing the flags ask for; PreprocessParams' defaults fill
    in the ones not given."""
    given = {"n_eigenvectors": args.eigs, "cluster_counts": args.clusters}
    return PreprocessParams(**{k: v for k, v in given.items() if v is not None})


def _checkpoint_params(args, config: ModelConfig) -> PreprocessParams:
    """The preprocessing a checkpoint's model was trained on. Explicit
    --eigs/--clusters must agree with it."""
    params = PreprocessParams(n_eigenvectors=config.in_dim - 6,
                              cluster_counts=config.cluster_counts)
    for flag, given, expected in (("--eigs", args.eigs, params.n_eigenvectors),
                                  ("--clusters", args.clusters, params.cluster_counts)):
        if given is not None and given != expected:
            given, expected = (",".join(map(str, np.atleast_1d(v))) for v in (given, expected))
            raise CheckpointError(f"{flag} {given} disagrees with the checkpoint's {expected}")
    return params


def load_manifest(dataset_dir: Path) -> dict:
    """The dataset's manifest, checked for every key the manifest walk reads
    and for its optional class counts, which must be ints of at least 0.
    A sample's ``name`` must be a bare file name, so its cache stays in
    ``<dataset>/cache``, and no other sample's, so no two samples share a
    cache; ``obj`` and any ``labels`` are strings and ``category`` is an
    int.

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
        value = manifest.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{path}: {key!r} must be an integer of at least 0, got {value!r}")
    if not isinstance(manifest.get("samples"), list):
        raise ValueError(f"{path}: 'samples' must be a list")
    first = {}  # sample name -> index of the first sample with it
    for i, entry in enumerate(manifest["samples"]):
        for key in ("name", "obj", "category", "split"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{path}: sample {i} has no {key!r}")
        name, category = entry["name"], entry["category"]
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
        if isinstance(category, bool) or not isinstance(category, int):
            raise ValueError(f"{path}: sample {i} 'category' must be an integer, "
                             f"got {category!r}")
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


def _sample_records(dataset_dir: Path, manifest: dict, params: PreprocessParams,
                    splits=SPLITS):
    """SampleRecords of the requested splits, with their label files."""
    records = {split: [] for split in splits}
    for entry, cache in _walk_manifest(dataset_dir, manifest, params, splits):
        labels = None
        if entry.get("labels"):
            labels = np.loadtxt(dataset_dir / entry["labels"], dtype=np.int64, ndmin=1)
        records[entry["split"]].append(
            record_from_cache(entry["name"], cache, entry["category"], labels))
    return records


def _split_results(params, config: ModelConfig, records: dict) -> dict:
    """Split name -> accuracy plus mean IoU (segmentation) or confusion
    (classification) and per-category accuracy, for each non-empty split."""
    results = {}
    for split, split_records in records.items():
        if not split_records:
            continue
        if config.task == "segmentation":
            report = evaluate_segmentation(params, config, split_records)
            numbers = {"accuracy": report.accuracy, "mean_iou": report.mean_iou}
        else:
            report = evaluate_classification(params, config, split_records)
            numbers = {"accuracy": report.accuracy}
        numbers["per_category_accuracy"] = {
            str(k): v for k, v in report.per_category_accuracy.items()}
        if config.task == "classification":
            numbers["confusion"] = report.confusion.tolist()
        results[split] = numbers
    return results


# ---- synth ------------------------------------------------------------


def _cmd_synth(args) -> int:
    for flag, value, least in (("--count", args.count, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    if not 0.0 <= args.test_fraction < 1.0:
        raise ValueError(f"--test-fraction must be in [0, 1), got {args.test_fraction}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
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
    records = _sample_records(dataset_dir, manifest, params_pre)
    params, history = train(records["train"], config, train_config,
                            params=params, start_epoch=start_epoch)
    final_epoch = history[-1].epoch if history else start_epoch - 1
    save_checkpoint(out_path, params, config, final_epoch, seed)

    history_path = out_path.with_suffix(".history.json")
    with open(history_path, "w") as fh:
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
    params_pre = _checkpoint_params(args, config)
    splits = SPLITS if args.split == "all" else (args.split,)
    records = _sample_records(dataset_dir, manifest, params_pre, splits=splits)
    result = {"checkpoint": str(args.model), "trained_epochs": epoch + 1,
              **_split_results(params, config, records)}
    print(json.dumps(result, indent=2))
    return 0


# ---- export -----------------------------------------------------------


def _cmd_export(args) -> int:
    obj_path = Path(args.input)
    mesh = load_obj(obj_path)
    # reuse the dataset cache that `preprocess` writes beside a synth OBJ
    cache_dir = obj_path.parent / "cache"
    cache_path = cache_dir / f"{obj_path.stem}.mpc" if cache_dir.is_dir() else None
    if args.what == "clusters":
        cache = get_features(mesh, _params_from_args(args), cache_path)
        if not 0 <= args.level < len(cache.level_masks):
            raise ValueError(f"level {args.level} outside the {len(cache.level_masks)}-level hierarchy")
        ids = cache.level_masks[args.level]
    else:
        if not args.model:
            raise ValueError("--model is required to export predicted labels")
        params, config, _, _ = load_checkpoint(args.model)
        cache = get_features(mesh, _checkpoint_params(args, config), cache_path)
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
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=7e-4)
    p.add_argument("--batch", type=int, default=8)
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
    _add_preprocess_flags(p)
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
