"""Command line front end.

Subcommands cover the full pipeline on a dataset directory:

  synth       generate a synthetic labeled dataset (OBJ + manifest.json)
  preprocess  compute and cache per-mesh features and cluster hierarchies
  train       train a model on the manifest's train split
  eval        evaluate a checkpoint on a chosen split
  export      write a colored PLY of predicted labels or cluster ids

A dataset directory holds one OBJ per mesh, optional per-vertex label
files (one integer per line) and a manifest.json naming every sample, its
category and its train/test split.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .binio import ContainerError
from .cache import CacheMismatchError, PreprocessParams, get_features
from .mesh import MeshError, load_obj, write_obj
from .model import ModelConfig
from .ply import label_colors, write_ply
from .spectral import EigensolverError
from .synth import make_classification_dataset, make_segmentation_dataset
from .training import (CheckpointError, TrainConfig, TrainingError,
                       evaluate_classification, evaluate_segmentation,
                       forward_logits, load_checkpoint, record_from_cache,
                       save_checkpoint, split_dataset, train)

MANIFEST_NAME = "manifest.json"


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
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {dataset_dir}")
    with open(path) as fh:
        return json.load(fh)


def _load_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


def _sample_records(dataset_dir: Path, manifest: dict, params: PreprocessParams,
                    splits=("train", "test")):
    """Build SampleRecords for the requested splits, using cached features
    when valid and computing (and saving) them otherwise."""
    dataset_dir = Path(dataset_dir)
    cache_dir = dataset_dir / "cache"
    cache_dir.mkdir(exist_ok=True)
    records = {split: [] for split in splits}
    for entry in manifest["samples"]:
        if entry["split"] not in records:
            continue
        mesh = load_obj(dataset_dir / entry["obj"])
        cache = get_features(mesh, params, cache_dir / f"{entry['name']}.mpc")
        labels = None
        if entry.get("labels"):
            labels = _load_labels(dataset_dir / entry["labels"])
        records[entry["split"]].append(
            record_from_cache(entry["name"], cache, entry["category"], labels))
    return records


# ---- synth ------------------------------------------------------------


def _cmd_synth(args) -> int:
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


def _preprocess_one(job) -> str:
    obj_path, cache_path, params = job
    get_features(load_obj(obj_path), params, cache_path)
    return Path(obj_path).stem


def _cmd_preprocess(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params = _params_from_args(args)
    cache_dir = Path(args.output) if args.output else dataset_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(str(dataset_dir / e["obj"]), str(cache_dir / f"{e['name']}.mpc"), params)
            for e in manifest["samples"]]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for name in pool.map(_preprocess_one, jobs):
                print(f"cached {name}")
    else:
        for job in jobs:
            print(f"cached {_preprocess_one(job)}")
    print(f"{len(jobs)} caches in {cache_dir} (fingerprint {params.fingerprint()[:12]})")
    return 0


# ---- train ------------------------------------------------------------


def _model_config_from(manifest: dict, args, params_pre: PreprocessParams) -> ModelConfig:
    return ModelConfig(
        in_dim=6 + params_pre.n_eigenvectors,
        cluster_counts=params_pre.cluster_counts,
        task=manifest["task"] if args.task is None else args.task,
        num_labels=max(manifest.get("num_labels", 0), 1),
        num_categories=manifest.get("num_categories", 4),
        pool=args.pool,
    )


def _cmd_train(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params_pre = _params_from_args(args)
    config = _model_config_from(manifest, args, params_pre)
    records = _sample_records(dataset_dir, manifest, params_pre)

    out_path = Path(args.output) if args.output else dataset_dir / "model.ckpt"
    train_config = TrainConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch, seed=args.seed,
        early_stop_train_accuracy=args.early_stop,
        checkpoint_path=str(out_path), checkpoint_every=args.checkpoint_every,
        verbose=args.verbose,
    )
    params, start_epoch = None, 0
    if args.resume:
        params, config, last_epoch, _ = load_checkpoint(args.resume, expected_config=config)
        start_epoch = last_epoch + 1
        print(f"resuming from {args.resume} at epoch {start_epoch}")
    params, history = train(records["train"], config, train_config,
                            params=params, start_epoch=start_epoch)
    final_epoch = history[-1].epoch if history else start_epoch - 1
    save_checkpoint(out_path, params, config, final_epoch, args.seed)

    history_path = out_path.with_suffix(".history.json")
    with open(history_path, "w") as fh:
        json.dump([asdict(h) for h in history], fh, indent=2)

    summary = {"epochs_run": len(history), "checkpoint": str(out_path)}
    for split in ("train", "test"):
        if not records[split]:
            continue
        if config.task == "segmentation":
            report = evaluate_segmentation(params, config, records[split])
            summary[f"{split}_accuracy"] = report.accuracy
            summary[f"{split}_mean_iou"] = report.mean_iou
        else:
            summary[f"{split}_accuracy"] = evaluate_classification(
                params, config, records[split]).accuracy
    print(json.dumps(summary, indent=2))
    return 0


# ---- eval -------------------------------------------------------------


def _cmd_eval(args) -> int:
    dataset_dir = Path(args.input)
    manifest = load_manifest(dataset_dir)
    params, config, epoch, _ = load_checkpoint(args.model)
    params_pre = _checkpoint_params(args, config)
    splits = ("train", "test") if args.split == "all" else (args.split,)
    records = _sample_records(dataset_dir, manifest, params_pre, splits=splits)
    result = {"checkpoint": str(args.model), "trained_epochs": epoch + 1}
    for split in splits:
        if not records[split]:
            continue
        if config.task == "segmentation":
            report = evaluate_segmentation(params, config, records[split])
            result[split] = {
                "accuracy": report.accuracy,
                "mean_iou": report.mean_iou,
                "per_category_accuracy": {str(k): v for k, v in
                                          report.per_category_accuracy.items()},
            }
        else:
            report = evaluate_classification(params, config, records[split])
            result[split] = {
                "accuracy": report.accuracy,
                "per_category_accuracy": {str(k): v for k, v in
                                          report.per_category_accuracy.items()},
                "confusion": report.confusion.tolist(),
            }
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
        logits = forward_logits(params, config, record)
        if config.task == "segmentation":
            ids = np.argmax(logits, axis=1)
        else:
            ids = np.full(mesh.n_vertices, int(np.argmax(logits[0])), dtype=np.int64)
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
    p.add_argument("--task", choices=("classification", "segmentation"),
                   default="classification")
    p.add_argument("--count", type=int, default=20,
                   help="meshes per class (classification) or in total (segmentation)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="compute feature caches for a dataset")
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--output", default=None, help="cache directory (default INPUT/cache)")
    p.add_argument("--workers", type=int, default=1)
    _add_preprocess_flags(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train on the manifest's train split")
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--output", default=None, help="checkpoint path (default INPUT/model.ckpt)")
    p.add_argument("--task", choices=("classification", "segmentation"), default=None,
                   help="override the manifest task")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=7e-4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--pool", choices=("max", "mean"), default="max")
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
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
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
    except (MeshError, EigensolverError, TrainingError, CheckpointError,
            CacheMismatchError, ContainerError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
