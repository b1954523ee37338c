"""End-to-end CLI runs, in process through main(argv)."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshpool
from meshpool.autodiff import Tape
from meshpool.binio import array_to_str, read_container, str_to_array, write_container
from meshpool.cache import CacheMismatchError, PreprocessParams, load_cache
from meshpool.cli import load_manifest, main
from meshpool.mesh import load_obj, write_obj
from meshpool.model import ModelConfig, init_params, model_forward
from meshpool.ply import label_colors
from meshpool.synth import icosphere
from meshpool.training import load_checkpoint, save_checkpoint

SMALL = ["--eigs", "8", "--clusters", "6,3"]


def read_json_tail(capsys):
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def test_segmentation_pipeline(tmp_path, capsys):
    data = tmp_path / "seg"
    assert main(["synth", "--output", str(data), "--task", "segmentation",
                 "--count", "8", "--seed", "0"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["task"] == "segmentation"
    assert manifest["num_labels"] == 3
    assert manifest["num_categories"] == 1
    assert len(manifest["samples"]) == 8
    assert sum(e["split"] == "test" for e in manifest["samples"]) == 2
    for entry in manifest["samples"]:
        mesh = load_obj(data / entry["obj"])
        labels = np.loadtxt(data / entry["labels"], dtype=np.int64)
        assert len(labels) == mesh.n_vertices
    capsys.readouterr()

    assert main(["preprocess", "--input", str(data)] + SMALL) == 0
    capsys.readouterr()
    caches = sorted((data / "cache").glob("*.mpc"))
    assert len(caches) == 8
    cached = load_cache(caches[0])
    assert cached.features.shape[1] == 6 + 8
    assert cached.cluster_counts == (6, 3)

    ckpt = data / "model.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "2",
                 "--output", str(ckpt)] + SMALL) == 0
    summary = read_json_tail(capsys)
    assert summary["epochs_run"] == 2
    assert 0.0 <= summary["train_accuracy"] <= 1.0
    assert "test_mean_iou" in summary
    assert ckpt.exists()
    history = json.loads(ckpt.with_suffix(".history.json").read_text())
    assert [h["epoch"] for h in history] == [0, 1]

    assert main(["eval", "--input", str(data), "--model", str(ckpt),
                 "--split", "all"] + SMALL) == 0
    result = read_json_tail(capsys)
    assert result["trained_epochs"] == 2
    assert set(result) >= {"train", "test"}
    assert "mean_iou" in result["test"]

    obj = data / manifest["samples"][0]["obj"]
    clusters_ply = tmp_path / "clusters.ply"
    assert main(["export", "--input", str(obj), "--output", str(clusters_ply),
                 "--what", "clusters", "--level", "1"] + SMALL) == 0
    assert clusters_ply.read_text().startswith("ply")

    labels_ply = tmp_path / "labels.ply"
    assert main(["export", "--input", str(obj), "--output", str(labels_ply),
                 "--what", "labels", "--model", str(ckpt), "--category", "0"]
                + SMALL) == 0
    assert "property uchar red" in labels_ply.read_text()


def test_classification_pipeline(tmp_path, capsys):
    data = tmp_path / "cls"
    assert main(["synth", "--output", str(data), "--task", "classification",
                 "--count", "2", "--seed", "1"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["num_categories"] == 4
    assert manifest["num_labels"] == 0
    assert len(manifest["samples"]) == 8
    assert all("labels" not in e for e in manifest["samples"])
    capsys.readouterr()

    assert main(["preprocess", "--input", str(data)] + SMALL) == 0
    capsys.readouterr()

    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    summary = read_json_tail(capsys)
    assert summary["epochs_run"] == 1
    assert (data / "model.ckpt").exists()

    assert main(["eval", "--input", str(data), "--model", str(data / "model.ckpt"),
                 "--split", "test"] + SMALL) == 0
    result = read_json_tail(capsys)
    assert "confusion" in result["test"]


def test_train_resume_continues_epoch_count(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "6", "--seed", "2"])
    first = data / "first.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "1",
                 "--output", str(first)] + SMALL) == 0
    capsys.readouterr()
    second = data / "second.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "3",
                 "--resume", str(first), "--output", str(second)] + SMALL) == 0
    out = capsys.readouterr().out
    assert "resuming" in out
    summary = json.loads(out[out.index("{"):])
    assert summary["epochs_run"] == 2  # epochs 1 and 2 of the 3 requested


def test_resume_takes_the_seed_the_checkpoint_stores(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "8"])

    def trained(name, *flags):
        path = data / name
        assert main(["train", "--input", str(data), "--output", str(path), *flags] + SMALL) == 0
        return load_checkpoint(path)

    trained("half.ckpt", "--seed", "5", "--epochs", "2")
    whole, _, epoch, seed = trained("whole.ckpt", "--seed", "5", "--epochs", "4")
    for flags in ((), ("--seed", "5")):  # without --seed, or with the same one
        resumed, _, resumed_epoch, resumed_seed = trained(
            "resumed.ckpt", "--resume", str(data / "half.ckpt"), "--epochs", "4", *flags)
        assert (resumed_epoch, resumed_seed) == (epoch, seed) == (3, 5)
        for name in ("data", "m", "v"):
            assert np.array_equal(getattr(resumed, name), getattr(whole, name))


def test_resume_with_another_seed_or_a_bad_checkpoint_fails_before_preprocessing(
        tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "8"])
    config = ModelConfig(in_dim=14, cluster_counts=(6, 3), num_categories=1)
    save_checkpoint(data / "seed5.ckpt", init_params(config, 0), config, epoch=0, train_seed=5)
    (data / "junk.ckpt").write_bytes(b"not a checkpoint")
    capsys.readouterr()
    for checkpoint, flags, message in (
            ("seed5.ckpt", ["--seed", "3"], "error: --seed 3 disagrees with the checkpoint's 5"),
            ("junk.ckpt", [], "junk.ckpt: not a container file")):
        assert main(["train", "--input", str(data), "--epochs", "2", "--resume",
                     str(data / checkpoint), *flags] + SMALL) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and message in err
        assert not list(data.glob("cache/*.mpc"))


def test_cache_reuse_and_stale_params(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "3"])
    assert main(["preprocess", "--input", str(data)] + SMALL) == 0
    cache_path = next((data / "cache").glob("*.mpc"))
    stamp = cache_path.stat().st_mtime_ns
    capsys.readouterr()
    # training with matching flags reuses the cache files untouched
    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    assert cache_path.stat().st_mtime_ns == stamp
    # different preprocessing flags rewrite them
    assert main(["preprocess", "--input", str(data), "--eigs", "6",
                 "--clusters", "4,2"]) == 0
    refreshed = load_cache(cache_path)
    assert refreshed.params_fingerprint == PreprocessParams(
        n_eigenvectors=6, cluster_counts=(4, 2)).fingerprint()


def _cache_stamps(cache_dir):
    """(inode, mtime_ns, sha256) per cache file; atomic rewrites change the inode."""
    stamps = {}
    for path in sorted(cache_dir.glob("*.mpc")):
        st = path.stat()
        stamps[path.name] = (st.st_ino, st.st_mtime_ns,
                             hashlib.sha256(path.read_bytes()).hexdigest())
    return stamps


def test_preprocess_and_export_reuse_valid_caches(tmp_path, capsys, monkeypatch):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "5"])
    assert main(["preprocess", "--input", str(data)] + SMALL) == 0

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve despite a valid cache")

    monkeypatch.setattr("meshpool.cache.solve_eigs", no_eigensolve)
    assert main(["preprocess", "--input", str(data)] + SMALL) == 0
    obj = data / json.loads((data / "manifest.json").read_text())["samples"][0]["obj"]
    assert main(["export", "--input", str(obj), "--output", str(tmp_path / "c.ply"),
                 "--what", "clusters"] + SMALL) == 0


def test_train_seed_leaves_caches_untouched(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "6"])
    assert main(["preprocess", "--input", str(data)] + SMALL) == 0
    before = _cache_stamps(data / "cache")
    assert len(before) == 4
    assert main(["train", "--input", str(data), "--seed", "3", "--epochs", "1"]
                + SMALL) == 0
    assert main(["eval", "--input", str(data), "--model", str(data / "model.ckpt")]
                + SMALL) == 0
    assert _cache_stamps(data / "cache") == before


def test_export_without_cache_dir_writes_only_the_ply(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "7"])
    obj = data / json.loads((data / "manifest.json").read_text())["samples"][0]["obj"]
    before = set(data.iterdir())
    assert main(["export", "--input", str(obj), "--output", str(tmp_path / "c.ply"),
                 "--what", "clusters"] + SMALL) == 0
    assert set(data.iterdir()) == before


def _run_meshpool(*args):
    """Run ``python`` with ``args`` in a fresh process importing this checkout."""
    src = str(Path(meshpool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


# Runs the meshpool commands given as JSON argument lists in one process and
# prints, as the last line, the scipy modules loaded after the import and
# after each command.
_SCIPY_PROBE = """
import json, sys
import meshpool.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert meshpool.cli.main(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _scipy_after(*commands):
    proc = _run_meshpool("-c", _SCIPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_optimize(tmp_path):
    # numpy alone serves the import, synth, and train/eval/export on valid
    # caches; scipy loads only where a mesh is assembled and solved
    data = tmp_path / "seg"
    ckpt = str(data / "model.ckpt")
    obj = str(data / "dumbbell_a_000.obj")
    assert _scipy_after(["synth", "--output", str(data), "--task", "segmentation",
                         "--count", "4", "--seed", "1"]) == [[], []]
    assert "scipy.sparse" in _scipy_after(["preprocess", "--input", str(data)] + SMALL)[-1]
    assert _scipy_after(
        ["train", "--input", str(data), "--epochs", "1"] + SMALL,
        ["eval", "--input", str(data), "--model", ckpt],
        ["export", "--input", obj, "--output", str(tmp_path / "seg.ply"),
         "--what", "labels", "--model", ckpt]) == [[], [], [], []]


def test_every_exported_name_resolves():
    for name in meshpool.__all__:
        assert hasattr(meshpool, name), name


def test_eval_rejects_a_checkpoint_config_with_an_unknown_field(tmp_path):
    data = tmp_path / "seg"
    assert main(["synth", "--output", str(data), "--task", "segmentation",
                 "--count", "4", "--seed", "2"]) == 0
    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    ckpt = data / "model.ckpt"
    arrays = read_container(ckpt)
    config = json.loads(array_to_str(arrays["config_json"]))
    arrays["config_json"] = str_to_array(json.dumps(dict(config, dropout=0.5), sort_keys=True))
    write_container(ckpt, arrays)
    proc = _run_meshpool("-m", "meshpool", "eval", "--input", str(data), "--model", str(ckpt))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {ckpt}: checkpoint config has unknown field 'dropout'; "
        "retrain with this version"]


def test_eval_names_a_checkpoint_whose_config_is_not_json(tmp_path):
    data = tmp_path / "seg"
    assert main(["synth", "--output", str(data), "--task", "segmentation",
                 "--count", "4", "--seed", "2"]) == 0
    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    ckpt = data / "model.ckpt"
    arrays = read_container(ckpt)
    write_container(ckpt, dict(arrays, config_json=str_to_array("{")))  # fresh digest
    proc = _run_meshpool("-m", "meshpool", "eval", "--input", str(data), "--model", str(ckpt))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt}: ")
    assert "checkpoint config is not valid JSON" in lines[0]


def test_preprocess_rejects_unreferenced_vertex_in_one_line(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_obj(data / "ball.obj", icosphere(2))
    with open(data / "ball.obj", "a") as fh:
        fh.write("v 3 3 3\n")
    (data / "manifest.json").write_text(json.dumps({"task": "classification", "samples": [
        {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}]}))
    proc = _run_meshpool("-m", "meshpool", "preprocess", "--input", str(data))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: vertex 162 belongs to no face"]


def _ball_dataset(data, set_vertices=None, category=0, manifest=None, stack=None, flip=None,
                  cache=None, checkpoint=None, dirs=()):
    """A one-mesh classification dataset in ``data``: an icosphere OBJ whose
    vertex rows ``set_vertices = (rows, value)`` overwrites, whose face
    ``flip`` is reversed, to whose vertex and face arrays
    ``stack(ball) = (vertices, faces)`` appends rows, a manifest that
    ``manifest`` replaces, with ``cache``, a preprocessed cache whose
    container sections ``cache(arrays)`` rewrites (with a fresh digest),
    and, with ``checkpoint``, an untrained ``model.ckpt`` whose sections
    ``checkpoint(arrays)`` rewrites the same way, plus a directory at each
    path in ``dirs``."""
    data.mkdir()
    ball = icosphere(2)
    # after Mesh's checks: the OBJ keeps the bad data
    if set_vertices is not None:
        rows, value = set_vertices
        ball.vertices[rows] = value
    if flip is not None:
        ball.faces[flip] = ball.faces[flip, ::-1]
    if stack is not None:
        vertices, faces = stack(ball)
        ball.vertices = np.vstack([ball.vertices, vertices])
        ball.faces = np.vstack([ball.faces, faces])
    write_obj(data / "ball.obj", ball)
    if manifest is None:
        manifest = {"task": "classification", "num_categories": 4, "samples": [
            {"name": "ball", "obj": "ball.obj", "category": category, "split": "train"}]}
    (data / "manifest.json").write_text(json.dumps(manifest))
    if cache is not None:
        assert main(["preprocess", "--input", str(data)]) == 0
        path = data / "cache" / "ball.mpc"
        write_container(path, cache(read_container(path)))
    if checkpoint is not None:
        config = ModelConfig(task="classification", num_categories=4)
        path = data / "model.ckpt"
        save_checkpoint(path, init_params(config, 0), config, epoch=0, train_seed=0)
        write_container(path, checkpoint(read_container(path)))
    for path in dirs:
        (data / path).mkdir(parents=True)


def _swap_fine_ids(arrays):
    """Swaps the level-0 cluster ids of two vertices in different level-1
    clusters, so level 0 no longer nests in level 1."""
    fine, coarse = arrays["mask_0"].copy(), arrays["mask_1"]
    other = int(np.flatnonzero(coarse != coarse[0])[0])
    fine[[0, other]] = fine[[other, 0]]
    return dict(arrays, mask_0=fine)


def _config_edit(**fields):
    """A checkpoint change that sets config ``fields``, under a fresh digest."""
    def change(arrays):
        config = json.loads(array_to_str(arrays["config_json"]))
        return dict(arrays, config_json=str_to_array(json.dumps(dict(config, **fields))))
    return change


# the first entries of a corpus of bad inputs: each ends in one stderr line
@pytest.mark.parametrize("command,dataset,message", [
    ("preprocess", dict(set_vertices=(5, np.nan)), "vertex 5 has a non-finite coordinate"),
    ("preprocess", dict(set_vertices=(slice(None), 0.5)), "face 0 is degenerate"),
    ("preprocess", dict(manifest={}), "'task' must be one of"),
    ("preprocess", dict(manifest={"task": "segmentation"}), "'samples' must be a list"),
    ("train", dict(category=7), "ball: category outside [0, 4)"),
    ("preprocess", dict(manifest={"task": "classification", "samples": [
        {"name": "ball", "obj": "ball.obj", "category": 0, "split": "tset"}]}),
     "sample 0 has split 'tset', not one of train, test"),
    ("preprocess", dict(stack=lambda b: (np.empty((0, 3)), b.faces[7:8, ::-1])),
     "ball.obj:483: face 320 repeats the vertices of an earlier face"),
    ("preprocess", dict(stack=lambda b: ([[2.0, 2.0, 2.0]], [[*b.faces[7, :2], 162]])),
     "ball.obj:484: face 320 is a third face on edge"),
    ("preprocess", dict(stack=lambda b: (b.vertices + 3.0, b.faces + 162)),
     "mesh has 2 connected components"),
    ("preprocess", dict(flip=7),
     "ball.obj:170: face 7 traverses edge (47, 46) in the same direction as an earlier face"),
    ("train", dict(cache=_swap_fine_ids),
     "ball: the level 0 clusters do not nest in the coarser levels"),
    ("eval", dict(checkpoint=lambda a: dict(a, kind=str_to_array("meshpool-checkpoint"))),
     "older checkpoint kind 'meshpool-checkpoint'; retrain with this version"),
    ("train --batch -1", {}, "batch_size must be at least 1, got -1"),
    ("train --batch 0", {}, "batch_size must be at least 1, got 0"),
    ("train --epochs -1", {}, "epochs must be at least 0, got -1"),
    ("train --lr 0", {}, "lr must be finite and above 0, got 0.0"),
    ("train --lr nan", {}, "lr must be finite and above 0, got nan"),
    ("train --checkpoint-every -1", {}, "checkpoint_every must be at least 0, got -1"),
    ("train --seed -1", {}, "seed must be at least 0, got -1"),
    ("train --early-stop nan", {}, "early_stop_train_accuracy must be None or in [0, 1], got nan"),
    ("train --early-stop 1.5", {}, "early_stop_train_accuracy must be None or in [0, 1], got 1.5"),
    ("eval", dict(checkpoint=lambda a: dict(a, epoch=np.array([-5], dtype=np.int64))),
     "section epoch holds -5, expected at least -1"),
    ("eval", dict(checkpoint=_config_edit(head_hidden=[])),
     "checkpoint config has a bad value (head_hidden must be a size, or a non-empty list"),
    # a float size was a TypeError traceback, a float cluster count silently truncated
    ("eval", dict(checkpoint=_config_edit(in_dim=14.0)),
     "checkpoint config has a bad value (in_dim must be an integer, got 14.0)"),
    ("eval", dict(checkpoint=_config_edit(cluster_counts=[6.7, 3])),
     "checkpoint config has a bad value (cluster_counts must be a list of integers, "
     "got [6.7, 3])"),
    ("train", dict(manifest={"task": "classification", "num_labels": "3", "samples": [
        {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}]}),
     "'num_labels' must be an integer of at least 0, got '3'"),
    ("eval", dict(dirs=["model.ckpt"]), "Is a directory"),
    ("preprocess", dict(dirs=["cache/ball.mpc"]), "Is a directory"),
    ("preprocess", dict(manifest={"task": "classification", "samples": [
        {"name": "../escape", "obj": "ball.obj", "category": 0, "split": "train"}]}),
     "sample 0 'name' must be a file name without a directory, got '../escape'"),
    # manifest fuzz: a class count past int64 ended in an OverflowError traceback
    ("train", dict(manifest={"task": "classification", "num_categories": 2**70, "samples": [
        {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}]}),
     f"num_categories must be in [0, 65536], got {2**70}"),
], ids=["nan-vertex", "coincident-vertices", "empty-manifest", "no-samples", "category-7",
        "tset-split", "duplicate-face", "non-manifold-edge", "two-components",
        "flipped-face", "unnested-cache", "old-checkpoint", "batch-minus-1", "batch-0",
        "epochs-minus-1", "lr-0", "lr-nan", "checkpoint-every-minus-1", "seed-minus-1",
        "early-stop-nan", "early-stop-1.5", "negative-checkpoint-epoch", "empty-checkpoint-head",
        "float-checkpoint-in-dim", "float-checkpoint-cluster-count",
        "num-labels-string",
        "model-is-a-directory", "cache-is-a-directory", "name-escapes-the-cache",
        "categories-past-int64"])
def test_bad_inputs_exit_1_with_one_error_line(tmp_path, command, dataset, message):
    data = tmp_path / "data"
    _ball_dataset(data, **dataset)
    command, *flags = command.split()
    model = ["--model", str(data / "model.ckpt")] if command == "eval" else []
    proc = _run_meshpool("-m", "meshpool", command, "--input", str(data), *model, *flags)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    if flags:  # a bad train setting is rejected before any sample is preprocessed
        assert not list(data.glob("cache/*.mpc"))
    assert all(p.parent == data / "cache" for p in tmp_path.rglob("*.mpc"))


@pytest.mark.parametrize("change,message", [
    (lambda m: m.update(task="regression"), "'task' must be one of"),
    (lambda m: m.update(samples={"ball": {}}), "'samples' must be a list"),
    (lambda m: m["samples"][0].pop("split"), "sample 0 has no 'split'"),
    (lambda m: m["samples"].append("ball.obj"), "sample 1 has no 'name'"),
    (lambda m: m["samples"][0].update(split="tset"), "sample 0 has split 'tset'"),
    (lambda m: m.update(num_labels="3"),
     "'num_labels' must be an integer of at least 0, got '3'"),
    (lambda m: m.update(num_categories=None),
     "'num_categories' must be an integer of at least 0, got None"),
    (lambda m: m.update(num_labels=1.5),
     "'num_labels' must be an integer of at least 0, got 1.5"),
    (lambda m: m.update(num_labels=True),
     "'num_labels' must be an integer of at least 0, got True"),
    (lambda m: m.update(num_categories=-1),
     "'num_categories' must be an integer of at least 0, got -1"),
    (lambda m: m["samples"][0].update(obj=5), "sample 0 'obj' must be a string, got 5"),
    (lambda m: m["samples"][0].update(labels=7), "sample 0 'labels' must be a string, got 7"),
    (lambda m: m["samples"][0].update(category=[0]), "sample 0 'category' must be an integer"),
    (lambda m: m["samples"][0].update(category=True),
     "sample 0 'category' must be an integer, got True"),
    (lambda m: m["samples"][0].update(category="0"),
     "sample 0 'category' must be an integer, got '0'"),
    (lambda m: m["samples"][0].update(name="../../escape"),
     "sample 0 'name' must be a file name without a directory, got '../../escape'"),
    (lambda m: m["samples"][0].update(name="sub/ball"), "sample 0 'name' must be a file name"),
    (lambda m: m["samples"][0].update(name=".."), "sample 0 'name' must be a file name"),
    (lambda m: m["samples"][0].update(name="."), "sample 0 'name' must be a file name"),
    (lambda m: m["samples"][0].update(name=""), "sample 0 'name' must be a file name"),
    (lambda m: m["samples"][0].update(name=3), "sample 0 'name' must be a file name"),
    (lambda m: m["samples"].append(dict(m["samples"][0], split="test")),
     "samples 0 and 1 are both named 'ball'"),
])
def test_load_manifest_names_the_bad_key(tmp_path, change, message):
    _ball_dataset(tmp_path / "data")
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    change(manifest)
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=message):
        load_manifest(tmp_path / "data")


@pytest.mark.parametrize("command", ["preprocess", "train", "eval"])
def test_repeated_sample_names_exit_1_before_any_cache(tmp_path, capsys, command):
    """Two samples of one name would share, and overwrite, one cache file."""
    data = tmp_path / "data"
    ball = {"name": "ball", "obj": "ball.obj", "category": 0, "split": "train"}
    samples = [ball, dict(ball, name="ball2"), dict(ball, split="test")]
    _ball_dataset(data, manifest={"task": "classification", "num_categories": 4,
                                  "samples": samples}, checkpoint=lambda a: a)
    model = ["--model", str(data / "model.ckpt")] if command == "eval" else []
    assert main([command, "--input", str(data), *model]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data / 'manifest.json'}: samples 0 and 2 are both named 'ball'; "
        "each would overwrite the other's cache"]
    assert not list(data.glob("cache/*.mpc"))


MANIFEST_FUZZ_SEED, MANIFEST_FUZZ_CASES = 31, 1000
MANIFEST_FUZZ_CLI_CASES = 4  # the first cases of each outcome also run `meshpool train`
_FUZZ_VALUES = [None, True, False, 0, -1, 1.5, 2**70, "", "x", [], [0], {}, {"a": 1}]


def _mutate_manifest(rng: random.Random, manifest: dict) -> None:
    """Remove one key of the manifest or of one sample, or give it (or a
    whole sample) a value of another type, in place."""
    samples = manifest.get("samples")
    holders = [manifest] + ([s for s in samples if isinstance(s, dict)]
                            if isinstance(samples, list) else [])
    holder = rng.choice(holders)
    if not holder:
        return
    key = rng.choice(sorted(holder))
    what = rng.randrange(4)
    if what == 0:
        del holder[key]
    elif what == 1 and holder is not manifest:
        samples[samples.index(holder)] = rng.choice(_FUZZ_VALUES)
    else:
        holder[key] = rng.choice(_FUZZ_VALUES)


def test_fuzzed_manifests_load_or_raise_value_errors(tmp_path, capsys):
    # a crash is reported as (case, exception) and never re-seeded away
    data = tmp_path / "data"
    _ball_dataset(data)
    (data / "ball.labels").write_text("\n".join(str(i % 2) for i in range(162)) + "\n")
    ball = {"name": "ball", "obj": "ball.obj", "labels": "ball.labels", "category": 0,
            "split": "train"}
    base = {"task": "segmentation", "num_labels": 2, "num_categories": 1,
            "samples": [ball, dict(ball, name="ball2", split="test")]}
    rng = random.Random(MANIFEST_FUZZ_SEED)
    crashes, outcomes, cli_runs = [], [], []
    for case in range(MANIFEST_FUZZ_CASES):
        manifest = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 3)):
            _mutate_manifest(rng, manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        try:
            load_manifest(data)
            outcome, message = "loaded", None
        except ValueError as exc:
            outcome, message = "ValueError", str(exc)
        except Exception as exc:  # any other exception is a crash
            crashes.append((case, repr(exc)))
            continue
        if outcomes.count(outcome) < MANIFEST_FUZZ_CLI_CASES:
            code = main(["train", "--input", str(data), "--epochs", "1"] + SMALL)
            err = capsys.readouterr().err.splitlines()
            if not (code == 0 and outcome == "loaded" or code == 1 and len(err) == 1 and (
                    err[0].startswith("error:") if message is None
                    else err[0] == f"error: {message}")):
                crashes.append((case, f"cli exit {code}: {err}"))
            cli_runs.append(code)
        outcomes.append(outcome)
    assert crashes == []
    assert {"loaded", "ValueError"} <= set(outcomes)
    assert 0 in cli_runs and 1 in cli_runs


@pytest.mark.parametrize("command", [
    "eval --input {data} --model {ckpt}",
    "export --input {data}/ball.obj --output {data}/ball.ply --what labels --model {ckpt}",
    "train --input {data} --epochs 1 --resume {ckpt}",
], ids=["eval", "export-labels", "train-resume"])
def test_checkpoint_of_other_features_is_refused_before_preprocessing(tmp_path, capsys,
                                                                      command):
    data = tmp_path / "data"
    # with a cache directory present, export too would write a cache there
    _ball_dataset(data, checkpoint=lambda a: dict(
        a, feature_kind=str_to_array("meshpool-cache-0")), dirs=["cache"])
    ckpt = data / "model.ckpt"
    assert main([word.format(data=data, ckpt=ckpt) for word in command.split()]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt}: checkpoint names "
                                                   "feature kind 'meshpool-cache-0'")
    assert lines[0].endswith("retrain with this version")
    assert not list(tmp_path.rglob("*.mpc")) and not list(tmp_path.rglob("*.ply"))


def test_cli_error_paths(tmp_path, capsys):
    assert main(["eval", "--input", str(tmp_path / "nope"),
                 "--model", "whatever.ckpt"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["export", "--input", str(tmp_path / "missing.obj"),
                 "--output", str(tmp_path / "x.ply"), "--what", "clusters"]) == 1
    with pytest.raises(SystemExit):
        main(["train", "--input", str(tmp_path), "--clusters", "a,b"])
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-2"], "--seed must be at least 0, got -2"),
    (["--count", "-1"], "--count must be at least 1, got -1"),
    (["--count", "0"], "--count must be at least 1, got 0"),
    (["--test-fraction", "1.5"], "--test-fraction must be in [0, 1), got 1.5"),
    (["--test-fraction", "nan"], "--test-fraction must be in [0, 1), got nan"),
    (["--test-fraction", "-0.1"], "--test-fraction must be in [0, 1), got -0.1"),
], ids=["seed-minus-2", "count-minus-1", "count-0", "test-fraction-1.5", "test-fraction-nan",
        "test-fraction-minus-0.1"])
def test_synth_rejects_a_negative_seed_or_count(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", "--output", str(out), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()  # rejected before anything is written


def test_export_level_out_of_range(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "4"])
    manifest = json.loads((data / "manifest.json").read_text())
    obj = data / manifest["samples"][0]["obj"]
    code = main(["export", "--input", str(obj), "--output", str(tmp_path / "x.ply"),
                 "--what", "clusters", "--level", "5"] + SMALL)
    assert code == 1
    assert "level" in capsys.readouterr().err


def test_eval_and_export_follow_the_checkpoint(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "8"])
    ckpt = data / "model.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    before = _cache_stamps(data / "cache")
    capsys.readouterr()
    # no preprocessing flags: the checkpoint's 8 eigenvectors and 6,3 clusters
    assert main(["eval", "--input", str(data), "--model", str(ckpt),
                 "--split", "all"]) == 0
    assert "test" in read_json_tail(capsys)
    obj = data / json.loads((data / "manifest.json").read_text())["samples"][0]["obj"]
    assert main(["export", "--input", str(obj), "--output", str(tmp_path / "l.ply"),
                 "--model", str(ckpt)]) == 0
    assert _cache_stamps(data / "cache") == before
    # explicit flags that disagree with the checkpoint are an error
    capsys.readouterr()
    assert main(["eval", "--input", str(data), "--model", str(ckpt), "--eigs", "16"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--eigs 16 disagrees with the checkpoint's 8" in err
    assert main(["export", "--input", str(obj), "--output", str(tmp_path / "x.ply"),
                 "--model", str(ckpt), "--clusters", "6,2"]) == 1
    assert "--clusters 6,2 disagrees with the checkpoint's 6,3" in capsys.readouterr().err
    # agreeing flags are accepted, and clusters export keeps following the flags
    assert main(["eval", "--input", str(data), "--model", str(ckpt)] + SMALL) == 0
    assert main(["export", "--input", str(obj), "--output", str(tmp_path / "c.ply"),
                 "--what", "clusters"] + SMALL) == 0
    assert _cache_stamps(data / "cache") == before


def test_export_labels_colours_vertices_in_mesh_order(tmp_path):
    # records are cluster-contiguous inside; the PLY must not be
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "8"])
    ckpt = data / "model.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "6"] + SMALL) == 0
    obj = data / json.loads((data / "manifest.json").read_text())["samples"][0]["obj"]
    ply = tmp_path / "labels.ply"
    assert main(["export", "--input", str(obj), "--output", str(ply),
                 "--model", str(ckpt)]) == 0
    params, config, _, _ = load_checkpoint(ckpt)
    cache = load_cache(data / "cache" / f"{obj.stem}.mpc")
    logits = model_forward(Tape(record=False), params, config, cache.features,
                           cache.level_masks, category=0).data
    want = np.argmax(logits, axis=1)
    assert len(np.unique(want)) > 1  # a constant prediction would hide the order
    lines = ply.read_text().splitlines()
    start = lines.index("end_header") + 1
    rows = [line.split()[3:] for line in lines[start:start + cache.n_vertices]]
    assert np.array_equal(np.array(rows, dtype=np.uint8), label_colors(want))


def test_eval_rebuilds_a_cache_that_is_not_a_cache(tmp_path, capsys):
    data = tmp_path / "seg"
    main(["synth", "--output", str(data), "--task", "segmentation",
          "--count", "4", "--seed", "9"])
    ckpt = data / "model.ckpt"
    assert main(["train", "--input", str(data), "--epochs", "1"] + SMALL) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    test_name = next(e["name"] for e in manifest["samples"] if e["split"] == "test")
    cache_path = data / "cache" / f"{test_name}.mpc"
    cache_path.write_bytes(ckpt.read_bytes())
    with pytest.raises(CacheMismatchError, match="not a feature cache"):
        load_cache(cache_path)
    capsys.readouterr()
    assert main(["eval", "--input", str(data), "--model", str(ckpt)]) == 0
    assert 0.0 <= read_json_tail(capsys)["test"]["accuracy"] <= 1.0
    assert load_cache(cache_path).cluster_counts == (6, 3)
