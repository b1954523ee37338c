"""End-to-end CLI runs, in process through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshpool
from meshpool.cache import CacheMismatchError, PreprocessParams, load_cache
from meshpool.cli import main
from meshpool.mesh import load_obj

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

    assert main(["preprocess", "--input", str(data), "--workers", "2"] + SMALL) == 0
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


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(meshpool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, meshpool.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
