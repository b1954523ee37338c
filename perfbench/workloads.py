"""The benchmark's workloads.

Every workload has the same shape: ``setup()`` builds the seeded inputs
(timed as ``setup_s``), ``run_pass()`` runs one pass of the timed work and
returns a ``PassResult``, and ``final_checks()`` verifies what can only be
verified once the passes are done. Each pass splits into a *compute* part,
where meshpool produces new results, and a *reuse* part, where it uses
them again:

  seg-train         compute = training.train for a fixed number of epochs
                    reuse   = training.evaluate_segmentation over every record
  preprocess-large  compute = load_obj + get_features into an empty cache
                    reuse   = the same calls again, three times, served from the cache
  quickstart        compute = meshpool synth, preprocess, train (subprocesses)
                    reuse   = meshpool eval, export

Meshpool sees only the generated meshes and files; the seed reaches it only
through ``meshpool synth --seed`` in quickstart, which generates the inputs.

BENCHMARK.json lists seg-train and quickstart. preprocess-large runs by name
with the same checks, but is not listed: on a shared 2-vCPU machine its
run-to-run spread is wider than the largest bound BENCHMARK.json allows
(see README.md).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import load_dump

# Input sizes. "full" is what the benchmark measures; "tiny" exists for the
# self-check, which exercises every check and the traced run in seconds.
SCALES = {
    "full": {"seg_meshes": 12, "seg_epochs": 4, "ico_level": 5, "torus": (160, 63),
             "warm_ico_level": 4, "qs_count": 10, "qs_epochs": 4},
    "tiny": {"seg_meshes": 4, "seg_epochs": 3, "ico_level": 2, "torus": (16, 8),
             "warm_ico_level": 1, "qs_count": 4, "qs_epochs": 2},
}

CLI_TIMEOUT_S = 150

# preprocess-large reads each mesh back this many times per pass: a single
# warm read takes 0.1-0.2 s and its time varies by up to 2x from one call to
# the next, so one read per pass gives a median that jumps between modes.
WARM_REPEATS = 3


@dataclass
class PassResult:
    compute_s: float
    reuse_s: float
    pass_s: float
    ops: int                                     # meshes, mesh-steps or commands
    digest: str                                  # outputs that must repeat bit for bit
    info: dict = field(default_factory=dict)     # derived numbers for the report
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0                     # largest child, for subprocess workloads


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class SegTrain:
    """In-process training and inference on seeded 3-part dumbbells."""

    name = "seg-train"
    in_process = True

    def __init__(self, workdir: Path, seed: int, scale: dict, tracer=None):
        from meshpool import cache
        from meshpool.model import ModelConfig

        self.workdir, self.seed, self.scale, self.tracer = workdir, seed, scale, tracer
        self.params = cache.PreprocessParams()
        self.config = ModelConfig(in_dim=6 + self.params.n_eigenvectors,
                                  cluster_counts=self.params.cluster_counts,
                                  num_labels=3, num_categories=1)
        self._setups = 0

    def setup(self) -> str:
        """Synthesize, preprocess into a cache directory and split like ``synth``."""
        from meshpool import cache, synth, training

        self._setups += 1
        cache_dir = fresh_dir(self.workdir / f"seg-cache-{self._setups}")
        samples = synth.make_segmentation_dataset(n_meshes=self.scale["seg_meshes"],
                                                  seed=self.seed)
        records = []
        for s in samples:
            features = cache.get_features(s.mesh, self.params, cache_dir / f"{s.name}.mpc")
            records.append(training.record_from_cache(s.name, features, s.category, s.labels))
        groups = [s.name.rsplit("_", 1)[0] for s in samples]  # stratify by resolution
        self.train_records, self.test_records = training.split_dataset(
            records, test_fraction=0.25, seed=self.seed, groups=groups)
        return sha256_files(cache_dir.iterdir())

    def run_pass(self) -> PassResult:
        from meshpool import training

        cfg = training.TrainConfig(epochs=self.scale["seg_epochs"], seed=self.seed)
        t0 = time.perf_counter()
        params, history = training.train(self.train_records, self.config, cfg)
        t1 = time.perf_counter()
        test = training.evaluate_segmentation(params, self.config, self.test_records)
        train = training.evaluate_segmentation(params, self.config, self.train_records)
        t2 = time.perf_counter()

        failures = []
        losses = [h.mean_loss for h in history]
        if len(history) != cfg.epochs:
            failures.append(f"trained {len(history)} epochs, expected {cfg.epochs}")
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"non-finite epoch loss: {losses}")
        elif losses[-1] >= losses[0]:
            failures.append(f"loss did not fall: {losses}")
        for report in (test, train):
            if not 0.0 <= report.accuracy <= 1.0:
                failures.append(f"accuracy {report.accuracy} outside [0, 1]")
        h = hashlib.sha256(repr((test.accuracy, train.accuracy)).encode())
        for name in sorted(params):
            h.update(name.encode())
            h.update(params[name].data.tobytes())
        steps = cfg.epochs * len(self.train_records)
        meshes = len(self.test_records) + len(self.train_records)
        return PassResult(
            compute_s=t1 - t0, reuse_s=t2 - t1, pass_s=t2 - t0, ops=steps + meshes,
            digest=h.hexdigest(), failures=failures,
            info={"train_mesh_steps_per_s": steps / (t1 - t0),
                  "infer_meshes_per_s": meshes / (t2 - t1),
                  "test_accuracy": test.accuracy, "final_loss": losses[-1]})

    def final_checks(self, passes) -> list:
        return []


class PreprocessLarge:
    """Cold and warm preprocessing of two ~10k-vertex meshes read from OBJ."""

    name = "preprocess-large"
    in_process = True

    def __init__(self, workdir: Path, seed: int, scale: dict, tracer=None):
        from meshpool import cache

        self.workdir, self.seed, self.scale, self.tracer = workdir, seed, scale, tracer
        self.params = cache.PreprocessParams()
        self._setups = 0
        self._passes = 0

    def setup(self) -> str:
        """Write the deformed meshes as OBJ and warm the eigensolver once."""
        from meshpool import cache, mesh, synth

        self._setups += 1
        obj_dir = fresh_dir(self.workdir / f"large-objs-{self._setups}")
        n_u, n_v = self.scale["torus"]
        shapes = {
            "icosphere": synth.icosphere(self.scale["ico_level"]),  # irregular valence 5/6
            "torus": synth.torus(n_u, n_v, major=1.0, minor=0.4),   # regular grid, genus 1
        }
        self.objs, self.vertex_counts = {}, {}
        for i, (name, base) in enumerate(shapes.items()):
            shaped = synth.deform(base, seed=[self.seed, i])
            self.objs[name] = obj_dir / f"{name}.obj"
            mesh.write_obj(self.objs[name], shaped)
            self.vertex_counts[name] = shaped.n_vertices
        self.n_vertices = sum(self.vertex_counts.values())
        # the first shift-invert solve in a process costs about 3x a steady one
        outside = synth.deform(synth.icosphere(self.scale["warm_ico_level"]),
                               seed=[self.seed, len(shapes)])
        cache.preprocess_mesh(outside, self.params)
        return sha256_files(self.objs.values())

    def run_pass(self) -> PassResult:
        from meshpool import cache, mesh

        self._passes += 1
        cache_dir = fresh_dir(self.workdir / f"large-cache-{self._passes}")
        paths = {name: cache_dir / f"{name}.mpc" for name in self.objs}
        t0 = time.perf_counter()
        cold = {name: cache.get_features(mesh.load_obj(obj), self.params, paths[name])
                for name, obj in self.objs.items()}
        t1 = time.perf_counter()
        stats = {name: _file_identity(p) for name, p in paths.items()}
        t2 = time.perf_counter()
        warm = [{name: cache.get_features(mesh.load_obj(obj), self.params, paths[name])
                 for name, obj in self.objs.items()} for _ in range(WARM_REPEATS)]
        t3 = time.perf_counter()

        failures = []
        for name in self.objs:
            if _file_identity(paths[name]) != stats[name]:
                failures.append(f"{name}: warm pass rewrote its cache file (a miss)")
            a = cold[name]
            same = all(a.features.dtype == b.features.dtype
                       and np.array_equal(a.features, b.features)
                       and len(a.level_masks) == len(b.level_masks)
                       and all(np.array_equal(x, y) for x, y in zip(a.level_masks, b.level_masks))
                       for b in (w[name] for w in warm))
            if not same:
                failures.append(f"{name}: warm features or masks differ from the cold pass")
            if a.n_vertices != self.vertex_counts[name]:
                failures.append(f"{name}: cache has {a.n_vertices} rows")
        digest = sha256_files(paths.values())
        self.last_eigenvalues = {name: c.eigenvalues for name, c in cold.items()}
        shutil.rmtree(cache_dir)
        cold_s, warm_s = t1 - t0, t3 - t2
        return PassResult(
            compute_s=cold_s, reuse_s=warm_s, pass_s=cold_s + warm_s,
            ops=(1 + WARM_REPEATS) * len(self.objs), digest=digest, failures=failures,
            info={"preprocess_vertices_per_s": self.n_vertices / cold_s,
                  "reload_vertices_per_s": WARM_REPEATS * self.n_vertices / warm_s})

    def final_checks(self, passes) -> list:
        """Every eigenpair residual is below 1e-6 and the cache holds a fresh solve's eigenvalues."""
        from meshpool import mesh, spectral

        failures = []
        for name, obj in self.objs.items():
            op = mesh.assemble_laplacian(mesh.load_obj(obj))
            basis = spectral.solve_eigs(op, self.params.n_eigenvectors)
            worst = float(spectral.eig_residuals(op, basis).max())
            if not worst < 1e-6:
                failures.append(f"{name}: eigenpair residual {worst:.3e} >= 1e-6")
            if not np.array_equal(basis.eigenvalues, self.last_eigenvalues[name]):
                failures.append(f"{name}: cached eigenvalues differ from a fresh solve")
        return failures


def _file_identity(path: Path):
    st = path.stat()
    return st.st_ino, st.st_mtime_ns, st.st_size, hashlib.sha256(path.read_bytes()).digest()


class Quickstart:
    """The README's five commands, one subprocess at a time, on a fresh directory."""

    name = "quickstart"
    in_process = False

    def __init__(self, workdir: Path, seed: int, scale: dict, tracer=None):
        self.workdir, self.seed, self.scale, self.tracer = workdir, seed, scale, tracer
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self._passes = 0

    def _run(self, args, out_dir: Path, spans_path: Path):
        """Run one command; returns (exit code, stdout, stderr, peak RSS in MB).

        ``os.wait4`` reaps the child so its own peak RSS is known, not just
        the largest of every child so far.
        """
        if self.tracer is None:
            cmd = [sys.executable, "-m", "meshpool", *args]
        else:
            child = Path(__file__).resolve().parent / "cli_child.py"
            cmd = [sys.executable, str(child), str(spans_path), *args]
        out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(),
                usage.ru_maxrss / 1024.0)

    def setup(self) -> str:
        """Import the CLI once in a child so the timed passes start warm."""
        proc = subprocess.run([sys.executable, "-c", "import meshpool.cli"],
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import meshpool.cli failed: {proc.stderr.strip()}")
        return ""

    def run_pass(self) -> PassResult:
        self._passes += 1
        data = fresh_dir(self.workdir / f"quickstart-{self._passes}")
        ckpt, ply = data / "model.ckpt", data / "seg.ply"
        obj = data / "dumbbell_a_000.obj"
        # as in the README, only synth takes the seed
        commands = [
            ("synth", ["synth", "--task", "segmentation", "--output", str(data),
                       "--count", str(self.scale["qs_count"]), "--seed", str(self.seed)]),
            ("preprocess", ["preprocess", "--input", str(data)]),
            ("train", ["train", "--input", str(data), "--epochs",
                       str(self.scale["qs_epochs"])]),
            ("eval", ["eval", "--input", str(data), "--model", str(ckpt), "--split", "test"]),
            ("export", ["export", "--input", str(obj), "--model", str(ckpt),
                        "--output", str(ply), "--what", "labels"]),
        ]
        walls, outputs, rss, failures = {}, {}, [], []
        for name, args in commands:
            spans_path = data.parent / f"spans-{self._passes}-{name}.json"
            span = None if self.tracer is None else self.tracer.begin(f"cli.{name}")
            t0 = time.perf_counter()
            code, outputs[name], stderr, peak = self._run(args, data.parent, spans_path)
            walls[name] = time.perf_counter() - t0
            rss.append(peak)
            if span is not None:
                self.tracer.end(span)
                self._adopt(spans_path, span)
            if code != 0:
                failures.append(f"meshpool {name} exited {code}: {stderr.strip()[-300:]}")
                break

        info = {}
        if not failures:
            info["test_accuracy"] = _eval_accuracy(outputs["eval"], failures)
            _check_ply(obj, ply, failures)
        digest = repr(info.get("test_accuracy"))
        if ckpt.exists():
            digest += sha256_files([ckpt, *(data / "cache").glob("*.mpc")])
        shutil.rmtree(data)
        compute = sum(walls.get(n, 0.0) for n in ("synth", "preprocess", "train"))
        reuse = sum(walls.get(n, 0.0) for n in ("eval", "export"))
        info["pipeline_s"] = compute + reuse
        return PassResult(compute_s=compute, reuse_s=reuse, pass_s=compute + reuse,
                          ops=len(commands), digest=digest, info=info, failures=failures,
                          peak_rss_mb=max(rss))

    def _adopt(self, spans_path: Path, parent: int) -> None:
        if spans_path.exists():
            spans, residuals = load_dump(spans_path)
            self.tracer.adopt(spans, parent)
            self.tracer.residuals.extend(residuals)
            spans_path.unlink()

    def final_checks(self, passes) -> list:
        return []


def _eval_accuracy(stdout: str, failures: list) -> float:
    try:
        accuracy = json.loads(stdout)["test"]["accuracy"]
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"eval output is not the expected JSON: {exc}")
        return float("nan")
    if not (isinstance(accuracy, float) and 0.0 <= accuracy <= 1.0):
        failures.append(f"eval accuracy {accuracy!r} outside [0, 1]")
    return accuracy


def _check_ply(obj: Path, ply: Path, failures: list) -> None:
    """The PLY holds one colored vertex row per OBJ vertex."""
    n_obj = sum(1 for line in obj.read_text().splitlines() if line.startswith("v "))
    lines = ply.read_text().splitlines()
    try:
        end = lines.index("end_header")
        declared = next(int(l.split()[2]) for l in lines if l.startswith("element vertex "))
    except (ValueError, StopIteration):
        failures.append(f"{ply.name}: malformed PLY header")
        return
    rows = lines[end + 1:end + 1 + declared]
    if declared != n_obj or len(rows) != n_obj or any(len(r.split()) != 6 for r in rows):
        failures.append(f"{ply.name}: {declared} vertices declared, {len(rows)} rows, "
                        f"mesh has {n_obj}")


WORKLOADS = {w.name: w for w in (SegTrain, PreprocessLarge, Quickstart)}

# The workloads of BENCHMARK.json, in its order.
BENCHMARK_WORKLOADS = ("seg-train", "quickstart")
