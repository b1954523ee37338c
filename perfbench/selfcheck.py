"""Fast self-check of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json matches the metrics run.py reports, runs every
workload (preprocess-large too) untraced and traced at ``--scale tiny``,
feeds deliberately wrong outputs to each workload's checks, and confirms
that run.py refuses to run where the meshpool sources are missing. Exits 1
on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def remove_work(path):
    shutil.rmtree(path)
    if not any(run.WORK_DIR.iterdir()):
        run.WORK_DIR.rmdir()


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.BENCHMARK_WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.BENCHMARK_WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        fail(f"end_to_end {e2e} != run.END_TO_END_UNITS")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != [row[:3] for row in LAYER_METRICS]:
        fail("per_layer differs from tracer.LAYER_METRICS")
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or ("unit" in m and not UNIT.match(m["unit"])):
            fail(f"bad name or unit in {m}")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"why of {w['name']} is not one line of at most 200 characters")
    if not all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]):
        fail("a bound is outside (0, 0.25]")
    return spec


def run_tiny(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail(f"{workload} trace {trace}: {result}")
    expected = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in expected]:
        fail(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
            fail(f"{workload} trace {trace}: {name} = {m['value']}")
    print(f"ok  {workload} trace {trace}: {result['attempted']} ops")


def check_fault_detection():
    """Each check must catch the fault it exists for."""
    run.import_meshpool()
    import meshpool.cache
    import meshpool.training

    def main_rejects(args, what):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(args + ["--seed", "3", "--seconds", "1", "--scale", "tiny"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if code != 1 or result["correct"] or result["failed"] < 1:
            fail(f"{what} went unnoticed: exit {code}, {result}")
        print(f"ok  caught: {what}")

    original = meshpool.cache.load_cache

    def drifting_load(*args, **kwargs):
        cache = original(*args, **kwargs)
        cache.features = cache.features + 1e-12
        return cache

    meshpool.cache.load_cache = drifting_load
    try:
        main_rejects(["--workload", "preprocess-large"], "warm features differing from cold")
    finally:
        meshpool.cache.load_cache = original

    def always_miss(*args, **kwargs):
        raise FileNotFoundError("forced miss")

    meshpool.cache.load_cache = always_miss
    try:
        main_rejects(["--workload", "preprocess-large"], "warm pass rewriting its caches")
    finally:
        meshpool.cache.load_cache = original

    train = meshpool.training.train
    calls = []

    def unrepeatable_train(*args, **kwargs):
        params, history = train(*args, **kwargs)
        calls.append(1)
        params[sorted(params)[0]].data[0] += len(calls) * 1e-9
        return params, history

    meshpool.training.train = unrepeatable_train
    try:
        main_rejects(["--workload", "seg-train"], "parameters differing between repeats")
    finally:
        meshpool.training.train = train

    failures = []
    workloads._eval_accuracy('{"test": {"accuracy": 1.5}}', failures)
    workloads._eval_accuracy("not json", failures)
    tmp = run.WORK_DIR / "selfcheck-ply"
    workloads.fresh_dir(tmp)
    try:
        (tmp / "m.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        (tmp / "m.ply").write_text("ply\nelement vertex 2\nend_header\n0 0 0 1 2 3\n1 0 0 1 2 3\n")
        workloads._check_ply(tmp / "m.obj", tmp / "m.ply", failures)
    finally:
        remove_work(tmp)
    if len(failures) != 3:
        fail(f"quickstart output checks missed a fault: {failures}")
    print("ok  caught: bad eval accuracy, unparsable eval output, short PLY")


def check_bare_directory():
    """Without the meshpool sources run.py must fail and print no result."""
    bare = run.WORK_DIR / "selfcheck-bare"
    workloads.fresh_dir(bare)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "seg-train", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        remove_work(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"run.py without sources exited {proc.returncode}: {proc.stdout!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = check_spec()
    print("ok  BENCHMARK.json matches the reported metrics")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            run_tiny(spec, name, trace)
    check_fault_detection()
    check_bare_directory()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
