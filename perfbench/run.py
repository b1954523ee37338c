"""meshpool benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload seg-train --seed 1 --seconds 20 --trace 0

Run from the root of a meshpool checkout; the package is imported from its
``src/`` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics, from a traced run that follows an untraced one on the
same inputs (the difference is reported as the tracing overhead, and both
must give bit-identical parameters and cache bytes). A failed check makes
the command exit 1. Machine details, every pass and the spans of a traced
run are written under ``.perfbench_out/`` in the checkout.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, layer_metrics, span_table
from workloads import SCALES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 5

END_TO_END_UNITS = {"pass_s": "s", "compute_s": "s", "reuse_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def import_meshpool():
    """Import meshpool from this checkout's src/; exit with status 1 when it has none."""
    if not (SRC / "meshpool" / "__init__.py").is_file():
        sys.exit(f"run.py: no meshpool sources under {SRC}; run from a meshpool checkout")
    sys.path.insert(0, str(SRC))
    import meshpool

    if Path(meshpool.__file__).resolve().parent != SRC / "meshpool":
        sys.exit(f"run.py: imported meshpool from {meshpool.__file__}, not {SRC}")
    return meshpool


def dgemm_gflops(n=512, reps=15, warmup_s=1.0) -> float:
    """Median float64 GEMM rate at the default BLAS thread count.

    GEMMs run for ``warmup_s`` first: a process started after the machine
    sat idle can see its BLAS threads run several times slower for about a
    second, and the set-up and passes that follow should not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    deadline = time.perf_counter() + warmup_s
    while time.perf_counter() < deadline:
        a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) * 1e-9


def machine_block(gflops: float) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": platform.machine(),
        "dgemm_gflops": gflops,
    }


def timed_passes(workload, seconds, tracer=None):
    """Run passes for ``seconds`` (at least one).

    No pass starts that would, at the median pass length so far, end after
    the deadline, so a run of long passes does not overrun by most of a pass.
    """
    passes, lengths = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.trace_id = len(passes) + 1
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        now = time.perf_counter()
        lengths.append(now - t0)
        if now + statistics.median(lengths) > deadline:
            return passes


def consistency_failures(passes) -> list:
    """Repeats on the same inputs must give bit-identical outputs."""
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        return [f"{len(digests)} different output digests across {len(passes)} passes"]
    return []


def median_of(passes, key) -> float:
    return statistics.median(getattr(p, key) for p in passes)


def run_untraced(workload, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    passes = timed_passes(workload, seconds)
    if workload.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = median_of(passes, "peak_rss_mb")
    metrics = {
        "pass_s": median_of(passes, "pass_s"),
        "compute_s": median_of(passes, "compute_s"),
        "reuse_s": median_of(passes, "reuse_s"),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return passes, metrics, {"setup_s": setups}


def run_traced(workload, seconds, gflops):
    setup_digest = workload.setup()
    untraced = timed_passes(workload, seconds / 2.0)
    tracer = Tracer()
    workload.tracer = tracer
    if workload.in_process:
        tracer.install()
    try:
        idx = tracer.begin("bench.setup")
        traced_setup_digest = workload.setup()
        tracer.end(idx)
        traced = timed_passes(workload, seconds / 2.0, tracer)
    finally:
        tracer.restore()
        workload.tracer = None
    failures = []
    if traced_setup_digest != setup_digest:
        failures.append("traced set-up wrote different bytes than the untraced one")
    if {p.digest for p in traced} != {p.digest for p in untraced}:
        failures.append("traced passes gave different outputs than untraced ones")
    overhead = median_of(traced, "pass_s") - median_of(untraced, "pass_s")
    measured = layer_metrics(tracer.spans, tracer.residuals, len(traced), gflops, overhead)
    metrics = {name: measured[name] for name, *_ in LAYER_METRICS}
    if any(r >= 1e-6 for r in tracer.residuals):
        failures.append(f"traced eigensolve residual {max(tracer.residuals):.3e} >= 1e-6")
    extra = {"span_table": span_table(tracer.spans), "untraced_pass_s":
             [p.pass_s for p in untraced], "traced_pass_s": [p.pass_s for p in traced]}
    return untraced + traced, metrics, extra, failures, tracer


def derived_report(passes) -> dict:
    """Per-workload numbers (rates, accuracy, pipeline time) as medians over passes."""
    keys = sorted({k for p in passes for k in p.info})
    return {k: statistics.median(p.info[k] for p in passes if k in p.info) for k in keys}


DERIVED_UNITS = {"train_mesh_steps_per_s": "mesh-steps/s", "infer_meshes_per_s": "meshes/s",
                 "test_accuracy": "fraction", "final_loss": "nats",
                 "preprocess_vertices_per_s": "vertices/s",
                 "reload_vertices_per_s": "vertices/s", "pipeline_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run (split in two with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_meshpool()
    gflops = dgemm_gflops()
    machine = machine_block(gflops)
    print("machine " + json.dumps(machine, sort_keys=True))

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir, args.seed, SCALES[args.scale])
    failures, passes, metrics, extra, tracer = [], [], {}, {}, None
    t_start = time.perf_counter()
    try:
        if args.trace:
            passes, metrics, extra, failures, tracer = run_traced(workload, args.seconds, gflops)
        else:
            passes, metrics, extra = run_untraced(workload, args.seconds)
        for i, p in enumerate(passes, 1):
            failures.extend(f"pass {i}: {f}" for f in p.failures)
        failures.extend(consistency_failures(passes))
        failures.extend(workload.final_checks(passes))
    except Exception:  # report any crash as a failed run with its traceback
        traceback.print_exc()
        failures.append("workload raised an exception")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    wall = time.perf_counter() - t_start

    attempted = max(1, sum(p.ops for p in passes))
    failed = min(len(failures), attempted)
    derived = derived_report(passes)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes in {wall:.1f} s")
    if args.trace:
        print(f"  {'span':40s} {'count':>7s} {'total_s':>10s} {'self_s':>10s} "
              f"{'p50_s':>10s}  highest percentile with >=10 beyond")
        for name, row in extra.get("span_table", {}).items():
            high = next(((k, v) for k, v in row.items() if k.startswith("p") and k != "p50"),
                        None)
            print(f"  {name:40s} {row['count']:7d} {row['total_s']:10.4g} {row['self_s']:10.4g} "
                  f"{row['p50']:10.4g}  " + (f"{high[0]} {high[1]:.4g} s (n={row['n']})"
                                             if high else f"- (n={row['n']})"))
        print(f"  {'per-layer metric':40s} {'value':>14s}  unit      should move (workload)")
        for name, unit, _, moves, where in LAYER_METRICS:
            print(f"  {name:40s} {metrics.get(name, float('nan')):14.6g}  {unit:8s}  "
                  f"{moves} ({where})")
    else:
        for name, value in metrics.items():
            print(f"  {name:28s} {value:14.6g} {END_TO_END_UNITS[name]}")
    for name, value in derived.items():
        print(f"  {name:28s} {value:14.6g} {DERIVED_UNITS.get(name, '')}")
    print(f"  {'failed_ops_ratio':28s} {failed / attempted:14.6g} ({failed}/{attempted})")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                   "seconds": args.seconds, "machine": machine, "metrics": metrics,
                   "derived": derived, "failures": failures,
                   "passes": [vars(p) for p in passes], **extra}, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")

    units = {name: unit for name, unit, *_ in LAYER_METRICS} if args.trace else END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
