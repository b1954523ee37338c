"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload quickstart --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one after another, never in parallel) and
prints, for every end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of the median. A metric is
steady when that share is below a third of its bound; ``setup_s`` is only
reported, since its bound limits the shift of the median between two sets of
runs rather than the spread within one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        ok = name == "setup_s" or share < bound / 3.0
        steady &= ok
        print(f"{name:12s} median {med:10.5g}  IQR/median {share:7.4f}  bound {bound:5.3f}  "
              f"{'ok' if ok else 'WIDE'}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"seeds": args.seeds, "seconds": args.seconds, "runs": runs}, indent=1))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
