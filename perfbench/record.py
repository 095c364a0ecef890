"""Record a baseline: ten seeded untraced runs and one traced run of every
gated workload, one of each of the others, written to ``baseline.json``.

    python3 perfbench/record.py [--first-seed N] [--out PATH]

Run from the root of a checkout.  Every run goes through ``run.py`` at
``BENCHMARK.json``'s ``run_seconds``; the untraced runs of a gated workload
use the seeds N .. N+9 (default 1 .. 10), every other run seed N.  For each
workload the file holds, per end-to-end metric, the median of its untraced
runs and their spread (the distance between the first and third quartile as
a share of the median, as the regression gate computes it), every run's
result with its failed ops and their inputs and its other printed lines
(among them the unscaled wall times), and the traced run's printed
per-layer metrics; and the machine context.  Two files recorded back to
back on the same code show whether the gate's bounds hold on this machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# workloads outside the regression gate (BENCHMARK.json lists the gated
# ones with their reasons), with why each is still recorded
UNGATED = {
    "condition-cli": (
        "Cold model constructors and the Pascal Gauss-Jordan inverse, with "
        "no charpoly or root finding.  Its ops take 6-10 s, so a run holds "
        "3-5 of them and its medians moved by up to 1.6x between sets of "
        "runs on the same code; the layers it stresses are also measured, "
        "at a smaller share, on verify-cli."),
    "spectrum-scan": (
        "Tridiagonal recurrence and Aberth iteration without the dense "
        "matrix layer.  It carries the N >= 16 ConvergenceError defect, so "
        "a root-finder fix shows in its failed ops and op_p50_s; it stays "
        "out of the gate, whose workloads must not fail."),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    # the printed lines hold every metric, the JSON line only the gated ones
    result["printed"] = {name: {"value": float(value), "unit": unit}
                         for name, value, unit in (
                             ln.split() for ln in lines[:-1]
                             if not ln.startswith("#"))}
    result["failed_ops"] = [ln[len("# failed op "):] for ln in lines
                            if ln.startswith("# failed op ")]
    # the other printed lines: set-up samples, reference speed, wall times
    result["notes"] = [ln for ln in lines if ln.startswith("# ")
                       and not ln.startswith("# failed op ")]
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        out[name] = {"median": median, "unit": metric["unit"]}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[name]["spread"] = (q3 - q1) / median
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + RUNS)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {
        "context": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "machine": platform.machine(),
                    "seeds": list(seeds), "run_seconds": seconds},
        "workloads": {},
    }
    for name, why in {**whys, **UNGATED}.items():
        runs = [run(name, seed, seconds, 0)
                for seed in (seeds if name in whys else seeds[:1])]
        entry = {"why": why, "gated": name not in UNGATED,
                 "summary": summary(runs), "runs": runs,
                 "traced": run(name, seeds[0], seconds, 1)}
        print(f"{name}: " + ", ".join(
            f"{m} {s['median']:.4g} {s['unit']} "
            f"(spread {s.get('spread', float('nan')):.3f})"
            for m, s in entry["summary"].items()), flush=True)
        out["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
