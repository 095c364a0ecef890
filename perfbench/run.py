"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/epgate``; nothing needs
installing or building.  One run:

1. starts the machine-speed reference (``speed.py``) on the second core;
2. times ``SETUP_RUNS`` fresh interpreters that import ``epgate`` and
   ``epgate.cli`` (library workloads: plus one untimed warm-up op that fills
   the lru caches) and reports their median as ``setup_s``;
3. starts the workload's own child interpreter (``client.py``), a closed
   loop of ops for S seconds, each op validated outside its timed region;
4. stops the reference and scales the op times to the nominal speed (see
   ``speed.py``);
5. prints the metrics, one per line with its unit, and as the last line one
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the lines
   hold every per-layer metric and the JSON the ones in
   ``tracing.RESULT_LAYERS``.

Exits 2 without a result when the checkout has no ``src/epgate`` or a
child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import NOMINAL_RATE, rate  # noqa: E402
from tracing import PER_LAYER, RESULT_LAYERS, summarize  # noqa: E402

SETUP_RUNS = 5
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# percentiles offered beside the median; the highest with at least ten
# samples beyond it is printed
_PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(RuntimeError):
    pass


def _client(args) -> list[str]:
    return [sys.executable, str(HERE / "client.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds)]


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run(_client(args) + ["--setup-only"],
                              stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up child exited {done.returncode}")
    return samples


def run_client(args) -> tuple[dict, int]:
    """The workload child's result record and its peak RSS in KiB."""
    cmd = _client(args) + ["--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"workload child exited {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("workload child printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss


def high_percentile(times: list[float]) -> tuple[int, float] | None:
    n = len(times)
    for p in _PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100,
                                           method="inclusive")[p - 1]
    return None


def end_to_end(ops: list[dict], setup: list[float], client_rss_kb: int,
               scale: float = 1.0) -> dict:
    """The end-to-end metrics, op wall times multiplied by ``scale``.  Set-up
    (process start and imports, mostly) does not follow the reference
    kernel's speed, so ``setup_s`` stays unscaled."""
    times = [r["t"] for r in ops]
    cli_rss = [r["rss_kb"] for r in ops if "rss_kb" in r]
    # CLI ops: the CLI child's peak; library ops: the workload child's
    rss_kb = max(cli_rss) if cli_rss else client_rss_kb
    return {"setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times) * scale,
            "items_per_s": sum(r["items"] for r in ops) / sum(times) / scale,
            "peak_rss_mb": rss_kb / 1024}


def per_layer(ops: list[dict]) -> dict:
    traced = [r for r in ops if r["traced"]]
    untraced = [r for r in ops if not r["traced"]]
    out = summarize([r["layers"] for r in traced])
    out["trace.op_p50_s"] = statistics.median(r["t"] for r in traced)
    out["trace.untraced_op_p50_s"] = statistics.median(
        r["t"] for r in untraced)
    # each input ran twice back to back; the difference within a pair is
    # not moved by the machine drifting between pairs
    pairs = zip(ops[0::2], ops[1::2])
    out["trace.overhead_s"] = statistics.median(
        (b["t"] - a["t"]) * (1 if b["traced"] else -1) for a, b in pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "epgate" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/epgate",
              file=sys.stderr)
        return 2
    reference = subprocess.Popen([sys.executable, str(HERE / "speed.py")],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 text=True)
    try:
        start = time.perf_counter()
        setup = measure_setup(args)
        result, client_rss_kb = run_client(args)
        stop = time.perf_counter()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        ends = json.loads(reference.communicate("stop\n")[0])
    speed = rate(ends, start, stop)
    ops = result["ops"]

    failed = [r for r in ops if r["error"] is not None]
    times = [r["t"] for r in ops]
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print(f"# ops={len(ops)} failed={len(failed)} "
          f"fail_ratio={len(failed) / len(ops):.6g} (ratio)")
    high = high_percentile(times)
    print("# op time: " + (f"p{high[0]}={high[1]:.6g} s" if high else
                           "no percentile has 10 samples beyond it"))
    print("# setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    if "rss_floor_kb" in result:
        print(f"# least peak RSS a CLI op can read (python -c pass through "
              f"the launcher): {result['rss_floor_kb'] / 1024:.6g} MB")
    for r in failed:
        print(f"# failed op [{r['input']}]: {r['error']}")

    if args.trace:
        values = per_layer(ops)
        units = dict(PER_LAYER)
        unattributed = values["trace.op_p50_s"] - values["trace.self_sum_s"]
        print(f"# traced op_p50 - sum of self times = {unattributed:.6g} s; "
              f"tracing overhead = {values['trace.overhead_s']:.6g} s")
        in_result = RESULT_LAYERS
    else:
        wall = end_to_end(ops, setup, client_rss_kb)
        print(f"# reference kernels per second: {speed:.6g}; "
              f"nominal {NOMINAL_RATE:g}")
        print("# wall times, not scaled: " + ", ".join(
            f"{name} {wall[name]:.6g} {unit}" for name, unit in END_TO_END))
        values = end_to_end(ops, setup, client_rss_kb, speed / NOMINAL_RATE)
        units = dict(END_TO_END)
        in_result = units
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in in_result}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
