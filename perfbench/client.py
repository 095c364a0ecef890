"""Workload child: the one closed-loop client of a workload.

    python perfbench/client.py --workload NAME --seed N --seconds S --trace 0|1
    python perfbench/client.py --workload NAME --seed N --seconds S --setup-only

Run from the root of a checkout; ``epgate`` is imported from its ``src/``.
The client sends one op, waits for it, validates the output outside the
timed region, and only then sends the next.  CLI ops each run as one further
child process (``python -m epgate ...``), started through ``launcher.py`` so
that their peak RSS is not floored by the client's (see there); the op and
``run.py``'s speed reference are the two processes working at any time.  With ``--trace 1`` every input runs twice,
untraced and traced, which gives the tracing overhead from one run.

The last line of standard output is a JSON record of every op; ``run.py``
turns it into metrics.  ``--setup-only`` imports the package (and, for the
library workloads, runs the untimed warm-up op) and exits: ``run.py`` times
that whole process as the set-up cost.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
CLI_OUT = WORK / "cli-stdout.txt"
CLI_ERR = WORK / "cli-stderr.txt"

sys.path.insert(0, str(SRC))

from tracing import Tracer, layer_values, load_dump  # noqa: E402


class Launcher:
    """The ``launcher.py`` child, which starts every CLI op."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str]) -> tuple[int, int]:
        """Exit code and peak RSS (KiB) of ``argv``, whose standard output
        and error land in ``CLI_OUT`` and ``CLI_ERR``."""
        self.proc.stdin.write(json.dumps([argv, str(CLI_OUT),
                                          str(CLI_ERR)]) + "\n")
        self.proc.stdin.flush()
        code, rss_kb = json.loads(self.proc.stdout.readline())
        return code, rss_kb

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_cli_op(workload, launcher: Launcher, op_id: int, tracer) -> dict:
    from workloads import ValidationError
    spans_path = WORK / f"cli-spans-{op_id}.json"
    start = time.perf_counter()
    if tracer is None:
        cmd = [sys.executable, "-m", "epgate", *workload.argv]
    else:
        # perf_counter is CLOCK_MONOTONIC, shared with the child, whose
        # first span starts at this time
        cmd = [sys.executable, str(HERE / "traced_cli.py"),
               str(spans_path), str(op_id), repr(start), *workload.argv]
    code, rss_kb = launcher.run(cmd)
    elapsed = time.perf_counter() - start
    stdout = CLI_OUT.read_bytes()
    record = {"t": elapsed, "rss_kb": rss_kb,
              "traced": tracer is not None, "input": " ".join(workload.argv)}
    try:
        record["items"] = workload.validate(stdout, code)
        record["error"] = None
    except ValidationError as exc:
        stderr = CLI_ERR.read_text(errors="replace").strip()
        record["items"] = 0
        record["error"] = f"{exc}; stderr: {stderr[-300:]}"
    if tracer is not None:
        if spans_path.exists():
            spans, counts = load_dump(spans_path)
            spans_path.unlink()
            # the child's parent indices point into its own span list
            offset = len(tracer.spans)
            for span in spans:
                if span[3] >= 0:
                    span[3] += offset
            tracer.spans.extend(spans)
            tracer.op_counts.update(counts)
        counts = tracer.op_counts.setdefault(op_id, {})
        counts["serialize.out_bytes"] = len(stdout)
    return record


def run_lib_op(workload, op, op_id: int, tracer) -> dict:
    from workloads import ValidationError
    # the wrappers are in place only around a traced op, so the untraced
    # half of each pair runs the unpatched package
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        result = workload.run(op)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
    record = {"t": elapsed, "traced": tracer is not None,
              "input": op.describe(), "items": 0, "error": error}
    if error is None:
        try:
            record["items"] = workload.validate(op, result)
        except ValidationError as exc:
            record["error"] = str(exc)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # started before epgate is imported, which keeps it small; whether the
    # workload is a CLI one is known only from the workloads module, which
    # imports epgate, so a library workload leaves it idle
    launcher = None if args.setup_only else Launcher()
    try:
        return run(args, launcher)
    finally:
        if launcher is not None:
            launcher.close()


def run(args, launcher: Launcher | None) -> int:
    import epgate.cli  # noqa: F401  (the set-up cost: package and CLI)
    from workloads import WORKLOADS, CliWorkload

    workload = WORKLOADS[args.workload]
    is_cli = isinstance(workload, CliWorkload)
    if not is_cli:
        workload.warm_up()
    if args.setup_only:
        return 0

    WORK.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    # a CLI cycle is one op; a library cycle covers every op kind once
    cycles = iter(lambda: [None], None) if is_cli else workload.cycles(rng)
    # CLI ops are traced inside their own child, library ops in this process
    tracer = Tracer() if args.trace else None
    records = []
    started = time.perf_counter()
    last_cycle = 0.0  # wall time of the previous cycle, validation included
    # closed loop: start a cycle only if it should end within the window
    while not records or \
            time.perf_counter() - started + last_cycle <= args.seconds:
        cycle_start = time.perf_counter()
        for op in next(cycles):
            # a traced run sends every input twice, untraced and traced,
            # alternating which goes first, so both medians cover the same
            # inputs
            order = [False]
            if args.trace:
                order = [True, False] if len(records) % 4 else [False, True]
            for traced in order:
                op_tracer = tracer if traced else None
                if is_cli:
                    record = run_cli_op(workload, launcher, len(records),
                                        op_tracer)
                else:
                    record = run_lib_op(workload, op, len(records), op_tracer)
                records.append(record)
        last_cycle = time.perf_counter() - cycle_start

    result = {"ops": records}
    if is_cli:
        # the least a CLI op's peak RSS can read through the launcher
        _, result["rss_floor_kb"] = launcher.run([sys.executable, "-c", "pass"])
    layers = {}
    if tracer is not None:
        tracer.dump(WORK / f"spans-{args.workload}.json")
        layers = layer_values(tracer.spans, tracer.op_counts)
    for op_id, record in enumerate(records):
        if record["traced"]:
            record["layers"] = layers.get(op_id, {})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
