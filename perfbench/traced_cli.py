"""Traced CLI child: one ``epgate`` command under the span recorders.

    python perfbench/traced_cli.py SPANS_OUT OP_ID SPAWNED_AT COMMAND [ARGS...]

Records the ``cli.import`` span from SPAWNED_AT (the parent's
``time.perf_counter()`` just before it started this process) to the end of
``import epgate`` and ``epgate.cli``, so interpreter start-up is counted
there; then installs the wrappers, runs ``epgate.cli.main(argv)`` as the
``cli.main`` span, writes the spans to SPANS_OUT and exits with the CLI's
exit code.  ``epgate`` must be importable (``PYTHONPATH`` holds the
checkout's ``src``).
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    out_path, op_id, spawned_at = sys.argv[1:4]
    argv = sys.argv[4:]
    import epgate.cli
    end = time.perf_counter()
    from tracing import Tracer  # after the timed imports: tracing overhead

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(int(op_id))
    tracer.add_span("cli.import", float(spawned_at), end)
    with tracer.span("cli.main"):
        code = epgate.cli.main(argv)
    tracer.end_op()
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
