"""Traced stand-in for ``python -m epshift.cli``, run as the benchmark's child.

Usage: ``python cli_driver.py <cli arguments>``.  It imports ``epshift.cli``
(timed as ``cli.import``), rebinds the layers' public functions and runs
``cli.main`` on the arguments, so stdout and the exit code are the CLI's
own.  At exit it appends one line to stderr: a marker followed by the JSON
trace, which the parent merges into the run's trace.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import TRACE_MARK, Tracer, install  # noqa: E402

tracer = Tracer()
t0 = time.perf_counter()
from epshift import cli  # noqa: E402

t1 = time.perf_counter()
tracer.spans.append(("cli.import", t0, t1, None, None))
tracer.agg[("bench", "cli.import")] = [1, t1 - t0, t1 - t0]
install(tracer)
code = 1
try:
    code = cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    trace = tracer.dump()
    trace["started"] = STARTED
    sys.stderr.buffer.write(b"\n" + TRACE_MARK + json.dumps(trace).encode() + b"\n")
    sys.stderr.flush()
sys.exit(code)
