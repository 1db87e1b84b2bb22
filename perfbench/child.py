"""One frobpow CLI invocation as the benchmark runs it.

    python3 perfbench/child.py <trace 0|1> <frobpow arguments...>

Puts the checkout's ``src`` on the path, calls ``frobpow.cli.main`` and, at
exit, writes one line ``PERFBENCH {json}`` to stderr with CLOCK_MONOTONIC
marks (shared with the parent process): when the child started, when
``frobpow.cli`` was imported, when ``parse_problem_file`` returned and when
``run_command`` was entered and left.  With trace 1 it also installs the span
and counter wrappers of tracer.py and adds their totals to that line.
"""

import atexit
import json
import os
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


marks = {"start": now()}
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import frobpow.cli as cli  # noqa: E402  (imports numpy)

marks["imported"] = now()
tracer = None
if sys.argv[1] == "1":
    import tracer as tracer_mod

    tracer = tracer_mod.install()

_parse = cli.parse_problem_file
_run = cli.run_command


def parse_problem_file(text):
    pf = _parse(text)
    marks.setdefault("parsed", now())
    return pf


def run_command(argv):
    marks["entered"] = now()
    try:
        return _run(argv)
    finally:
        marks["left"] = now()


def report():
    doc = {"marks": marks}
    if tracer is not None:
        doc["trace"] = tracer.totals()
    sys.stderr.write("PERFBENCH " + json.dumps(doc) + "\n")
    sys.stderr.flush()


cli.parse_problem_file = parse_problem_file
cli.run_command = run_command
atexit.register(report)
sys.argv = ["frobpow", *sys.argv[2:]]
cli.main()
