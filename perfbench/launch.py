"""Child process of the benchmark: runs ``cyclewalk.cli.main`` as the
``cyclewalk`` console script does, and records when ``main`` was entered.

Usage: launch.py MARK_PATH TRACE_PATH|- CLI_ARG...

MARK_PATH receives ``{"entered": t, "left": t, "code": n}`` in
CLOCK_MONOTONIC seconds, which the parent compares with its spawn time.
With a TRACE_PATH the per-layer tracer is installed before ``main`` is
entered and its report is written there after ``main`` returns.
"""

import json
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    mark_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cyclewalk import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer().install()
    entered = _now()
    code = cli.main(argv)
    left = _now()
    with open(mark_path, "w") as fh:
        json.dump({"entered": entered, "left": left, "code": code}, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.report(main_s=left - entered), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
