"""Run one `teamopt` CLI command in this process and record its timings.

    python3 perfbench/launch.py --timing T.json [--trace DIR] [--setup-only]
        -- sweep --config run.json

The command goes through `teamopt.cli.main` exactly as the console script
would run it. This wrapper adds the moment `cli.build_dataset` returns
(the end of set-up), the peak RSS of this process and of its pool
workers, and, with `--trace`, the spans of `tracer.install`. Times are
`time.monotonic()` readings, which share one clock across processes, so
the caller can subtract its own start time. With `--setup-only` the
process exits as soon as the dataset is built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Stops a --setup-only run once set-up is measured."""


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    t_import = time.monotonic()
    import teamopt.cli as cli
    t_imported = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install(args.trace)
        tracer.add("cli.import", t_import, t_imported)

    timing = {"pid": os.getpid()}
    build_dataset = cli.build_dataset

    def timed_build_dataset(config):
        dataset = build_dataset(config)
        timing["setup_done"] = time.monotonic()
        timing["threads_at_setup"] = _thread_count()
        if args.setup_only:
            raise _SetupDone
        return dataset

    cli.build_dataset = timed_build_dataset
    run = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        code = run(cli_args)
    except _SetupDone:
        code = 0
    timing["exit_code"] = code
    timing["teamopt_file"] = cli.__file__
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    timing["maxrss_self_kb"] = own.ru_maxrss
    timing["maxrss_children_kb"] = kids.ru_maxrss
    timing["cpu_s"] = (own.ru_utime + own.ru_stime + kids.ru_utime
                       + kids.ru_stime)
    with open(args.timing, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    if tracer is not None:
        tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
