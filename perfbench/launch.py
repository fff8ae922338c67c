"""Run one babelkit CLI command in this process and record when its work ran.

    python3 perfbench/launch.py RESULT MODE FIRST_WORK -- CLI_ARGS...

MODE is ``run`` (time only), ``probe`` (stop at the first unit of work) or
``trace`` (also time and count the calls into every layer). FIRST_WORK
names the module attribute the CLI calls first for real work, for example
``deteval_io.load_ground_truth``. RESULT receives a JSON object with the exit
code, the monotonic clock at the first unit of work and after the outputs
are written, the process's peak RSS and, when tracing, the per-layer self
times and counts.

The spawning benchmark reads the clock before it starts this process; both
clocks are CLOCK_MONOTONIC, so the difference is the set-up time.
"""

import importlib
import json
import os
import sys
import time


class _SetupDone(BaseException):
    """Raised at the first unit of work of a set-up probe."""


def _attr(path):
    module, name = path.rsplit(".", 1)
    return importlib.import_module(f"babelkit.{module}"), name


def _peak_rss_kb():
    """Peak RSS of this process since it exec'd. getrusage's ru_maxrss would
    also count the memory of the parent it was forked from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv):
    result_path, mode, first_work = argv[:3]
    cli_args = argv[4:]
    record = {"rc": None, "t_first": None, "t_done": None}

    import babelkit
    from babelkit import cli

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([src, os.path.abspath(babelkit.__file__)]) != src:
        print(f"babelkit imported from {babelkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        import layers  # the script's directory is first on sys.path

        tracer = layers.Tracer()
        tracer.install()

    module, name = _attr(first_work)
    work = getattr(module, name)

    def first(*args, **kwargs):
        if record["t_first"] is None:
            record["t_first"] = time.monotonic()
            if mode == "probe":
                raise _SetupDone
        return work(*args, **kwargs)

    setattr(module, name, first)
    try:
        record["rc"] = cli.main(cli_args)
    except _SetupDone:
        record["rc"] = 0
    record["t_done"] = time.monotonic()
    record["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        record["layers"] = tracer.report()

    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, result_path)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
