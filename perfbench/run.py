"""babelkit benchmark: run one workload from a seed, check the outputs, and
print its metrics.

    python3 perfbench/run.py --workload eval-80k --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; babelkit is imported from ./src (no install
step). Inputs and outputs go to ./.bench_work/<workload>/. Each round runs
the CLI once in a fresh interpreter (perfbench/launch.py); rounds repeat
while the next one, as long as the latest, would end within --seconds. In untraced runs
each round starts with set-up probes: interpreters that stop at the first
unit of work.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI rounds) and ``metrics``. With --trace 0
the metrics are the end-to-end ones (medians over rounds; set-up over
probes and rounds), with --trace 1 the per-layer ones (self-time medians
over rounds and exact call counts).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers
from workloads import WORKLOADS, CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = "1"  # BABELKIT_THREADS for every CLI run; at most nproc
# numpy's BLAS would start a thread per core; its threads then wait on each
# other whenever another process holds a core, which made align rounds take
# 1.8x their CPU time. One BLAS thread keeps the load in a single thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES_PER_ROUND = 3  # set-up probes before each untraced round
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


class RoundFailed(RuntimeError):
    pass


def launch(workload, mode, work_dir, deadline):
    """One CLI run. Returns (set-up s, wall s, peak RSS MB, layer dict, stdout)."""
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result = os.path.join(work_dir, "launch.json")
    if os.path.exists(result):
        os.unlink(result)
    stdout_path = os.path.join(work_dir, "stdout.txt")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.path.abspath("src"),
           "BABELKIT_THREADS": THREADS, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), result, mode,
           workload.first_work, "--", *workload.argv(out_dir)]
    with open(stdout_path, "w") as out, open(os.path.join(work_dir, "stderr.txt"), "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        try:
            proc.wait(max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RoundFailed("CLI run killed at the deadline") from None
    if proc.returncode != 0:
        raise RoundFailed(f"CLI exited with {proc.returncode}; see {work_dir}/stderr.txt")
    with open(result, encoding="utf-8") as fh:
        rec = json.load(fh)
    with open(stdout_path, encoding="utf-8") as fh:
        stdout = fh.read()
    setup = rec["t_first"] - t_spawn
    wall = rec["t_done"] - rec["t_first"]
    return setup, wall, rec["peak_rss_kb"] / 1024.0, rec.get("layers"), stdout


def measure(workload, seconds, trace, work_dir, deadline):
    mode = "trace" if trace else "run"
    t0 = time.monotonic()
    setups, walls, rates, rss, traced = [], [], [], [], []
    attempted = failed = 0
    correct = True
    last = 0.0  # the latest round's duration: the first is longer where it checks more
    while attempted == 0 or time.monotonic() - t0 + last <= seconds:
        start = time.monotonic()
        attempted += 1
        try:
            if not trace:
                for _ in range(PROBES_PER_ROUND):
                    setups.append(launch(workload, "probe", work_dir, deadline)[0])
            setup, wall, peak, layer, stdout = launch(workload, mode, work_dir, deadline)
        except RoundFailed as exc:
            print(f"round {attempted}: {exc}", file=sys.stderr)
            failed += 1
            break
        try:
            items = workload.check(os.path.join(work_dir, "out"), stdout)
        except CheckError as exc:
            print(f"round {attempted}: check failed: {exc}", file=sys.stderr)
            correct = False
            break
        setups.append(setup)
        walls.append(wall)
        rates.append(items / wall)
        rss.append(peak)
        traced.append(layer)
        last = time.monotonic() - start
        print(f"round {attempted}: setup_s={setup:.4f} wall_s={wall:.4f} items={items} "
              f"peak_rss_mb={peak:.1f}", flush=True)

    if not walls:
        return correct, attempted, failed, {}
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return correct, attempted, failed, metrics

    metrics = {}
    for name, unit in layers.METRICS:
        values = [t[name] for t in traced]
        if unit == "count":
            if len(set(values)) != 1:
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
                correct = False
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "babelkit", "cli.py")):
        print("run from the root of a babelkit checkout (src/babelkit/cli.py not found)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload.prepare(args.seed, work_dir)
    correct, attempted, failed, metrics = measure(
        workload, args.seconds, args.trace, work_dir, deadline)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
