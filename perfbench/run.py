"""Benchmark of thermoseg part inspection, model training and the CLI path.

    python3 perfbench/run.py --workload inspect-4class --seed 1 \
        --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes started one after another (see
worker.py), with one BLAS thread. With --trace 0 a run starts one
process that sets up and then repeats whole timed passes until they add
up to --seconds (at least one pass), and further set-up-only processes until
it has SETUP_SAMPLES set-up times. It prints the median pass time, the
median set-up time and the peak resident memory. With --trace 1 it runs
one traced pass and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("inspect-4class", "train-4class", "cli-2class")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child(workload, seed, mode, trace, seconds, deadline):
    """Run worker.py once; its parsed result line."""
    out = os.path.join(OUT, f"{workload}-{seed}-{mode}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} process")
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--t0", repr(t0),
            "--mode", mode, "--trace", str(trace), "--seconds", str(seconds),
            "--out", out]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process passed the run limit")
    finally:
        if trace and os.path.exists(os.path.join(out, "spans.json")):
            shutil.copy(os.path.join(out, "spans.json"),
                        os.path.join(OUT, f"spans-{workload}-{seed}.json"))
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: {mode} process exited "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: {mode} process printed no result")
    return json.loads(lines[-1])


def _tally(result):
    """(correct, attempted, failed) over the measured passes."""
    for name, ok, detail in result["ops"]:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    rejected = [name for name, rej in result["selftests"] if rej]
    for name, rej in result["selftests"]:
        if not rej:
            print(f"  check {name} accepted a damaged output", file=sys.stderr)
    print(f"  {len(rejected)}/{len(result['selftests'])} damaged outputs "
          f"rejected by their checks", file=sys.stderr)
    failed = sum(not ok for _, ok, _ in result["ops"])
    correct = len(rejected) == len(result["selftests"])
    return correct, len(result["ops"]), failed


def run_workload(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    full = _child(workload, seed, "full", trace, seconds, deadline)
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in full["layers"].items()}
    else:
        setups = [full["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child(workload, seed, "setup", 0, seconds,
                                 deadline)["setup_s"])
        values = {"wall_s": full["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": full["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print("  timed passes " + ", ".join(f"{v:.3f}" for v in full["pass_s"])
              + " s; set-up samples " + ", ".join(f"{v:.3f}" for v in setups)
              + " s", file=sys.stderr)
    correct, attempted, failed = _tally(full)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "thermoseg", "cli.py")):
        print(f"error: no thermoseg sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"{name} (seed {args.seed}, trace {args.trace})",
                  file=sys.stderr)
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            for metric, m in results[name]["metrics"].items():
                print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
