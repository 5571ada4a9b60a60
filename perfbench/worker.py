"""One workload process: set-up, timed section, checks; one JSON line out.

Started by run.py, never imported. `--t0` is run.py's monotonic clock
just before it started this process (CLOCK_MONOTONIC is shared by all
processes), so set-up time includes interpreter start and imports.
The timed section is a series of passes (one inspected part, one trained
model, one pass through the CLI), repeated until the passes add up to
`--seconds`, at least once; a traced process makes one pass. Each pass is
checked after its timing ends. With `--mode setup` the process stops
where the timed section would begin and reports only its set-up time.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_pass(workload, ts, state):
    """One timed pass, then its checks (outside the timing)."""
    start = time.monotonic()
    try:
        outputs = workload.timed(ts, state)
        error = None
    except Exception as exc:   # every operation of the pass then fails
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.monotonic() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        ops, selftests = workload.verify(state, outputs)
    else:
        ops = [(name, False, error) for name in workload.OPS]
        selftests = []
    return {"wall_s": wall_s, "peak_rss_mb": peak, "ops": ops,
            "selftests": selftests}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--mode", choices=("full", "setup"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import thermoseg
    from thermoseg import cli, evaluate, features, ingest, nn, synthgen, tsr
    if not os.path.abspath(thermoseg.__file__).startswith(src + os.sep):
        raise SystemExit(f"thermoseg imported from {thermoseg.__file__}, "
                         f"not from {src}")
    ts = types.SimpleNamespace(cli=cli, evaluate=evaluate, features=features,
                               ingest=ingest, nn=nn, synthgen=synthgen,
                               tsr=tsr)
    import tracing
    from workloads import WORKLOADS

    tracer = restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, "thermoseg")
    workload = WORKLOADS[args.workload]()
    os.makedirs(args.out, exist_ok=True)
    state = workload.setup(ts, args.seed, args.out, tracer)

    start = time.monotonic()
    result = {"setup_s": start - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    passes = []
    while not passes or (not args.trace and sum(
            p["wall_s"] for p in passes) < args.seconds):
        passes.append(run_pass(workload, ts, state))
    result["wall_s"] = statistics.median(p["wall_s"] for p in passes)
    # later passes follow the checks of earlier ones, whose memory is ours
    result["peak_rss_mb"] = passes[0]["peak_rss_mb"]
    result["ops"] = [op for p in passes for op in p["ops"]]
    result["selftests"] = [t for p in passes for t in p["selftests"]]
    result["pass_s"] = [p["wall_s"] for p in passes]
    if tracer is not None:
        restore()
        tracer.write(os.path.join(args.out, "spans.json"))
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 result["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
