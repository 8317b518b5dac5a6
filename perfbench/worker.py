"""One benchmark process: set up one workload, then run its closed loop.

Run by ``run.py`` in a fresh interpreter, so the library's caches start cold.
It prints ``READY`` once the package is imported and the inputs are
generated, then (unless ``--setup-only``) runs whole rounds until the timed
operations have taken ``--seconds`` (or the workload's ``max_rounds`` are
done), then the workload's defect probe, and prints one JSON line with every
operation's kind, label, latency and status.  Probe calls are kept apart
from the timed operations: they count a known defect and time nothing that
the end-to-end metrics report.

Timings are scaled to a reference host speed.  The speed of a shared VM
drifts by a quarter or more over minutes, which would swamp the differences
the benchmark is meant to show.  So the worker times a fixed pure-Python
calibration kernel every ``CAL_EVERY_S`` seconds and multiplies each
latency by ``CAL_REF_S`` over the median of the last few calibrations.  On a
host where the kernel takes ``CAL_REF_S``, scaled and measured times agree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

# Seconds the calibration kernel takes at the reference speed (about its
# median on a 2-core x86 VM).
CAL_REF_S = 0.003
CAL_EVERY_S = 0.2
CAL_WINDOW = 5
# Peak RSS is read after this many rounds (or at the end of a shorter run),
# so that it does not grow with the number of rounds a fast host fits in.
RSS_ROUNDS = 4

_TABLE = {i: (i * 7919) % 1013 for i in range(256)}


def _kernel() -> int:
    """Integer, dict, tuple, set and hash work of fixed size; everything it
    allocates is freed at once."""
    x = acc = 0
    for i in range(12000):
        x = (x + _TABLE[i & 255] * i) & 0xFFFF
    for i in range(2500):
        t = (i, i + 1, i & 7)
        s = {t[0] & 15, t[2], 3}
        acc += len(s) + _TABLE.get(t[1] & 255, 0) + (i in s)
        acc ^= hash(frozenset(s)) & 1
    return x + acc


def calibrate() -> float:
    """Seconds the kernel takes now, with the cycle collector paused so that
    the library's heap does not enter into it."""
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    from workloads import WORKLOADS, Checker, Wrong

    workload = WORKLOADS[args.workload](args.seed, Checker(args.corrupt))
    rounds = [workload.make_round(i) for i in range(workload.pool_rounds)]
    print("READY", flush=True)
    cals = [calibrate() for _ in range(3)]
    setup_scale = CAL_REF_S / statistics.median(cals)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0

    tracer = None
    if args.trace and args.workload != "cli":  # cli layers are per-subcommand latencies
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # (kind, label, scaled seconds, status, scale)
    records: list[tuple[str, str, float, str, float]] = []
    extras: dict[str, int] = {}
    errors: list[str] = []
    busy = 0.0
    index = 0
    maxrss = 0
    next_cal = perf_counter() + CAL_EVERY_S
    done = False

    def run_op(op, into):
        """Runs one op and appends its record to ``into``; returns the
        counts it reports."""
        if tracer:
            tracer.begin_op(len(records) + len(probes))
        start = perf_counter()
        try:
            counts = op.run()
            status = "ok"
        except Wrong as exc:
            counts, status = None, "wrong"
            errors.append(f"{op.kind} {op.label}: {exc}")
        except op.known:
            counts, status = None, "defect"
        except Exception as exc:  # an unexpected exception is a wrong answer
            counts, status = None, "wrong"
            errors.append(f"{op.kind} {op.label}: {exc!r}")
        end = perf_counter()
        if tracer:
            tracer.end_op(end)
        into.append((op.kind, op.label, (end - start) * scale, status, scale))
        return counts or {}

    probes: list[tuple[str, str, float, str, float]] = []
    scale = CAL_REF_S / statistics.median(cals)
    while not done:
        if index < len(rounds):
            ops = rounds[index]
        else:
            if tracer:
                tracer.begin_op(-1)
            ops = workload.make_round(index)
        for op in ops:
            if perf_counter() >= next_cal:
                cals.append(calibrate())
                next_cal = perf_counter() + CAL_EVERY_S
            scale = CAL_REF_S / statistics.median(cals[-CAL_WINDOW:])
            for key, value in run_op(op, records).items():
                extras[key] = extras.get(key, 0) + value
            busy += records[-1][2]
            if args.max_ops and len(records) >= args.max_ops:
                done = True
                break
        index += 1
        done = done or busy >= args.seconds or index == workload.max_rounds
        if index == RSS_ROUNDS or (done and index < RSS_ROUNDS):
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            maxrss = resource.getrusage(who).ru_maxrss

    if tracer:
        tracer.begin_op(-1)
    for op in workload.probe():
        run_op(op, probes)

    result = {
        "records": records,
        "probes": probes,
        "busy_s": busy,
        "rounds": index,
        "maxrss_kb": maxrss,
        "setup_scale": setup_scale,
        "host_speed": CAL_REF_S / statistics.median(cals),
        "errors": errors[:20],
    }
    if args.trace:
        from tracing import layer_metrics

        if tracer:
            tracer.uninstall()
        result["layers"] = layer_metrics(records, probes, extras, tracer, index)
        if tracer and args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
