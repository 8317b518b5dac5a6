"""Benchmark for the domino_tableaux library and its `dtab` CLI (stdlib only).

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # one row per workload
    python3 perfbench/run.py --smoke                      # self-check, ~25 s

Run from a checkout root holding ``src/domino_tableaux``.  Workloads:
``anneal``, ``cycles``, ``insert`` and ``cli`` (see ``workloads.py``).  Each
run starts fresh worker processes (``worker.py``), so the library's caches
start cold.  Set-up (interpreter start, import, input generation) is timed
in several fresh processes and reported as their median.  Times are scaled
to a reference host speed measured by a calibration kernel (see
``worker.py``); each row shows the host's speed relative to it.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones, measured without tracing.  With ``--trace 1`` a worker
runs untraced for half of ``--seconds`` and a traced one for the other
half; the metrics are the per-layer ones, per round of the workload's mix,
plus ``trace.overhead``, the share of ``ops_per_s`` lost to tracing.  Spans
go to ``perfbench/out/``.  ``cli`` wraps nothing: its layers are the
latencies of the `dtab` subcommands, from one worker, and its overhead is 0.

No timed operation is expected to fail; ``failed`` counts wrong answers.
The known `special_projection` RecursionError is counted by the untimed
defect probes of ``cycles`` and ``cli`` (``special_defects`` in their rows,
``pipeline.special_failure_share`` and ``cli.special_defect_share`` in the
traced metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("anneal", "cycles", "insert", "cli")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170
SMOKE_OPS = 9
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _start(workload: str, seed: int, deadline: float, *flags: str) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it once it has set up, with the set-up time
    from process start to its READY line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.Popen(argv + list(flags), stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    ready = select.select([proc.stdout], [], [], max(1.0, deadline - start))[0]
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, setup


def _wait(proc: subprocess.Popen, deadline: float) -> str:
    """The rest of a worker's stdout once it has exited with code 0."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_worker(workload, seed, seconds, deadline, max_ops=0, trace=False, corrupt=False, setups=1):
    """One timed worker after ``setups - 1`` set-up-only processes."""
    samples = []
    for _ in range(setups - 1):
        proc, setup = _start(workload, seed, deadline, "--setup-only")
        samples.append(setup * json.loads(_wait(proc, deadline))["setup_scale"])
    flags = ["--seconds", str(seconds), "--max-ops", str(max_ops)]
    if trace:
        flags += ["--trace", "--spans-out", str(HERE / "out" / f"spans-{workload}.tsv")]
    if corrupt:
        flags.append("--corrupt")
    proc, setup = _start(workload, seed, deadline, *flags)
    out = _wait(proc, deadline).strip()
    if not out:
        raise BenchError(f"{workload} worker printed no result")
    result = json.loads(out.splitlines()[-1])
    result["setup_samples"] = samples + [setup * result["setup_scale"]]
    return result


def summarize(result: dict) -> dict:
    durs = sorted(r[2] for r in result["records"])
    n = len(durs)
    failed = sum(1 for r in result["records"] if r[3] != "ok")
    probes = result["probes"]
    # the highest percentile that still has at least ten samples beyond it
    # (the maximum when there are too few samples for that)
    tail_index = n - 11 if n > 10 else n - 1
    return {
        "attempted": n,
        "failed": failed,
        "correct": all(r[3] != "wrong" for r in result["records"] + probes),
        "probed": len(probes),
        "defects": sum(1 for r in probes if r[3] == "defect"),
        "ops_per_s": n / result["busy_s"],
        "op_p50_ms": 1e3 * statistics.median(durs),
        "op_tail_ms": 1e3 * durs[tail_index],
        "tail_pct": 100.0 * (tail_index + 1) / n,
        "tail_beyond": n - 1 - tail_index,
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def measure(workload, seed, seconds, trace, max_ops=0, corrupt=False, setups=SETUP_SAMPLES):
    """One benchmark run; prints its report lines and returns the result
    object of the contract's last line."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    if not trace:
        raw = run_worker(workload, seed, seconds, deadline, max_ops, corrupt=corrupt, setups=setups)
        s = summarize(raw)
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(
            f"{workload:7s} seed={seed} setup_s={s['setup_s']:.4f} s"
            f"  ops_per_s={s['ops_per_s']:.3f} ops/s  op_p50_ms={s['op_p50_ms']:.3f} ms"
            f"  op_tail_ms={s['op_tail_ms']:.3f} ms (p{s['tail_pct']:.1f}, {s['tail_beyond']} beyond,"
            f" n={s['attempted']})  error_rate={s['failed'] / s['attempted']:.4f} ratio"
            f" ({s['failed']} of {s['attempted']})  peak_rss_mb={s['peak_rss_mb']:.1f} MB"
            f"  host_speed={raw['host_speed']:.3f}"
            + (f"  special_defects={s['defects']} of {s['probed']} probed" if s["probed"] else "")
        )
        for line in raw["errors"]:
            print(f"  wrong: {line}")
        return {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}

    if workload == "cli":  # its layers are per-subcommand latencies; nothing is wrapped
        raw = run_worker(workload, seed, seconds, deadline, max_ops, trace=True, corrupt=corrupt)
        plain = traced = summarize(raw)
    else:
        half = seconds / 2
        plain = summarize(run_worker(workload, seed, half, deadline, max_ops, corrupt=corrupt))
        raw = run_worker(workload, seed, half, deadline, max_ops, trace=True, corrupt=corrupt)
        traced = summarize(raw)
    layers = {name: {"value": v, "unit": u} for name, (v, u) in raw["layers"].items()}
    overhead = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
    layers["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    for name, m in layers.items():
        print(f"{workload:7s} {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": layers,
    }


def smoke() -> None:
    """Every workload for a handful of ops: every metric named in
    BENCHMARK.json is printed with its unit, and a deliberately wrong
    expected value is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != E2E_UNITS:
        raise BenchError(f"BENCHMARK.json end_to_end {e2e} != {E2E_UNITS}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_NAMES):
        raise BenchError("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOAD_NAMES:
        for trace, want in ((False, e2e), (True, layer)):
            got = measure(workload, 1, 0, trace, max_ops=SMOKE_OPS, setups=1)
            units = {name: m["unit"] for name, m in got["metrics"].items()}
            if units != want or not got["correct"]:
                missing = sorted(set(want.items()) ^ set(units.items()))
                raise BenchError(f"{workload} trace={trace}: correct={got['correct']} mismatch {missing}")
        bad = measure(workload, 1, 0, False, max_ops=SMOKE_OPS, corrupt=True, setups=1)
        if bad["correct"] or bad["failed"] != bad["attempted"]:
            raise BenchError(f"{workload}: a wrong expected value went unnoticed")
    print("smoke: ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "domino_tableaux" / "__init__.py").is_file():
        print(f"error: no domino_tableaux package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            out = {w: measure(w, args.seed, args.seconds, args.trace) for w in WORKLOAD_NAMES}
            print(json.dumps(out))
            return 0
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
