"""Spans at the layer boundaries of the library, and the per-layer metrics.

The tracer wraps public functions at the module-level bindings through which
one layer calls another (``pipeline.all_cycles``, ``insertion.make_tableau``,
...), plus the package-level names the workloads call.  Each call records a
span: name, start, end, parent span and the operation it belongs to.  A
generator's span lasts until it is exhausted.  Spans stay in memory until
the run ends.  A binding that no longer exists is skipped, so its metrics
read zero instead of failing.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from statistics import fmean
from time import perf_counter

import domino_tableaux as dt

from workloads import ANNEAL_MIX, BOX_MIX, COUNT_SHAPES, INSERT_MIX, SPECIAL_INPUTS, VERIFY_SUITES

BINDINGS = {
    "domino_tableaux": (
        "rs",
        "rs_inverse",
        "orbital_tableau",
        "special_projection",
        "all_cycles",
        "move_through",
        "cycle_of",
        "unequal_length_domain",
        "type_d_domain",
        "wall_cross_unequal_length",
        "wall_cross_type_d",
    ),
    "domino_tableaux.pipeline": (
        "all_cycles",
        "move_through",
        "partitions_of",
        "candidate_moves",
        "is_special",
    ),
    "domino_tableaux.insertion": ("make_tableau",),
    "domino_tableaux.cycles": ("make_tableau",),
    "domino_tableaux.operators": ("move_through_extended", "make_tableau"),
}
LAYERS = ("insertion", "tableau", "cycles", "partitions", "pipeline", "operators")


def _count_cycles(counters, result):
    counters["cycles_classified"] += len(result)
    counters["open_cycles"] += sum(1 for cy in result if cy.open)


def _count_domain(counters, result):
    counters["domain_checks"] += 1
    counters["domain_defined"] += bool(result.defined)


RESULT_HOOKS = {
    "cycles.all_cycles": _count_cycles,
    "pipeline.orbital_tableau": lambda c, r: c.update(anneal_steps=len(r.trace)),
    "pipeline.candidate_moves": lambda c, r: c.update(candidates_considered=len(r)),
    "operators.unequal_length_domain": _count_domain,
    "operators.type_d_domain": _count_domain,
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, op, raised]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, names in BINDINGS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for attr in names:
                target = getattr(module, attr, None)
                if attr not in dt.__all__ or not callable(target):
                    continue
                layer = target.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self._wrap(target, f"{layer}.{attr}"))
                self._undo.append((module, attr, target))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self, end: float) -> None:
        """Close spans left open by an exception raised at the recursion
        limit, where the wrapper itself could not run."""
        for idx in self.stack:
            if self.spans[idx][2] is None:
                self.spans[idx][2] = end
                self.spans[idx][5] = True
        self.stack.clear()

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, False])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = raised
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            self.stack.remove(idx)

    def _wrap(self, target, name):
        hook = RESULT_HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = target(*args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            if inspect.isgenerator(result):
                return self._drain(idx, name, result)
            self._close(idx)
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def _drain(self, idx, name, gen):
        count = 0
        try:
            for item in gen:
                count += 1
                yield item
        finally:
            self.counters[f"{name}.yielded"] += count
            self._close(idx)

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart_s\tend_s\tparent\top\traised\n")
            for name, start, end, parent, op, raised in self.spans:
                parent = "" if parent is None else parent
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{int(raised)}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _op_ms(records, kind, label=None) -> float:
    """Mean latency (ms) of the ops of one kind, and of one label if given."""
    durs = [r[2] for r in records if r[0] == kind and label in (None, r[1])]
    return 1e3 * fmean(durs) if durs else 0.0


def layer_metrics(records, probes, extras, tracer: Tracer | None, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); zero where a layer did no
    work in this workload.  ``records`` (timed ops) and ``probes`` (defect
    probe calls) are (kind, label, scaled seconds, status, scale); span
    times are scaled like those of their operation.  Times and counts of the
    timed ops are per round of the workload's fixed mix, so they do not grow
    with the number of rounds that fit in the run; those of the probe, a
    fixed set of calls, are per probe."""
    ops = records + probes
    spans = tracer.spans if tracer else []
    counters = tracer.counters if tracer else Counter()
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    by_op_label: defaultdict = defaultdict(list)
    probe_total: defaultdict = defaultdict(float)
    failures = 0
    for i, (name, start, end, _, op, raised) in enumerate(spans):
        if op < 0:  # input generation, not an operation
            continue
        scale = ops[op][4]  # to the reference host speed, as for the op
        by_op_label[(name, ops[op][1])].append((end - start) * scale)
        if op >= len(records):  # the defect probe
            probe_total[name] += (end - start) * scale
            if name == "pipeline.special_projection":
                calls["probe.special_projection"] += 1
                failures += raised
            continue
        calls[name] += 1
        total[name] += (end - start) * scale
        self_s[name.split(".")[0]] += (end - start - child[i]) * scale

    def span_ms(name, label):
        durs = by_op_label.get((name, label))
        return 1e3 * fmean(durs) if durs else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["insertion.rs_s"] = (total["insertion.rs"], "s")
    m["insertion.rs_calls"] = (calls["insertion.rs"], "count")
    m["insertion.rs_inverse_s"] = (total["insertion.rs_inverse"], "s")
    for rank in INSERT_MIX:
        m[f"insertion.rs_ms.r{rank}"] = (span_ms("insertion.rs", f"r{rank}"), "ms")
    m["tableau.make_tableau_calls"] = (calls["tableau.make_tableau"], "count")
    m["tableau.make_tableau_s"] = (total["tableau.make_tableau"], "s")
    m["cycles.all_cycles_calls"] = (calls["cycles.all_cycles"], "count")
    m["cycles.all_cycles_s"] = (total["cycles.all_cycles"], "s")
    m["cycles.cycles_classified"] = (counters["cycles_classified"], "count")
    m["cycles.open_cycles"] = (counters["open_cycles"], "count")
    m["cycles.move_through_calls"] = (calls["cycles.move_through"], "count")
    m["cycles.move_through_s"] = (total["cycles.move_through"], "s")
    m["cycles.move_through_extended_s"] = (total["cycles.move_through_extended"], "s")
    for k in BOX_MIX:
        m[f"cycles.all_cycles_ms.k{k}"] = (span_ms("cycles.all_cycles", f"k{k}"), "ms")
    m["partitions.partitions_of_s"] = (total["partitions.partitions_of"], "s")
    m["partitions.partitions_yielded"] = (counters["partitions.partitions_of.yielded"], "count")
    m["partitions.is_special_calls"] = (calls["partitions.is_special"], "count")
    m["partitions.is_special_s"] = (total["partitions.is_special"], "s")
    m["pipeline.orbital_tableau_s"] = (total["pipeline.orbital_tableau"], "s")
    for rank in ANNEAL_MIX:
        m[f"pipeline.orbital_ms.r{rank}"] = (span_ms("pipeline.orbital_tableau", f"r{rank}"), "ms")
    m["pipeline.anneal_steps"] = (counters["anneal_steps"], "count")
    m["pipeline.candidate_moves_calls"] = (calls["pipeline.candidate_moves"], "count")
    m["pipeline.candidates_considered"] = (counters["candidates_considered"], "count")
    m["pipeline.candidate_yield"] = (
        _ratio(counters["anneal_steps"], counters["candidates_considered"]),
        "ratio",
    )
    specials = calls["probe.special_projection"]
    m["pipeline.special_projection_s"] = (probe_total["pipeline.special_projection"], "s/probe")
    m["pipeline.special_failures"] = (failures, "count/probe")
    m["pipeline.special_failure_share"] = (_ratio(failures, specials), "ratio")
    for rank in sorted({rank for rank, _ in SPECIAL_INPUTS}):
        m[f"pipeline.special_ms.r{rank}"] = (span_ms("pipeline.special_projection", f"r{rank}"), "ms")
    m["operators.unequal_length_s"] = (total["operators.wall_cross_unequal_length"], "s")
    m["operators.type_d_s"] = (total["operators.wall_cross_type_d"], "s")
    applied = calls["operators.wall_cross_unequal_length"] + calls["operators.wall_cross_type_d"]
    m["operators.applied"] = (applied, "count")
    m["operators.defined_ratio"] = (
        _ratio(counters["domain_defined"], counters["domain_checks"]),
        "ratio",
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")

    for label in COUNT_SHAPES:
        m[f"enumeration.count_sdt_ms.{label}"] = (_op_ms(records, "dtab.count", label), "ms")
    for label in (f"{suite}.{t}" for suite in VERIFY_SUITES for t in "CB"):
        m[f"enumeration.verify_ms.{label}"] = (_op_ms(records, "dtab.verify", label), "ms")
    m["enumeration.suite_instances"] = (extras.get("suite_instances", 0), "count")
    m["enumeration.suite_failures"] = (extras.get("suite_failures", 0), "count")
    m["cli.startup_ms"] = (_op_ms(records, "dtab.help"), "ms")
    for sub in ("rs", "inverse", "orbital", "cycles", "special", "op", "count", "verify"):
        m[f"cli.{sub}_ms"] = (_op_ms(records, f"dtab.{sub}"), "ms")
    cli_probes = [r for r in probes if r[0] == "dtab.special"]
    m["cli.special_defect_share"] = (
        _ratio(sum(1 for r in cli_probes if r[3] == "defect"), len(cli_probes)),
        "ratio",
    )
    m["trace.spans"] = (len(spans), "count")
    return {
        name: (value / rounds, f"{unit}/round") if unit in ("s", "count") else (value, unit)
        for name, (value, unit) in m.items()
    }

