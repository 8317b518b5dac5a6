"""The four workloads: seeded inputs, the operations, and their output checks.

Every workload is a closed loop with one client.  A round is a fixed mix of
operations; the next operation starts when the previous one ends, and a run
is a whole number of rounds, so every run sees the stated mix exactly.  All
inputs come from the seed (the 2x2-box family and the `dtab` counting shapes
are fixed by definition); the library sees only the generated inputs.

No timed operation is expected to fail.  The one known defect,
`special_projection` raising RecursionError on a fifth of the inputs at
ranks 6-12, is measured by a defect probe instead: a fixed, seeded set of
calls that runs after the timed loop and reports how many of them hit it.

The workloads call the library only through names in
``domino_tableaux.__all__``, looked up on the package at call time so that
the traced run can wrap them.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import domino_tableaux as dt

PUBLIC_NAMES = (
    "Coloring",
    "all_cycles",
    "cycle_of",
    "dominates",
    "format_perm",
    "from_json_dict",
    "is_orbit_partition",
    "is_special",
    "make_tableau",
    "move_through",
    "orbital_tableau",
    "pair_from_json_dict",
    "pair_to_json_dict",
    "parse_perm",
    "rs",
    "rs_inverse",
    "special_projection",
    "type_d_domain",
    "unequal_length_domain",
    "wall_cross_type_d",
    "wall_cross_unequal_length",
)
_missing = [name for name in PUBLIC_NAMES if name not in dt.__all__]
if _missing:
    raise ImportError(f"domino_tableaux.__all__ lacks {_missing}")

# Ops per type per round.  The cheapest group holds more than half of the
# ops and the most expensive one more than ten per run, so the median and
# the tail percentile each fall inside one size group, never between two.
ANNEAL_MIX = {8: 36, 12: 3, 16: 1, 20: 1, 24: 2}
INSERT_MIX = {16: 24, 32: 3, 64: 2, 128: 2}
# Type-C ops per round on the 2x2-box family, by number of boxes k.  Each
# op gets a tableau no earlier op has seen, so it runs with cold caches.
# k is capped at 8: on a 2-core x86 VM a cold op takes about 45 ms at k=6,
# 0.3 s at k=8, 1.2 s at k=10 and 10 s at k=12, and the tail percentile
# needs more than ten ops of the top group in every run.
BOX_MIX = {4: 1, 6: 16, 8: 3}
# Label offsets of successive box ops step by this, above any 2k.
BOX_LABEL_STRIDE = 100
# Random insertion tableaux stop at rank 16: above it the per-op cost is
# heavy-tailed (rank 20, type C: mean 0.41 s, sd 0.33 s, max 1.2 s; rank 24
# up to 8.5 s), so a few inputs would decide a run's throughput.
RANDOM_RANK = 16
# The cycles defect probe: special_projection on recording tableaux of
# random signed permutations, SPECIAL_PROBE_REPEATS of each (rank, type).  A
# successful call takes under a millisecond, one that hits the defect
# 0.1-0.35 s; the probe takes about 2 s.
SPECIAL_INPUTS = ((6, "C"), (8, "B"), (10, "C"), (12, "B"), (6, "B"), (8, "C"), (10, "B"), (12, "C"))
SPECIAL_PROBE_REPEATS = 4
# Ranks of the timed `dtab special` calls.  At rank 5 and below the
# projection never hits the defect (0 of 1,200 sampled); the cli defect probe
# covers ranks 6-8.
CLI_SPECIAL_RANKS = (4, 5)
CLI_PROBE_RANKS = (6, 7, 8, 6, 7, 8)
# The defect's witness: rank 6, type C, right shape (4,3,3,1,1).
WITNESS = ((1, 2, -6, -3, -5, -4), "C")
# `dtab count` runs per script, by shape: the size-60 count repeats so that
# the cli tail percentile falls inside its group, below the verification
# suites.
COUNT_RUNS = {"s40": 1, "s60": 12, "s84": 1}
COUNT_SHAPES = {
    "s40": (8, 8, 6, 6, 4, 4, 2, 2),
    "s60": (10, 10, 8, 8, 6, 6, 4, 4, 2, 2),
    "s84": (12, 12, 10, 10, 8, 8, 6, 6, 4, 4, 2, 2),
}
VERIFY_SUITES = ("pipeline-confluence", "cycle-involution")
DTAB_TIMEOUT_S = 120
# In the defect probes, the RecursionError of `special_projection` counts as
# the known defect; any other exception or `dtab` error is a wrong answer.
RECURSION_MESSAGE = "maximum recursion depth exceeded"


class Wrong(Exception):
    """An output check failed."""


class KnownDefect(Exception):
    """`dtab special` exited 1 on the RecursionError of `special_projection`."""


class Checker:
    """Output checks.  With ``corrupt`` every expected value is replaced by
    one that matches nothing, which shows that the checks run."""

    _NOTHING = object()

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt

    def eq(self, actual, expected, what: str) -> None:
        if self.corrupt:
            expected = self._NOTHING
        if actual != expected:
            raise Wrong(what)

    def true(self, cond, what: str) -> None:
        self.eq(bool(cond), True, what)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], dict | None]
    known: tuple[type[BaseException], ...] = ()


def signed_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v if rng.random() < 0.5 else -v for v in values)


def box_tableau(k: int, offset: int):
    """k side-by-side 2x2 boxes, each filled by two vertical dominoes, with
    labels offset+1..offset+2k.  Tableaux with labels that have gaps are
    valid library inputs; a fresh offset gives a tableau, and tableaux moved
    from it, that no earlier operation has seen, so the library's caches
    cannot answer for it."""
    dominoes = [(offset + i, ((1, i), (2, i))) for i in range(1, 2 * k + 1)]
    return dt.make_tableau("C", dominoes, require_contiguous=False)


class Workload:
    name = ""
    pool_rounds = 0  # rounds generated during set-up; later ones on demand
    max_rounds: int | None = None  # else rounds until --seconds of busy time

    def __init__(self, seed: int, check: Checker):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.probe_rng = random.Random(f"{self.name}-probe-{seed}")
        self.check = check

    def make_round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> list[Op]:
        """Untimed calls that count a known defect; their ``known``
        exceptions are the defect."""
        return []


class Anneal(Workload):
    """rs, rs_inverse and orbital_tableau on random signed permutations."""

    name = "anneal"
    pool_rounds = 16

    def make_round(self, index):
        ops = [
            Op("anneal", f"r{rank}", partial(self.op, signed_perm(self.rng, rank), lie_type))
            for rank, count in ANNEAL_MIX.items()
            for lie_type in "CB"
            for _ in range(count)
        ]
        self.rng.shuffle(ops)
        return ops

    def op(self, w, lie_type):
        c = self.check
        pair = dt.rs(w, lie_type)
        c.eq(dt.rs_inverse(pair), w, "rs_inverse round trip")
        result = dt.orbital_tableau(pair.left)
        c.true(dt.is_orbit_partition(result.orbit, lie_type), "orbit is an orbit partition")
        c.true(dt.dominates(pair.left.shape(), result.orbit), "insertion shape dominates orbit")
        c.eq(result.tableau.shape(), result.orbit, "annealed tableau has the orbit shape")
        for domain, apply in (
            (dt.unequal_length_domain, dt.wall_cross_unequal_length),
            (dt.type_d_domain, dt.wall_cross_type_d),
        ):
            if domain(pair).defined:
                out = apply(pair)
                c.eq(dt.rs(dt.rs_inverse(out), lie_type), out, "operator image is an rs pair")


class Insert(Workload):
    """rs then rs_inverse on long random signed permutations."""

    name = "insert"
    pool_rounds = 64

    def make_round(self, index):
        ops = [
            Op("insert", f"r{rank}", partial(self.op, signed_perm(self.rng, rank), lie_type))
            for rank, count in INSERT_MIX.items()
            for lie_type in "CB"
            for _ in range(count)
        ]
        self.rng.shuffle(ops)
        return ops

    def op(self, w, lie_type):
        pair = dt.rs(w, lie_type)
        self.check.eq(dt.rs_inverse(pair), w, "rs_inverse round trip")


class Cycles(Workload):
    """The cycle engine on the 2x2-box family and on random insertion
    tableaux; its probe runs special_projection on random recording
    tableaux."""

    name = "cycles"
    pool_rounds = 16

    def __init__(self, seed, check):
        super().__init__(seed, check)
        self.box_ops = 0

    def box_op(self, k):
        self.box_ops += 1
        return Op("box", f"k{k}", partial(self.cycle_op, box_tableau(k, BOX_LABEL_STRIDE * self.box_ops)))

    def make_round(self, index):
        ops = [self.box_op(k) for k, count in BOX_MIX.items() for _ in range(count)]
        for lie_type in "CB":
            left = dt.rs(signed_perm(self.rng, RANDOM_RANK), lie_type).left
            ops.append(Op("random", f"r{RANDOM_RANK}", partial(self.cycle_op, left)))
        self.rng.shuffle(ops)
        return ops

    def probe(self):
        return [
            Op("special", f"r{rank}", partial(self.special_op, right), (RecursionError,))
            for _ in range(SPECIAL_PROBE_REPEATS)
            for rank, lie_type in SPECIAL_INPUTS
            for right in [dt.rs(signed_perm(self.probe_rng, rank), lie_type).right]
        ]

    def cycle_op(self, tab):
        c = self.check
        for coloring in dt.Coloring:
            cycles = dt.all_cycles(tab, coloring)
            labels = sorted(label for cy in cycles for label in cy.labels)
            c.eq(labels, sorted(tab.labels()), "cycles partition the labels")
            for cy in cycles:
                moved = dt.move_through(tab, cy)
                back = dt.move_through(moved, dt.cycle_of(moved, min(cy.labels), coloring))
                c.eq(back, tab, "moving back through the cycle restores the tableau")

    def special_op(self, tab):
        out = dt.special_projection(tab)
        self.check.true(dt.is_special(out.shape(), tab.lie_type), "projection has special shape")


def _count_syt(shape) -> int:
    """Standard Young tableaux of a shape, by the hook-length formula."""
    if not shape:
        return 1
    cols = [sum(1 for p in shape if p > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(sum(shape)) // hooks


def count_domino_tableaux(shape) -> int:
    """Standard domino tableaux of a shape with empty 2-core, from its
    2-quotient (q0, q1): C(|q0|+|q1|, |q0|) * f(q0) * f(q1).  This is an
    oracle independent of the library's chain recursion."""
    m = len(shape) + len(shape) % 2
    parts = list(shape) + [0] * (m - len(shape))
    beta = [p + m - 1 - i for i, p in enumerate(parts)]
    quotient = []
    for runner in (0, 1):
        beads = sorted((b // 2 for b in beta if b % 2 == runner), reverse=True)
        if len(beads) != m // 2:
            raise ValueError(f"{shape} has a non-empty 2-core")
        quotient.append(tuple(p for i, b in enumerate(beads) if (p := b - (len(beads) - 1 - i))))
    a, b = (sum(q) for q in quotient)
    return math.comb(a + b, a) * _count_syt(quotient[0]) * _count_syt(quotient[1])


class Cli(Workload):
    """A fixed script of `dtab` subprocesses.  One round is the whole script:
    blocks of small commands, each followed by two of the counting and
    verification commands, so that the small commands, which set the median,
    are spread over the whole run rather than a few seconds of it.  A run is
    one round (about 25 s): every round adds five ops above the size-60
    counts, so with two rounds the tail would leave that group."""

    name = "cli"
    pool_rounds = 1
    max_rounds = 1
    small_blocks = 9

    def make_round(self, index):
        heavy = [
            Op("dtab.count", label, partial(self.count_op, shape))
            for label, shape in COUNT_SHAPES.items()
            for _ in range(COUNT_RUNS[label])
        ]
        heavy += [
            Op("dtab.verify", f"{suite}.{lie_type}", partial(self.verify_op, suite, lie_type))
            for suite in VERIFY_SUITES
            for lie_type in "CB"
        ]
        per_block = math.ceil(len(heavy) / self.small_blocks)
        ops = []
        for i in range(self.small_blocks):
            ops += self.small_block() + heavy[per_block * i : per_block * (i + 1)]
        return ops

    def small_block(self):
        def word(ranks):
            lie_type = self.rng.choice("CB")
            return signed_perm(self.rng, self.rng.choice(ranks)), lie_type

        ops = [Op("dtab.help", "", self.help_op)]
        for kind, fn in (
            ("rs", self.rs_op),
            ("inverse", self.inverse_op),
            ("orbital", self.orbital_op),
            ("cycles", self.cycles_op),
            ("special", self.special_op),
            ("op", self.operator_op),
        ):
            w, lie_type = word(CLI_SPECIAL_RANKS if kind == "special" else (6, 7, 8))
            ops.append(Op(f"dtab.{kind}", f"r{len(w)}", partial(fn, w, lie_type, dt.rs(w, lie_type))))
        return ops

    def probe(self):
        words = [WITNESS] + [
            (signed_perm(self.probe_rng, rank), self.probe_rng.choice("CB")) for rank in CLI_PROBE_RANKS
        ]
        return [
            Op("dtab.special", f"r{len(w)}", partial(self.special_op, w, lie_type, None), (KnownDefect,))
            for w, lie_type in words
        ]

    @staticmethod
    def dtab(*argv: str):
        proc = subprocess.run(
            [sys.executable, "-m", "domino_tableaux.cli", *argv],
            capture_output=True,
            text=True,
            timeout=DTAB_TIMEOUT_S,
        )
        if proc.returncode not in (0, 1, 2) or "Traceback" in proc.stderr:
            raise Wrong(f"dtab {argv[0]} broke the exit-code contract ({proc.returncode})")
        return proc

    def json_out(self, proc, want_rc=0) -> dict:
        self.check.eq(proc.returncode, want_rc, "exit code")
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise Wrong(f"stdout is not JSON: {exc}") from exc

    def help_op(self):
        proc = self.dtab("--help")
        self.check.eq(proc.returncode, 0, "exit code")
        self.check.true(proc.stdout.startswith("usage: dtab"), "help text")

    def rs_op(self, w, lie_type, pair):
        doc = self.json_out(self.dtab("rs", "--type", lie_type, dt.format_perm(w)))
        self.check.eq(dt.rs_inverse(dt.pair_from_json_dict(doc)), w, "rs output inverts to w")

    def inverse_op(self, w, lie_type, pair):
        doc = self.json_out(self.dtab("inverse", json.dumps(dt.pair_to_json_dict(pair))))
        self.check.eq(dt.parse_perm(doc["word"]), w, "inverse gives w back")

    def orbital_op(self, w, lie_type, pair):
        doc = self.json_out(self.dtab("orbital", "--type", lie_type, dt.format_perm(w)))
        orbit = tuple(doc["orbit"])
        self.check.true(dt.is_orbit_partition(orbit, lie_type), "orbit is an orbit partition")
        self.check.true(dt.dominates(pair.left.shape(), orbit), "insertion shape dominates orbit")
        self.check.eq(dt.from_json_dict(doc["tableau"]).shape(), orbit, "tableau has orbit shape")
        self.check.true(isinstance(doc["trace"], list), "trace is a list")

    def cycles_op(self, w, lie_type, pair):
        doc = self.json_out(self.dtab("cycles", "--type", lie_type, dt.format_perm(w)))
        for coloring in ("native", "typeD"):
            labels = sorted(
                label for cy in doc["cycles"] if cy["coloring"] == coloring for label in cy["labels"]
            )
            self.check.eq(labels, list(range(1, len(w) + 1)), "cycles partition the labels")

    def special_op(self, w, lie_type, pair):
        proc = self.dtab("special", "--type", lie_type, dt.format_perm(w))
        if proc.returncode == 1 and RECURSION_MESSAGE in proc.stderr:
            raise KnownDefect(proc.stderr.strip())
        doc = self.json_out(proc)
        shape = dt.from_json_dict(doc["tableau"]).shape()
        self.check.true(dt.is_special(shape, lie_type), "projection has special shape")

    def operator_op(self, w, lie_type, pair):
        proc = self.dtab("op", "unequal-length", json.dumps(dt.pair_to_json_dict(pair)))
        if proc.returncode == 1:
            doc = self.json_out(proc, want_rc=1)
            self.check.eq(doc.get("defined"), False, "exit 1 carries an undefined-domain report")
            return
        out = dt.pair_from_json_dict(self.json_out(proc))
        self.check.eq(dt.rs(dt.rs_inverse(out), lie_type), out, "operator image is an rs pair")

    def count_op(self, shape):
        doc = self.json_out(self.dtab("count", "--type", "C", json.dumps(list(shape))))
        want = {"count": count_domino_tableaux(shape), "shape": list(shape), "type": "C"}
        self.check.eq(doc, want, "count matches the 2-quotient formula")

    def verify_op(self, suite, lie_type):
        proc = self.dtab("verify", "--type", lie_type, suite, "--n", "5")
        self.check.true(proc.returncode in (0, 1), "verify exits 0 or 1")
        doc = self.json_out(proc, want_rc=proc.returncode)
        passed = proc.returncode == 0
        self.check.eq((doc["passed"], not doc["failures"]), (passed, passed), "report agrees with exit")
        self.check.eq((doc["suite"], doc["type"], doc["n"]), (suite, lie_type, 5), "report header")
        self.check.true(doc["instances"] > 0, "suite ran instances")
        return {"suite_instances": doc["instances"], "suite_failures": len(doc["failures"])}


WORKLOADS = {cls.name: cls for cls in (Anneal, Cycles, Insert, Cli)}
