"""End-to-end checks, one per release gate, each printing a summary line.

Run with -s to see every line; under plain pytest the lines surface only on
failure, where they pinpoint the gate that broke.
"""

import random
import time

from domino_tableaux.cli import VERIFY_MAX_RANK, build_parser
from domino_tableaux.cycles import move_through
from domino_tableaux.enumeration import verify_suite
from domino_tableaux.insertion import TableauPair, rs
from domino_tableaux.partitions import dominates, is_orbit_partition, is_special
from domino_tableaux.pipeline import orbital_tableau, special_projection
from domino_tableaux.signed_perm import enumerate_group, inverse
from suite_gates import GATES, TYPES
from test_cycles import _sdt_of_rank
from test_insertion import random_signed_perm
from test_pipeline import special_reachable


def _gate(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def _suite_gate(number):
    """Run the gate's suite at every rank up to its top rank in both types.
    Each report checks its own instance count where a closed form exists;
    the table's pins catch a suite without one that checks fewer."""
    name, top, _, pins = GATES[number]
    start = time.perf_counter()
    failures, instances = [], []
    for i, t in enumerate(TYPES):
        for n in range(1, top + 1):
            report = verify_suite(name, n, t)
            failures += [f"{t} n={n}: {failure}" for failure in report.failures]
            if n in pins and report.instances != pins[n][i]:
                failures.append(f"{t} n={n}: {report.instances} instances, pinned {pins[n]}")
        instances.append(report.instances)
    elapsed = time.perf_counter() - start
    detail = (
        f"{elapsed:.1f}s, n <= {top}, {instances[0]} (C) and {instances[1]} (B) "
        f"instances at rank {top}"
    )
    if failures:
        detail += f"; {len(failures)} failures, first {failures[0]}"
    _gate(number, name, not failures and elapsed < 10.0, detail)


def test_every_pin_is_at_a_rank_that_runs():
    for name, top, ci_ranks, pins in GATES.values():
        assert set(pins) <= set(range(1, top + 1)) | set(ci_ranks), name


def test_dtab_verify_accepts_every_gate_rank():
    # CI sends each of its rows to `dtab verify --n`, which refuses ranks
    # above VERIFY_MAX_RANK
    parser = build_parser()
    for name, top, ci_ranks, _ in GATES.values():
        for n in (*range(1, top + 1), *ci_ranks):
            args = parser.parse_args(["verify", "--type", "C", name, "--n", str(n)])
            assert args.n == n <= VERIFY_MAX_RANK, name


def test_criterion_01_rs_bijection():
    _suite_gate(1)


def test_criterion_02_counting_identity():
    _suite_gate(2)


def test_criterion_03_involution_criterion():
    _suite_gate(3)


def test_criterion_04_inverse_transpose():
    _suite_gate(4)


def test_criterion_05_cycle_algebra():
    _suite_gate(5)


def test_criterion_06_pipeline_soundness():
    ok = True
    elapsed_at_4 = 0.0
    for t in TYPES:
        for n in range(1, 5):
            start = time.perf_counter()
            for w in enumerate_group(n):
                left = rs(w, t).left
                result = orbital_tableau(left)  # raises = hard error
                ok = ok and is_orbit_partition(result.orbit, t)
                ok = ok and result.tableau.shape() == result.orbit
                # the steps chain from the left tableau down to the annealed one
                sources = [cy.source for cy in result.trace] + [result.tableau]
                ok = ok and sources[0] == left
                for cy, after in zip(result.trace, sources[1:]):
                    ok = ok and move_through(cy.source, cy) == after
                    before = cy.source.shape()
                    ok = ok and before != after.shape() and dominates(before, after.shape())
            if n == 4:
                elapsed_at_4 += time.perf_counter() - start
    _gate(
        6,
        "pipeline-soundness",
        ok and elapsed_at_4 < 60.0,
        "every element of rank <= 4: orbit partition, the tableau's shape, "
        f"steps chained and strictly descending; rank-4 pass {elapsed_at_4:.1f}s",
    )


def test_criterion_07_confluence():
    _suite_gate(7)


def test_criterion_08_parametrization():
    _suite_gate(8)


def test_criterion_09_operator_cell_compat():
    _suite_gate(9)


def test_criterion_10_special_projection():
    ok = True
    checked = 0
    for t in TYPES:
        for n in range(1, 7):
            for tab in _sdt_of_rank(n, t):
                checked += 1
                projected = special_projection(tab)
                ok = ok and special_reachable(tab) == {projected}
                ok = ok and is_special(projected.shape(), t)
                if is_special(tab.shape(), t):
                    ok = ok and projected is tab
                ok = ok and special_projection(projected) is projected
    _gate(
        10,
        "special-projection",
        ok,
        f"every tableau of rank <= 6, {checked} tableaux, the walk's unique "
        "special tableau, idempotent",
    )


def _random_involution(rng, n):
    """A signed involution: random 2-cycles and fixed points, random signs."""
    free = list(range(1, n + 1))
    rng.shuffle(free)
    w = [0] * n
    while free:
        i = free.pop()
        j = free.pop() if free and rng.random() < 0.5 else i
        sign = rng.choice((1, -1))
        w[i - 1], w[j - 1] = sign * j, sign * i
    return tuple(w)


def test_criterion_11_high_rank_properties():
    # Color-to-spin (Shimozono-White, EJC 2001): twice the number of negative
    # entries is the number of vertical dominoes in both tableaux.  Inverse
    # swap: rs(w^-1) is (R, L).  Symmetry: L == R for an involution.  Seeded
    # words and involutions at high rank; gates 1, 3 and 4 check all three on
    # every element of rank <= 5.
    rng = random.Random(112358)
    ok = True
    words = involutions = 0
    for t in TYPES:
        pairs = {}
        for n in (16, 64, 128):
            for _ in range(20):
                w, v = random_signed_perm(rng, n), _random_involution(rng, n)
                ok = ok and inverse(v) == v
                for u in (w, inverse(w), v):
                    pairs[u] = rs(u, t)
        for w, pair in pairs.items():
            vertical = sum(
                not d.horizontal for side in (pair.left, pair.right) for d in side.dominoes
            )
            ok = ok and 2 * sum(x < 0 for x in w) == vertical
            ok = ok and pairs[inverse(w)] == TableauPair(pair.right, pair.left)
            if inverse(w) == w:
                involutions += 1
                ok = ok and pair.left == pair.right
        words += len(pairs)
    _gate(
        11,
        "high-rank-properties",
        ok,
        f"20 seeded words and involutions per rank 16, 64, 128; {words} words, "
        f"{involutions} involutions",
    )
