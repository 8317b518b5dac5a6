"""End-to-end checks, one per release gate, each printing a summary line.

Run with -s to see every line; under plain pytest the lines surface only on
failure, where they pinpoint the gate that broke.
"""

import math
import random
import time
from collections import Counter

from domino_tableaux.cycles import Coloring, all_cycles, cycle_of, move_through
from domino_tableaux.enumeration import all_sdt, count_sdt
from domino_tableaux.insertion import TableauPair, rs, rs_inverse
from domino_tableaux.operators import (
    equal_length_domain,
    type_d_domain,
    unequal_length_domain,
    wall_cross_equal_length,
    wall_cross_type_d,
    wall_cross_unequal_length,
)
from domino_tableaux.partitions import (
    dominates,
    is_orbit_partition,
    is_special,
    partitions_of,
)
from domino_tableaux.pipeline import orbital_tableau, special_projection
from domino_tableaux.signed_perm import enumerate_group, inverse
from test_insertion import random_signed_perm
from test_pipeline import special_reachable

TYPES = ("C", "B")


def _gate(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def _cells(lie_type, n):
    return 2 * n + (1 if lie_type == "B" else 0)


def _standard_tableaux(n, lie_type):
    # the left tableaux of the rank-n group, since rs is a bijection onto
    # same-shape pairs (tests/test_enumeration.py checks this at rank <= 5)
    shapes = partitions_of(_cells(lie_type, n))
    return [tab for shape in shapes for tab in all_sdt(shape, lie_type)]


def test_criterion_01_rs_bijection():
    start = time.perf_counter()
    ok = all(
        rs_inverse(rs(w, t)) == w
        for t in TYPES
        for n in range(1, 6)
        for w in enumerate_group(n)
    )
    elapsed = time.perf_counter() - start
    _gate(1, "rs-bijection", ok and elapsed < 10.0, f"{elapsed:.1f}s, n <= 5")


def test_criterion_02_counting_identity():
    ok = all(
        sum(count_sdt(shape, t) ** 2 for shape in partitions_of(_cells(t, n)))
        == 2**n * math.factorial(n)
        for t in TYPES
        for n in range(1, 6)
    )
    _gate(2, "counting-identity", ok, "n <= 5")


def test_criterion_03_involution_criterion():
    ok = True
    for t in TYPES:
        for n in range(1, 5):
            involutions = 0
            for w in enumerate_group(n):
                pair = rs(w, t)
                is_involution = inverse(w) == w
                involutions += is_involution
                ok = ok and (is_involution == (pair.left == pair.right))
            total = sum(count_sdt(s, t) for s in partitions_of(_cells(t, n)))
            ok = ok and involutions == total
    _gate(3, "involution-criterion", ok, "n <= 4")


def test_criterion_04_inverse_transpose():
    ok = all(
        rs(inverse(w), t).left == rs(w, t).right
        for t in TYPES
        for n in range(1, 5)
        for w in enumerate_group(n)
    )
    _gate(4, "inverse-transpose", ok, "n <= 4")


def test_criterion_05_cycle_algebra():
    ok = True
    for t in TYPES:
        for n in range(1, 6):
            for tab in _standard_tableaux(n, t):
                labels = set(tab.labels())
                for coloring in Coloring:
                    cycles = all_cycles(tab, coloring)
                    seen = [k for cy in cycles for k in cy.labels]
                    ok = ok and sorted(seen) == sorted(labels)
                    for cy in cycles:
                        moved = move_through(tab, cy)
                        back = move_through(
                            moved, cycle_of(moved, cy.labels[0], coloring)
                        )
                        ok = ok and back == tab
                        old, new = set(tab.cells()), set(moved.cells())
                        if cy.open:
                            ok = ok and old - new == {cy.hole}
                            ok = ok and new - old == {cy.corner}
                        else:
                            ok = ok and moved.shape() == tab.shape()
    _gate(5, "cycle-algebra", ok, "n <= 5, both colorings")


def test_criterion_06_pipeline_soundness():
    ok = True
    elapsed_at_4 = 0.0
    for t in TYPES:
        for n in range(1, 5):
            start = time.perf_counter()
            for w in enumerate_group(n):
                result = orbital_tableau(rs(w, t).left)  # raises = hard error
                ok = ok and is_orbit_partition(result.orbit, t)
                shapes = [
                    result.trace[0].shape_before if result.trace else result.orbit
                ] + [s.shape_after for s in result.trace]
                for before, after in zip(shapes, shapes[1:]):
                    ok = ok and before != after and dominates(before, after)
            if n == 4:
                elapsed_at_4 += time.perf_counter() - start
    _gate(
        6,
        "pipeline-soundness",
        ok and elapsed_at_4 < 60.0,
        f"n <= 4, rank-4 pass {elapsed_at_4:.1f}s",
    )


def test_criterion_07_confluence():
    from domino_tableaux.enumeration import _terminals

    ok = True
    instances = 0
    # every standard tableau of rank <= 4, which subsumes the 500-element
    # randomized floor; rank 5 is the known non-confluent case (ROADMAP)
    for t in TYPES:
        memo = {}
        for n in range(1, 5):
            for tab in _standard_tableaux(n, t):
                instances += 1
                terminals = _terminals(tab, memo)
                ok = ok and len(terminals) == 1
                ok = ok and next(iter(terminals)) == orbital_tableau(tab).tableau
    _gate(7, "confluence", ok, f"exhaustive n <= 4, {instances} tableaux")


def test_criterion_08_parametrization():
    ok = True
    for t in TYPES:
        for n in range(1, 4):
            fibers = Counter(
                orbital_tableau(rs(w, t).left).tableau for w in enumerate_group(n)
            )
            expected = {
                tab
                for shape in partitions_of(_cells(t, n))
                if is_orbit_partition(shape, t)
                for tab in all_sdt(shape, t)
            }
            ok = ok and set(fibers) == expected and len(fibers) == len(expected)
    _gate(8, "parametrization", ok, "n <= 3, image = all orbit-shape tableaux")


def test_criterion_09_operator_cell_compat():
    ok = True
    applications = 0
    for t in TYPES:
        for n in range(1, 5):
            for w in enumerate_group(n):
                target = orbital_tableau(rs(w, t).left).tableau
                images = []
                for i in range(2, n):
                    if equal_length_domain(w, i, i + 1).defined:
                        images.append(wall_cross_equal_length(w, i, i + 1))
                pair = rs(w, t)
                if unequal_length_domain(pair).defined:
                    images.append(rs_inverse(wall_cross_unequal_length(pair)))
                if type_d_domain(pair).defined:
                    images.append(rs_inverse(wall_cross_type_d(pair)))
                for image in images:
                    applications += 1
                    moved = orbital_tableau(rs(image, t).left).tableau
                    ok = ok and moved == target
    # rank 5 is the known annealing defect (ROADMAP)
    _gate(9, "operator-cell-compat", ok, f"n <= 4, {applications} applications")


def test_criterion_10_special_projection():
    ok = True
    checked = 0
    for t in TYPES:
        for n in range(1, 7):
            for shape in partitions_of(_cells(t, n)):
                for tab in all_sdt(shape, t):
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
    # swap: rs(w^-1) is (R, L).  Symmetry: L == R for an involution.  Every
    # element of rank <= 5, and seeded words and involutions at high rank.
    rng = random.Random(112358)
    ok = True
    words = involutions = 0
    for t in TYPES:
        pairs = {w: rs(w, t) for n in range(1, 6) for w in enumerate_group(n)}
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
        f"every element of rank <= 5 and 20 seeded words and involutions per "
        f"rank 16, 64, 128; {words} words, {involutions} involutions",
    )
