import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domino_tableaux.cycles import Coloring, all_cycles, move_through, open_cycles
from domino_tableaux.insertion import rs
from domino_tableaux.partitions import (
    dominates,
    is_orbit_partition,
    is_special,
    n_statistic,
    orbit_collapse,
    orbit_dual,
)
from domino_tableaux.pipeline import (
    _preferred,
    candidate_moves,
    orbit_of,
    orbital_tableau,
    special_projection,
)
from domino_tableaux.signed_perm import (
    apply_generator,
    enumerate_group,
    identity,
    inverse,
    length,
)
from domino_tableaux.tableau import make_tableau, serialize
from test_cycles import _sdt_of_rank
from test_insertion import random_signed_perm


def cells(tableau):
    return sorted((d.label, d.cells) for d in tableau.dominoes)


def steps(result):
    """Each cycle of an annealing trace with the shapes before and after
    its move, read off the cycles' sources."""
    shapes = [cy.source.shape() for cy in result.trace] + [result.orbit]
    return list(zip(result.trace, shapes, shapes[1:]))


def special_reachable(tableau):
    """Oracle for ``special_projection``: the special-shape tableaux
    reachable through open native cycles (both directions), not walking
    past the first special shape found.

    An open move is an involution, so without the visited set the walk
    would go back and forth through the same cycle.  It visits up to 2^k
    tableaux for k open cycles.
    """
    found = set()
    seen = {tableau}
    todo = [tableau]
    while todo:
        current = todo.pop()
        if is_special(current.shape(), current.lie_type):
            found.add(current)
            continue
        for cy in all_cycles(current, Coloring.NATIVE):
            if cy.open:
                moved = move_through(current, cy)
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return found


def test_fixed_point_has_empty_trace():
    for w, t in [((2, -1), "C"), ((1,), "B"), ((-1,), "B")]:
        left = rs(w, t).left
        assert is_orbit_partition(left.shape(), t)
        result = orbital_tableau(left)
        assert result.trace == ()
        assert result.tableau == left
        assert result.orbit == left.shape()


def test_rank_two_anneal():
    result = orbital_tableau(rs((-1, 2), "C").left)
    assert result.orbit == (2, 2)
    assert len(result.trace) == 1
    [(cycle, before, after)] = steps(result)
    assert cycle.labels == (2,)
    assert cycle.coloring is Coloring.NATIVE
    assert (before, after) == ((3, 1), (2, 2))


def test_long_row_anneal():
    left = rs((-1, 2, 3), "C").left
    assert left.shape() == (5, 1)
    result = orbital_tableau(left)
    assert result.orbit == (4, 2)
    assert [cy.labels for cy in result.trace] == [(2, 3)]
    assert result.trace[0].coloring is Coloring.NATIVE


def test_b_anneal():
    result = orbital_tableau(rs((2, 1), "B").left)
    assert result.orbit == (3, 1, 1)
    assert [(before, after) for _, before, after in steps(result)] == [((3, 2), (3, 1, 1))]


def test_no_moves_from_settled_column_shape():
    t211 = make_tableau("C", [(1, ((1, 1), (1, 2))), (2, ((2, 1), (3, 1)))])
    assert candidate_moves(t211) == []


def test_orbit_of_small_elements():
    assert orbit_of((1, 2), "C") == (4,)
    assert orbit_of((-1,), "C") == (1, 1)
    assert orbit_of((1,), "B") == (3,)


@pytest.mark.parametrize("t", ["C", "B"])
def test_orbit_laws_through_rank_four(t):
    # Two laws of the Steinberg orbit (ROADMAP laws 1c and 1d): orbit(w) =
    # orbit(w^-1), and orbit(ws) is dominated by orbit(w) when ws covers w
    # in the right weak order.  orbit_of breaks both from rank 5 on (the
    # annealing defect), so this gate stops at rank 4.
    covers = 0
    for n in range(1, 5):
        orbit = {w: orbit_of(w, t) for w in enumerate_group(n)}
        for w, lam in orbit.items():
            assert orbit[inverse(w)] == lam, w
            for i in range(1, n + 1):
                ws = apply_generator(w, i)
                if length(ws) > length(w):
                    covers += 1
                    assert dominates(lam, orbit[ws]), (w, i)
    # half of the n * 2^n * n! pairs (w, s_i) of each rank n are covers
    assert covers == 1 + 8 + 72 + 768


def test_opposite_coloring_move_is_required():
    # The only admissible move out of this shape uses the opposite-parity
    # coloring; with the native coloring alone the walk would be stuck.
    tableau = make_tableau(
        "C",
        [
            (1, ((1, 1), (1, 2))),
            (2, ((2, 1), (3, 1))),
            (3, ((1, 3), (1, 4))),
            (4, ((2, 2), (2, 3))),
        ],
    )
    moves = candidate_moves(tableau)
    assert [(cy.labels, cy.coloring) for cy, _ in moves] == [
        ((4,), Coloring.TYPE_D)
    ]
    result = orbital_tableau(tableau)
    assert result.orbit == (4, 2, 2)


def test_preferred_move_has_the_greatest_key():
    # native cycles (1,), (2,), (3,) and type-D cycles (1, 2), (3,)
    tab = rs((2, 1, 3), "C").left
    n1, n2, _ = all_cycles(tab, Coloring.NATIVE)
    d12, d3 = all_cycles(tab, Coloring.TYPE_D)
    # the dominant target wins; of incomparable (3, 3) and (4, 1, 1), the
    # lex-greater one
    assert _preferred([(n1, (2, 2, 1, 1)), (n2, (3, 1, 1, 1))])[0] is n2
    assert _preferred([(n1, (3, 3)), (d3, (4, 1, 1))]) == (d3, (4, 1, 1))
    # equal targets: the smallest label, then the native coloring
    assert _preferred([(d3, (3, 3)), (n2, (3, 3)), (d12, (3, 3))])[0] is d12
    assert _preferred([(d12, (3, 3)), (n2, (3, 3)), (n1, (3, 3))])[0] is n1


def admissible_moves(tableau):
    """Oracle for ``candidate_moves``: the definition of an admissible move,
    re-derived.  Every open cycle of either coloring whose hole and corner
    lie in rows of odd length (C) or even length (B) of the pre-move shape
    is moved through, and the moves whose shape is strictly dominated are
    kept, as (cycle, moved tableau) in coloring and cycle order."""
    shape = tableau.shape()
    parity = 1 if tableau.lie_type == "C" else 0

    def row_len(r):
        return shape[r - 1] if r <= len(shape) else 0

    out = []
    for coloring in Coloring:
        for cy in all_cycles(tableau, coloring):
            if not cy.open:
                continue
            if row_len(cy.hole[0]) % 2 != parity or row_len(cy.corner[0]) % 2 != parity:
                continue
            moved = move_through(tableau, cy)
            if moved.shape() != shape and dominates(shape, moved.shape()):
                out.append((cy, moved))
    return out


@pytest.mark.parametrize("t", ["C", "B"])
def test_candidate_moves_are_the_admissible_moves(t):
    # Every standard tableau of rank <= 6, two ranks past gate 7, which sees
    # the rule only through the terminal tableaux of rank <= 4.
    for n in range(1, 7):
        for tab in _sdt_of_rank(n, t):
            moves = candidate_moves(tab)
            oracle = admissible_moves(tab)
            assert [cy for cy, _ in moves] == [cy for cy, _ in oracle], serialize(tab)
            assert [target for _, target in moves] == [m.shape() for _, m in oracle]


def test_hole_and_corner_rows_follow_boxedness():
    # Lemmas 3 and 4 of candidate_moves, on every open cycle, up or down,
    # of either coloring: the hole lies in an odd row exactly when the cycle
    # is unboxed, the corner lies an odd number of rows from the hole, and
    # the two rows have lengths of equal parity, so the hole test alone
    # decides an admissible move.  On the native coloring the hole's row has
    # odd length exactly when the cycle is unboxed, the boxedness form of
    # the special projection.  Every standard tableau of rank <= 6, and both
    # tableaux of 20 seeded words per rank at ranks 8-64.
    checked = {"exhaustive": 0, "seeded": 0}

    def check(tab, kind):
        rows = tab.shape() + (0,)
        for coloring in Coloring:
            for cy in open_cycles(tab, coloring):
                checked[kind] += 1
                hole, corner = cy.hole[0], cy.corner[0]
                assert hole % 2 != cy.boxed, serialize(tab)
                assert (corner - hole) % 2 == 1, serialize(tab)
                assert rows[hole - 1] % 2 == rows[corner - 1] % 2, serialize(tab)
                if coloring is Coloring.NATIVE:
                    assert rows[hole - 1] % 2 != cy.boxed, serialize(tab)

    rng = random.Random(112358)
    for t in ("C", "B"):
        for n in range(1, 7):
            for tab in _sdt_of_rank(n, t):
                check(tab, "exhaustive")
        for n in (8, 16, 32, 64):
            for _ in range(20):
                pair = rs(random_signed_perm(rng, n), t)
                check(pair.left, "seeded")
                check(pair.right, "seeded")
    assert checked == {"exhaustive": 7074, "seeded": 1586}


def signed_perms(max_rank):
    return (
        st.integers(1, max_rank)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
        .flatmap(lambda p: st.tuples(*[st.sampled_from((v, -v)) for v in p]))
    )


@settings(max_examples=150, deadline=None)
@given(signed_perms(6), st.sampled_from(["C", "B"]))
def test_every_step_raises_n_statistic(w, t):
    # The annealing loop bound rests on this.
    for _, before, after in steps(orbital_tableau(rs(w, t).left)):
        assert n_statistic(after) > n_statistic(before)


@pytest.mark.parametrize("t", ["C", "B"])
def test_anneal_at_rank_200(t):
    # The one-row shape of 400 or 401 cells is already an orbit partition;
    # the loop bound costs arithmetic, not a walk over partitions of 400.
    left = rs(identity(200), t).left
    result = orbital_tableau(left)
    assert result.trace == () and result.tableau == left
    assert result.orbit == (400 + (t == "B"),)


# sha256 over orbital_tableau's answer (the tableau, the orbit, and each
# step's labels, coloring and shapes) for seeded words at ranks 8-24 and for
# every standard tableau of rank <= 5; a change to how annealing picks its
# move must leave these answers alone.
ANNEAL_DIGESTS = {
    "C": "95a7e123c3207fd91888a315dd10b161036b3f61d63c5c4552bbd3558a33d90b",
    "B": "3fd84fcb3378bad0292dd22e50f549655f8fa1fe2406a94961364ec3c1fc40e8",
}


def anneal_digest(t):
    rng = random.Random(f"anneal-digest-{t}")
    words = [random_signed_perm(rng, n) for n in (8, 12, 16, 20, 24) for _ in range(20)]
    tableaux = [rs(w, t).left for w in words]
    tableaux += [tab for n in range(1, 6) for tab in _sdt_of_rank(n, t)]
    digest = hashlib.sha256()
    for tab in tableaux:
        result = orbital_tableau(tab)
        trace = [
            [list(cy.labels), cy.coloring.value, before, after]
            for cy, before, after in steps(result)
        ]
        doc = [serialize(result.tableau), result.orbit, trace]
        digest.update(json.dumps(doc).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("t", ["C", "B"])
def test_anneal_answers_are_pinned(t):
    assert anneal_digest(t) == ANNEAL_DIGESTS[t]


def test_special_projection_rank_two():
    projected = special_projection(rs((-1, 2), "C").right)
    assert cells(projected) == [(1, ((1, 1), (2, 1))), (2, ((1, 2), (2, 2)))]
    assert projected.shape() == (2, 2)


def test_special_projection_walks_open_cycles_back_and_forth():
    # Moving through an open cycle and back returns to the start, so the
    # walk from this recording tableau used to recurse without end.
    right = rs((1, 2, -6, -3, -5, -4), "C").right
    assert not is_special(right.shape(), "C")
    projected = special_projection(right)
    assert cells(projected) == [
        (1, ((1, 1), (1, 2))),
        (2, ((1, 3), (1, 4))),
        (3, ((2, 1), (3, 1))),
        (4, ((2, 2), (3, 2))),
        (5, ((4, 1), (4, 2))),
        (6, ((2, 3), (2, 4))),
    ]
    assert is_special(projected.shape(), "C")


@pytest.mark.parametrize("t", ["C", "B"])
def test_special_projection_matches_the_walk_on_random_words(t):
    # Left and right tableaux of seeded random words at ranks 8-64: the walk
    # reaches exactly one special tableau, which is the projection.  That
    # its cycles are the unboxed ones in C and the boxed ones in B is
    # test_hole_and_corner_rows_follow_boxedness.
    rng = random.Random(112358)
    for n in (8, 16, 32, 64):
        for _ in range(3):
            perm = rng.sample(range(1, n + 1), n)
            pair = rs(tuple(v if rng.random() < 0.5 else -v for v in perm), t)
            for tab in (pair.left, pair.right):
                assert special_reachable(tab) == {special_projection(tab)}


@pytest.mark.parametrize("t", ["C", "B"])
def test_special_shapes_of_the_pair_agree(t):
    # w and its inverse lie in one two-sided cell, so the special
    # projections of the left and right tableaux share their shape; 20
    # seeded words per rank
    rng = random.Random(20261020)
    for n in (16, 32, 64, 128):
        for _ in range(20):
            w = random_signed_perm(rng, n)
            pair = rs(w, t)
            left, right = special_projection(pair.left), special_projection(pair.right)
            assert left.shape() == right.shape(), w


@pytest.mark.parametrize("t", ["C", "B"])
def test_special_shape_of_minus_w_is_the_dual(t):
    # Duality (Barbasch and Vogan, Ann. of Math. 1985): -w = w w0, as w0 = -1
    # is central, and its two-sided cell carries the dual special orbit, so
    # S(-w) = orbit_dual(S(w)) for S(w) the special projection's shape of
    # rs(w).left.  Every element of rank <= 5, and 20 seeded words per rank
    # at ranks 16-128.
    def special_shape(w):
        return special_projection(rs(w, t).left).shape()

    words = [w for n in range(1, 6) for w in enumerate_group(n)]
    rng = random.Random(112358)
    words += [random_signed_perm(rng, n) for n in (16, 32, 64, 128) for _ in range(20)]
    for w in words:
        assert special_shape(tuple(-v for v in w)) == orbit_dual(special_shape(w), t), w
    assert len(words) == 4282 + 80


def richardson_element(n, gens):
    """w0 of the parabolic subgroup generated by ``gens`` (generator 1
    negates position 1, generator i >= 2 swaps positions i-1 and i), the
    size m of its signed block and the sizes of its type-A blocks."""
    m = 0
    while m + 1 in gens:
        m += 1
    blocks = []
    for p in range(m + 1, n + 1):  # generator m+1 is not in gens
        if p in gens:
            blocks[-1].append(p)
        else:
            blocks.append([p])
    w = [-p for p in range(1, m + 1)] + [p for block in blocks for p in reversed(block)]
    return tuple(w), m, [len(block) for block in blocks]


def induced_from_zero(m, sizes, t):
    """Ind(0) from the Levi with a signed block of rank m and type-A blocks
    of the given sizes: from the zero orbit (1^2m), or (1^2m+1) in type B,
    add 2 to the first a parts for each block of size a, then
    orbit_collapse (Collingwood-McGovern ch. 7)."""
    parts = [1] * (2 * m + (t == "B"))
    for a in sizes:
        parts += [0] * (a - len(parts))
        parts[:a] = [p + 2 for p in parts[:a]]
        parts = list(orbit_collapse(parts, t))
    return tuple(parts)


@pytest.mark.parametrize("t", ["C", "B"])
def test_richardson_elements_reach_the_induced_orbit(t):
    # The longest element w0^J of a standard parabolic W_J lies in the
    # two-sided cell of the Richardson orbit Ind(0) induced from the zero
    # orbit of its Levi (Lusztig-Spaltenstein, J. London Math. Soc. 1979).
    # The special shape S(w) of rs(w).left is Ind(0) on every parabolic of
    # rank <= 8, and orbit_of(w) is Ind(0) at rank <= 4 (law 1b's orbit
    # side); orbit_of breaks it from rank 5 on.
    special = orbit = 0
    for n in range(1, 9):
        for mask in range(2**n):
            gens = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
            w, m, sizes = richardson_element(n, gens)
            ind = induced_from_zero(m, sizes, t)
            assert special_projection(rs(w, t).left).shape() == ind, w
            special += 1
            if n <= 4:
                assert orbit_of(w, t) == ind, w
                orbit += 1
    assert (special, orbit) == (510, 30)
