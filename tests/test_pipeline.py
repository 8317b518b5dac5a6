import hashlib
import itertools
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
    transpose,
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
from test_cycles import _sdt_of_rank, seeded_tableaux
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
    assert [(cy.labels, cy.coloring) for cy in moves] == [
        ((4,), Coloring.TYPE_D)
    ]
    result = orbital_tableau(tableau)
    assert result.orbit == (4, 2, 2)


def admissible_moves(tableau):
    """Oracle for ``candidate_moves``: the definition of an admissible move,
    re-derived.  Every open cycle of either coloring whose hole and corner
    lie in rows of odd length (C) or even length (B) of the pre-move shape
    is moved through, and the cycles whose move strictly lowers the shape
    in dominance are kept, in coloring and cycle order."""
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
                out.append(cy)
    return out


@pytest.mark.parametrize("t", ["C", "B"])
def test_candidate_moves_are_the_admissible_moves(t):
    # Every standard tableau of rank <= 6, two ranks past gate 7, which sees
    # the rule only through the terminal tableaux of rank <= 4.
    for n in range(1, 7):
        for tab in _sdt_of_rank(n, t):
            assert candidate_moves(tab) == admissible_moves(tab), serialize(tab)


def test_preferred_move_has_the_greatest_key():
    # The oracle is the greatest key (target shape in lex order, minus the
    # cycle's smallest label, native coloring), with each target shape
    # computed by moving.  Lemma 5 of candidate_moves says the lex-greatest
    # target is unique, so the tie-breaks never fire, and the lowest hole
    # reaches it.  Every standard tableau of rank <= 6 and the seeded words.
    def old_key(tab, cy):
        return (move_through(tab, cy).shape(), -min(cy.labels), cy.coloring is Coloring.NATIVE)

    def check(tab):
        moves = candidate_moves(tab)
        if moves:
            targets = [move_through(tab, cy).shape() for cy in moves]
            assert targets.count(max(targets)) == 1, serialize(tab)
            chosen = _preferred(moves)
            assert move_through(tab, chosen).shape() == max(targets), serialize(tab)
            assert chosen is max(moves, key=lambda cy: old_key(tab, cy)), serialize(tab)
        return len(moves)

    for t in ("C", "B"):
        several = sum(check(tab) > 1 for n in range(1, 7) for tab in _sdt_of_rank(n, t))
        # the tableaux of rank <= 6 where the choice matters
        assert several == 55, t
    for tab in seeded_tableaux("CB"):
        check(tab)


def test_hole_and_corner_rows_follow_boxedness():
    # Lemmas 3, 4 and 5 of candidate_moves, on every open cycle, up or
    # down, of either coloring: the hole lies in an odd row exactly when the
    # cycle is unboxed, the corner lies an odd number of rows from the hole,
    # and the two rows have lengths of equal parity, so the hole test alone
    # decides an admissible move.  On the native coloring the hole's row has
    # odd length exactly when the cycle is unboxed, the boxedness form of
    # the special projection.  The hole is the last cell of its row and the
    # corner the first cell past the end of its row, and no two open cycles
    # of a tableau, of either coloring, have their holes in one row, so the
    # lowest hole is one cycle.  No two of them share a corner either
    # (Lemma 6 of cycles._moved_position), so their corners lie in distinct
    # rows too.  Every standard tableau of rank <= 6, and both tableaux of
    # 20 seeded words per rank at ranks 8-256.
    checked = {"exhaustive": 0, "seeded": 0}

    def check(tab, kind):
        rows = tab.shape() + (0,)
        hole_rows, corner_rows = [], []
        for coloring in Coloring:
            for cy in open_cycles(tab, coloring):
                checked[kind] += 1
                hole, corner = cy.hole[0], cy.corner[0]
                assert hole % 2 != cy.boxed, serialize(tab)
                assert (corner - hole) % 2 == 1, serialize(tab)
                assert rows[hole - 1] % 2 == rows[corner - 1] % 2, serialize(tab)
                if coloring is Coloring.NATIVE:
                    assert rows[hole - 1] % 2 != cy.boxed, serialize(tab)
                assert cy.hole[1] == rows[hole - 1], serialize(tab)
                assert cy.corner[1] == rows[corner - 1] + 1, serialize(tab)
                hole_rows.append(hole)
                corner_rows.append(corner)
        assert len(set(hole_rows)) == len(hole_rows), serialize(tab)
        assert len(set(corner_rows)) == len(corner_rows), serialize(tab)

    for t in ("C", "B"):
        for n in range(1, 7):
            for tab in _sdt_of_rank(n, t):
                check(tab, "exhaustive")
    for tab in seeded_tableaux("CB", (8, 16, 32, 64, 128, 256)):
        check(tab, "seeded")
    assert checked == {"exhaustive": 7074, "seeded": 3932}


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


def special_shape(w, t):
    """S(w), the shape of the special projection of rs(w).left."""
    return special_projection(rs(w, t).left).shape()


@pytest.mark.parametrize("t", ["C", "B"])
def test_special_shape_of_minus_w_is_the_dual(t):
    # Duality (Barbasch and Vogan, Ann. of Math. 1985): -w = w w0, as w0 = -1
    # is central, and its two-sided cell carries the dual special orbit, so
    # S(-w) = orbit_dual(S(w)) for S(w) the special projection's shape of
    # rs(w).left.  Every element of rank <= 5, and 20 seeded words per rank
    # at ranks 16-128.
    words = [w for n in range(1, 6) for w in enumerate_group(n)]
    rng = random.Random(112358)
    words += [random_signed_perm(rng, n) for n in (16, 32, 64, 128) for _ in range(20)]
    for w in words:
        assert special_shape(tuple(-v for v in w), t) == orbit_dual(special_shape(w, t), t), w
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


def induced(inner, mus, t):
    """Ind(inner; mu_1, ..., mu_k), the orbit induced from the Levi
    sp/so x gl(|mu_1|) x ... x gl(|mu_k|): from the partition ``inner``,
    for each mu add 2mu part by part, then orbit_collapse
    (Collingwood-McGovern ch. 7)."""
    parts = tuple(inner)
    for mu in mus:
        parts = orbit_collapse(
            [p + 2 * q for p, q in itertools.zip_longest(parts, mu, fillvalue=0)], t
        )
    return parts


def orbit_dimension(parts, t):
    """dim O = 2n^2 + n - (sum of the squared column lengths + eps * #odd
    parts) / 2, with eps = +1 in C and -1 in B (Collingwood-McGovern,
    Cor. 6.1.4)."""
    n = sum(parts) // 2
    eps = 1 if t == "C" else -1
    twice_centralizer = sum(c * c for c in transpose(parts)) + eps * sum(p % 2 for p in parts)
    return 2 * n * n + n - twice_centralizer // 2


@pytest.mark.parametrize("t", ["C", "B"])
def test_richardson_elements_reach_the_induced_orbit(t):
    # The longest element w0^J of a standard parabolic W_J lies in the
    # two-sided cell of the Richardson orbit Ind(0) induced from the zero
    # orbit of its Levi (Lusztig-Spaltenstein, J. London Math. Soc. 1979),
    # whose dimension is 2 dim u_P.  The special shape S(w) of rs(w).left
    # is Ind(0) on every parabolic of rank <= 8, and orbit_of(w) is Ind(0)
    # at rank <= 4 (law 1b); orbit_of breaks it from rank 5 on.
    special = orbit = 0
    for n in range(1, 9):
        for mask in range(2**n):
            gens = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
            w, m, sizes = richardson_element(n, gens)
            ind = induced([1] * (2 * m + (t == "B")), [(1,) * a for a in sizes], t)
            assert special_shape(w, t) == ind, w
            levi = sum(a * a for a in sizes) + 2 * m * m + m
            assert orbit_dimension(ind, t) == 2 * n * n + n - levi, w  # 2 dim u_P
            special += 1
            if n <= 4:
                assert orbit_of(w, t) == ind, w
                orbit += 1
    assert (special, orbit) == (510, 30)


@pytest.mark.parametrize("t", ["C", "B"])
def test_split_words_induce_their_special_shape(t):
    # Parabolic induction (Lusztig, Indag. Math. 1979; Lusztig-Spaltenstein
    # 1979): a word split into a signed block on 1..m and positive blocks,
    # each an interval mapped onto itself, has the special shape induced
    # from its signed block's by the type-A shapes mu_i of its blocks; mu_i
    # is half the row lengths of the type-C insertion of the block (law
    # 1a).  20 seeded split words per rank at ranks 16-128.
    rng = random.Random(112358)
    count = 0
    for n in (16, 32, 64, 128):
        for _ in range(20):
            m = rng.randint(0, n // 2)
            inner = random_signed_perm(rng, m)
            w, mus = list(inner), []
            while len(w) < n:
                p = len(w)
                block = list(range(p + 1, rng.randint(p + 1, n) + 1))
                rng.shuffle(block)
                w += block
                shape = rs(tuple(v - p for v in block), "C").left.shape()
                mus.append(tuple(row // 2 for row in shape))
            assert special_shape(tuple(w), t) == induced(special_shape(inner, t), mus, t), w
            count += 1
    assert count == 80
