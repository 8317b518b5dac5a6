import gc
import hashlib
import itertools
import json
import random
import time
import weakref
from functools import lru_cache

import pytest

from domino_tableaux.cycles import (
    Coloring,
    Cycle,
    _is_standard_move,
    _moved_position,
    _open_by_square,
    all_cycles,
    cycle_of,
    extended_cycle,
    is_boxed,
    move_through,
    move_through_extended,
    move_through_set,
    open_cycles,
)
from domino_tableaux.enumeration import all_sdt
from domino_tableaux.insertion import rs
from domino_tableaux.partitions import dominates, partitions_of
from domino_tableaux.pipeline import orbital_tableau, special_projection
from domino_tableaux.signed_perm import enumerate_group
from domino_tableaux.tableau import (
    TableauError,
    core_cells,
    deserialize,
    make_tableau,
    serialize,
)
from test_insertion import random_signed_perm
from test_tableau import is_young

NATIVE = Coloring.NATIVE
TYPE_D = Coloring.TYPE_D


def C(*dominoes):
    return make_tableau("C", list(dominoes))


# --- oracle: every standard re-tiling, by exhaustive search ---


def is_fixed(cell, coloring):
    return (cell[0] + cell[1]) % 2 == coloring.fixed_parity


def fixed_cell(cells, coloring):
    """The one cell of a domino that stays put under the coloring."""
    a, b = cells
    return a if is_fixed(a, coloring) else b


@lru_cache(maxsize=None)
def _retilings(tableau, coloring):
    """Every standard re-tiling keeping each domino on its fixed cell; there
    are 2^(number of moving cycles) of them."""
    core = frozenset(core_cells(tableau.lie_type))
    options = []
    for d in tableau.dominoes:
        f = fixed_cell(d.cells, coloring)
        cand = []
        for nb in ((f[0] - 1, f[1]), (f[0] + 1, f[1]), (f[0], f[1] - 1), (f[0], f[1] + 1)):
            if nb[0] >= 1 and nb[1] >= 1 and nb not in core:
                cand.append(tuple(sorted((f, nb))))
        options.append(cand)
    labels = [d.label for d in tableau.dominoes]
    results = []
    chosen = []

    def walk(idx, used):
        if idx == len(labels):
            results.append(tuple(chosen))
            return
        for cells in options[idx]:
            if cells[0] in used or cells[1] in used:
                continue
            grown = used | {cells[0], cells[1]}
            if not is_young(grown):
                continue
            chosen.append((labels[idx], cells))
            walk(idx + 1, grown)
            chosen.pop()

    walk(0, core)
    return tuple(results)


def _changed_labels(tableau, assignment):
    original = {d.label: d.cells for d in tableau.dominoes}
    return frozenset(lbl for lbl, cells in assignment if cells != original[lbl])


def _atoms(tableau, coloring):
    """The inclusion-minimal nonempty changed sets: the moving cycles."""
    changed = {_changed_labels(tableau, a) for a in _retilings(tableau, coloring)}
    assert frozenset() in changed
    nonempty = changed - {frozenset()}
    return {ch for ch in nonempty if not any(other < ch for other in nonempty)}


def _sdt_of_rank(n, lie_type):
    """Every standard tableau of rank n: the left tableaux of the rank-n
    group, as the rs-bijection suite checks (gate 1)."""
    size = 2 * n + (1 if lie_type == "B" else 0)
    return [tab for shape in partitions_of(size) for tab in all_sdt(shape, lie_type)]


def box_tableau(k, offset=0):
    """k side-by-side 2x2 boxes, each filled by two vertical dominoes, with
    labels offset+1..offset+2k."""
    dominoes = [(offset + i, ((1, i), (2, i))) for i in range(1, 2 * k + 1)]
    return make_tableau("C", dominoes, require_contiguous=offset == 0)


SINGLE_H = C((1, ((1, 1), (1, 2))))
H_PAIR = C((1, ((1, 1), (1, 2))), (2, ((2, 1), (2, 2))))
V_PAIR = C((1, ((1, 1), (2, 1))), (2, ((1, 2), (2, 2))))
T31 = C((1, ((1, 1), (2, 1))), (2, ((1, 2), (1, 3))))
T211 = C((1, ((1, 1), (1, 2))), (2, ((2, 1), (3, 1))))


def test_coloring_parities():
    # native coloring fixes squares with odd coordinate sum, for both types
    assert is_fixed((1, 2), NATIVE) and is_fixed((2, 1), NATIVE)
    assert not is_fixed((1, 1), NATIVE)
    assert is_fixed((1, 1), TYPE_D) and is_fixed((2, 2), TYPE_D)
    assert Coloring("native") is NATIVE
    assert Coloring("typeD") is TYPE_D
    with pytest.raises(ValueError):
        Coloring("X")


def test_fixed_cell_unique_per_domino():
    for cells in (((1, 1), (1, 2)), ((2, 1), (3, 1)), ((2, 2), (2, 3))):
        for col in Coloring:
            fc = fixed_cell(cells, col)
            assert fc in cells
            assert [is_fixed(c, col) for c in cells].count(True) == 1
    assert fixed_cell(((1, 1), (1, 2)), NATIVE) == (1, 2)
    assert fixed_cell(((1, 1), (1, 2)), TYPE_D) == (1, 1)


def test_single_domino_native_is_frozen():
    cy = cycle_of(SINGLE_H, 1, NATIVE)
    assert not cy.open
    assert move_through(SINGLE_H, cy) == SINGLE_H


def test_single_domino_type_d_is_open():
    cy = cycle_of(SINGLE_H, 1, TYPE_D)
    assert cy.open and cy.down
    assert cy.hole == (1, 2) and cy.corner == (2, 1)
    assert move_through(SINGLE_H, cy) == C((1, ((1, 1), (2, 1))))


def test_horizontal_pair_native_cycles():
    assert cycle_of(H_PAIR, 1, NATIVE).labels == (1,)
    assert not cycle_of(H_PAIR, 1, NATIVE).open
    cy = cycle_of(H_PAIR, 2, NATIVE)
    assert cy.labels == (2,) and cy.open and cy.down
    assert cy.hole == (2, 2) and cy.corner == (3, 1)
    assert move_through(H_PAIR, cy) == T211


def test_horizontal_pair_type_d_is_one_closed_cycle():
    cy = cycle_of(H_PAIR, 1, TYPE_D)
    assert cy.labels == (1, 2) and not cy.open
    assert move_through(H_PAIR, cy) == V_PAIR


def test_t31_native_move():
    cy = cycle_of(T31, 2, NATIVE)
    assert cy.open and cy.down
    assert cy.hole == (1, 3) and cy.corner == (2, 2)
    moved = move_through(T31, cy)
    assert moved == C((1, ((1, 1), (2, 1))), (2, ((1, 2), (2, 2))))


def test_t211_cycles():
    cy = cycle_of(T211, 2, NATIVE)
    assert cy.open and not cy.down  # an up cycle
    assert cy.hole == (3, 1) and cy.corner == (2, 2)
    assert move_through(T211, cy) == H_PAIR
    # under the D-coloring both dominoes move together down to a column
    cy = cycle_of(T211, 1, TYPE_D)
    assert cy.labels == (1, 2) and cy.open and cy.down
    assert cy.hole == (1, 2) and cy.corner == (4, 1)
    assert move_through(T211, cy).shape() == (1, 1, 1, 1)


def test_closed_two_domino_cycle_in_3x2():
    tab = C((1, ((1, 1), (2, 1))), (2, ((1, 2), (1, 3))), (3, ((2, 2), (2, 3))))
    cy = cycle_of(tab, 2, NATIVE)
    assert cy.labels == (2, 3) and not cy.open
    moved = move_through(tab, cy)
    assert moved.domino(2).cells == ((1, 2), (2, 2))
    assert moved.domino(3).cells == ((1, 3), (2, 3))


def test_type_b_native_move():
    tab = rs((2, 1), "B").left
    cy = cycle_of(tab, 2, NATIVE)
    assert cy.open and cy.down
    assert cy.hole == (2, 2) and cy.corner == (3, 1)
    assert move_through(tab, cy).shape() == (3, 1, 1)


def test_boxing_facts():
    assert is_boxed(((2, 1), (2, 2)), NATIVE)
    assert is_boxed(((1, 1), (1, 2)), NATIVE)
    assert is_boxed(((1, 1), (2, 1)), NATIVE)
    assert not is_boxed(((1, 2), (1, 3)), NATIVE)  # straddles two blocks
    assert not is_boxed(((2, 2), (3, 2)), NATIVE)
    assert cycle_of(T31, 2, NATIVE).boxed is False
    assert cycle_of(H_PAIR, 2, NATIVE).boxed is True
    # the D lattice keeps the row pairing but shifts the column phase
    assert is_boxed(((1, 2), (1, 3)), TYPE_D)
    assert not is_boxed(((1, 1), (1, 2)), TYPE_D)


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_move_involution_and_shape_arithmetic(t, n):
    for tab in _sdt_of_rank(n, t):
        for col in Coloring:
            for cy in all_cycles(tab, col):
                moved = move_through(tab, cy)
                if cy.open:
                    assert tab.cells() - moved.cells() == {cy.hole}
                    assert moved.cells() - tab.cells() == {cy.corner}
                    # a down move lowers the shape in dominance, an up move raises it
                    high, low = (tab, moved) if cy.down else (moved, tab)
                    assert high.shape() != low.shape()
                    assert dominates(high.shape(), low.shape())
                else:
                    assert moved.shape() == tab.shape()
                back = cycle_of(moved, cy.labels[0], col)
                assert back.labels == cy.labels
                assert move_through(moved, back) == tab


@pytest.mark.parametrize("t", ["C", "B"])
def test_boxedness_constant_on_cycles(t):
    # Lemmas 1 and 2 of cycles._block_id on every standard tableau of
    # rank <= 6: D'(k) is boxed exactly when D(k) is not, and every domino
    # of a cycle is boxed exactly when the cycle is.
    for n in range(1, 7):
        for tab in _sdt_of_rank(n, t):
            for col in Coloring:
                for d in tab.dominoes:
                    moved = _moved_position(d, tab._owner, col.fixed_parity)
                    assert is_boxed(moved, col) != is_boxed(d.cells, col), serialize(tab)
                for cy in all_cycles(tab, col):
                    flags = {is_boxed(tab.domino(k).cells, col) for k in cy.labels}
                    assert flags == {cy.boxed}, serialize(tab)


@pytest.mark.parametrize("t", ["C", "B"])
def test_retiling_count_is_power_of_two(t):
    for n in (1, 2):
        for tab in _sdt_of_rank(n, t):
            for col in Coloring:
                atoms = _atoms(tab, col)
                assert len(_retilings(tab, col)) == 2 ** len(atoms)


def test_move_through_set_commutes():
    for t in ("C", "B"):
        for tab in _sdt_of_rank(3, t):
            for col in Coloring:
                cycles = all_cycles(tab, col)
                for a, b in itertools.combinations(cycles, 2):
                    step = move_through(tab, a)
                    one = move_through(step, cycle_of(step, b.labels[0], col))
                    both = move_through_set(tab, (a, b))
                    assert one == both


def test_move_through_set_empty_and_overlap():
    assert move_through_set(H_PAIR, ()) == H_PAIR
    cy = cycle_of(H_PAIR, 2, NATIVE)
    with pytest.raises(ValueError):
        move_through_set(H_PAIR, (cy, cy))
    # label-disjoint cycles of two colorings cannot move at once
    t = C((1, ((1, 1), (1, 2))), (2, ((2, 1), (2, 2))), (3, ((1, 3), (1, 4))))
    with pytest.raises(TableauError, match="^cannot mix colorings"):
        move_through_set(t, (cycle_of(t, 1, NATIVE), cycle_of(t, 3, TYPE_D)))


def test_cycle_of_another_tableau_is_rejected():
    tab = C((1, ((1, 1), (2, 1))), (2, ((1, 2), (1, 3))), (3, ((2, 2), (2, 3))))
    cy = cycle_of(tab, 2, NATIVE)
    assert cy.labels not in {c.labels for c in all_cycles(T31, NATIVE)}
    with pytest.raises(TableauError, match="is not a cycle of this tableau"):
        move_through(T31, cy)


def test_cycle_with_matching_labels_is_still_bound_to_its_tableau():
    # {2} is an open native cycle of both T31 and H_PAIR, with different
    # moves; T31's cycle must not be taken for H_PAIR's.
    cy = cycle_of(T31, 2, NATIVE)
    assert cycle_of(H_PAIR, 2, NATIVE).labels == cy.labels
    with pytest.raises(TableauError, match="is not a cycle of this tableau"):
        move_through(H_PAIR, cy)
    with pytest.raises(TableauError, match="is not a cycle of this tableau"):
        move_through_set(H_PAIR, [cycle_of(H_PAIR, 1, NATIVE), cy])


def test_cycle_of_an_equal_tableau_is_accepted():
    copy = deserialize(serialize(T31))
    assert copy == T31 and copy is not T31
    for col in Coloring:
        for cy in all_cycles(T31, col):
            assert move_through(copy, cy) == move_through(T31, cy)


def test_no_tableau_outlives_its_calls():
    tab = rs((-1, 6, 8, -3, 2, 7, -5, 4), "C").left  # neither special nor an orbit shape
    ref = weakref.ref(tab)
    for col in Coloring:
        for cy in all_cycles(tab, col):
            moved = move_through(tab, cy)
            assert move_through(moved, cycle_of(moved, cy.labels[0], col)) == tab
    assert orbital_tableau(tab).trace
    assert special_projection(tab) != tab
    del tab, cy, moved
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_move_agrees_with_search(t, n):
    # The local move rule against the exhaustive search, on every standard
    # tableau of rank n: the moving cycles are the search's minimal changed
    # sets, and moving through each subset of them gives exactly the
    # search's standard re-tilings.
    for tab in _sdt_of_rank(n, t):
        for col in Coloring:
            moving = [cy for cy in all_cycles(tab, col) if move_through(tab, cy) != tab]
            assert {frozenset(cy.labels) for cy in moving} == _atoms(tab, col)
            produced = set()
            for size in range(len(moving) + 1):
                for subset in itertools.combinations(moving, size):
                    moved = move_through_set(tab, subset)
                    produced.add(frozenset((d.label, d.cells) for d in moved.dominoes))
            assert produced == {frozenset(a) for a in _retilings(tab, col)}


def _cycle_doc(cy):
    fields = (cy.coloring.value, cy.open, cy.hole, cy.corner, cy.down, cy.boxed, cy.moves)
    return [list(cy.labels), *fields]


@pytest.mark.parametrize("t", ["C", "B"])
def test_cycle_of_walks_to_the_all_cycles_answer(t):
    # cycle_of walks one component; it must give the very cycle that
    # all_cycles builds from every component, moves included, for every
    # label of every standard tableau of rank <= 6 and of the 2x2-box family
    # with labels that do not start at 1
    tableaux = [tab for n in range(7) for tab in _sdt_of_rank(n, t)]
    if t == "C":
        tableaux += [box_tableau(k, offset) for k in range(1, 9) for offset in (0, 3 * k)]
    for tab in tableaux:
        for col in Coloring:
            cycles = all_cycles(tab, col)
            for k in tab.labels():
                want = next(cy for cy in cycles if k in cy.labels)
                got = cycle_of(tab, k, col)
                assert got == want and got.moves == want.moves and got.source is tab
    with pytest.raises(KeyError, match="no domino labeled 9"):
        cycle_of(T31, 9, NATIVE)


@pytest.mark.parametrize("t", ["C", "B"])
def test_open_cycles_are_the_open_cycles_of_all_cycles(t):
    # open_cycles skips the components whose move keeps their cell set; it
    # must give exactly the open cycles of all_cycles, in order, moves and
    # sources included, on every standard tableau of rank <= 6 and on seeded
    # words of ranks 8-64.  Frozen components all change their cell set, so
    # the standardness test is what keeps them out.
    rng = random.Random(f"open-cycles-{t}")
    tableaux = [tab for n in range(7) for tab in _sdt_of_rank(n, t)]
    for n in (8, 12, 16, 24, 32, 64):
        for _ in range(5):
            pair = rs(random_signed_perm(rng, n), t)
            tableaux += [pair.left, pair.right]
    frozen = 0
    for tab in tableaux:
        for col in Coloring:
            every = all_cycles(tab, col)
            want = tuple(cy for cy in every if cy.open)
            got = open_cycles(tab, col)
            assert got == want, (tab, col)
            assert [cy.moves for cy in got] == [cy.moves for cy in want]
            assert all(cy.source is tab for cy in got)
            frozen += sum(not cy.moves for cy in every)
    assert frozen > 1000  # frozen labels: only the standardness test keeps them out


def test_standardness_test_restores_its_scratch_map():
    # all_cycles tries each component's move on one scratch copy of the
    # owner map; every try, standard or not, must leave the copy as it was
    verdicts = set()
    for t in ("C", "B"):
        for n in range(1, 5):
            for tab in _sdt_of_rank(n, t):
                owner = tab.cell_owner()
                scratch = dict(owner)
                original = {d.label: d.cells for d in tab.dominoes}
                for col in Coloring:
                    parity = col.fixed_parity
                    moved = {d.label: _moved_position(d, owner, parity) for d in tab.dominoes}
                    for size in (1, 2):
                        for labels in itertools.combinations(original, size):
                            step = {k: moved[k] for k in labels}
                            verdicts.add(_is_standard_move(scratch, original, step))
                            assert scratch == owner, (tab, col, step)
    assert verdicts == {True, False}


# sha256 over all_cycles in both colorings, the move through each cycle, and
# cycle_of on the moved tableau, for both tableaux of 5 seeded rs pairs at
# each of the ranks 16 and 64; a speed change to the cycle engine must leave
# these answers alone.
CYCLE_DIGESTS = {
    "C": "7e6bc653d7094a6f06693ec2af96f02022af99a6e522efa3765fa1b69c7e20fa",
    "B": "b2f55584a20d225aa31733a2230a219f0d3b2545477a12d434715092de0f6186",
}


def cycle_digest(t):
    rng = random.Random(f"cycles-digest-{t}")
    digest = hashlib.sha256()
    for n in (16, 64):
        for _ in range(5):
            pair = rs(random_signed_perm(rng, n), t)
            for tab in (pair.left, pair.right):
                for col in Coloring:
                    for cy in all_cycles(tab, col):
                        moved = move_through(tab, cy)
                        back = cycle_of(moved, cy.labels[-1], col)
                        doc = [_cycle_doc(cy), serialize(moved), _cycle_doc(back)]
                        digest.update(json.dumps(doc).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("t", ["C", "B"])
def test_cycle_answers_are_pinned(t):
    assert cycle_digest(t) == CYCLE_DIGESTS[t]


@pytest.mark.parametrize("col", list(Coloring))
def test_all_cycles_polynomial_on_box_family(col):
    # 128 dominoes; the exhaustive search would face 2^64 re-tilings here.
    tab = box_tableau(64)
    start = time.perf_counter()
    cycles = all_cycles(tab, col)
    elapsed = time.perf_counter() - start
    assert sorted(k for cy in cycles for k in cy.labels) == list(tab.labels())
    assert elapsed < 2.0


def test_extended_cycle_closed_seed_leaves_left_alone():
    pair = rs((2, -1), "C")  # left is the vertical pair, right the horizontal
    right_cycles, left_cycles = extended_cycle(pair, 1, TYPE_D)
    assert left_cycles == ()
    assert len(right_cycles) == 1 and not right_cycles[0].open


def test_extended_move_unbalanceable_is_identity():
    # The two open native cycles of this pair grow toward opposite corners
    # ((3,1) on the right, (1,3) on the left), so no simultaneous move can
    # keep the shapes equal; the extended move must do nothing.
    pair = rs((2, -1), "C")
    assert extended_cycle(pair, 2, NATIVE) == ((), ())
    assert move_through_extended(pair, 2, NATIVE) == pair


def test_extended_move_balanced_instance():
    # Both tableaux equal and share the open cycle {2}; the closure pairs the
    # two copies and both sides move, hole (1,3) -> corner (2,2).
    pair = rs((-1, 2), "C")
    assert pair.left == pair.right
    right_cycles, left_cycles = extended_cycle(pair, 2, NATIVE)
    assert [cy.labels for cy in right_cycles] == [(2,)]
    assert [cy.labels for cy in left_cycles] == [(2,)]
    out = move_through_extended(pair, 2, NATIVE)
    assert out.left.shape() == out.right.shape() == (2, 2)
    assert out.left == out.right


def test_extended_move_grows_on_the_right():
    # The seed {1,2,3} trades hole (1,4) for corner (4,1).  The left cycle
    # {1,2,3} matches the hole but brings corner (2,3), and the left cycle
    # {4} matches (4,1) but brings hole (3,2); the right cycle {4} closes
    # both squares.
    pair = rs((1, 3, -4, 2), "C")
    right_cycles, left_cycles = extended_cycle(pair, 1, TYPE_D)
    assert [cy.labels for cy in right_cycles] == [(1, 2, 3), (4,)]
    assert [cy.labels for cy in left_cycles] == [(1, 2, 3), (4,)]
    out = move_through_extended(pair, 1, TYPE_D)
    assert out.left != pair.left and out.right != pair.right
    assert out.left.shape() == out.right.shape() == (3, 3, 1, 1)
    assert move_through_extended(out, 1, TYPE_D) == pair


def test_extended_cycle_rejects_two_open_cycles_on_one_square():
    # no standard tableau of rank <= 5 has such a pair; built by hand here
    a = Cycle((1,), NATIVE, (1, 2), (2, 1), False, (), None)
    b = Cycle((2,), NATIVE, (1, 4), (2, 1), False, (), None)
    with pytest.raises(TableauError, match=r"ambiguous at square \(2, 1\)"):
        _open_by_square([a, b])


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extended_move_involution_and_shapes(t, n):
    for w in enumerate_group(n):
        pair = rs(w, t)
        for col in Coloring:
            for k in pair.right.labels():
                out = move_through_extended(pair, k, col)
                assert out.left.shape() == out.right.shape()
                assert move_through_extended(out, k, col) == pair
