import json
import random

import pytest

from domino_tableaux.tableau import (
    Domino,
    DominoTableau,
    TableauError,
    core_cells,
    deserialize,
    from_json_dict,
    make_tableau,
    render,
    replace_cells,
    serialize,
    shape_of_cells,
    to_json_dict,
)

H_PAIR_C = [(1, ((1, 1), (1, 2))), (2, ((2, 1), (2, 2)))]


def test_domino_validation():
    d = Domino(3, [(1, 2), (1, 1)])
    assert d.cells == ((1, 1), (1, 2))
    assert d.horizontal
    assert not Domino(1, [(2, 1), (1, 1)]).horizontal
    assert Domino(2, [[2, 1], [1, 1]]).cells == ((1, 1), (2, 1))
    with pytest.raises(TableauError, match="^domino 2 cells must be two"):
        Domino(2, [("2", 1.0), [1, 1]])
    assert Domino(2, ((2, 1), (1, 1))) == Domino(2, ((1, 1), (2, 1)))


# Each malformed domino and the message the constructor gives: a label
# that is not positive, a wrong cell count, cells out of the quadrant, and
# cells that are not adjacent (apart, diagonal, or the same cell).
BAD_DOMINOES = [
    ((0, [(1, 1), (1, 2)]), "domino label must be positive, got 0"),
    ((-3, [(1, 1), (1, 2)]), "domino label must be positive, got -3"),
    ((1, [(1, 1)]), "domino 1 needs exactly two cells, got ((1, 1),)"),
    (
        (2, [(1, 3), (1, 1), (1, 2)]),
        "domino 2 needs exactly two cells, got ((1, 1), (1, 2), (1, 3))",
    ),
    ((1, [(0, 1), (1, 1)]), "domino 1 has out-of-quadrant cells ((0, 1), (1, 1))"),
    ((4, [(2, 0), (2, 1)]), "domino 4 has out-of-quadrant cells ((2, 0), (2, 1))"),
    ((1, [(1, 3), (1, 1)]), "domino 1 cells ((1, 1), (1, 3)) do not share an edge"),
    ((1, [(1, 1), (2, 2)]), "domino 1 cells ((1, 1), (2, 2)) do not share an edge"),
    ((5, [(2, 2), (2, 2)]), "domino 5 cells ((2, 2), (2, 2)) do not share an edge"),
]


# Each domino that is refused for a value that is not an int: a float, a
# string or a bool where a cell coordinate or the label belongs.  Nothing
# is coerced to a nearby int.
NOT_PAIRS = "cells must be two (row, column) pairs of ints, got"
NOT_INT_DOMINOES = [
    ((1, [(1.5, 1), (1, 2.99)]), f"domino 1 {NOT_PAIRS} [(1.5, 1), (1, 2.99)]"),
    ((1, [(1, 1), (1, 2.0)]), f"domino 1 {NOT_PAIRS} [(1, 1), (1, 2.0)]"),
    ((2, [("1", 1), (1, 2)]), f"domino 2 {NOT_PAIRS} [('1', 1), (1, 2)]"),
    ((3, [(1, 1), (True, 2)]), f"domino 3 {NOT_PAIRS} [(1, 1), (True, 2)]"),
    ((1, [(1, 1, 1), (1, 2)]), f"domino 1 {NOT_PAIRS} [(1, 1, 1), (1, 2)]"),
    ((1, 5), f"domino 1 {NOT_PAIRS} 5"),
    ((1.9, [(1, 1), (1, 2)]), "domino label must be an int, got 1.9"),
    ((1.0, [(1, 1), (1, 2)]), "domino label must be an int, got 1.0"),
    ((True, [(1, 1), (1, 2)]), "domino label must be an int, got True"),
    (("1", [(1, 1), (1, 2)]), "domino label must be an int, got '1'"),
]


@pytest.mark.parametrize("args, message", BAD_DOMINOES + NOT_INT_DOMINOES)
def test_domino_rejects_with_message(args, message):
    with pytest.raises(TableauError) as exc:
        Domino(*args)
    assert str(exc.value) == message
    # (label, cells) entries of make_tableau go through the same constructor
    with pytest.raises(TableauError) as exc:
        make_tableau("C", [args], require_contiguous=False)
    assert str(exc.value) == message


H1, H2, V1 = Domino(1, ((1, 1), (1, 2))), Domino(2, ((2, 1), (2, 2))), Domino(1, ((1, 1), (2, 1)))
# Each malformed layout and the message the constructor gives.
BAD_LAYOUTS = [
    (("A", ()), "unknown group type 'A'; expected 'B' or 'C'"),
    (("C", (H1, Domino(2, ((1, 2), (1, 3))))), "cell (1, 2) of domino 2 overlaps domino 1"),
    (("B", (V1,)), "cell (1, 1) of domino 1 overlaps the core"),
    (("C", (H2, H1)), "labels not strictly increasing: [2, 1]"),
    (("C", (H1, Domino(1, ((2, 1), (2, 2))))), "labels not strictly increasing: [1, 1]"),
    (("C", (Domino(1, ((1, 2), (1, 3))),)), "cells up to label 1 do not form a Young diagram"),
    (("C", (H2,)), "cells up to label 2 do not form a Young diagram"),
    (("C", (H1, Domino(3, ((1, 4), (1, 5))))), "cells up to label 3 do not form a Young diagram"),
    (("B", (Domino(1, ((1, 2), (2, 2))),)), "cells up to label 1 do not form a Young diagram"),
    (("C", (H1, (2, ((2, 1), (2, 2))))), "tableau entry (2, ((2, 1), (2, 2))) is not a Domino"),
]


@pytest.mark.parametrize("args, message", BAD_LAYOUTS)
def test_tableau_rejects_with_message(args, message):
    with pytest.raises(TableauError) as exc:
        DominoTableau(*args)
    assert str(exc.value) == message


def test_tableau_takes_any_iterable_of_dominoes():
    t = DominoTableau("C", [H1, H2])
    assert t.dominoes == (H1, H2) and hash(t) == hash(make_tableau("C", H_PAIR_C))


def test_core():
    assert core_cells("C") == ()
    assert core_cells("B") == ((1, 1),)
    # the one translation of the type error, for the constructor and rs alike
    with pytest.raises(TableauError, match="^unknown group type 'A'; expected 'B' or 'C'$"):
        core_cells("A")
    t = make_tableau("B", [(1, ((1, 2), (1, 3)))])
    assert (1, 1) in t.cells()
    assert t.cell_owner()[(1, 1)] == 0
    assert t.shape() == (3,)


def test_shape_and_prefixes():
    t = make_tableau("C", H_PAIR_C)
    assert t.shape() == (2, 2)
    assert t.sub_shape(1) == (2,)
    assert t.sub_shape(0) == ()
    assert shape_of_cells(t.cells()) == (2, 2)
    assert is_young(t.cells())
    assert not is_young({(1, 1), (1, 3)})


def test_overlap_rejected():
    with pytest.raises(TableauError, match="overlap"):
        make_tableau("C", [(1, ((1, 1), (1, 2))), (2, ((1, 2), (1, 3)))])
    with pytest.raises(TableauError):
        # collides with the core square
        make_tableau("B", [(1, ((1, 1), (2, 1)))])


def test_label_contiguity():
    with pytest.raises(TableauError, match="label"):
        make_tableau("C", [(1, ((1, 1), (1, 2))), (3, ((2, 1), (2, 2)))])
    relaxed = make_tableau(
        "C",
        [(1, ((1, 1), (1, 2))), (3, ((2, 1), (2, 2)))],
        require_contiguous=False,
    )
    assert relaxed.labels() == (1, 3)


def test_prefix_young_condition():
    # 2 alone in row 2 before 1 fills row 1 past it: prefix of 1 not a diagram
    with pytest.raises(TableauError):
        make_tableau("C", [(1, ((1, 2), (1, 3))), (2, ((1, 1), (2, 1)))])
    with pytest.raises(TableauError, match="^cells up to label 1 do not form"):
        DominoTableau("C", (Domino(1, ((1, 2), (1, 3))),))


def test_validate_is_prefix_shape_chain():
    # independent reformulation: standard iff the sub-shapes form a chain
    # of partitions, each step adding one domino
    from domino_tableaux.insertion import rs
    from domino_tableaux.signed_perm import enumerate_group

    for t in ("C", "B"):
        for w in enumerate_group(2):
            tab = rs(w, t).left
            shapes = [tab.sub_shape(k) for k in range(len(w) + 1)]
            for a, b in zip(shapes, shapes[1:]):
                assert sum(b) - sum(a) == 2
                assert all(x >= y for x, y in zip(b, b[1:]))
                assert all(b[i] >= a[i] for i in range(len(a)))


def is_young(cells):
    """Is the cell set the diagram of a partition?  The reference form of
    the prefix definition, which ``misplaced_cell`` reads cell by cell."""
    for r, c in cells:
        if r > 1 and (r - 1, c) not in cells:
            return False
        if c > 1 and (r, c - 1) not in cells:
            return False
    return True


def _first_bad_prefix(lie_type, dominoes):
    """Prefix oracle: the first label k whose prefix (core plus labels <= k)
    is not a Young diagram, or None when every prefix is one."""
    for d in dominoes:
        prefix = set(core_cells(lie_type))
        prefix.update(c for e in dominoes if e.label <= d.label for c in e.cells)
        if not is_young(prefix):
            return d.label
    return None


def _random_layout(rng, lie_type):
    """Up to five non-overlapping dominoes in a 5x5 box, off the core, with
    increasing (possibly gapped) labels."""
    taken = set(core_cells(lie_type))
    cells = []
    for _ in range(rng.randint(1, 5)):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        pair = ((r, c), (r, c + 1) if rng.random() < 0.5 else (r + 1, c))
        if not taken & set(pair):
            taken.update(pair)
            cells.append(pair)
    rng.shuffle(cells)
    labels = sorted(rng.sample(range(1, 9), len(cells)))
    return lie_type, tuple(Domino(k, cs) for k, cs in zip(labels, cells))


def test_local_rule_matches_prefix_oracle():
    # the constructor applies the local up/left-neighbour rule in one pass;
    # it must accept and reject exactly what the prefix definition does, and
    # name the first prefix that fails
    from domino_tableaux.enumeration import all_sdt
    from domino_tableaux.partitions import partitions_of

    def check(lie_type, dominoes):
        try:
            tab = DominoTableau(lie_type, dominoes)
            why = None
        except TableauError as exc:
            why = str(exc)
        else:
            # the row lengths counted during the check are the shape
            assert tab.shape() == shape_of_cells(tab.cells())
        bad = _first_bad_prefix(lie_type, dominoes)
        assert (why is None) == (bad is None), (lie_type, dominoes, why)
        if bad is not None:
            assert why == f"cells up to label {bad} do not form a Young diagram"
        return why is None

    standard = []
    for t, core in (("C", 0), ("B", 1)):
        for n in range(5):
            for shape in partitions_of(2 * n + core):
                standard.extend(all_sdt(shape, t))
    assert len(standard) == 210 and all(check(tab.lie_type, tab.dominoes) for tab in standard)
    rng = random.Random(20240611)
    verdicts = [check(*_random_layout(rng, rng.choice("BC"))) for _ in range(3000)]
    # relabelled standard tableaux reach the subtler rejections: the cells
    # fill a Young diagram but the label order is wrong
    for tab in standard * 4:
        labels = sorted(rng.sample(range(1, 12), len(tab.dominoes)))
        rng.shuffle(labels)
        relabelled = sorted(
            (Domino(k, d.cells) for k, d in zip(labels, tab.dominoes)),
            key=lambda d: d.label,
        )
        verdicts.append(check(tab.lie_type, tuple(relabelled)))
    assert verdicts.count(True) > 150 and verdicts.count(False) > 1500


def test_kept_views_match_the_dominoes():
    # shape(), cells() and cell_owner() read what the constructor kept, or
    # what replace_cells derived from its source's; each must equal a
    # recomputation from the dominoes alone
    from domino_tableaux.cycles import Coloring, all_cycles, move_through
    from domino_tableaux.enumeration import all_sdt
    from domino_tableaux.partitions import partitions_of

    gapped = make_tableau(
        "B",
        [(2, ((1, 2), (1, 3))), (7, ((2, 1), (3, 1))), (9, ((1, 4), (1, 5)))],
        require_contiguous=False,
    )
    tableaux = [gapped]
    for t, core in (("C", 0), ("B", 1)):
        for n in range(6):
            for shape in partitions_of(2 * n + core):
                tableaux.extend(all_sdt(shape, t))
    assert len(tableaux) == 1 + 2 * (1 + 2 + 6 + 20 + 76 + 312)
    relocated = [replace_cells(gapped, {7: ((2, 1), (2, 2)), 9: ((3, 1), (3, 2))})]
    for tab in tableaux:
        for col in Coloring:
            relocated.extend(move_through(tab, cy) for cy in all_cycles(tab, col) if cy.moves)
    assert len(relocated) > 2000
    for tab in tableaux + relocated:
        owner = {c: 0 for c in core_cells(tab.lie_type)}
        for d in tab.dominoes:
            owner.update(dict.fromkeys(d.cells, d.label))
        rows = max((r for r, _ in owner), default=0)
        shape = tuple(sum(1 for r, _ in owner if r == row) for row in range(1, rows + 1))
        assert tab.cell_owner() == owner
        assert tab.cells() == frozenset(owner)
        assert tab.shape() == tab.sub_shape(len(tab.dominoes)) == shape
    # the constructor's map lists the cells in label order
    for tab in tableaux:
        assert list(tab.cell_owner().values()) == sorted(tab.cell_owner().values())
    assert gapped.shape() == (5, 1, 1) and relocated[0].shape() == (3, 2, 2)


def _relocation(rng, tab):
    """New cells for 1-3 labels of tab: a random position near the shape,
    a turn or shift about one of the label's cells, or another chosen
    label's cells."""
    labels = rng.sample(tab.labels(), min(len(tab.dominoes), rng.randint(1, 3)))
    rows, cols = len(tab.shape()) + 1, tab.shape()[0] + 1
    moves = {}
    for k in labels:
        kind = rng.randrange(3)
        if kind == 0:
            r, c = rng.randint(1, rows), rng.randint(1, cols)
            moves[k] = ((r, c), (r, c + 1) if rng.random() < 0.5 else (r + 1, c))
        elif kind == 1:
            r, c = rng.choice(tab.domino(k).cells)
            moves[k] = ((r, c), rng.choice(((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))))
        else:
            moves[k] = tab.domino(rng.choice(labels)).cells
    return moves


def test_replace_cells_matches_the_constructor(monkeypatch):
    # replace_cells checks only the cells a relocation can change; on
    # seeded relocations of every standard tableau of rank <= 5 it must
    # accept exactly what the full constructor accepts, build an equal
    # tableau with equal views without running the full check, and refuse
    # with the full check's message
    from domino_tableaux.enumeration import all_sdt
    from domino_tableaux.partitions import partitions_of

    full = []
    check = DominoTableau.__init__
    monkeypatch.setattr(
        DominoTableau, "__init__", lambda t, *args: full.append(t) or check(t, *args)
    )
    rng = random.Random(20261019)
    verdicts = []
    for t, core in (("C", 0), ("B", 1)):
        for n in range(1, 6):
            for shape in partitions_of(2 * n + core):
                for tab in all_sdt(shape, t):
                    for _ in range(6):
                        moves = _relocation(rng, tab)
                        try:
                            ds = tuple(
                                Domino(d.label, moves[d.label]) if d.label in moves else d
                                for d in tab.dominoes
                            )
                            want, why = DominoTableau(t, ds), None
                        except TableauError as exc:
                            want, why = None, str(exc)
                        del full[:]
                        try:
                            got, err = replace_cells(tab, moves), None
                        except TableauError as exc:
                            got, err = None, str(exc)
                        assert err == why, (tab, moves)
                        if want is not None:
                            assert full == [] and got == want
                            assert got.shape() == want.shape() and got.cells() == want.cells()
                            assert got.cell_owner() == want.cell_owner()
                        verdicts.append(why)
    refusals = {why.split(" ")[0] for why in verdicts if why}
    assert refusals == {"cell", "cells", "domino"}  # overlap, prefix, Domino
    assert verdicts.count(None) > 600 and len(verdicts) - verdicts.count(None) > 2000


def test_cell_owner_is_a_fresh_copy():
    t = make_tableau("B", [(1, ((1, 2), (1, 3))), (2, ((2, 1), (2, 2)))])
    shape, cells, owner = t.shape(), t.cells(), t.cell_owner()
    mine = t.cell_owner()
    mine[(1, 1)] = 7
    del mine[(1, 2)]
    mine[(5, 5)] = 3
    assert t.shape() == shape == (3, 2)
    assert t.cells() == cells and t.cell_owner() == owner and t.cell_owner() is not mine


def test_kept_views_leave_equality_hash_and_repr_alone():
    t = make_tableau("C", H_PAIR_C)
    there = replace_cells(t, {2: ((2, 1), (3, 1))})
    back = replace_cells(there, {2: ((2, 1), (2, 2))})
    built = DominoTableau("C", (Domino(1, [[1, 2], [1, 1]]), Domino(2, ((2, 1), (2, 2)))))
    for other in (back, built):
        assert other == t and hash(other) == hash(t) and repr(other) == repr(t)
        assert other.shape() == t.shape() and other.cell_owner() == t.cell_owner()
    assert there != t and there.shape() == (2, 1, 1)
    assert repr(t) == f"DominoTableau(lie_type='C', dominoes={t.dominoes!r})"


def test_replace_cells():
    t = make_tableau("C", H_PAIR_C)
    moved = replace_cells(t, {2: ((2, 1), (3, 1))})
    assert moved.shape() == (2, 1, 1)
    assert moved.domino(1) is t.domino(1)
    with pytest.raises(TableauError, match="^cells up to label 2 do not form"):
        replace_cells(t, {2: ((2, 2), (2, 3))})
    with pytest.raises(TableauError, match="^cell \\(1, 2\\) of domino 2 overlaps domino 1$"):
        replace_cells(t, {2: ((1, 2), (2, 2))})
    with pytest.raises(KeyError, match="no domino labeled 99"):
        replace_cells(t, {99: ((5, 5), (5, 6))})


def test_replace_cells_keeps_gapped_labels():
    # a relocation cannot change the label set, so gaps in it are fine
    t = make_tableau("B", [(2, ((1, 2), (1, 3))), (7, ((2, 1), (3, 1)))], require_contiguous=False)
    moved = replace_cells(t, {7: ((2, 1), (2, 2))})
    assert moved.labels() == (2, 7) and moved.shape() == (3, 2)
    assert moved.domino(2) is t.domino(2)


def test_no_check_reruns_on_a_domino(monkeypatch):
    # a Domino is valid once built: make_tableau keeps the Dominoes it is
    # given and replace_cells builds only the relocated ones
    built = []
    check = Domino.__init__
    monkeypatch.setattr(
        Domino, "__init__", lambda d, label, cells: built.append(label) or check(d, label, cells)
    )
    ds = [Domino(2, ((2, 1), (2, 2))), Domino(1, ((1, 1), (1, 2)))]
    del built[:]
    t = make_tableau("C", ds)
    assert built == [] and t.dominoes[0] is ds[1] and t.dominoes[1] is ds[0]
    moved = replace_cells(t, {2: ((2, 1), (3, 1))})
    assert built == [2] and moved.dominoes[0] is ds[1]
    make_tableau("C", [(1, ((1, 1), (1, 2)))])
    assert built == [2, 1]


def test_render():
    t = make_tableau("B", [(1, ((1, 2), (1, 3))), (2, ((2, 1), (2, 2)))])
    assert render(t) == "0 1 1\n2 2"


def test_json_round_trip():
    t = make_tableau("C", H_PAIR_C)
    doc = to_json_dict(t)
    assert doc["type"] == "C"
    assert from_json_dict(doc) == t
    assert deserialize(serialize(t)) == t
    # canonical key order
    assert serialize(t) == json.dumps(doc, sort_keys=True)


def test_deserialize_rejects_garbage():
    with pytest.raises((TableauError, ValueError, KeyError)):
        from_json_dict({"type": "Z", "dominoes": []})
    with pytest.raises((TableauError, ValueError, KeyError)):
        deserialize('{"type": "C", "dominoes": [{"label": 1, "cells": [[1, 1]]}]}')


@pytest.mark.parametrize("dominoes", [5, None, "x", {}, ""])
def test_from_json_dict_needs_a_domino_list(dominoes):
    with pytest.raises(TableauError, match="malformed tableau document"):
        from_json_dict({"type": "C", "dominoes": dominoes})


# to_json_dict writes integers only; a float, bool or string in their place
# is malformed, not rounded to a nearby integer.
@pytest.mark.parametrize(
    "label, cells",
    [
        (1.9, [[1, 1], [1, 2]]),
        (True, [[1, 1], [1, 2]]),
        ("1", [[1, 1], [1, 2]]),
        (1, [[1.5, 1], [1, 2]]),
        (1, [[1, 1], [1, 2.0]]),
        (1, [[1, 1], [True, 2]]),
    ],
)
def test_from_json_dict_accepts_only_integers(label, cells):
    doc = {"type": "C", "dominoes": [{"label": label, "cells": cells}]}
    with pytest.raises(TableauError, match="malformed domino entry"):
        from_json_dict(doc)
