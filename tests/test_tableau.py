import json
import random

import pytest

from domino_tableaux.tableau import (
    DominoTableau,
    TableauError,
    core_cells,
    deserialize,
    from_json_dict,
    is_young,
    make_domino,
    make_tableau,
    render,
    replace_cells,
    serialize,
    shape_of_cells,
    to_json_dict,
    validate,
)

H_PAIR_C = [(1, ((1, 1), (1, 2))), (2, ((2, 1), (2, 2)))]


def test_make_domino_validation():
    d = make_domino(3, [(1, 2), (1, 1)])
    assert d.cells == ((1, 1), (1, 2))
    assert d.horizontal
    assert not make_domino(1, [(2, 1), (1, 1)]).horizontal
    with pytest.raises(TableauError):
        make_domino(1, [(1, 1), (1, 3)])  # not adjacent
    with pytest.raises(TableauError):
        make_domino(1, [(1, 1), (2, 2)])  # diagonal
    with pytest.raises(TableauError):
        make_domino(0, [(1, 1), (1, 2)])  # label must be positive
    with pytest.raises(TableauError):
        make_domino(1, [(0, 1), (1, 1)])  # out of the quadrant


def test_core():
    assert core_cells("C") == ()
    assert core_cells("B") == ((1, 1),)
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
    ok, why = validate(
        DominoTableau("C", (make_domino(1, ((1, 2), (1, 3))),)),
        require_contiguous=False,
    )
    assert not ok and "1" in why


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


def _first_bad_prefix(tab):
    """Prefix oracle: the first label k whose prefix (core plus labels <= k)
    is not a Young diagram, or None when every prefix is one."""
    for d in tab.dominoes:
        if not is_young(tab.prefix_cells(d.label)):
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
    return DominoTableau(
        lie_type, tuple(make_domino(k, cs) for k, cs in zip(labels, cells))
    )


def test_local_rule_matches_prefix_oracle():
    # validate applies the local up/left-neighbour rule in one pass; it must
    # accept and reject exactly what the prefix definition does, and name
    # the first prefix that fails
    from domino_tableaux.enumeration import all_sdt
    from domino_tableaux.partitions import partitions_of

    def check(tab):
        ok, why = validate(tab, require_contiguous=False)
        bad = _first_bad_prefix(tab)
        assert ok == (bad is None), (tab, why)
        if bad is not None:
            assert why == f"cells up to label {bad} do not form a Young diagram"
        return ok

    standard = []
    for t, core in (("C", 0), ("B", 1)):
        for n in range(5):
            for shape in partitions_of(2 * n + core):
                standard.extend(all_sdt(shape, t))
    assert len(standard) == 210 and all(check(tab) for tab in standard)
    rng = random.Random(20240611)
    verdicts = [check(_random_layout(rng, rng.choice("BC"))) for _ in range(3000)]
    # relabelled standard tableaux reach the subtler rejections: the cells
    # fill a Young diagram but the label order is wrong
    for tab in standard * 4:
        labels = sorted(rng.sample(range(1, 12), len(tab.dominoes)))
        rng.shuffle(labels)
        relabelled = sorted(
            (make_domino(k, d.cells) for k, d in zip(labels, tab.dominoes)),
            key=lambda d: d.label,
        )
        verdicts.append(check(DominoTableau(tab.lie_type, tuple(relabelled))))
    assert verdicts.count(True) > 150 and verdicts.count(False) > 1500


def test_replace_cells():
    t = make_tableau("C", H_PAIR_C)
    moved = replace_cells(t, {2: ((2, 1), (3, 1))})
    assert moved.shape() == (2, 1, 1)
    assert moved.domino(1) == t.domino(1)


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
