import pytest

from domino_tableaux.insertion import TableauPair, rs, rs_inverse
from domino_tableaux.operators import (
    OperatorUndefinedError,
    equal_length_domain,
    type_d_domain,
    unequal_length_domain,
    wall_cross_equal_length,
    wall_cross_type_d,
    wall_cross_unequal_length,
)
from domino_tableaux.signed_perm import enumerate_group, left_descents, right_descents
from domino_tableaux.tableau import make_tableau


def cells(tableau):
    return sorted((d.label, d.cells) for d in tableau.dominoes)


def rebuilt(tableau):
    """The tableau built again from its raw cells, so every check reruns."""
    return make_tableau(tableau.lie_type, cells(tableau))


def test_tau_frozen():
    # the tau-invariant's two sides; the left one is attached to varieties
    assert left_descents((1, -2)) == frozenset({2})
    assert left_descents((2, -1)) == frozenset({1})
    assert right_descents((2, -1)) == frozenset({2})
    assert left_descents((1, 2, 3)) == frozenset()


def test_equal_length_frozen():
    assert wall_cross_equal_length((2, 1, 3), 2, 3) == (2, 3, 1)
    assert wall_cross_equal_length((2, 3, 1), 2, 3) == (2, 1, 3)


def test_equal_length_domain_reports():
    assert not equal_length_domain((1, 2, 3), 2, 3).defined  # neither descends
    assert not equal_length_domain((3, 2, 1), 2, 3).defined  # both descend
    assert not equal_length_domain((2, 1, 3), 3, 4).defined  # rank exceeded
    assert not equal_length_domain((2, 1, 3, 4), 2, 4).defined  # not adjacent
    assert not equal_length_domain((2, 1, 3), 1, 2).defined  # sign-change root
    with pytest.raises(OperatorUndefinedError) as err:
        wall_cross_equal_length((1, 2, 3), 2, 3)
    assert not err.value.report.defined
    assert set(err.value.report.to_json_dict()) == {"defined", "case", "reason"}


@pytest.mark.parametrize("n", [3, 4])
def test_equal_length_involution_and_left_tableau(n):
    seen = 0
    for w in enumerate_group(n):
        for i in range(2, n):
            j = i + 1
            if not equal_length_domain(w, i, j).defined:
                continue
            seen += 1
            image = wall_cross_equal_length(w, i, j)
            assert equal_length_domain(image, i, j).defined
            assert wall_cross_equal_length(image, i, j) == w
            for t in ("C", "B"):
                assert rs(image, t).left == rs(w, t).left
    assert seen > 0


def test_unequal_length_c_31_case():
    pair = rs((-1, 2), "C")
    assert unequal_length_domain(pair).case == "(3,1)"
    assert wall_cross_unequal_length(pair) == rs((2, -1), "C")


def test_unequal_length_c_22_case():
    pair = rs((2, -1), "C")
    assert unequal_length_domain(pair).case == "(2,2)"
    out = wall_cross_unequal_length(pair)
    assert out == rs((-2, -1), "C")
    assert out.left is pair.left  # the left tableau is not rebuilt


def test_unequal_length_b_32_case():
    pair = rs((2, 1), "B")
    assert unequal_length_domain(pair).case == "(3,2)"
    out = wall_cross_unequal_length(pair)
    assert cells(out.left) == [(1, ((1, 2), (1, 3))), (2, ((2, 1), (3, 1)))]
    assert cells(out.right) == [(1, ((2, 1), (3, 1))), (2, ((1, 2), (1, 3)))]
    assert out == rs((-2, 1), "B")


def test_unequal_length_b_311_case():
    pair = rs((1, -2), "B")
    assert pair.left == pair.right
    assert unequal_length_domain(pair).case == "(3,1,1)"
    out = wall_cross_unequal_length(pair)
    assert out.left is pair.left
    assert cells(out.right) == [(1, ((2, 1), (3, 1))), (2, ((1, 2), (1, 3)))]
    assert out == rs((-2, 1), "B")


def _gapped(tableau, above, shift=4):
    """The tableau with every label above ``above`` raised by ``shift``."""
    raw = [(d.label + shift * (d.label > above), d.cells) for d in tableau.dominoes]
    return make_tableau(tableau.lie_type, raw, require_contiguous=False)


def _gapped_pair(pair, above):
    return TableauPair(_gapped(pair.left, above), _gapped(pair.right, above))


def test_unequal_length_b_311_case_with_gapped_labels():
    # a relocation keeps the label set, so a gap in it must not matter
    pair = rs((1, -2, 3), "B")
    assert unequal_length_domain(pair).case == "(3,1,1)"
    gapped = _gapped_pair(pair, 2)
    assert gapped.right.labels() == (1, 2, 7)
    assert wall_cross_unequal_length(gapped) == _gapped_pair(wall_cross_unequal_length(pair), 2)


@pytest.mark.parametrize("t", ["C", "B"])
def test_operators_commute_with_a_label_gap(t):
    # every pair of rank <= 4 with a gap of 4 in its labels above each
    # label position, inside the operator's head too: the operators read
    # their head by rank, so the image, or the refusal, is the contiguous
    # pair's, relabelled
    cases = set()
    for n in (2, 3, 4):
        for w in enumerate_group(n):
            pair = rs(w, t)
            for domain, apply in (
                (unequal_length_domain, wall_cross_unequal_length),
                (type_d_domain, wall_cross_type_d),
            ):
                report = domain(pair)
                if report.defined:
                    cases.add(report.case)
                    image = apply(pair)
                for above in range(n):
                    gapped = _gapped_pair(pair, above)
                    assert domain(gapped) == report
                    if report.defined:
                        assert apply(gapped) == _gapped_pair(image, above)
    expected = {"(3,1)", "(2,2)", "(4,3,1)"} if t == "C" else {"(3,2)", "(3,1,1)", "(4,2,1)"}
    assert cases == expected


def test_unequal_length_domain_negatives():
    tall = make_tableau("C", [(1, ((1, 1), (2, 1))), (2, ((3, 1), (4, 1)))])
    report = unequal_length_domain(TableauPair(tall, tall))
    assert not report.defined and "(1, 1, 1, 1)" in report.reason
    single = rs((1,), "C")
    assert not unequal_length_domain(single).defined
    with pytest.raises(OperatorUndefinedError):
        wall_cross_unequal_length(TableauPair(tall, tall))


def test_type_d_c_trace():
    pair = rs((1, -2, 4, 3), "C")
    assert pair.right.shape() == (4, 3, 1)
    assert type_d_domain(pair).case == "(4,3,1)"
    out = wall_cross_type_d(pair)
    assert out.right.shape() == out.left.shape() == (4, 2, 2)
    assert cells(out.right) == [
        (1, ((1, 1), (1, 2))),
        (2, ((2, 1), (2, 2))),
        (3, ((1, 3), (1, 4))),
        (4, ((3, 1), (3, 2))),
    ]
    assert cells(out.left) == [
        (1, ((1, 1), (1, 2))),
        (2, ((2, 1), (3, 1))),
        (3, ((1, 3), (1, 4))),
        (4, ((2, 2), (3, 2))),
    ]
    assert out == rs((4, 1, 3, -2), "C")


def test_type_d_b_trace():
    pair = rs((-2, -1, 3), "B")
    assert pair.right.shape() == (4, 2, 1)
    assert type_d_domain(pair).case == "(4,2,1)"
    out = wall_cross_type_d(pair)
    assert out.right.shape() == out.left.shape() == (3, 3, 1)
    assert cells(out.right) == [
        (1, ((2, 1), (3, 1))),
        (2, ((1, 2), (1, 3))),
        (3, ((2, 2), (2, 3))),
    ]
    assert cells(out.left) == [
        (1, ((2, 1), (3, 1))),
        (2, ((1, 2), (2, 2))),
        (3, ((1, 3), (2, 3))),
    ]
    assert out == rs((-2, 3, -1), "B")


def test_type_d_domain_negatives():
    flat = rs((1, 2, 3, 4), "C")  # head is a single row
    assert not type_d_domain(flat).defined
    small = rs((1, 2), "B")
    assert not type_d_domain(small).defined
    with pytest.raises(OperatorUndefinedError):
        wall_cross_type_d(flat)


def test_type_d_c_vertical_requirement():
    hits = 0
    for w in enumerate_group(4):
        pair = rs(w, "C")
        if pair.right.sub_shape(4) == (4, 3, 1) and pair.right.domino(2).horizontal:
            hits += 1
            report = type_d_domain(pair)
            assert not report.defined and "vertical" in report.reason
    assert hits > 0


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [2, 3])
def test_unequal_length_images_are_rs_pairs(t, n):
    seen = 0
    for w in enumerate_group(n):
        pair = rs(w, t)
        if not unequal_length_domain(pair).defined:
            continue
        seen += 1
        out = wall_cross_unequal_length(pair)
        assert rebuilt(out.left) == out.left and rebuilt(out.right) == out.right
        assert rs(rs_inverse(out), t) == out
    assert seen > 0


def test_type_d_images_are_rs_pairs():
    instances = [(w, "C") for w in enumerate_group(4)] + [
        (w, "B") for w in enumerate_group(3)
    ]
    seen = 0
    for w, t in instances:
        pair = rs(w, t)
        if not type_d_domain(pair).defined:
            continue
        seen += 1
        out = wall_cross_type_d(pair)
        assert rebuilt(out.left) == out.left and rebuilt(out.right) == out.right
        assert rs(rs_inverse(out), t) == out
    assert seen == 3  # two type-C pairs at rank 4, one type-B pair at rank 3
