import hashlib
import json
import random
import re
import time
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domino_tableaux import insertion
from domino_tableaux.enumeration import all_sdt
from domino_tableaux.insertion import (
    TableauPair,
    pair_deserialize,
    pair_serialize,
    pair_to_json_dict,
    rs,
    rs_inverse,
)
from domino_tableaux.partitions import partitions_of
from domino_tableaux.signed_perm import as_signed_perm, enumerate_group
from domino_tableaux.tableau import (
    Cell,
    Domino,
    DominoTableau,
    TableauError,
    core_cells,
    make_tableau,
    misplaced_cell,
)


def C(*dominoes):
    return make_tableau("C", list(dominoes))


def B(*dominoes):
    return make_tableau("B", list(dominoes))


H1 = (1, ((1, 1), (1, 2)))
V1 = (1, ((1, 1), (2, 1)))

# left and right tableaux for every element of the rank-2 type C group
RANK2_TABLE = {
    (1, 2): (C(H1, (2, ((1, 3), (1, 4)))), C(H1, (2, ((1, 3), (1, 4))))),
    (2, 1): (C(H1, (2, ((2, 1), (2, 2)))), C(H1, (2, ((2, 1), (2, 2))))),
    (-1, 2): (C(V1, (2, ((1, 2), (1, 3)))), C(V1, (2, ((1, 2), (1, 3))))),
    (1, -2): (C(H1, (2, ((2, 1), (3, 1)))), C(H1, (2, ((2, 1), (3, 1))))),
    (2, -1): (C(V1, (2, ((1, 2), (2, 2)))), C(H1, (2, ((2, 1), (2, 2))))),
    (-2, 1): (C(H1, (2, ((2, 1), (2, 2)))), C(V1, (2, ((1, 2), (2, 2))))),
    (-1, -2): (C(V1, (2, ((3, 1), (4, 1)))), C(V1, (2, ((3, 1), (4, 1))))),
    (-2, -1): (C(V1, (2, ((1, 2), (2, 2)))), C(V1, (2, ((1, 2), (2, 2))))),
}


def test_rank2_type_c_table():
    for w, (left, right) in RANK2_TABLE.items():
        pair = rs(w, "C")
        assert pair.left == left, w
        assert pair.right == right, w


def test_rank2_type_b_spots():
    pair = rs((1, -2), "B")
    expected = B((1, ((1, 2), (1, 3))), (2, ((2, 1), (3, 1))))
    assert pair.left == expected and pair.right == expected
    pair = rs((2, 1), "B")
    expected = B((1, ((1, 2), (1, 3))), (2, ((2, 1), (2, 2))))
    assert pair.left == expected and pair.right == expected
    assert pair.left.shape() == (3, 2)


def test_rank3_spots():
    pair = rs((-2, 1, -3), "C")
    assert pair.left == C(
        H1, (2, ((2, 1), (2, 2))), (3, ((3, 1), (4, 1)))
    )
    assert pair.right == C(
        V1, (2, ((1, 2), (2, 2))), (3, ((3, 1), (4, 1)))
    )
    pair = rs((3, 1, 2), "C")
    assert pair.left == C(H1, (2, ((1, 3), (1, 4))), (3, ((2, 1), (2, 2))))
    assert pair.right == C(H1, (2, ((2, 1), (2, 2))), (3, ((1, 3), (1, 4))))
    pair = rs((-1, 2, 3), "C")
    assert pair.left.shape() == (5, 1)
    assert pair.left == C(V1, (2, ((1, 2), (1, 3))), (3, ((1, 4), (1, 5))))


def test_tableau_pair_rejects_mismatch():
    row = RANK2_TABLE[(1, 2)][0]
    with pytest.raises(TableauError, match="^pair mixes tableau types$"):
        TableauPair(C(H1), B((1, ((1, 2), (1, 3)))))
    with pytest.raises(TableauError, match=re.escape("pair shapes differ: (4,) vs (2, 2)")):
        TableauPair(row, RANK2_TABLE[(2, 1)][0])
    gapped = make_tableau("C", [H1, (3, ((1, 3), (1, 4)))], require_contiguous=False)
    with pytest.raises(TableauError, match="^pair label sets differ$"):
        TableauPair(row, gapped)


def signed_perms(n):
    return st.permutations(list(range(1, n + 1))).flatmap(
        lambda p: st.tuples(*[st.sampled_from((v, -v)) for v in p])
    )


@settings(max_examples=200)
@given(signed_perms(6), st.sampled_from(["C", "B"]))
def test_round_trip_random_rank6(w, t):
    w = as_signed_perm(w)
    assert rs_inverse(rs(w, t)) == w


def test_rs_inverse_refuses_a_gapped_label_set():
    # unwinding needs labels 1..m; every pair of rank 4, relabeled onto
    # three gapped label sets, is refused up front with make_tableau's
    # message, whichever step a gap would have broken
    def relabeled(tableau, labels):
        ds = [(labels[d.label - 1], d.cells) for d in tableau.dominoes]
        return make_tableau("C", ds, require_contiguous=False)

    refused = 0
    for labels in ((2, 3, 4, 5), (1, 2, 3, 5), (1, 3, 4, 5)):
        message = f"^labels must be 1..4, got {re.escape(str(list(labels)))}$"
        for w in enumerate_group(4):
            pair = rs(w, "C")
            gapped = TableauPair(relabeled(pair.left, labels), relabeled(pair.right, labels))
            with pytest.raises(TableauError, match=message):
                rs_inverse(gapped)
            refused += 1
    assert refused == 1152


def test_rs_refuses_entries_that_are_not_ints():
    with pytest.raises(ValueError, match="^signed permutation entries must be ints, got 1.5$"):
        rs((1.5, -2.7), "C")
    with pytest.raises(ValueError, match="^signed permutation entries must be ints, got True$"):
        rs((True,), "B")


def _grid(owner):
    """The forward kernel's rows and columns of a gapless owner map."""
    rows, cols = defaultdict(list), defaultdict(list)
    for r, c in sorted(owner):
        rows[r].append(owner[(r, c)])
    for r, c in sorted(owner, key=lambda cell: cell[::-1]):
        cols[c].append(owner[(r, c)])
    return rows, cols


@pytest.mark.parametrize("t, standard, misplaced", [("C", 180, 446), ("B", 222, 404)])
def test_grid_check_agrees_with_misplaced_cell(t, standard, misplaced):
    # the kernel's check on the grid and the tableau's on the owner map
    # state one rule; they must pick the same cell on every standard
    # tableau of rank <= 4, and on each of those with two labels swapped
    # (some swaps stay standard)
    verdicts = {True: 0, False: 0}
    for n in range(1, 5):
        size = 2 * n + (1 if t == "B" else 0)
        for tab in (tab for shape in partitions_of(size) for tab in all_sdt(shape, t)):
            base = tab.cell_owner()
            cells = sorted({(r + i, c + j) for r, c in base for i, j in ((0, 0), (1, 0), (0, 1))})
            swaps = [{}] + [{a: b, b: a} for a, b in combinations(tab.labels(), 2)]
            for swap in swaps:
                owner = {cell: swap.get(lbl, lbl) for cell, lbl in base.items()}
                expected = misplaced_cell(owner, cells)
                assert insertion._misplaced(*_grid(owner), cells) == expected, (tab, swap)
                verdicts[expected is None] += 1
    assert verdicts == {True: standard, False: misplaced}


def test_new_cell_guard_refuses_a_gap():
    # label 4 fills column 1 and label 2 column 2, out of order.  Inserting
    # 1 covers the top of 2, which twists onto (2, 2), (2, 3); (2, 3) would
    # sit below the empty (1, 3), so the guard refuses it as it is claimed
    layout = {4: ((1, 1), (2, 1)), 2: ((1, 2), (2, 2))}
    rows, cols = _grid({cell: lbl for lbl, cells in layout.items() for cell in cells})
    message = "^cells up to label 2 do not form a Young diagram$"
    with pytest.raises(TableauError, match=message):
        insertion._insert(layout, rows, cols, 1)
    assert (rows[2], cols[3]) == ([4, 2], [])


def test_pair_serialization_round_trip():
    for w in enumerate_group(2):
        pair = rs(w, "B")
        assert pair_deserialize(pair_serialize(pair)) == pair


# --- Oracle: full-rebuild insertion -------------------------------------
# Every letter re-derives the whole tableau from the set of placed cells,
# measuring each row and column by scanning all of them, and the inverse
# scans every label on each step.  Slow but direct; the incremental kernel
# in ``insertion`` must agree with it exactly.


def _row_len(cells: set[Cell], row: int) -> int:
    return sum(1 for r, _ in cells if r == row)


def _col_len(cells: set[Cell], col: int) -> int:
    return sum(1 for _, c in cells if c == col)


def _initial_cells(current: set[Cell], value: int) -> tuple[Cell, Cell]:
    if value > 0:
        length = _row_len(current, 1)
        return ((1, length + 1), (1, length + 2))
    length = _col_len(current, 1)
    return ((length + 1, 1), (length + 2, 1))


def _reinsert(current: set[Cell], d: Domino) -> tuple[Cell, Cell]:
    c1, c2 = d.cells
    covered1, covered2 = c1 in current, c2 in current
    if not covered1 and not covered2:
        return d.cells
    if d.horizontal:
        row, col = c1
        if covered1 and covered2:
            length = _row_len(current, row + 1)
            return ((row + 1, length + 1), (row + 1, length + 2))
        if covered1:
            return ((row, col + 1), (row + 1, col + 1))
        raise TableauError(f"domino {d.label}: right cell covered but left free")
    row, col = c1
    if covered1 and covered2:
        length = _col_len(current, col + 1)
        return ((length + 1, col + 1), (length + 2, col + 1))
    if covered1:
        return ((row + 1, col), (row + 1, col + 1))
    raise TableauError(f"domino {d.label}: bottom cell covered but top free")


def oracle_insert_letter(tableau: DominoTableau, value: int) -> DominoTableau:
    label = abs(value)
    if label == 0:
        raise TableauError("cannot insert 0")
    if label in tableau.labels():
        raise TableauError(f"label {label} already present")
    smaller = [d for d in tableau.dominoes if d.label < label]
    larger = [d for d in tableau.dominoes if d.label > label]
    current: set[Cell] = set(core_cells(tableau.lie_type))
    for d in smaller:
        current.update(d.cells)
    placed = {label: _initial_cells(current, value)}
    current.update(placed[label])
    for d in larger:
        cells = _reinsert(current, d)
        placed[d.label] = cells
        current.update(cells)
    dominoes = smaller + [Domino(lbl, placed[lbl]) for lbl in placed]
    return make_tableau(tableau.lie_type, dominoes, require_contiguous=False)


def oracle_rs(w, lie_type: str) -> TableauPair:
    w = as_signed_perm(w)
    left = make_tableau(lie_type, [])
    recording = []
    for step, value in enumerate(w, start=1):
        grown = oracle_insert_letter(left, value)
        recording.append(Domino(step, grown.cells() - left.cells()))
        left = grown
    return TableauPair(left, make_tableau(lie_type, recording))


def _reverse_step(lie_type: str, work: dict, delta: set[Cell]) -> tuple[int, dict]:
    region = set(delta)
    out = dict(work)
    for k in sorted(work, reverse=True):
        new = work[k]
        meet = region & set(new)
        if not meet:
            continue
        horizontal = new[0][0] == new[1][0]
        if len(meet) == 2:
            if horizontal and new[0][0] == 1:
                del out[k]
                return k, out
            if not horizontal and new[0][1] == 1:
                del out[k]
                return -k, out
            prefix = set(core_cells(lie_type))
            for lbl, cells in work.items():
                if lbl < k:
                    prefix.update(cells)
            if horizontal:
                row = new[0][0]
                length = _row_len(prefix, row - 1)
                if length < 2:
                    raise TableauError(f"no room to unslide domino {k}")
                old = ((row - 1, length - 1), (row - 1, length))
            else:
                col = new[0][1]
                length = _col_len(prefix, col - 1)
                if length < 2:
                    raise TableauError(f"no room to unslide domino {k}")
                old = ((length - 1, col - 1), (length, col - 1))
        else:
            (mr, mc) = next(iter(meet))
            (r, c) = new[0]
            if not horizontal:
                if (mr, mc) != (r + 1, c) or c < 2:
                    raise TableauError(f"inconsistent region at domino {k}")
                old = ((r, c - 1), (r, c))
            else:
                if (mr, mc) != (r, c + 1) or r < 2:
                    raise TableauError(f"inconsistent region at domino {k}")
                old = ((r - 1, c), (r, c))
        out[k] = old
        region = (region | set(old)) - set(new)
        if len(region) != 2:
            raise TableauError(f"region lost track at domino {k}")
    raise TableauError("recording domino does not trace back to an insertion")


def oracle_rs_inverse(pair: TableauPair):
    work = {d.label: d.cells for d in pair.left.dominoes}
    values = []
    for step in range(len(pair.right.dominoes), 0, -1):
        value, work = _reverse_step(pair.left.lie_type, work, set(pair.right.domino(step).cells))
        values.append(value)
    assert not work
    values.reverse()
    return as_signed_perm(values)


def random_signed_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(v if rng.random() < 0.5 else -v for v in perm)


@pytest.mark.parametrize("t", ["C", "B"])
def test_kernel_matches_oracle_exhaustive_rank5(t):
    for n in range(1, 6):
        for w in enumerate_group(n):
            pair = rs(w, t)
            assert pair == oracle_rs(w, t), w
            assert rs_inverse(pair) == oracle_rs_inverse(pair) == w


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_kernel_matches_oracle_random_words(t, n):
    rng = random.Random(1000 * n + ord(t))
    for _ in range(3 if n < 128 else 1):
        w = random_signed_perm(rng, n)
        pair = rs(w, t)
        assert pair == oracle_rs(w, t)
        assert rs_inverse(pair) == oracle_rs_inverse(pair) == w


# sha256 of the canonical JSON of rs(w) over 20 seeded words at each of the
# ranks 16, 64 and 128; a speed change to rs must leave these answers alone.
RS_DIGESTS = {
    "C": "5429cd07a64c93861486c6ebca5e8d9dea5a555738b7e56909bdcd58d78c649d",
    "B": "70eea0f989c0b1fff57f495326f642ba5b67418d5167e10cda7160801add78a4",
}


@pytest.mark.parametrize("t", ["C", "B"])
def test_rs_answers_are_pinned(t):
    rng = random.Random(f"rs-digest-{t}")
    digest = hashlib.sha256()
    for n in (16, 64, 128):
        for _ in range(20):
            pair = rs(random_signed_perm(rng, n), t)
            digest.update(json.dumps(pair_to_json_dict(pair), sort_keys=True).encode())
    assert digest.hexdigest() == RS_DIGESTS[t]


# the same over 10 seeded words at each of the ranks 256 and 512, whose long
# rows and columns the pins above do not reach; taken from the dict kernel
# that walked each line cell by cell
RS_DIGESTS_LARGE = {
    "C": "098c03c0a309c03777878f51725c524d960ccc4d6cd35ffea47e9d9f450ddedb",
    "B": "4f49069279e4b6a7ef7e410363f8c32239c53a1b900c2fdefba24c74a0358d17",
}


@pytest.mark.parametrize("t", ["C", "B"])
def test_rs_answers_are_pinned_at_large_ranks(t):
    rng = random.Random(f"rs-digest-large-{t}")
    digest = hashlib.sha256()
    for n in (256, 512):
        for _ in range(10):
            pair = rs(random_signed_perm(rng, n), t)
            digest.update(json.dumps(pair_to_json_dict(pair), sort_keys=True).encode())
    assert digest.hexdigest() == RS_DIGESTS_LARGE[t]


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("n", [16, 64])
def test_rs_builds_each_domino_once(t, n, monkeypatch):
    # the kernel moves plain cells; only the two result tableaux build, and
    # so check, their dominoes
    built = []
    check = Domino.__init__

    def counted(d, label, cells):
        built.append(label)
        check(d, label, cells)

    monkeypatch.setattr(Domino, "__init__", counted)
    rng = random.Random(f"builds-{t}{n}")
    for _ in range(5):
        built.clear()
        rs(random_signed_perm(rng, n), t)
        assert sorted(built) == sorted(2 * list(range(1, n + 1)))


@pytest.mark.parametrize("t", ["C", "B"])
def test_rs_round_trip_scales_on_rank_512(t):
    w = random_signed_perm(random.Random(512), 512)
    start = time.perf_counter()
    pair = rs(w, t)
    back = rs_inverse(pair)
    elapsed = time.perf_counter() - start
    assert back == w
    left, right = (make_tableau(t, side.dominoes) for side in (pair.left, pair.right))
    assert TableauPair(left, right) == pair
    # the full-rebuild insertion takes about 1.5 s per type here
    assert elapsed < 0.75, f"rank-512 round trip took {elapsed:.2f} s"
