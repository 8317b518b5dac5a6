import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import domino_tableaux
from domino_tableaux.partitions import (
    as_partition,
    dominates,
    format_partition,
    is_orbit_partition,
    is_special,
    n_statistic,
    orbit_collapse,
    orbit_dual,
    parse_partition,
    partitions_of,
    transpose,
)

# number of partitions of 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_parse_format_round_trip():
    for text in ("[3,1]", "[2,2,1]", "[1]", "[]"):
        assert format_partition(parse_partition(text)) == text
    assert parse_partition("[4, 2]") == (4, 2)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((3, -1))
    assert as_partition((3, 1, 0, 0)) == (3, 1)


def test_partitions_of_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in partitions_of(n)) == expected
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        next(partitions_of(-1))


def _recursive_partitions(n, max_part=None):
    # the recursive form partitions_of replaced; it fails near depth 1000
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_of_keeps_descending_lex_order():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(13):
        assert list(partitions_of(n)) == list(_recursive_partitions(n))


def test_partitions_of_are_partitions_and_distinct():
    seen = set(partitions_of(8))
    assert len(seen) == 22
    for lam in seen:
        assert sum(lam) == 8
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_n_statistic_rises_strictly_down_dominance():
    assert n_statistic((3, 2, 1)) == 4
    for m in range(9):
        shapes = list(partitions_of(m))
        assert max(map(n_statistic, shapes)) == n_statistic((1,) * m) == m * (m - 1) // 2
        for lam, mu in itertools.permutations(shapes, 2):
            if dominates(lam, mu):
                assert n_statistic(lam) < n_statistic(mu), (lam, mu)


def test_dominates_basics():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((3, 1), (3, 1))
    # incomparable pair
    assert not dominates((3, 3), (4, 1, 1)) and not dominates((4, 1, 1), (3, 3))
    with pytest.raises(ValueError):
        dominates((2,), (1,))


@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
def test_transpose_involution(parts):
    lam = as_partition(sorted(parts, reverse=True))
    assert transpose(transpose(lam)) == lam
    assert sum(transpose(lam)) == sum(lam)
    columns = lam[0] if lam else 0
    assert transpose(lam) == tuple(
        sum(1 for part in lam if part >= j) for j in range(1, columns + 1)
    )


def test_orbit_partition_predicate():
    # type C: odd parts occur an even number of times
    assert is_orbit_partition((2, 2), "C")
    assert is_orbit_partition((4,), "C")
    assert is_orbit_partition((3, 3, 1, 1), "C")
    assert not is_orbit_partition((3, 1), "C")
    assert not is_orbit_partition((2, 1, 1, 1), "C")
    # type B: even parts occur an even number of times
    assert is_orbit_partition((3, 1, 1), "B")
    assert is_orbit_partition((5,), "B")
    assert is_orbit_partition((2, 2, 1), "B")
    assert not is_orbit_partition((3, 2), "B")
    assert not is_orbit_partition((4, 1), "B")
    # a type-B orbit partition has odd size, whatever its parts
    assert not is_orbit_partition((1, 1), "B")
    assert not is_orbit_partition((3, 1), "B")
    assert not is_orbit_partition((), "B")


def test_collapse_frozen_values():
    assert orbit_collapse((3, 1), "C") == (2, 2)
    assert orbit_collapse((5, 1), "C") == (4, 2)
    assert orbit_collapse((3, 1, 1, 1), "C") == (2, 2, 1, 1)
    assert orbit_collapse((4, 1), "B") == (3, 1, 1)
    assert orbit_collapse((3, 2), "B") == (3, 1, 1)
    assert orbit_collapse((2, 2), "C") == (2, 2)
    assert orbit_collapse((5,), "B") == (5,)


def test_collapse_rejects_odd_size_for_c():
    with pytest.raises(ValueError):
        orbit_collapse((3, 1, 1), "C")


def test_collapse_rejects_even_size_for_b():
    for lam in ((2,), (1, 1), (3, 1)):
        with pytest.raises(ValueError, match="even size"):
            orbit_collapse(lam, "B")


def test_orbit_predicates_refuse_non_partitions():
    # the message names the input, not an intermediate of the collapse
    for check in (is_orbit_partition, orbit_collapse, orbit_dual, is_special):
        for group_type in ("C", "B"):
            with pytest.raises(ValueError, match=r"\[1, 3\]"):
                check((1, 3), group_type)


def _greatest_dominated_orbit_partition(lam, group_type):
    """Brute force: the dominance-greatest orbit partition below lam."""
    best = None
    for mu in partitions_of(sum(lam)):
        if not is_orbit_partition(mu, group_type):
            continue
        if not dominates(lam, mu):
            continue
        if best is None or dominates(mu, best):
            best = mu
    return best


def test_collapse_is_greatest_dominated_orbit_partition():
    for size in range(2, 11, 2):
        for lam in partitions_of(size):
            assert orbit_collapse(lam, "C") == _greatest_dominated_orbit_partition(
                lam, "C"
            ), lam
    for size in range(1, 10, 2):
        for lam in partitions_of(size):
            assert orbit_collapse(lam, "B") == _greatest_dominated_orbit_partition(
                lam, "B"
            ), lam


def test_dual_reverses_dominance():
    for group_type, size in (("C", 6), ("B", 7)):
        orbit_parts = [
            lam for lam in partitions_of(size) if is_orbit_partition(lam, group_type)
        ]
        for lam, mu in itertools.product(orbit_parts, repeat=2):
            if dominates(lam, mu):
                assert dominates(
                    orbit_dual(mu, group_type), orbit_dual(lam, group_type)
                )


def test_dual_requires_orbit_partition():
    with pytest.raises(ValueError):
        orbit_dual((3, 1), "C")
    with pytest.raises(ValueError):
        orbit_dual((3, 1), "B")


def test_special_frozen_values():
    assert is_special((4,), "C")
    assert is_special((2, 2), "C")
    assert is_special((1, 1, 1, 1), "C")
    assert not is_special((2, 1, 1), "C")  # orbit partition, but not special
    assert not is_special((3, 1), "C")  # not even an orbit partition
    assert is_special((3, 1, 1), "B")
    assert is_special((5,), "B")


def test_special_iff_fixed_by_double_dual():
    # every partition of every rank <= 10: sizes 2n (C) and 2n + 1 (B)
    for rank in range(11):
        for group_type, size in (("C", 2 * rank), ("B", 2 * rank + 1)):
            for lam in partitions_of(size):
                if not is_orbit_partition(lam, group_type):
                    assert not is_special(lam, group_type)
                    continue
                fixed = orbit_dual(orbit_dual(lam, group_type), group_type) == lam
                assert is_special(lam, group_type) == fixed, (lam, group_type)


# A branch on the type's letter, or a constant naming it.
TYPE_LETTER_TEST = re.compile(r'(lie_type|group_type) *[!=]= *("[BC]"|TYPE_)|TYPE_[BC]')


def test_only_the_operators_test_the_type_letter():
    # The 2-core and the paired parity are read off the one row per type in
    # partitions._TYPES; the operators' per-type case tables are the only
    # code that branches on the letter.  Tests keep their own statements of
    # the two facts as oracles.
    package = Path(domino_tableaux.__file__).parent
    matching = sorted(
        path.name
        for path in package.glob("*.py")
        if TYPE_LETTER_TEST.search(path.read_text("utf-8"))
    )
    assert matching == ["operators.py"]
