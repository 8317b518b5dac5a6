from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domino_tableaux.signed_perm import (
    apply_generator,
    as_signed_perm,
    compose,
    enumerate_group,
    format_perm,
    generator,
    identity,
    inverse,
    left_descents,
    length,
    parse_perm,
    right_descents,
)


def signed_perms(n):
    return st.permutations(list(range(1, n + 1))).flatmap(
        lambda p: st.tuples(*[st.sampled_from((v, -v)) for v in p])
    )


def test_parse_and_format():
    assert parse_perm("2 -1 3") == (2, -1, 3)
    assert format_perm((2, -1, 3)) == "2 -1 3"
    with pytest.raises(ValueError):
        parse_perm("1 1")
    with pytest.raises(ValueError):
        parse_perm("3 1")
    with pytest.raises(ValueError):
        parse_perm("0 1")


def test_blank_text_is_the_rank_zero_word():
    # format_perm writes the rank-0 identity as "", and parse_perm reads it back
    assert format_perm(()) == ""
    assert parse_perm("") == parse_perm(" \n") == identity(0) == ()


# Entries that are not ints are refused, never rounded or parsed.
@pytest.mark.parametrize(
    "entries, bad",
    [([1.9, -2.2], "1.9"), ([True], "True"), (["2", "-1"], "'2'"), ([1, -2.0], "-2.0")],
)
def test_as_signed_perm_accepts_only_ints(entries, bad):
    with pytest.raises(ValueError, match=f"^signed permutation entries must be ints, got {bad}$"):
        as_signed_perm(entries)
    assert as_signed_perm([2, -1]) == (2, -1) and as_signed_perm(()) == ()


def test_group_sizes():
    assert sum(1 for _ in enumerate_group(1)) == 2
    assert sum(1 for _ in enumerate_group(2)) == 8
    assert sum(1 for _ in enumerate_group(3)) == 48
    assert sum(1 for _ in enumerate_group(5)) == 3840
    assert len(set(enumerate_group(3))) == 48
    with pytest.raises(ValueError, match="^rank must be >= 1$"):
        next(enumerate_group(0))


@given(signed_perms(4))
def test_inverse_is_two_sided(w):
    w = as_signed_perm(w)
    e = identity(4)
    assert compose(w, inverse(w)) == e
    assert compose(inverse(w), w) == e


@given(signed_perms(3), signed_perms(3), signed_perms(3))
def test_compose_associative(u, v, w):
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_generator_matrices():
    # right action: s_1 flips the sign in position 1, s_i swaps i-1 and i
    assert apply_generator((1, 2, 3), 1) == (-1, 2, 3)
    assert apply_generator((1, 2, 3), 2) == (2, 1, 3)
    assert apply_generator((2, -1, 3), 3) == (2, 3, -1)
    assert generator(2, 3) == (2, 1, 3)
    w = (2, -1, 3)
    assert all(apply_generator(w, i) == compose(w, generator(i, 3)) for i in (1, 2, 3))
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"^generator index {i} out of range 1..3$"):
            apply_generator(w, i)
    with pytest.raises(ValueError, match="^size mismatch$"):
        compose(w, (1, 2))


def _bfs_lengths(n):
    e = identity(n)
    dist = {e: 0}
    queue = deque([e])
    while queue:
        w = queue.popleft()
        for i in range(1, n + 1):
            nxt = apply_generator(w, i)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_length_matches_word_length(n):
    dist = _bfs_lengths(n)
    assert len(dist) == 2**n * [1, 1, 2, 6][n]
    for w, d in dist.items():
        assert length(w) == d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_descents_detect_length_drop(n):
    for w in enumerate_group(n):
        for i in range(1, n + 1):
            drops = length(apply_generator(w, i)) < length(w)
            assert (i in right_descents(w)) == drops


def test_longest_element():
    w0 = (-1, -2)
    assert length(w0) == 4
    assert right_descents(w0) == frozenset({1, 2})
    assert max(length(w) for w in enumerate_group(2)) == 4


def test_descent_examples():
    assert right_descents((1, -2)) == frozenset({2})
    assert right_descents((-1, 2)) == frozenset({1})
    assert right_descents(identity(3)) == frozenset()
    # the rank-0 identity, which parse_perm("") gives, has no descents
    assert right_descents(()) == left_descents(()) == frozenset()
    for w in enumerate_group(3):
        assert left_descents(w) == right_descents(inverse(w))
