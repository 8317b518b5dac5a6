"""Signed permutations: the hyperoctahedral Weyl group in one-line notation.

An element w is a tuple (w(1), ..., w(n)) of signed integers whose absolute
values are exactly 1..n.  Generators act on positions from the right:
generator 1 flips the sign of position 1, generator i >= 2 swaps positions
i-1 and i.  Root index 1 names the sign-change simple root, index i >= 2
names e_i - e_{i-1}; this indexing is a convention of this library and is
spelled out in the README.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

SignedPerm = tuple[int, ...]


def as_signed_perm(entries) -> SignedPerm:
    """The entries as a signed permutation; each must be an int (not a
    bool), and nothing is coerced."""
    w = tuple(entries)
    for x in w:
        if type(x) is not int:
            raise ValueError(f"signed permutation entries must be ints, got {x!r}")
    n = len(w)
    if sorted(abs(x) for x in w) != list(range(1, n + 1)):
        raise ValueError(f"not a signed permutation of 1..{n}: {w}")
    return w


def parse_perm(text: str) -> SignedPerm:
    """Parse space-separated one-line notation, e.g. "2 -1 3"; blank text
    is the rank-0 identity, as ``format_perm(())`` writes it."""
    return as_signed_perm(int(t) for t in text.split())


def format_perm(w: SignedPerm) -> str:
    return " ".join(str(x) for x in w)


def identity(n: int) -> SignedPerm:
    return tuple(range(1, n + 1))


def compose(u: SignedPerm, v: SignedPerm) -> SignedPerm:
    """(u∘v)(i) = u(v(i)), with u(-k) = -u(k)."""
    if len(u) != len(v):
        raise ValueError("size mismatch")

    def act(x: int) -> int:
        return u[x - 1] if x > 0 else -u[-x - 1]

    return tuple(act(x) for x in v)


def inverse(w: SignedPerm) -> SignedPerm:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def apply_generator(w: SignedPerm, i: int) -> SignedPerm:
    """Right action of generator i: w -> w * s_i."""
    n = len(w)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    if i == 1:
        return (-w[0],) + w[1:]
    out = list(w)
    out[i - 2], out[i - 1] = out[i - 1], out[i - 2]
    return tuple(out)


def generator(i: int, n: int) -> SignedPerm:
    return apply_generator(identity(n), i)


def length(w: SignedPerm) -> int:
    """Coxeter length: inversions + negatives + negative sum pairs."""
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    neg = sum(1 for x in w if x < 0)
    nsp = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] + w[j] < 0)
    return inv + neg + nsp


def right_descents(w: SignedPerm) -> frozenset[int]:
    """Indices i with length(w * s_i) < length(w)."""
    out = set()
    if w and w[0] < 0:
        out.add(1)
    for i in range(2, len(w) + 1):
        if w[i - 2] > w[i - 1]:
            out.add(i)
    return frozenset(out)


def left_descents(w: SignedPerm) -> frozenset[int]:
    return right_descents(inverse(w))


def enumerate_group(n: int) -> Iterator[SignedPerm]:
    """All 2^n * n! signed permutations of rank n."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(p * s for p, s in zip(perm, signs))
