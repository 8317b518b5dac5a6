"""Partitions with dominance order, orbit-partition tests, collapse and duality,
and the number of standard domino tableaux of a shape.

A partition is stored as a tuple of weakly decreasing positive integers;
trailing zeros are never kept.  The two group types "B" and "C" select which
parity class of parts is constrained when a partition labels a nilpotent
orbit of the corresponding classical Lie algebra.  ``count_sdt`` is a
hook-length formula on the shape alone, so it lives here rather than with
the generators of ``enumeration``, and ``dtab count`` loads no tableau code.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

Partition = tuple[int, ...]

TYPE_B = "B"
TYPE_C = "C"
GROUP_TYPES = (TYPE_B, TYPE_C)


def check_group_type(group_type: str) -> str:
    if group_type not in GROUP_TYPES:
        raise ValueError(f"unknown group type {group_type!r}; expected 'B' or 'C'")
    return group_type


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize a sequence into a partition, dropping trailing zeros."""
    seq = list(parts)
    while seq and seq[-1] == 0:
        seq.pop()
    for a, b in zip(seq, seq[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise ValueError(f"negative part in {seq}")
    return tuple(seq)


def parse_partition(text: str) -> Partition:
    """Parse the bracket format, e.g. "[3,1]" or "[]"."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must look like [3,1]; got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise ValueError(f"partition must look like [3,1]; got {text!r}") from None
    return as_partition(parts)


def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def dominates(lam: Partition, mu: Partition) -> bool:
    """True if every prefix sum of lam is >= the matching prefix sum of mu.

    Only defined for partitions of equal size.
    """
    if sum(lam) != sum(mu):
        raise ValueError(
            f"dominance needs equal sizes: |{format_partition(lam)}| != |{format_partition(mu)}|"
        )
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def n_statistic(lam: Partition) -> int:
    """n(lam) = sum of (i - 1) * lam_i over the rows, i counted from 1.

    It rises strictly whenever the shape drops strictly in dominance
    (Macdonald, Symmetric Functions and Hall Polynomials, I.1), from 0 at
    the one-row shape to m(m - 1)/2 at the one-column shape of size m.
    """
    return sum(i * part for i, part in enumerate(lam))


def transpose(lam: Partition) -> Partition:
    """Part j counts the rows of length >= j; columns lam_(i+1) + 1 .. lam_i have length i."""
    columns: list[int] = []
    for i in range(len(lam), 0, -1):
        columns += [i] * (lam[i - 1] - len(columns))
    return tuple(columns)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in descending lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # the successor lowers the last part above 1 by one and refills the
        # tail, its ones plus the unit taken, greedily with parts that size
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        m = parts.pop() - 1
        q, r = divmod(ones + 1, m)
        parts += [m] * (q + 1) + ([r] if r else [])


def _bad_parity(group_type: str) -> int:
    # Which residue of a part value must come with even multiplicity:
    # type C constrains odd parts, type B constrains even parts.
    return 1 if group_type == TYPE_C else 0


def is_orbit_partition(lam: Partition, group_type: str) -> bool:
    """Whether lam labels a nilpotent orbit for the given group type; a
    type-B orbit partition also has odd size (a C one has even size by the
    parity rule)."""
    check_group_type(group_type)
    lam = as_partition(lam)
    if group_type == TYPE_B and sum(lam) % 2 == 0:
        return False
    bad = _bad_parity(group_type)
    return all(lam.count(v) % 2 == 0 for v in set(lam) if v % 2 == bad)


def orbit_collapse(lam: Partition, group_type: str) -> Partition:
    """The dominance-greatest orbit partition dominated by lam.

    Computed by repeatedly moving one box down from the last row of the
    largest offending part value; validated elsewhere against brute force.
    """
    check_group_type(group_type)
    lam = as_partition(lam)
    if group_type == TYPE_C and sum(lam) % 2 == 1:
        raise ValueError("no C-type orbit partition has odd size")
    if group_type == TYPE_B and sum(lam) % 2 == 0:
        raise ValueError("no B-type orbit partition has even size")
    bad = _bad_parity(group_type)
    parts = list(lam)
    for _ in range(sum(lam) ** 2 + 1):
        offenders = [v for v in set(parts) if v % 2 == bad and parts.count(v) % 2 == 1]
        if not offenders:
            return as_partition(parts)
        v = max(offenders)
        i = max(idx for idx, p in enumerate(parts) if p == v)
        parts[i] -= 1
        # Re-add the box at the first later row that stays weakly decreasing.
        j = i + 1
        while j < len(parts) and parts[j] + 1 > parts[j - 1]:
            j += 1
        if j == len(parts):
            parts.append(1)
        else:
            parts[j] += 1
    raise RuntimeError(f"collapse did not terminate on {lam}")  # pragma: no cover


def orbit_dual(lam: Partition, group_type: str) -> Partition:
    """Order-reversing duality on orbit partitions: transpose, then collapse."""
    if not is_orbit_partition(lam, group_type):
        raise ValueError(f"{format_partition(lam)} is not a {group_type}-type orbit partition")
    return orbit_collapse(transpose(lam), group_type)


def is_special(lam: Partition, group_type: str) -> bool:
    """True for orbit partitions whose transpose is one too (Collingwood and
    McGovern, Nilpotent Orbits in Semisimple Lie Algebras, 1993, Prop. 6.3.7)."""
    lam = as_partition(lam)
    return is_orbit_partition(lam, group_type) and is_orbit_partition(transpose(lam), group_type)


def _core_shape(lie_type: str) -> Partition:
    return (1,) if lie_type == "B" else ()


def _check_shape(shape, lie_type: str) -> Partition:
    check_group_type(lie_type)
    shape = as_partition(shape)
    if sum(shape) % 2 != (1 if lie_type == "B" else 0):
        raise ValueError(f"size {sum(shape)} has the wrong parity for type {lie_type}")
    return shape


def count_sdt(shape, lie_type: str) -> int:
    """Number of standard domino tableaux of the given shape, in closed form.

    By Stanton and White (A Schensted algorithm for rim hook tableaux, JCTA
    1985) the domino tableaux of lam over its 2-core number
    C(w; |lam0|) * f(lam0) * f(lam1), where w is the number of dominoes,
    (lam0, lam1) is the 2-quotient of lam and each f is a hook-length count.
    The hooks of the 2-quotient are the even hooks of lam halved, and there
    are exactly w of them, so the count is w! over the product of the halved
    even hooks, and the 2-core has |lam| - 2w cells.  The count is 0 when
    that is not the core the type starts from: () for C and (1) for B.  The
    2-cores are staircases, so their sizes tell them apart.
    """
    shape = _check_shape(shape, lie_type)
    columns = transpose(shape)
    dominoes = 0
    halved_hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hook = row - j + columns[j] - i - 1
            if hook % 2 == 0:
                dominoes += 1
                halved_hooks *= hook // 2
    if sum(shape) - 2 * dominoes != sum(_core_shape(lie_type)):
        return 0
    return math.factorial(dominoes) // halved_hooks
