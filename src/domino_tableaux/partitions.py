"""Partitions with dominance order, orbit-partition tests, collapse and duality,
and the number of standard domino tableaux of a shape.

A partition is stored as a tuple of weakly decreasing positive integers;
trailing zeros are never kept.  ``count_sdt`` is a hook-length formula on the
shape alone, so it lives here rather than with the generators of
``enumeration``, and ``dtab count`` loads no tableau code.

Outside the operators' case tables (``operators``), two facts tell the group
types "B" and "C" apart, and ``_TYPES`` holds them, one row per type:

- ``core_size``, the size of the 2-core a domino tableau grows from: the
  cell (1,1) for B and nothing for C (Garfinkle, Compositio Math. 1990).
  Every shape of the type has a size of this parity.
- ``paired_parity``, the parity of the part values that must come with even
  multiplicity when a partition labels a nilpotent orbit: even parts for B,
  odd parts for C (Collingwood and McGovern, Nilpotent Orbits in Semisimple
  Lie Algebras, 1993, 5.1).  Annealing moves a hole out of a row of this
  length parity.

Every other module reads the table rather than testing the type's letter.
The columns stay separate: type D, which is not implemented, has C's empty
core but B's constrained parity.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


class _TypeRow(NamedTuple):
    core_size: int
    paired_parity: int


_TYPES = {
    "B": _TypeRow(core_size=1, paired_parity=0),
    "C": _TypeRow(core_size=0, paired_parity=1),
}
GROUP_TYPES = tuple(_TYPES)


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


def is_orbit_partition(lam: Partition, group_type: str) -> bool:
    """Whether lam labels a nilpotent orbit for the given group type: its
    size has the core's parity (for C the pairing rule implies it), and the
    parts of the paired parity come with even multiplicity."""
    check_group_type(group_type)
    lam = as_partition(lam)
    row = _TYPES[group_type]
    if sum(lam) % 2 != row.core_size:
        return False
    return all(lam.count(v) % 2 == 0 for v in set(lam) if v % 2 == row.paired_parity)


def orbit_collapse(lam: Partition, group_type: str) -> Partition:
    """The dominance-greatest orbit partition dominated by lam.

    Computed by repeatedly moving one box down from the last row of the
    largest offending part value; validated elsewhere against brute force.
    """
    check_group_type(group_type)
    lam = as_partition(lam)
    row = _TYPES[group_type]
    if sum(lam) % 2 != row.core_size:
        size = "odd" if sum(lam) % 2 else "even"
        raise ValueError(f"no {group_type}-type orbit partition has {size} size")
    parts = list(lam)
    for _ in range(sum(lam) ** 2 + 1):
        offenders = [
            v for v in set(parts) if v % 2 == row.paired_parity and parts.count(v) % 2 == 1
        ]
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
    # the one 2-core of each size the table holds, 0 or 1
    return (1,) * _TYPES[lie_type].core_size


def _check_shape(shape, lie_type: str) -> Partition:
    check_group_type(lie_type)
    shape = as_partition(shape)
    if sum(shape) % 2 != _TYPES[lie_type].core_size:
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
    that is not the core the type starts from (``core_size``).  The 2-cores
    are staircases, so their sizes tell them apart.
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
    if sum(shape) - 2 * dominoes != _TYPES[lie_type].core_size:
        return 0
    return math.factorial(dominoes) // halved_hooks
