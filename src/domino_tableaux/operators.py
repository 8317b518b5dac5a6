"""Descent-set invariants and wall-crossing operators.

Three operators move between elements (or same-shape tableau pairs) while
preserving the cell data probed by the annealing pipeline:

* ``wall_cross_equal_length`` acts on group elements through a pair of
  adjacent swap generators, exactly one of which is a right descent;
* ``wall_cross_unequal_length`` acts on tableau pairs whose first two
  dominoes sit in one of the small shapes where crossing the wall between
  the sign-change root and its neighbor is single-valued;
* ``wall_cross_type_d`` is the analogue steered by the opposite-parity
  coloring, with its own small-shape domains.

Every operator either returns a value or raises OperatorUndefinedError
carrying a domain report.
"""

from __future__ import annotations

from .cycles import Coloring, move_through_extended
from .insertion import TableauPair
from .signed_perm import SignedPerm, apply_generator, right_descents
from .tableau import DominoTableau, TableauError, Value, _set, replace_cells


class OperatorDomainReport(Value):
    __slots__ = _fields = ("case", "reason")
    case: str | None
    reason: str

    def __init__(self, case: str | None, reason: str) -> None:
        _set(self, "case", case)
        _set(self, "reason", reason)

    @property
    def defined(self) -> bool:
        return self.case is not None

    def to_json_dict(self) -> dict:
        return {"defined": self.defined, "case": self.case, "reason": self.reason}


class OperatorUndefinedError(ValueError):
    def __init__(self, report: OperatorDomainReport):
        super().__init__(report.reason)
        self.report = report


def equal_length_domain(w: SignedPerm, i: int, j: int) -> OperatorDomainReport:
    if not (i >= 2 and j >= 2 and abs(i - j) == 1):
        return OperatorDomainReport(None, f"indices {i},{j} are not adjacent swap generators")
    if max(i, j) > len(w):
        return OperatorDomainReport(None, f"index {max(i, j)} exceeds rank {len(w)}")
    rd = right_descents(w)
    if (i in rd) == (j in rd):
        both = "both" if i in rd else "neither"
        return OperatorDomainReport(None, f"{both} of {i},{j} are right descents of {w}")
    return OperatorDomainReport(f"descent {{{i if i in rd else j}}}", "ok")


def wall_cross_equal_length(w: SignedPerm, i: int, j: int) -> SignedPerm:
    """Move across the wall between two adjacent equal-length simple roots.

    The image is the unique neighbor w*s_i or w*s_j whose descent pattern on
    {i, j} is the opposite one.
    """
    report = equal_length_domain(w, i, j)
    if not report.defined:
        raise OperatorUndefinedError(report)
    rd = right_descents(w)
    absent = i if i not in rd else j
    present = j if absent == i else i
    images = []
    for gen in (i, j):
        cand = apply_generator(w, gen)
        crd = right_descents(cand)
        if absent in crd and present not in crd:
            images.append(cand)
    if len(images) != 1:
        raise RuntimeError(
            f"wall crossing through {{{i},{j}}} not single-valued at {w}: {images}"
        )
    return images[0]


def _swap_in_box(tableau: DominoTableau, a: int, b: int) -> DominoTableau:
    """Transpose two dominoes jointly filling a 2x2 box."""
    da, db = tableau.domino(a), tableau.domino(b)
    cells = set(da.cells) | set(db.cells)
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    if not (len(cells) == 4 and len(rows) == 2 and len(cols) == 2):
        raise RuntimeError(f"dominoes {a} and {b} do not fill a 2x2 box: {sorted(cells)}")
    r0, c0 = min(rows), min(cols)
    lo, hi = sorted((a, b))
    # only the smaller label on the left (vertical pair) or on top
    # (horizontal pair) can be standard
    if da.horizontal:
        layout = {lo: ((r0, c0), (r0 + 1, c0)), hi: ((r0, c0 + 1), (r0 + 1, c0 + 1))}
    else:
        layout = {lo: ((r0, c0), (r0, c0 + 1)), hi: ((r0 + 1, c0), (r0 + 1, c0 + 1))}
    try:
        return replace_cells(tableau, layout)
    except TableauError as exc:
        raise RuntimeError(f"box transposition of {a},{b} is not standard: {exc}") from None


def _swap_positions(tableau: DominoTableau, a: int, b: int) -> DominoTableau:
    """Interchange the cell sets of two dominoes outright."""
    return replace_cells(tableau, {a: tableau.domino(b).cells, b: tableau.domino(a).cells})


def unequal_length_domain(pair: TableauPair) -> OperatorDomainReport:
    if len(pair.right.dominoes) < 2:
        return OperatorDomainReport(None, "needs at least two dominoes")
    head = pair.right.sub_shape(2)
    if pair.right.lie_type == "C":
        wanted = {(3, 1): "(3,1)", (2, 2): "(2,2)"}
    else:
        wanted = {(3, 2): "(3,2)", (3, 1, 1): "(3,1,1)"}
    if head in wanted:
        return OperatorDomainReport(wanted[head], "ok")
    return OperatorDomainReport(
        None, f"first two dominoes fill {head}, not one of {sorted(wanted.values())}"
    )


def wall_cross_unequal_length(pair: TableauPair) -> TableauPair:
    """Cross the wall between the sign-change root and its swap neighbor.

    The right tableau's first and second dominoes are transposed in their
    2x2 box (type C) or trade cells (type B).  On the heads (3,1) and (3,2)
    an extended cycle move of the second domino under the native coloring
    happens first; on the flat heads the left tableau stays as it is.
    """
    report = unequal_length_domain(pair)
    if not report.defined:
        raise OperatorUndefinedError(report)
    first, second = pair.right.dominoes[0].label, pair.right.dominoes[1].label
    swap = _swap_in_box if pair.right.lie_type == "C" else _swap_positions
    if report.case in ("(3,1)", "(3,2)"):
        pair = move_through_extended(pair, second, Coloring.NATIVE)
    return TableauPair(pair.left, swap(pair.right, first, second))


def type_d_domain(pair: TableauPair) -> OperatorDomainReport:
    right = pair.right
    if right.lie_type == "C":
        if len(right.dominoes) < 4:
            return OperatorDomainReport(None, "needs at least four dominoes")
        head = right.sub_shape(4)
        if head != (4, 3, 1):
            return OperatorDomainReport(None, f"first four dominoes fill {head}, not (4,3,1)")
        if right.dominoes[1].horizontal:
            return OperatorDomainReport(None, "second domino must be vertical in column 1")
        return OperatorDomainReport("(4,3,1)", "ok")
    if len(right.dominoes) < 3:
        return OperatorDomainReport(None, "needs at least three dominoes")
    head = right.sub_shape(3)
    if head != (4, 2, 1):
        return OperatorDomainReport(None, f"first three dominoes fill {head}, not (4,2,1)")
    return OperatorDomainReport("(4,2,1)", "ok")


def wall_cross_type_d(pair: TableauPair) -> TableauPair:
    """The opposite-parity analogue acting through the fourth (type C) or
    third (type B) domino's extended cycle."""
    report = type_d_domain(pair)
    if not report.defined:
        raise OperatorUndefinedError(report)
    second = pair.right.dominoes[1].label
    last = pair.right.dominoes[3 if pair.right.lie_type == "C" else 2].label
    moved = move_through_extended(pair, last, Coloring.TYPE_D)
    return TableauPair(moved.left, _swap_in_box(moved.right, second, last))
