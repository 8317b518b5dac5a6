"""Domino insertion and the Robinson-Schensted map for signed permutations.

Garfinkle's domino insertion (Compositio Math. 75, 1990, section 1).
Inserting a signed value v places a domino labeled k = |v|, horizontal at
the end of row 1 for v > 0 and vertical at the end of column 1 for v < 0,
behind the dominoes with smaller labels.  Every larger domino whose cells a
placed domino covers is then bumped, in increasing label order: one covered
on both cells slides to the end of the next row (next column when
vertical); one covered on a single cell twists around its surviving cell.
A domino that nothing covers never moves, so one insertion touches only the
dominoes on its bumping path.

The forward kernel keeps the whole word's layout (label -> cells) and a
label grid, both changed in place: ``rows[r]`` lists the labels of row r
from column 1 on and ``cols[c]`` those of column c from row 1 on, the
type-B core being 0.  A heap holds the labels that placed cells have
covered; a domino that is not hit is never visited.  When label k is
bumped, every label below k already sits where it ends up, so the grid's
cells of label < k form the standard (k-1)-prefix, a Young diagram.  In
every row and column those cells are therefore a leading segment: "label
< k" holds on a prefix of the line and fails after it, though the line
itself need not be sorted.  So the length of a row or column of that prefix
is one ``bisect_left(line, k)``, as is the end of row 1 or column 1 where a
letter is placed.

A grid holds no gaps, so a claimed cell that is new must end both its row
and its column; otherwise the kernel refuses it as not a Young diagram.
This refuses nothing that would end the letter standard: the upper and
left neighbours of a new cell of label k lie, in the finished tableau, in
its k-prefix, so they are placed (by a smaller label, or by k's own first
cell, since a position's cells come sorted row-major) before the cell is
claimed.  When one is missing, the letter cannot end standard anyway.

Each position the kernel writes is two edge-adjacent quadrant cells,
sorted row-major, by construction: the placements ((1, n+1), (1, n+2)) and
((n+1, 1), (n+2, 1)), and the slides and twists of a bump.  So the kernel
builds no ``Domino``.  It checks for overlap as cells are claimed and,
after each letter, runs ``_misplaced`` -- ``tableau.misplaced_cell``'s
local rule, read on the grid -- on the moved cells and their right and
lower neighbours, so every intermediate tableau is verified standard.  The
finished pair goes through ``make_tableau`` and ``TableauPair`` once: each
result ``Domino`` is built, and checked, once.

The inverse runs the bumping backwards while tracking the two-cell region
by which the tableau differs from the one before the letter: the next
domino to unbump is the largest owner below the last one among the region
cells, and an unslide lands at the end of the previous line of the same
prefix.  It reads the owner map (cell -> label) that the tableau already
keeps, and measures a line of the prefix with ``_leading``, cell by cell:
building a grid from the tableau costs about 4-10 us per call at rank 8,
against 38-41 us for the whole inverse, more than bisection saves there.
The map w -> (insertion tableau, recording tableau) is a bijection onto
same-shape standard pairs.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from collections import defaultdict
from typing import Iterable

from .signed_perm import SignedPerm, as_signed_perm
from .tableau import (
    Cell,
    DominoTableau,
    TableauError,
    Value,
    _set,
    check_contiguous,
    core_cells,
    from_json_dict,
    make_tableau,
    read_json,
    to_json_dict,
)

_Layout = dict[int, tuple[Cell, Cell]]  # label -> its two cells, sorted row-major
# row (column) index -> the labels of that line from column (row) 1 on; a
# defaultdict(list), so a line past the tableau's edge reads as empty
_Grid = dict[int, list[int]]


class TableauPair(Value):
    """Two tableaux of one type, one shape and one label set."""

    __slots__ = _fields = ("left", "right")
    left: DominoTableau
    right: DominoTableau

    def __init__(self, left: DominoTableau, right: DominoTableau) -> None:
        if left.lie_type != right.lie_type:
            raise TableauError("pair mixes tableau types")
        if left.shape() != right.shape():
            raise TableauError(f"pair shapes differ: {left.shape()} vs {right.shape()}")
        if left.labels() != right.labels():
            raise TableauError("pair label sets differ")
        _set(self, "left", left)
        _set(self, "right", right)


def _leading(owner: dict[Cell, int], cell: Cell, horizontal: bool, bound: int) -> int:
    """How many cells from ``cell`` on, along its row (or its column when
    not ``horizontal``), carry a label below ``bound``."""
    r, c = cell
    n = 0
    while True:
        lbl = owner.get((r, c))
        if lbl is None or lbl >= bound:
            return n
        n += 1
        if horizontal:
            c += 1
        else:
            r += 1


def _bumped(rows: _Grid, cols: _Grid, label: int, cells: tuple[Cell, Cell]) -> tuple[Cell, Cell]:
    """Where domino ``label`` goes from ``cells`` once a smaller label covers them."""
    (r, c), (r2, c2) = cells
    covered1 = rows[r][c - 1] != label
    covered2 = rows[r2][c2 - 1] != label
    if r == r2:
        if covered1 and covered2:
            n = bisect_left(rows[r + 1], label)
            return ((r + 1, n + 1), (r + 1, n + 2))
        if covered1:
            return ((r, c + 1), (r + 1, c + 1))
        raise TableauError(f"domino {label}: right cell covered but left free")
    if covered1 and covered2:
        n = bisect_left(cols[c + 1], label)
        return ((n + 1, c + 1), (n + 2, c + 1))
    if covered1:
        return ((r + 1, c), (r + 1, c + 1))
    raise TableauError(f"domino {label}: bottom cell covered but top free")


def _misplaced(rows: _Grid, cols: _Grid, cells: Iterable[Cell]) -> Cell | None:
    """``tableau.misplaced_cell`` on the grid: the first of ``cells`` that
    is in the grid while its upper or left neighbour has a larger label.
    Both neighbours of a grid cell are in the grid, since its row and its
    column have no gaps."""
    for cell in cells:
        r, c = cell
        row = rows[r]
        if c > len(row):
            continue
        lbl = row[c - 1]
        if (r > 1 and cols[c][r - 2] > lbl) or (c > 1 and row[c - 2] > lbl):
            return cell
    return None


def _insert(layout: _Layout, rows: _Grid, cols: _Grid, value: int) -> list[Cell]:
    """Insert one signed value, whose label the layout does not hold yet,
    into the layout and grid in place, moving only the dominoes on its
    bumping path; returns the two cells by which the tableau grew."""
    label = abs(value)
    if value > 0:
        n = bisect_left(rows[1], label)
        cells = ((1, n + 1), (1, n + 2))
    else:
        n = bisect_left(cols[1], label)
        cells = ((n + 1, 1), (n + 2, 1))
    hits: list[int] = []
    grown: list[Cell] = []
    touched: set[Cell] = set()
    k = last = label
    while True:
        layout[k] = cells
        for cell in cells:
            r, c = cell
            row, col = rows[r], cols[c]
            if c <= len(row):
                prev = row[c - 1]
                if prev > k:
                    heapq.heappush(hits, prev)
                elif prev != k:
                    who = "the core" if prev == 0 else f"domino {prev}"
                    raise TableauError(f"cell {cell} of domino {k} overlaps {who}")
                row[c - 1] = col[r - 1] = k
            elif len(row) == c - 1 and len(col) == r - 1:
                row.append(k)
                col.append(k)
                grown.append(cell)
            else:
                # a new cell must end its row and its column
                raise TableauError(f"cells up to label {k} do not form a Young diagram")
            touched.update((cell, (r + 1, c), (r, c + 1)))
        while hits and hits[0] == last:
            heapq.heappop(hits)
        if not hits:
            break
        k = last = heapq.heappop(hits)
        cells = _bumped(rows, cols, k, layout[k])
    bad = _misplaced(rows, cols, touched)
    if bad is not None:
        r, c = bad
        raise TableauError(f"cells up to label {rows[r][c - 1]} do not form a Young diagram")
    return grown


def rs(w: SignedPerm, lie_type: str) -> TableauPair:
    """The full correspondence: insertion tableau and recording tableau."""
    w = as_signed_perm(w)
    rows: _Grid = defaultdict(list)
    cols: _Grid = defaultdict(list)
    for r, c in core_cells(lie_type):
        rows[r].append(0)
        cols[c].append(0)
    layout: _Layout = {}
    recording = [
        (step, _insert(layout, rows, cols, value)) for step, value in enumerate(w, start=1)
    ]
    left = make_tableau(lie_type, layout.items())
    right = make_tableau(lie_type, recording)
    return TableauPair(left, right)


def _uninsert(
    work: _Layout, owner: dict[Cell, int], delta: tuple[Cell, Cell], bound: int
) -> int:
    """Undo the last insertion in place, given the recording domino's cells
    and a ``bound`` above every label of ``work``; returns the extracted
    signed value.  ``owner`` stays as the insertion left it until the letter
    is found, because each unslide measures the prefix the forward slide
    saw; then both maps are brought up to date."""
    region = set(delta)
    undone: _Layout = {}
    k = bound
    while True:
        below = [lbl for lbl in map(owner.get, region) if lbl and lbl < k]
        if not below:
            raise TableauError("recording domino does not trace back to an insertion")
        k = max(below)
        new = work[k]
        meet = [cell for cell in new if cell in region]
        (r, c), _ = new
        horizontal = new[1][0] == r
        if len(meet) == 2:
            if (r if horizontal else c) == 1:
                value = k if horizontal else -k
                break
            if horizontal:
                n = _leading(owner, (r - 1, 1), True, k)
                if n < 2:
                    raise TableauError(f"no room to unslide domino {k}")
                old = ((r - 1, n - 1), (r - 1, n))
            else:
                n = _leading(owner, (1, c - 1), False, k)
                if n < 2:
                    raise TableauError(f"no room to unslide domino {k}")
                old = ((n - 1, c - 1), (n, c - 1))
        elif not horizontal:
            # came from a horizontal domino twisting around its right cell
            if meet[0] != (r + 1, c) or c < 2:
                raise TableauError(f"inconsistent region at domino {k}")
            old = ((r, c - 1), (r, c))
        else:
            # came from a vertical domino twisting around its bottom cell
            if meet[0] != (r, c + 1) or r < 2:
                raise TableauError(f"inconsistent region at domino {k}")
            old = ((r - 1, c), (r, c))
        undone[k] = old
        region = (region | set(old)) - set(new)
        if len(region) != 2:
            raise TableauError(f"region lost track at domino {k}")
    del work[k]
    for lbl, cells in undone.items():
        work[lbl] = cells
        for cell in cells:
            owner[cell] = lbl
    for cell in delta:
        del owner[cell]
    return value


def rs_inverse(pair: TableauPair) -> SignedPerm:
    """The inverse correspondence; rs(rs_inverse(p)) == p."""
    work = {d.label: d.cells for d in pair.left.dominoes}
    owner = pair.left.cell_owner()
    # both tableaux hold one label set, and unwinding needs it to be 1..m
    check_contiguous(pair.right.labels())
    recording = {d.label: d.cells for d in pair.right.dominoes}
    bound = len(recording) + 1
    values = []
    for step in range(len(recording), 0, -1):
        values.append(_uninsert(work, owner, recording[step], bound))
    if work:
        raise TableauError("labels left over after unwinding")
    values.reverse()
    return as_signed_perm(values)


def pair_to_json_dict(pair: TableauPair) -> dict:
    return {"left": to_json_dict(pair.left), "right": to_json_dict(pair.right)}


def pair_from_json_dict(doc: dict) -> TableauPair:
    if not isinstance(doc, dict) or "left" not in doc or "right" not in doc:
        raise TableauError(f"malformed pair document: {doc!r}")
    return TableauPair(from_json_dict(doc["left"]), from_json_dict(doc["right"]))


def pair_serialize(pair: TableauPair) -> str:
    return json.dumps(pair_to_json_dict(pair), sort_keys=True)


def pair_deserialize(text: str) -> TableauPair:
    return pair_from_json_dict(read_json(text))
