"""Cycle moves on domino tableaux.

A coloring declares every other diagonal of cells "fixed"; each domino covers
exactly one fixed cell.  A cycle is an inclusion-minimal nonempty set of
dominoes that can be simultaneously re-tiled -- every domino keeping its own
fixed cell -- so that the whole tableau stays standard.  Moving through an
open cycle trades one boundary cell of the shape (the hole) for another (the
corner); moving through a closed cycle permutes dominoes inside the same
shape.  Labels that admit no such re-tiling at all count as closed
single-label cycles whose move is the identity.

The cycles are built from Garfinkle's moving-through rule (Compositio Math.
1990, section 1.5) rather than by search.  Each domino D(k) has exactly one
other position D'(k) through its fixed cell, decided by the label of one
diagonal neighbour (``_moved_position``).  The cycles are the connected
components of the relation "D'(k) meets D(l)"; a component whose
simultaneous move is not standard is frozen into single-label identity
cycles.  Each cycle carries its move and its source tableau.

One builder, ``_cycle``, turns a component into its cycle: it makes the
standardness test on a scratch copy of the owner map, with the local rule
of ``tableau.misplaced_cell``, undoes it, reads the hole and the corner off
the cells before and after the move, and answers None for a frozen
component, whose labels ``_frozen`` makes into single-label cycles.  Two
engines find the components, and both stay.  ``all_cycles`` builds every
cycle in time linear in the number of dominoes, from one union-find pass
(``_components``).  ``cycle_of`` walks only its label's component, in time
linear in the size of that component (each domino found by bisection) plus
one copy of the owner map, and builds only its label's cycle.  One engine
for both was measured slower: ``cycle_of`` on the union-find pass pays for
the whole tableau (5-9% on the cycle benchmark), and ``open_cycles`` on the
walk ran 10-20% slower.  Both hand their components to ``_cycle``, so
``cycle_of`` answers exactly as ``all_cycles`` does.  ``open_cycles``
shares the union-find pass and keeps only the open cycles, for annealing,
the special projection and extended moves: a component whose move leaves
its cell set unchanged is closed whether or not that move is standard, so
it gets no standardness test and no ``Cycle``.  A move (``move_through``,
through ``tableau.replace_cells``) checks only the cells it changes.  The
exhaustive search over all standard re-tilings, which takes time
exponential in the number of cycles, is kept in the tests as the oracle for
this construction.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

from .insertion import TableauPair
from .tableau import (
    Cell,
    Domino,
    DominoTableau,
    TableauError,
    Value,
    _set,
    misplaced_cell,
    move_cells,
    replace_cells,
)


class Coloring(enum.Enum):
    """NATIVE fixes cells with odd row+column sum; TYPE_D fixes the others."""

    NATIVE = "native"
    TYPE_D = "typeD"

    @property
    def fixed_parity(self) -> int:
        return 1 if self is Coloring.NATIVE else 0


def _block_id(cell: Cell, coloring: Coloring) -> tuple[int, int]:
    """The cell's 2x2 block: rows paired {1,2}, {3,4}, ..., and columns
    phased so that every block's top-left and bottom-right cells are
    variable squares of the coloring, and its top-right and bottom-left
    cells fixed.  A domino is boxed when both its cells lie in one block.
    Boxedness is constant along each cycle, by two lemmas on the move rule
    of ``_moved_position``.

    Lemma 1 (flip).  D'(k) is boxed exactly when D(k) is not.  The
    neighbours of k's fixed cell f inside its block lie in the directions
    {left, down} when f is top-right and {up, right} when f is bottom-left.
    The two candidates for D'(k) lie from f in the directions -delta and
    swap(delta), where delta points from f to D(k)'s variable cell, and
    negation and swap each map that pair of directions onto the other two.
    So both candidates lie outside f's block when delta points inside it,
    and both lie inside it when delta points outside.

    Lemma 2 (constancy).  If D'(k) meets D(l), for l != k, then D(l) is
    boxed exactly when D(k) is.  D'(k) keeps f_k, so it meets D(l) at l's
    variable cell v, next to f_k.  Then f_k and f_l lie on opposite sides
    of v, one above or left of it and the other below or right.  Up to
    transpose delta points right or left, and D'(k) is the shift or the
    rotation, four cases; in each, the one neighbour of v on f_k's side
    other than f_k is the decision cell d, and d = f_l is impossible.  For
    delta right and a shift, v is left of f_k and T(d) > k with d below v;
    a vertical D(l) = {v, d} would put l > k left of k in one row, against
    standardness.  Delta right and a rotation puts v below f_k, with
    T(d) < k and d left of v; delta left and a shift puts v right of f_k,
    with T(d) < k and d above v; delta left and a rotation puts v above
    f_k, with T(d) > k and d right of v: each D(l) = {v, d} breaks
    standardness against f_k the same way.  The neighbours of v inside its
    block all lie on one side of it, so exactly one of D'(k) = {f_k, v} and
    D(l) = {f_l, v} is boxed, and by Lemma 1 D(l) is boxed exactly when
    D(k) is.  A cycle is a connected component of this relation, or a
    single frozen label.
    """
    r, c = cell
    if coloring is Coloring.NATIVE:
        return ((r + 1) // 2, (c + 1) // 2)
    return ((r + 1) // 2, c // 2)


def is_boxed(cells: Sequence[Cell], coloring: Coloring) -> bool:
    a, b = cells
    return _block_id(a, coloring) == _block_id(b, coloring)


class Cycle(Value):
    _fields = ("labels", "coloring", "hole", "corner", "boxed")
    # D'(k) for each label, empty when the cycle is frozen, and the tableau
    # the cycle was found in; neither takes part in equality.
    __slots__ = (*_fields, "moves", "source")
    labels: tuple[int, ...]
    coloring: Coloring
    hole: Cell | None
    corner: Cell | None
    boxed: bool
    moves: tuple[tuple[Cell, Cell], ...]
    source: DominoTableau

    def __init__(
        self,
        labels: tuple[int, ...],
        coloring: Coloring,
        hole: Cell | None,
        corner: Cell | None,
        boxed: bool,
        moves: tuple[tuple[Cell, Cell], ...],
        source: DominoTableau,
    ) -> None:
        _set(self, "labels", labels)
        _set(self, "coloring", coloring)
        _set(self, "hole", hole)
        _set(self, "corner", corner)
        _set(self, "boxed", boxed)
        _set(self, "moves", moves)
        _set(self, "source", source)

    @property
    def open(self) -> bool:
        return self.hole is not None

    @property
    def down(self) -> bool | None:
        """Whether the corner lies below the hole; None for a closed cycle."""
        return self.corner[0] > self.hole[0] if self.open else None

    def __reduce__(self):
        return Cycle, (*self._key(self), self.moves, self.source)


def _label_at(owner: dict[Cell, int], cell: Cell) -> float:
    """A cell's label for the move rule: -inf off the quadrant, 0 on the
    type-B core, +inf outside the shape."""
    if cell[0] < 1 or cell[1] < 1:
        return -math.inf
    return owner.get(cell, math.inf)


def _moved_position(domino: Domino, owner: dict[Cell, int], parity: int) -> tuple[Cell, Cell]:
    """D'(k), the one other position of domino k through its fixed cell f,
    where f is the cell whose row + column has the coloring's ``parity``.

    With v the variable cell and delta = v - f, the candidates are the shift
    {f, f - delta} and the rotation {f, f + swap(delta)}.  The cell
    d = f - delta + swap(delta) between them decides: when delta points
    right or down the domino rotates iff T(d) < k, when it points left or up
    iff T(d) > k.
    """
    a, b = domino.cells
    f, v = (a, b) if (a[0] + a[1]) % 2 == parity else (b, a)
    dr, dc = v[0] - f[0], v[1] - f[1]
    t = _label_at(owner, (f[0] - dr + dc, f[1] - dc + dr))
    rotate = t < domino.label if dr + dc > 0 else t > domino.label
    other = (f[0] + dc, f[1] + dr) if rotate else (f[0] - dr, f[1] - dc)
    return (f, other) if f < other else (other, f)


def _is_standard_move(
    scratch: dict[Cell, int],
    original: dict[int, tuple[Cell, Cell]],
    moves: dict[int, tuple[Cell, Cell]],
) -> bool:
    """Does relocating the given labels leave a standard tableau?

    The move is made in ``scratch``, a copy of the tableau's owner map,
    checked there by the local rule of ``tableau.misplaced_cell`` on the
    cells it can change, and undone.
    """
    touched = move_cells(scratch, original, moves)
    standard = touched is not None and misplaced_cell(scratch, touched) is None
    for lbl, cells in moves.items():
        for c in cells:
            if scratch.get(c) == lbl:
                del scratch[c]
    for lbl in moves:
        scratch.update(dict.fromkeys(original[lbl], lbl))
    return standard


def _cycle(
    tableau: DominoTableau,
    labels: list[int],
    coloring: Coloring,
    scratch: dict[Cell, int],
    original: dict[int, tuple[Cell, Cell]],
    moved: dict[int, tuple[Cell, Cell]],
) -> Cycle | None:
    """The cycle of one component of "D'(k) meets D(l)", whose labels come
    in ascending order; None when its simultaneous move is not standard,
    which freezes the component.  The move's hole and corner are the cells
    it vacates and fills; a move that keeps the cell set is closed."""
    step = {lbl: moved[lbl] for lbl in labels}
    if not _is_standard_move(scratch, original, step):
        return None
    old = {c for lbl in labels for c in original[lbl]}
    new = {c for cells in step.values() for c in cells}
    holes, corners = old - new, new - old
    if len(holes) != len(corners) or len(holes) > 1:
        raise RuntimeError(f"open move must trade single cells, got {holes} / {corners}")
    hole, corner = (holes.pop(), corners.pop()) if holes else (None, None)
    boxed = is_boxed(original[labels[0]], coloring)
    return Cycle(tuple(labels), coloring, hole, corner, boxed, tuple(step.values()), tableau)


def _frozen(
    tableau: DominoTableau, label: int, cells: tuple[Cell, Cell], coloring: Coloring
) -> Cycle:
    """The closed single-label cycle, with the identity move, of a label
    whose component is frozen."""
    return Cycle((label,), coloring, None, None, is_boxed(cells, coloring), (), tableau)


def _components(
    tableau: DominoTableau, coloring: Coloring
) -> tuple[dict[int, tuple[Cell, Cell]], dict[int, tuple[Cell, Cell]], list[list[int]]]:
    """D(k) and D'(k) for every label, and the connected components of
    "D'(k) meets D(l)": each one's labels ascending, the components in
    order of their smallest label."""
    owner = tableau._owner
    parity = coloring.fixed_parity
    original: dict[int, tuple[Cell, Cell]] = {}
    moved: dict[int, tuple[Cell, Cell]] = {}
    for d in tableau.dominoes:
        original[d.label] = d.cells
        moved[d.label] = _moved_position(d, owner, parity)
    parent = {lbl: lbl for lbl in original}

    def find(lbl: int) -> int:
        while parent[lbl] != lbl:
            parent[lbl] = parent[parent[lbl]]
            lbl = parent[lbl]
        return lbl

    for lbl, cells in moved.items():
        for c in cells:
            other = owner.get(c)
            if other and other != lbl:  # another domino (0 is the core)
                parent[find(other)] = find(lbl)
    components: dict[int, list[int]] = {}
    for lbl in original:
        components.setdefault(find(lbl), []).append(lbl)
    return original, moved, list(components.values())


def all_cycles(tableau: DominoTableau, coloring: Coloring) -> tuple[Cycle, ...]:
    """Each cycle once, sorted by labels; they partition the labels.

    The cycles are the connected components of "D'(k) meets D(l)"; a
    component whose simultaneous move is not standard is frozen into closed
    single-label cycles whose move is the identity.
    """
    original, moved, components = _components(tableau, coloring)
    scratch = dict(tableau._owner)
    cycles: list[Cycle] = []
    for labels in components:
        cy = _cycle(tableau, labels, coloring, scratch, original, moved)
        cycles += [cy] if cy else [_frozen(tableau, k, original[k], coloring) for k in labels]
    cycles.sort(key=lambda cy: cy.labels)
    return tuple(cycles)


def open_cycles(tableau: DominoTableau, coloring: Coloring) -> tuple[Cycle, ...]:
    """The open cycles of ``all_cycles``, in its order, with equal moves
    and sources.

    A component whose move leaves its cell set unchanged is closed whether
    its move is standard or frozen, so it is neither tested nor built.  A
    component holds every domino that its moved positions meet, so unless
    its move reaches a cell that no domino owns, the move keeps its cell set
    or lands two dominoes on one cell, which is frozen.
    """
    original, moved, components = _components(tableau, coloring)
    owner = tableau._owner
    scratch = dict(owner)
    cycles = []
    for labels in components:  # ascending smallest label, as all_cycles sorts
        if any(not owner.get(c) for lbl in labels for c in moved[lbl]):
            cy = _cycle(tableau, labels, coloring, scratch, original, moved)
            if cy:
                cycles.append(cy)
    return tuple(cycles)


def cycle_of(tableau: DominoTableau, label: int, coloring: Coloring) -> Cycle:
    """The cycle of ``label``, as ``all_cycles`` gives it, from a walk over
    that label's component of "D'(k) meets D(l)" alone.

    D'(k) meets the dominoes that own its cells.  D'(l) meets D(k) for
    l != k only at k's variable cell v, and keeps l's fixed cell, which is
    next to v; so the dominoes that reach D(k) are among the owners of v's
    neighbours.
    """
    owner = tableau._owner
    parity = coloring.fixed_parity
    original: dict[int, tuple[Cell, Cell]] = {}
    moved: dict[int, tuple[Cell, Cell]] = {}

    def moved_of(lbl: int) -> tuple[Cell, Cell]:
        if lbl not in moved:
            d = tableau.domino(lbl)
            original[lbl] = d.cells
            moved[lbl] = _moved_position(d, owner, parity)
        return moved[lbl]

    component = [label]
    seen = {label}
    for k in component:  # grows while it is walked
        for c in moved_of(k):
            lbl = owner.get(c)
            if lbl and lbl not in seen:
                seen.add(lbl)
                component.append(lbl)
        a, b = original[k]
        v = b if (a[0] + a[1]) % 2 == parity else a
        r, c = v
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            lbl = owner.get(nb)
            if lbl and lbl not in seen and v in moved_of(lbl):
                seen.add(lbl)
                component.append(lbl)
    component.sort()
    cy = _cycle(tableau, component, coloring, dict(owner), original, moved)
    return cy or _frozen(tableau, label, original[label], coloring)


def move_through(tableau: DominoTableau, cycle: Cycle) -> DominoTableau:
    return move_through_set(tableau, [cycle])


def move_through_set(tableau: DominoTableau, cycles: Iterable[Cycle]) -> DominoTableau:
    """Apply label-disjoint cycles simultaneously (order cannot matter).

    Each cycle must come from this tableau, or from an equal one.
    """
    cycles = list(cycles)
    taken: set[int] = set()
    for cy in cycles:
        if taken & set(cy.labels):
            raise TableauError("cycles overlap")
        taken.update(cy.labels)
    if len({cy.coloring for cy in cycles}) > 1:
        raise TableauError("cannot mix colorings in one simultaneous move")
    moves: dict[int, tuple[Cell, Cell]] = {}
    for cy in cycles:
        if not (cy.source is tableau or cy.source == tableau):
            raise TableauError(f"{sorted(cy.labels)} is not a cycle of this tableau")
        moves.update(zip(cy.labels, cy.moves))  # a frozen cycle adds nothing
    if not moves:
        return tableau
    return replace_cells(tableau, moves)


def _open_by_square(cycles: Iterable[Cycle]) -> dict[Cell, Cycle]:
    """Each hole and corner of the given open cycles, with its cycle."""
    index: dict[Cell, Cycle] = {}
    for cy in cycles:
        for square in (cy.hole, cy.corner):
            if square in index:
                raise TableauError(
                    f"extended cycle closure ambiguous at square {square}: "
                    f"open cycles {index[square].labels} and {cy.labels}"
                )
            index[square] = cy
    return index


def _ends(cycle: Cycle) -> set[tuple[Cell, bool]]:
    """The cycle's hole and corner, each marked by whether it is the corner."""
    return {(cycle.hole, False), (cycle.corner, True)}  # type: ignore[arg-type]


def extended_cycle(
    pair: TableauPair, label: int, coloring: Coloring
) -> tuple[tuple[Cycle, ...], tuple[Cycle, ...]]:
    """Smallest shape-balanced closure of the right tableau's cycle of label.

    Returns (cycles of the right tableau, cycles of the left tableau); each
    side's simultaneous move produces the same shape on both sides.  While a
    hole or corner of one side is missing from the other, the other side's
    open cycle at the smallest such square joins, the left side first.  When
    no untaken cycle sits there, no balanced closure exists: both sides come
    back empty and the induced move is the identity, since on such a pair
    every choice other than moving nothing would leave the two shapes
    unequal.
    """
    seed = cycle_of(pair.right, label, coloring)
    if not seed.open:
        return (seed,), ()
    index = (
        _open_by_square(open_cycles(pair.right, coloring)),
        _open_by_square(open_cycles(pair.left, coloring)),
    )
    taken: tuple[list[Cycle], list[Cycle]] = ([seed], [])
    ends = (_ends(seed), set())
    while ends[0] != ends[1]:
        side = 1 if ends[0] - ends[1] else 0
        square, _ = min(ends[1 - side] - ends[side])
        partner = index[side].get(square)
        if partner is None or partner in taken[side]:
            return (), ()
        taken[side].append(partner)
        ends[side].update(_ends(partner))
    return tuple(taken[0]), tuple(taken[1])


def move_through_extended(pair: TableauPair, label: int, coloring: Coloring) -> TableauPair:
    right_cycles, left_cycles = extended_cycle(pair, label, coloring)
    return TableauPair(
        move_through_set(pair.left, left_cycles), move_through_set(pair.right, right_cycles)
    )
