"""Annealing a tableau down to an orbit partition, and the special-shape
projection.

The main map takes the insertion tableau of a signed permutation and moves
through admissible open cycles — either coloring, hole in a row of odd
length for type C or even length for type B (the corner's row then has the
same parity, as ``candidate_moves`` proves), shape strictly lowered in
dominance order — until the shape is an orbit partition.  The resulting
partition labels the nilpotent orbit attached to the element; the tableau
parametrizes its orbital variety.  Among the admissible moves it takes the
lowest hole, the one whose hole lies in the greatest row; there are no
ties, by Lemma 5 of ``candidate_moves``, and the lowest hole gives the
lex-greatest target shape, which is also dominance-maximal.
``candidate_moves`` is the one definition of an admissible move: the
``pipeline-confluence`` suite explores every move it offers, and the tests
check it against the definition, re-derived, on every standard tableau of
rank <= 6.  That the move order does not affect the result is verified
through rank 4 only; at rank 5 some tableaux reach two different terminal
tableaux.  The trace is the cycles moved through, in order.  Each cycle
carries its source tableau, so a step's shape before is its source's
shape, and its shape after is the next cycle's source shape, or the
result's shape for the last step.

The special-shape projection is one simultaneous move through every open
native-coloring cycle whose hole lies in a row of the annealing parity, the
rule annealing reads (``_anneals``); these are the unboxed cycles in type C
and the boxed ones in type B.  The tests keep the walk through open native
cycles, in either direction, as its oracle: on every standard tableau of
rank <= 6 in both types, and on seeded random words of ranks 8-64, the walk
reaches exactly one special tableau, and it is this move's image.

Annealing and the projection read the open cycles alone
(``cycles.open_cycles``), which skips the standardness test and the build
of every closed component.
"""

from __future__ import annotations

from .cycles import Coloring, Cycle, move_through, move_through_set, open_cycles
from .insertion import rs
from .partitions import _TYPES, Partition, is_orbit_partition, is_special, n_statistic
from .signed_perm import SignedPerm
from .tableau import DominoTableau, Value, _set


class PipelineStallError(RuntimeError):
    """Shape is not an orbit partition yet no admissible move exists."""


class OrbitalResult(Value):
    __slots__ = _fields = ("tableau", "trace")
    tableau: DominoTableau
    trace: tuple[Cycle, ...]

    def __init__(self, tableau: DominoTableau, trace: tuple[Cycle, ...]) -> None:
        _set(self, "tableau", tableau)
        _set(self, "trace", trace)

    @property
    def orbit(self) -> Partition:
        return self.tableau.shape()


def _anneals(cycle: Cycle) -> bool:
    """Whether an open cycle's hole lies in a row of the annealing parity of
    its source's shape, the type's ``paired_parity``: odd length for type C,
    even for type B.  The hole is the last cell of its row (Lemma 5 of
    ``candidate_moves``), so its column is the row's length.  Annealing and
    the special projection pick their cycles by this one rule."""
    return cycle.hole[1] % 2 == _TYPES[cycle.source.lie_type].paired_parity


def candidate_moves(tableau: DominoTableau) -> list[Cycle]:
    """Admissible lowering moves: open down cycles of either coloring whose
    hole row has the annealing parity (``_anneals``).

    The hole's row loses a cell and the corner's row, further down, gains
    one, so the shape strictly drops in dominance.

    The definition also asks the corner's row for the parity.  Every open
    cycle, up or down and of either coloring, has it, so no test reads it.
    Let T be the tableau, T' its image and lam its shape (lam_r = 0 past the
    last row); the hole h lies in T and not in T', and the corner c in T'
    and not in T.  Lemma 5 shows that h = (r_h, lam_{r_h}) and
    c = (r_c, lam_{r_c} + 1).

    Lemma 3 (rows).  h lies in T and not in T', and every domino keeps its
    fixed cell, so h is the variable cell of some D(k) and T' holds its
    partner, k's fixed cell.  T' is a Young diagram, so that partner lies
    above or left of h.  Likewise c is the variable cell of some D'(l), and
    its partner lies in T, above or left of c.  In a block of
    ``cycles._block_id`` the variable cells are the top-left one, in an odd
    row, whose upper and left neighbours lie outside the block, and the
    bottom-right one, in an even row, whose upper and left neighbours lie
    inside it.  So r_h is even exactly when D(k) is boxed, and r_c is even
    exactly when D'(l) is boxed.  By Lemmas 1 and 2 there, r_h is odd
    exactly when the cycle is unboxed, r_c is odd exactly when it is boxed,
    and r_c - r_h is odd.

    Lemma 4 (parity).  h and c are both variable cells, so they have one
    chessboard colour: r_h + lam_{r_h} = r_c + lam_{r_c} + 1 (mod 2).  As
    r_c - r_h is odd, lam_{r_h} = lam_{r_c} (mod 2): a corner test would
    repeat the hole test.  On the native coloring a variable cell has even
    row + column, so lam_{r_h} = r_h (mod 2), and the hole's row has odd
    length exactly when the cycle is unboxed.  ``special_projection``
    therefore moves through the unboxed open native cycles in type C and
    the boxed ones in type B.

    Lemma 5 (ends).  h is the last cell of its row, col_h = lam_{r_h}, and
    c is the first cell past the end of its row, col_c = lam_{r_c} + 1.
    T' = T - h + c, and c lies in another row (Lemma 3), so a cell of T
    right of h would leave a gap in that row of T', and a cell left of c
    missing from T would leave a gap in that row of T'.
    Distinct open cycles of one tableau, of either coloring, have their
    holes in distinct rows: two holes in one row would be one cell, but a
    hole is a variable cell of its cycle's coloring, the two colorings'
    variable cells have opposite chessboard colours, and within one
    coloring a hole belongs to one of its own cycle's dominoes, while
    cycles share no label.  Of two down cycles with hole rows a < b, the
    target of the one at b is lex-greater: the targets agree above row a,
    where the first loses a cell and the second does not.
    """
    return [
        cy
        for coloring in (Coloring.NATIVE, Coloring.TYPE_D)
        for cy in open_cycles(tableau, coloring)
        if cy.down and _anneals(cy)
    ]


def _preferred(moves: list[Cycle]) -> Cycle:
    """The lowest hole: the move whose hole lies in the greatest row.  By
    Lemma 5 of ``candidate_moves`` it is unique and its target shape is the
    lex-greatest, which is dominance-maximal: a shape that strictly
    dominates another is larger in the first part where they differ."""
    return max(moves, key=lambda cy: cy.hole[0])


def orbital_tableau(tableau: DominoTableau) -> OrbitalResult:
    """Anneal until the shape is an orbit partition; deterministic trace.

    Every move strictly lowers the shape in dominance, so it strictly raises
    ``n_statistic`` of the shape, which is at most m(m - 1)/2 for a shape of
    size m.  A run from shape lam therefore takes at most
    m(m - 1)/2 - n(lam) steps; the loop allows one more pass to see the
    terminal shape, and a run that overshoots raises PipelineStallError.
    """
    shape = tableau.shape()
    size = sum(shape)
    bound = size * (size - 1) // 2 - n_statistic(shape) + 1
    trace: list[Cycle] = []
    current = tableau
    for _ in range(bound):
        shape = current.shape()
        if is_orbit_partition(shape, current.lie_type):
            return OrbitalResult(current, tuple(trace))
        moves = candidate_moves(current)
        if not moves:
            raise PipelineStallError(
                f"no admissible move at shape {shape} ({current.lie_type})"
            )
        cycle = _preferred(moves)
        current = move_through(current, cycle)
        trace.append(cycle)
    raise PipelineStallError(
        f"annealing took more than {bound - 1} steps, the most that a "
        "strictly rising n(shape) allows"
    )


def orbit_of(w: SignedPerm, lie_type: str) -> Partition:
    return orbital_tableau(rs(w, lie_type).left).orbit


def special_projection(tableau: DominoTableau) -> DominoTableau:
    """The special-shape tableau reachable through open native cycles: one
    simultaneous move through every open native cycle whose hole row has
    the annealing parity (``_anneals``), which are the unboxed cycles in
    type C and the boxed ones in type B (``candidate_moves`` proves it).

    A tableau of special shape has no such cycle and comes back as the same
    object.  The tests' walk oracle reaches this image and no other special
    tableau on every standard tableau of rank <= 6.  A non-special image
    raises RuntimeError.
    """
    cycles = [cy for cy in open_cycles(tableau, Coloring.NATIVE) if _anneals(cy)]
    projected = move_through_set(tableau, cycles)
    if not is_special(projected.shape(), projected.lie_type):
        raise RuntimeError(f"special projection reached non-special shape {projected.shape()}")
    return projected
