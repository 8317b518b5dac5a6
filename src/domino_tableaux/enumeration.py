"""Exhaustive generators and brute-force cross-checks.

Tableaux are counted in closed form by ``partitions.count_sdt``, which
this module imports back for its suites and its callers.  The generators
are implemented from first principles (shape chains rather than cell-level
standardness, direct group arithmetic), and most suites re-derive what they
check.
``pipeline-confluence`` is the exception: it explores every move that the
annealer's own ``candidate_moves`` offers, the one definition of an
admissible move, and the tests check ``candidate_moves`` against that
definition, re-derived, on every standard tableau of rank <= 6.

Each report checks its own instance count where a closed form exists:
2^n n! for the suites over the group, the number of standard tableaux of
the rank for those over the tableaux, and 1 for ``counting-identities``.
``cycle-involution`` and ``operator-cell-compat`` have none; the tests pin
theirs.
"""

from __future__ import annotations

import math

from .cycles import Coloring, all_cycles, cycle_of, move_through
from .insertion import rs, rs_inverse
from .operators import (
    equal_length_domain,
    type_d_domain,
    unequal_length_domain,
    wall_cross_equal_length,
    wall_cross_type_d,
    wall_cross_unequal_length,
)
from .partitions import (
    _TYPES,
    Partition,
    _check_shape,
    _core_shape,
    as_partition,
    check_group_type,
    count_sdt,
    is_orbit_partition,
    partitions_of,
)
from .pipeline import candidate_moves, orbital_tableau
from .signed_perm import (
    compose,
    enumerate_group,
    format_perm,
    identity,
    inverse,
)
from .tableau import DominoTableau, Value, _set, make_tableau, serialize

# ---------------------------------------------------------------------------
# standard domino tableaux by backtracking over shape chains


def _removals(shape: Partition):
    """Ways to delete the top-labeled domino: (new_shape, cells).

    A removal takes the cell (1,1) only from the shape (2) or (1,1), both of
    even size, so it never takes the type-B core: every shape on a type-B
    chain has odd size (``_check_shape``).
    """
    rows = len(shape)
    for r in range(1, rows + 1):
        length = shape[r - 1]
        below = shape[r] if r < rows else 0
        # last two cells of row r
        if length >= 2 and length - 2 >= below:
            new = shape[: r - 1] + (length - 2,) + shape[r:]
            yield as_partition(new), ((r, length - 1), (r, length))
        # bottom two cells of a column: rows r, r+1 of equal length
        if r < rows and shape[r] == length:
            lower = shape[r + 1] if r + 1 < rows else 0
            if length - 1 >= lower:
                new = shape[: r - 1] + (length - 1, length - 1) + shape[r + 1 :]
                yield as_partition(new), ((r, length), (r + 1, length))


def all_sdt(shape, lie_type: str) -> list[DominoTableau]:
    """Every standard domino tableau of the given shape, built by removing
    the highest-labeled domino and recursing."""
    shape = _check_shape(shape, lie_type)
    core = _core_shape(lie_type)

    def build(current: Partition, label: int):
        if current == core:
            yield []
            return
        for new, cells in _removals(current):
            for rest in build(new, label - 1):
                yield rest + [(label, cells)]

    total = (sum(shape) - len(core)) // 2
    return [make_tableau(lie_type, layout) for layout in build(shape, total)]


# ---------------------------------------------------------------------------
# verification suites


class VerificationReport(Value):
    __slots__ = _fields = ("suite", "lie_type", "n", "instances", "failures")
    suite: str
    lie_type: str
    n: int
    instances: int
    failures: tuple[str, ...]

    def __init__(
        self, suite: str, lie_type: str, n: int, instances: int, failures: tuple[str, ...]
    ) -> None:
        _set(self, "suite", suite)
        _set(self, "lie_type", lie_type)
        _set(self, "n", n)
        _set(self, "instances", instances)
        _set(self, "failures", failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "type": self.lie_type,
            "n": self.n,
            "instances": self.instances,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _group_shapes(n: int, lie_type: str):
    return partitions_of(2 * n + _TYPES[lie_type].core_size)


def _group_order(n, lie_type):
    return 2**n * math.factorial(n)


def _tableaux_of_rank(n, lie_type):
    """The number of standard tableaux of the rank (Stanton-White)."""
    return sum(count_sdt(shape, lie_type) for shape in _group_shapes(n, lie_type))


def _left_tableaux(n, lie_type):
    """Every standard tableau of the rank, in serialized order: the left
    tableaux of the rank-n group, as the rs-bijection suite checks."""
    return sorted(
        (tab for shape in _group_shapes(n, lie_type) for tab in all_sdt(shape, lie_type)),
        key=serialize,
    )


def _suite_rs_bijection(n, lie_type, report):
    """rs is a bijection onto same-shape pairs: rs_inverse undoes it and its
    left tableaux are every standard tableau of the rank, which the suites
    that read tableaux rely on.  Also color-to-spin (Shimozono-White, EJC
    2001): L and R together have twice as many vertical dominoes as w has
    negative entries."""
    lefts = set()
    for w in enumerate_group(n):
        report["instances"] += 1
        pair = rs(w, lie_type)
        lefts.add(pair.left)
        back = rs_inverse(pair)
        if back != w:
            report["failures"].append(
                f"w={format_perm(w)} round-tripped to {format_perm(back)}"
            )
        vertical = sum(
            not d.horizontal for side in (pair.left, pair.right) for d in side.dominoes
        )
        negatives = sum(x < 0 for x in w)
        if vertical != 2 * negatives:
            report["failures"].append(
                f"w={format_perm(w)}: {vertical} vertical dominoes, "
                f"{negatives} negative entries"
            )
    standard = set(_left_tableaux(n, lie_type))
    if lefts != standard:
        report["failures"].append(
            "left tableaux are not the standard tableaux of the rank: "
            f"{len(standard - lefts)} standard tableaux never inserted, "
            f"{len(lefts - standard)} left tableaux not among them"
        )


def _suite_counting_identities(n, lie_type, report):
    report["instances"] += 1
    total = sum(count_sdt(shape, lie_type) ** 2 for shape in _group_shapes(n, lie_type))
    expected = _group_order(n, lie_type)
    if total != expected:
        report["failures"].append(f"sum of squared counts {total} != {expected}")


def _suite_involution_criterion(n, lie_type, report):
    e = identity(n)
    involutions = 0
    for w in enumerate_group(n):
        report["instances"] += 1
        is_invol = compose(w, w) == e
        involutions += is_invol
        pair = rs(w, lie_type)
        if is_invol != (pair.left == pair.right):
            report["failures"].append(
                f"w={format_perm(w)}: involution={is_invol} but tableau "
                f"equality={pair.left == pair.right}"
            )
    total = _tableaux_of_rank(n, lie_type)
    if involutions != total:
        report["failures"].append(f"{involutions} involutions vs {total} tableaux")


def _suite_inverse_transpose(n, lie_type, report):
    """Visits each {w, w^-1} once, from its smaller element, and counts and
    reports both: rs(w^-1) must be rs(w) with its tableaux swapped."""
    for w in enumerate_group(n):
        v = inverse(w)
        if v < w:
            continue
        pair = rs(w, lie_type)
        other = pair if v == w else rs(v, lie_type)
        elements = (w,) if v == w else (w, v)
        report["instances"] += len(elements)
        if (other.left, other.right) != (pair.right, pair.left):
            report["failures"].extend(f"w={format_perm(u)}" for u in elements)


def _suite_cycle_involution(n, lie_type, report):
    for tab in _left_tableaux(n, lie_type):
        for coloring in Coloring:
            cycles = all_cycles(tab, coloring)
            if sorted(label for cy in cycles for label in cy.labels) != list(tab.labels()):
                report["failures"].append(
                    f"{serialize(tab)} {coloring.value}: labels not partitioned"
                )
                continue
            for cy in cycles:
                report["instances"] += 1
                moved = move_through(tab, cy)
                if cy.open:
                    lost = tab.cells() - moved.cells()
                    gained = moved.cells() - tab.cells()
                    if lost != {cy.hole} or gained != {cy.corner}:
                        report["failures"].append(
                            f"{serialize(tab)} {coloring.value} {cy.labels}: "
                            f"open move changed cells {lost}/{gained}"
                        )
                elif moved.shape() != tab.shape():
                    report["failures"].append(
                        f"{serialize(tab)} {coloring.value} {cy.labels}: "
                        "closed move changed shape"
                    )
                again = move_through(
                    moved, cycle_of(moved, min(cy.labels), coloring)
                )
                if again != tab:
                    report["failures"].append(
                        f"{serialize(tab)} {coloring.value} {cy.labels}: "
                        "double move is not the identity"
                    )


def _terminals(
    tab: DominoTableau, memo: dict[DominoTableau, frozenset[DominoTableau]]
) -> frozenset[DominoTableau]:
    """Every terminal tableau that some run of admissible moves reaches,
    taking every move of ``candidate_moves`` where the annealer takes one;
    ``memo`` shares the work between the tableaux of one run."""
    if tab not in memo:
        if is_orbit_partition(tab.shape(), tab.lie_type):
            memo[tab] = frozenset([tab])
        else:
            memo[tab] = frozenset().union(
                *(_terminals(move_through(tab, cy), memo) for cy in candidate_moves(tab))
            )
    return memo[tab]


def _suite_pipeline_confluence(n, lie_type, report):
    memo: dict[DominoTableau, frozenset[DominoTableau]] = {}
    for tab in _left_tableaux(n, lie_type):
        report["instances"] += 1
        ends = _terminals(tab, memo)
        if len(ends) != 1:
            report["failures"].append(
                f"{serialize(tab)}: {len(ends)} distinct terminal tableaux"
            )
        elif next(iter(ends)) != orbital_tableau(tab).tableau:
            report["failures"].append(
                f"{serialize(tab)}: canonical run disagrees with exploration"
            )


def _suite_operator_cell_compat(n, lie_type, report):
    annealed = {
        tab: orbital_tableau(tab).tableau for tab in _left_tableaux(n, lie_type)
    }
    for w in enumerate_group(n):
        pair = rs(w, lie_type)
        target = annealed[pair.left]
        for i in range(2, n):
            if equal_length_domain(w, i, i + 1).defined:
                report["instances"] += 1
                image = wall_cross_equal_length(w, i, i + 1)
                if annealed[rs(image, lie_type).left] != target:
                    report["failures"].append(
                        f"equal-length({i},{i + 1}) moved w={format_perm(w)} "
                        "off its annealed tableau"
                    )
        for name, domain, apply in (
            ("unequal-length", unequal_length_domain, wall_cross_unequal_length),
            ("type-d", type_d_domain, wall_cross_type_d),
        ):
            if not domain(pair).defined:
                continue
            report["instances"] += 1
            out = apply(pair)
            if rs(rs_inverse(out), lie_type) != out:
                report["failures"].append(
                    f"{name} output at w={format_perm(w)} is not an insertion image"
                )
                continue
            if annealed[out.left] != target:
                report["failures"].append(
                    f"{name} moved w={format_perm(w)} off its annealed tableau"
                )


def _suite_surjectivity(n, lie_type, report):
    tableaux = _left_tableaux(n, lie_type)
    report["instances"] += len(tableaux)
    image = {orbital_tableau(tab).tableau for tab in tableaux}
    expected = {tab for tab in tableaux if is_orbit_partition(tab.shape(), lie_type)}
    if image != expected:
        missing = len(expected - image)
        extra = len(image - expected)
        report["failures"].append(
            f"image mismatch: {missing} unreached tableaux, {extra} unexpected"
        )


# suite -> (check, the instance count it must reach in closed form, or None
# where none is known: the cycles of every tableau, the operator images of
# every element)
_SUITES = {
    "rs-bijection": (_suite_rs_bijection, _group_order),
    "involution-criterion": (_suite_involution_criterion, _group_order),
    "inverse-transpose": (_suite_inverse_transpose, _group_order),
    "cycle-involution": (_suite_cycle_involution, None),
    "operator-cell-compat": (_suite_operator_cell_compat, None),
    "pipeline-confluence": (_suite_pipeline_confluence, _tableaux_of_rank),
    "counting-identities": (_suite_counting_identities, lambda n, lie_type: 1),
    "surjectivity": (_suite_surjectivity, _tableaux_of_rank),
}
SUITE_NAMES = tuple(_SUITES)


def verify_suite(name: str, n: int, lie_type: str) -> VerificationReport:
    """Run one named exhaustive check and report instances and failures;
    a suite whose instance count has a closed form fails when it checks
    any other number."""
    check_group_type(lie_type)
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if n < 1:
        raise ValueError("n must be at least 1")
    check, closed_form = _SUITES[name]
    state = {"instances": 0, "failures": []}
    check(n, lie_type, state)
    if closed_form is not None:
        expected = closed_form(n, lie_type)
        if state["instances"] != expected:
            state["failures"].append(
                f"checked {state['instances']} instances, expected {expected}"
            )
    return VerificationReport(
        suite=name,
        lie_type=lie_type,
        n=n,
        instances=state["instances"],
        failures=tuple(state["failures"]),
    )
