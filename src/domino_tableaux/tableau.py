"""Standard domino tableaux of types B and C.

Cells are (row, column) pairs, 1-based, row 1 at the top.  A type-B tableau
owns an extra unlabeled core cell at (1,1) that takes part in every shape
computation; type C has no core.

Both value types are valid by construction.  ``Domino`` takes ints only
(not bools) for its label and its four coordinates, refusing rather than
coercing anything else; it sorts its cells row-major and rejects anything
but two edge-adjacent cells of the quadrant under a positive label.
``DominoTableau`` rejects overlaps (with each other and with the core),
labels that do not strictly increase, and layouts that are not standard, so
no layer re-checks a tableau or a domino it is handed.  The cell -> label
map and the shape that this check builds are kept: ``shape()`` and
``cells()`` read them, and ``cell_owner()`` copies the map.

Standardness is the local rule of ``misplaced_cell``: every labelled cell's
upper and left neighbours inside the quadrant exist with labels no larger
than its own, the core counting as 0.  It is the prefix definition (for
every label k, the core and the dominoes labeled <= k fill a Young diagram)
read cell by cell, since a cell of label k lies in the k-prefix, and the
first prefix to fail is that of the smallest misplaced label.  So the
constructor's check is one linear pass.

A relocation (``replace_cells``) checks only what it changes.  Its source
is standard and keeps its labels and their order, and a cell's verdict
depends only on its own label and those of its upper and left neighbours.
So the only cells whose verdict can change are the placed cells and the
cells right of or below a vacated or placed cell, and the result is
standard exactly when none of them is misplaced.  ``replace_cells``
moves the relocated dominoes on a copy of the source's owner map, refuses a
placed cell that stays taken, runs the rule on those cells and adjusts the
source's row lengths; the cost is one copy of the map and of the domino
tuple, plus checks on the moved cells alone.  A relocation that fails goes
to the full constructor, so it is refused with the constructor's own
message.  Insertion and the cycle builders of ``cycles`` run the same rule
on the cells their moves change, each cell once.

Tableaux are immutable values (``Value``, the base of every value type of
the library); "mutating" helpers return new objects that share the
unchanged dominoes.  Labels are normally 1..m, which
``make_tableau`` checks by default; a standard tableau whose label set has
gaps is asked for with require_contiguous=False.  A relocation
(``replace_cells``) keeps the label set, so it has nothing to ask.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .partitions import _TYPES, Partition, check_group_type

Cell = tuple[int, int]


class TableauError(ValueError):
    pass


class _NotIntError(TableauError, TypeError):
    """Domino's refusal of a label or cell that is not an int."""


_set = object.__setattr__  # how a Value's __init__ writes its slots


class Value:
    """Base of the library's immutable value types.

    A subclass names in ``_fields``, in constructor order, the fields that
    take part in equality, hash and repr; its ``__init__`` writes every slot
    with ``_set``, after which assignment and deletion raise AttributeError.
    Only instances of one class compare equal.  A copy or a pickle is
    rebuilt by the constructor from the ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)


def core_cells(lie_type: str) -> tuple[Cell, ...]:
    try:
        check_group_type(lie_type)
    except ValueError as exc:
        raise TableauError(str(exc)) from None
    return ((1, 1),) * _TYPES[lie_type].core_size


def _malformed_cells(label: int, cells) -> TableauError:
    """The error for cells that are not two (row, column) pairs of ints."""
    try:
        cs = tuple(sorted(tuple(c) for c in cells))
    except TypeError:
        cs = None
    if cs is not None and len(cs) != 2:
        return TableauError(f"domino {label} needs exactly two cells, got {cs}")
    return _NotIntError(
        f"domino {label} cells must be two (row, column) pairs of ints, got {cells!r}"
    )


class Domino(Value):
    __slots__ = _fields = ("label", "cells")
    label: int
    cells: tuple[Cell, Cell]  # sorted row-major

    def __init__(self, label: int, cells: tuple[Cell, Cell]) -> None:
        if type(label) is not int:
            raise _NotIntError(f"domino label must be an int, got {label!r}")
        if label < 1:
            raise TableauError(f"domino label must be positive, got {label}")
        try:
            (r1, c1), (r2, c2) = cells
        except (TypeError, ValueError):
            raise _malformed_cells(label, cells) from None
        if not (type(r1) is int and type(c1) is int and type(r2) is int and type(c2) is int):
            raise _malformed_cells(label, cells)
        if r2 < r1 or (r2 == r1 and c2 < c1):
            r1, c1, r2, c2 = r2, c2, r1, c1
        cs = ((r1, c1), (r2, c2))
        if r1 < 1 or c1 < 1 or c2 < 1:
            raise TableauError(f"domino {label} has out-of-quadrant cells {cs}")
        if not (c2 == c1 + 1 if r1 == r2 else c1 == c2 and r2 == r1 + 1):
            raise TableauError(f"domino {label} cells {cs} do not share an edge")
        _set(self, "label", label)
        _set(self, "cells", cs)

    @property
    def horizontal(self) -> bool:
        return self.cells[0][0] == self.cells[1][0]


def shape_of_cells(cells: Iterable[Cell]) -> Partition:
    rows: dict[int, int] = {}
    for r, _ in cells:
        rows[r] = rows.get(r, 0) + 1
    return tuple(rows[r] for r in sorted(rows))


_label_of = attrgetter("label")


def _position(dominoes: Sequence[Domino], label: int) -> int:
    """The index of label's domino among dominoes in ascending label
    order, or -1."""
    i = bisect_left(dominoes, label, key=_label_of)
    return i if i < len(dominoes) and dominoes[i].label == label else -1


class DominoTableau(Value):
    _fields = ("lie_type", "dominoes")
    # The cell -> label map (0 for the type-B core) and the shape that the
    # constructor's check builds; neither takes part in equality.
    __slots__ = (*_fields, "_owner", "_shape", "__weakref__")
    lie_type: str
    dominoes: tuple[Domino, ...]  # ascending labels

    def __init__(self, lie_type: str, dominoes: tuple[Domino, ...]) -> None:
        core = core_cells(lie_type)
        owner: dict[Cell, int] = {c: 0 for c in core}
        # Row lengths, counted as the cells come in.  In a tableau that is
        # accepted below, the dominoes come in ascending label order and
        # each one's top cell first, and every prefix is a Young diagram,
        # so no cell lies more than one row below the rows seen so far.
        rows = [1] if core else []
        dominoes = tuple(dominoes)
        for d in dominoes:
            if not isinstance(d, Domino):
                raise TableauError(f"tableau entry {d!r} is not a Domino")
            label = d.label
            for c in d.cells:
                if c in owner:
                    who = "the core" if owner[c] == 0 else f"domino {owner[c]}"
                    raise TableauError(f"cell {c} of domino {label} overlaps {who}")
                owner[c] = label
                r = c[0]
                if r > len(rows):
                    rows.append(1)
                else:
                    rows[r - 1] += 1
        labels = [d.label for d in dominoes]
        if labels != sorted(labels) or len(set(labels)) != len(labels):
            raise TableauError(f"labels not strictly increasing: {labels}")
        # owner lists the cells in ascending label order, so the first
        # misplaced cell names the first prefix that is not a Young diagram
        bad = misplaced_cell(owner, owner)
        if bad is not None:
            raise TableauError(f"cells up to label {owner[bad]} do not form a Young diagram")
        _set(self, "lie_type", lie_type)
        _set(self, "dominoes", dominoes)
        _set(self, "_owner", owner)
        _set(self, "_shape", tuple(rows))

    @classmethod
    def _checked(
        cls, lie_type: str, dominoes: tuple[Domino, ...], owner: dict[Cell, int], shape: Partition
    ) -> DominoTableau:
        """A tableau whose layout its caller has checked, with the owner map
        and the shape that the check built."""
        tab = object.__new__(cls)
        _set(tab, "lie_type", lie_type)
        _set(tab, "dominoes", dominoes)
        _set(tab, "_owner", owner)
        _set(tab, "_shape", shape)
        return tab

    def labels(self) -> tuple[int, ...]:
        return tuple(d.label for d in self.dominoes)

    def domino(self, label: int) -> Domino:
        i = _position(self.dominoes, label)
        if i < 0:
            raise KeyError(f"no domino labeled {label}")
        return self.dominoes[i]

    def cells(self) -> frozenset[Cell]:
        return frozenset(self._owner)

    def cell_owner(self) -> dict[Cell, int]:
        """Map of cell -> label, with 0 for the type-B core; a fresh copy
        that the caller may change."""
        return dict(self._owner)

    def shape(self) -> Partition:
        return self._shape

    def sub_shape(self, k: int) -> Partition:
        """Shape of the core plus the first k dominoes, whatever their labels."""
        cells = list(core_cells(self.lie_type))
        for d in self.dominoes[:k]:
            cells.extend(d.cells)
        return shape_of_cells(cells)


def misplaced_cell(owner: Mapping[Cell, int], cells: Iterable[Cell]) -> Cell | None:
    """The first of ``cells`` that carries a label in ``owner`` while its
    upper or left neighbour inside the quadrant is unlabelled or has a
    larger label; None when there is no such cell."""
    get = owner.get
    for cell in cells:
        lbl = get(cell)
        if lbl is None:
            continue
        r, c = cell
        if r > 1:
            up = get((r - 1, c))
            if up is None or up > lbl:
                return cell
        if c > 1:
            left = get((r, c - 1))
            if left is None or left > lbl:
                return cell
    return None


def move_cells(
    owner: dict[Cell, int],
    old: Mapping[int, Iterable[Cell]],
    new: Mapping[int, Iterable[Cell]],
) -> set[Cell] | None:
    """Move each label of ``new`` in the owner map, in place, from its
    ``old`` cells to its new ones.  Returns the cells whose standardness the
    move can change, each once: the placed cells and the cells right of or
    below a vacated or placed one.  Returns None, leaving the map part-way,
    when a new cell lies off the quadrant or on a cell that stays taken."""
    touched: list[Cell] = []
    for lbl in new:
        for r, c in old[lbl]:
            del owner[(r, c)]
            touched += ((r + 1, c), (r, c + 1))
    for lbl, cells in new.items():
        for cell in cells:
            r, c = cell
            if r < 1 or c < 1 or cell in owner:
                return None
            owner[cell] = lbl
            touched += (cell, (r + 1, c), (r, c + 1))
    return set(touched)


def make_tableau(
    lie_type: str,
    dominoes: Iterable[Domino | tuple],
    require_contiguous: bool = True,
) -> DominoTableau:
    """A tableau from ``Domino``s, kept as they are, and (label, cells)
    entries, in any order; with ``require_contiguous`` the labels must also
    be 1..m."""
    ds = [d if isinstance(d, Domino) else Domino(*d) for d in dominoes]
    ds.sort(key=lambda d: d.label)
    t = DominoTableau(lie_type, tuple(ds))
    if require_contiguous:
        check_contiguous(t.labels())
    return t


def check_contiguous(labels: Sequence[int]) -> None:
    """Refuse ascending labels that are not 1..m."""
    if list(labels) != list(range(1, len(labels) + 1)):
        raise TableauError(f"labels must be 1..{len(labels)}, got {list(labels)}")


def replace_cells(tableau: DominoTableau, moves: Mapping[int, Iterable[Cell]]) -> DominoTableau:
    """New tableau with the given labels relocated; the other dominoes are
    shared, and a label the tableau does not hold raises ``KeyError``.
    Only the relocated dominoes and the cells the move can change are
    checked, on a copy of the source's owner map; a relocation that fails
    that check goes to the full constructor, which refuses it with its own
    message."""
    ds = list(tableau.dominoes)
    old: dict[int, tuple[Cell, Cell]] = {}
    new: dict[int, tuple[Cell, Cell]] = {}
    for lbl in sorted(moves):
        i = _position(ds, lbl)
        if i < 0:
            raise KeyError(f"no domino labeled {lbl}")
        old[lbl] = ds[i].cells
        ds[i] = Domino(lbl, moves[lbl])
        new[lbl] = ds[i].cells
    dominoes = tuple(ds)
    owner = dict(tableau._owner)
    touched = move_cells(owner, old, new)
    if touched is None or misplaced_cell(owner, touched) is not None:
        return DominoTableau(tableau.lie_type, dominoes)
    rows = list(tableau._shape)
    for cells in old.values():
        for r, _ in cells:
            rows[r - 1] -= 1
    for cells in new.values():
        for r, _ in cells:
            rows.extend([0] * (r - len(rows)))
            rows[r - 1] += 1
    while rows and not rows[-1]:
        rows.pop()
    return DominoTableau._checked(tableau.lie_type, dominoes, owner, tuple(rows))


def render(tableau: DominoTableau) -> str:
    """ASCII grid; every cell prints its domino's label, the core prints 0."""
    owner = tableau.cell_owner()
    if not owner:
        return "(empty)"
    nrows = max(r for r, _ in owner)
    ncols = max(c for _, c in owner)
    width = max(len(str(v)) for v in owner.values())
    lines = []
    for r in range(1, nrows + 1):
        row = []
        for c in range(1, ncols + 1):
            row.append(str(owner[(r, c)]).rjust(width) if (r, c) in owner else " " * width)
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)


def to_json_dict(tableau: DominoTableau) -> dict:
    return {
        "type": tableau.lie_type,
        "dominoes": [
            {"label": d.label, "cells": [list(c) for c in d.cells]} for d in tableau.dominoes
        ],
    }


def from_json_dict(doc: dict) -> DominoTableau:
    if not isinstance(doc, dict) or not isinstance(doc.get("dominoes"), list) or "type" not in doc:
        raise TableauError(f"malformed tableau document: {doc!r}")
    ds = []
    for entry in doc["dominoes"]:
        try:
            ds.append(Domino(entry["label"], entry["cells"]))
        except (KeyError, TypeError) as exc:  # TypeError includes Domino's int rule
            raise TableauError(f"malformed domino entry {entry!r}") from exc
    return make_tableau(doc["type"], ds)


def serialize(tableau: DominoTableau) -> str:
    return json.dumps(to_json_dict(tableau), sort_keys=True)


def read_json(text: str):
    """The document that tableau or pair JSON text holds."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableauError(f"not valid JSON: {exc}") from exc


def deserialize(text: str) -> DominoTableau:
    return from_json_dict(read_json(text))
