"""Value semantics of the library's seven immutable types: constructors,
repr, equality and hash over their fields, immutability, copies and
pickles."""

import copy
import inspect
import pickle
import weakref

import pytest

from domino_tableaux.cycles import Coloring, Cycle, all_cycles
from domino_tableaux.enumeration import VerificationReport, verify_suite
from domino_tableaux.insertion import TableauPair, rs
from domino_tableaux.operators import OperatorDomainReport, unequal_length_domain
from domino_tableaux.pipeline import OrbitalResult, orbital_tableau
from domino_tableaux.tableau import Domino, DominoTableau, make_tableau

NATIVE = "<Coloring.NATIVE: 'native'>"
C_TABLEAU = (
    "DominoTableau(lie_type='C', dominoes=(Domino(label=1, cells=((1, 1), (2, 1))), "
    "Domino(label=2, cells=((1, 2), (2, 2)))))"
)
OPEN_CYCLE = f"Cycle(labels=(2,), coloring={NATIVE}, hole=(1, 3), corner=(2, 2), boxed=False)"
B_PAIR = (
    "TableauPair(left=DominoTableau(lie_type='B', dominoes=(Domino(label=1, cells=((2, 1), "
    "(3, 1))), Domino(label=2, cells=((1, 2), (1, 3))))), right=DominoTableau(lie_type='B', "
    "dominoes=(Domino(label=1, cells=((1, 2), (1, 3))), Domino(label=2, cells=((2, 1), "
    "(3, 1))))))"
)


# the fields that take part in equality, hash and repr
FIELDS = {
    Domino: ("label", "cells"),
    DominoTableau: ("lie_type", "dominoes"),
    TableauPair: ("left", "right"),
    Cycle: ("labels", "coloring", "hole", "corner", "boxed"),
    OrbitalResult: ("tableau", "trace"),
    OperatorDomainReport: ("case", "reason"),
    VerificationReport: ("suite", "lie_type", "n", "instances", "failures"),
}


def _values():
    """A value of each of the seven types, its repr, and an equal value
    built separately."""
    result = orbital_tableau(rs((-1, 2), "C").left)
    cycle = result.trace[0]
    pair = rs((2, -1), "B")
    report = verify_suite("rs-bijection", 1, "B")
    domain = unequal_length_domain(rs((-1, 2, 3), "C"))
    return [
        (
            Domino(1, ((1, 2), (1, 1))),
            "Domino(label=1, cells=((1, 1), (1, 2)))",
            Domino(1, [[1, 1], [1, 2]]),
        ),
        (result.tableau, C_TABLEAU, make_tableau("C", result.tableau.dominoes)),
        (pair, B_PAIR, rs((2, -1), "B")),
        (cycle, OPEN_CYCLE, all_cycles(cycle.source, Coloring.NATIVE)[1]),
        (
            result,
            f"OrbitalResult(tableau={C_TABLEAU}, trace=({OPEN_CYCLE},))",
            orbital_tableau(rs((-1, 2), "C").left),
        ),
        (
            domain,
            "OperatorDomainReport(case='(3,1)', reason='ok')",
            OperatorDomainReport("(3,1)", "ok"),
        ),
        (
            report,
            "VerificationReport(suite='rs-bijection', lie_type='B', n=1, instances=2, "
            "failures=())",
            VerificationReport("rs-bijection", "B", 1, 2, ()),
        ),
    ]


VALUES = _values()
IDS = [type(value).__name__ for value, _, _ in VALUES]


def test_one_value_of_each_type():
    assert [type(value) for value, _, _ in VALUES] == list(FIELDS)


def test_constructor_parameters_and_defaults():
    def parameters(cls):
        return inspect.signature(cls).parameters.values()

    for cls in FIELDS:  # no value type has an optional field
        assert [p.name for p in parameters(cls) if p.default is not p.empty] == [], cls
    assert [p.name for p in parameters(Cycle)] == [*FIELDS[Cycle], "moves", "source"]
    assert [p.name for p in parameters(DominoTableau)] == ["lie_type", "dominoes"]
    assert Domino(label=2, cells=((1, 3), (1, 4))) == Domino(2, ((1, 3), (1, 4)))


@pytest.mark.parametrize("value, text, twin", VALUES, ids=IDS)
def test_repr_is_pinned(value, text, twin):
    assert repr(value) == text == repr(twin)


@pytest.mark.parametrize("value, text, twin", VALUES, ids=IDS)
def test_equal_values_hash_equal_and_other_classes_differ(value, text, twin):
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert not twin != value
    fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("value, text, twin", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(value, text, twin):
    for name in (*FIELDS[type(value)], "no_such_field"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, twin", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(value, text, twin):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and hash(back) == hash(value) and repr(back) == text
    for duplicate in (copy.copy, copy.deepcopy):
        back = duplicate(value)
        assert back == value and hash(back) == hash(value) and repr(back) == text


def test_kept_state_survives_copies():
    # a tableau's owner map and shape, and a cycle's move and source, stay
    # outside equality but come back with every copy
    result = orbital_tableau(rs((-1, 2), "C").left)
    cycle = result.trace[0]
    for back in (copy.copy(cycle), copy.deepcopy(cycle), pickle.loads(pickle.dumps(cycle))):
        assert back.moves == cycle.moves and back.source == cycle.source
    tableau = cycle.source
    for back in (copy.deepcopy(tableau), pickle.loads(pickle.dumps(tableau))):
        assert back.shape() == tableau.shape() == (3, 1)
        assert back.cell_owner() == tableau.cell_owner()
    assert Cycle(*(getattr(cycle, name) for name in FIELDS[Cycle]), (), None) == cycle


def test_a_tableau_takes_weak_references():
    tableau = make_tableau("C", [(1, ((1, 1), (1, 2)))])
    assert weakref.ref(tableau)() is tableau
