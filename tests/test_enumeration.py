import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache

import pytest

import domino_tableaux
from domino_tableaux import enumeration
from domino_tableaux.enumeration import (
    SUITE_NAMES,
    _core_shape,
    _removals,
    all_sdt,
    count_sdt,
    verify_suite,
)
from domino_tableaux.insertion import TableauPair
from domino_tableaux.partitions import is_orbit_partition, partitions_of
from domino_tableaux.signed_perm import format_perm, inverse
from domino_tableaux.tableau import make_tableau


def test_count_frozen_values():
    assert count_sdt((2, 2), "C") == 2
    assert count_sdt((3, 1), "C") == 1
    assert count_sdt((4,), "C") == 1
    with pytest.raises(ValueError):
        count_sdt((2, 1), "C")  # odd cell count is a usage error
    expected_b = {
        (5,): 1,
        (3, 2): 1,
        (3, 1, 1): 2,
        (2, 2, 1): 1,
        (1, 1, 1, 1, 1): 1,
        (4, 1): 0,  # cannot start from the single-cell core
    }
    for shape, count in expected_b.items():
        assert count_sdt(shape, "B") == count, shape


@lru_cache(maxsize=None)
def _count_chains(shape, lie_type):
    """Oracle: count shape chains down to the type's core, one domino at a time."""
    if shape == _core_shape(lie_type):
        return 1
    return sum(_count_chains(new, lie_type) for new, _ in _removals(shape))


@pytest.mark.parametrize("t", ["C", "B"])
def test_count_matches_chain_oracle(t):
    wrong_core = 0
    for size in range(1 if t == "B" else 0, 21, 2):
        for shape in partitions_of(size):
            expected = _count_chains(shape, t)
            wrong_core += expected == 0
            assert count_sdt(shape, t) == expected, shape
    assert wrong_core > 0  # shapes whose 2-core is not the type's core


def test_count_large_staircase():
    # (14,14,12,12,...,2,2) has 2-quotient ((7,6,...,1), (7,6,...,1)); the
    # staircase of size 28 has 48608795688960 standard Young tableaux.
    shape = tuple(part for k in range(7, 0, -1) for part in (2 * k, 2 * k))
    assert sum(shape) == 112
    assert count_sdt(shape, "C") == math.comb(56, 28) * 48608795688960**2


def test_count_is_one_pass_on_a_wide_hook():
    # one pass over 20,000 cells; a transpose that scans every row for each
    # column takes about 1 s here.  Domino 1 lies in row 1, so the other
    # 4,999 row dominoes and the 5,000 column dominoes interleave freely.
    shape = (10000,) + (1,) * 10000
    start = time.perf_counter()
    count = count_sdt(shape, "C")
    assert time.perf_counter() - start < 0.5
    assert count == math.comb(9999, 4999)


def _standard_young_count(shape):
    """f^shape by the hook-length formula."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j) + (columns[j] - i) - 1
    return math.factorial(sum(shape)) // hooks


def _springer_bipartition(lam, lie_type):
    """Lusztig's symbol of the orbit lam, read as the bipartition (alpha,
    beta) that labels its Springer representation with trivial local
    system: pad lam to an even (C) or odd (B) number of parts, add
    0, 1, 2, ... to the parts in increasing order, send each value v to
    v // 2 in the list of its parity, and subtract 0, 1, 2, ... within
    each list."""
    parts = sorted(lam)
    if len(parts) % 2 != (1 if lie_type == "B" else 0):
        parts.insert(0, 0)
    lists = ([], [])
    for i, part in enumerate(parts):
        lists[(part + i) % 2].append((part + i) // 2)
    return tuple(
        tuple(sorted((x - i for i, x in enumerate(values) if x > i), reverse=True))
        for values in lists
    )


@pytest.mark.parametrize("t", ["C", "B"])
def test_springer_dimension_counts_orbital_varieties(t):
    # The orbital varieties of O_lam number dim rho_(lam,1) = C(n, |alpha|)
    # f^alpha f^beta, the dimension of its Springer representation with
    # trivial local system (Lusztig, Invent. Math. 1984, sections 11-13).
    # Gate 8 checks through rank 5 that the annealed images of orbit shape
    # lam are all count_sdt(lam) tableaux of that shape; this ties that
    # count to the orbit's in closed form, at every rank <= 12.
    checked = 0
    for n in range(1, 13):
        for lam in partitions_of(2 * n + (1 if t == "B" else 0)):
            if not is_orbit_partition(lam, t):
                continue
            alpha, beta = _springer_bipartition(lam, t)
            assert sum(alpha) + sum(beta) == n, lam
            dimension = (
                math.comb(n, sum(alpha))
                * _standard_young_count(alpha)
                * _standard_young_count(beta)
            )
            assert dimension == count_sdt(lam, t), lam
            checked += 1
    assert checked == {"C": 1490, "B": 1256}[t]


@pytest.mark.parametrize("t", ["C", "B"])
def test_all_sdt_matches_count(t):
    cell_count = 6 + (1 if t == "B" else 0)
    for shape in partitions_of(cell_count):
        built = all_sdt(shape, t)
        assert len(built) == count_sdt(shape, t)
        assert len(set(built)) == len(built)
        for tableau in built:
            # every check again, from the raw cells
            raw = [(d.label, d.cells) for d in tableau.dominoes]
            assert make_tableau(t, raw) == tableau
            assert tableau.shape() == tuple(shape)


def test_all_sdt_rank_two_box():
    box = all_sdt((2, 2), "C")
    shapes = {tuple(sorted(d.cells for d in t.dominoes)) for t in box}
    assert len(box) == 2 and len(shapes) == 2  # horizontal pair, vertical pair


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("t", ["C", "B"])
def test_suites_pass_at_rank_two(name, t):
    report = verify_suite(name, 2, t)
    assert report.passed
    assert report.failures == ()
    assert report.instances > 0
    doc = report.to_json_dict()
    assert doc["suite"] == name and doc["type"] == t and doc["n"] == 2
    assert doc["passed"] is True


# the suites whose instance count has a closed form
CLOSED_FORM_SUITES = (
    "rs-bijection",
    "involution-criterion",
    "inverse-transpose",
    "pipeline-confluence",
    "surjectivity",
    "counting-identities",
)


def drop_one_instance(monkeypatch, name):
    """Make the suite check one instance fewer: the group loses its first
    element, or the first shape with tableaux loses its first tableau.
    ``counting-identities`` reads neither, so its check is emptied."""
    if name in ("rs-bijection", "involution-criterion", "inverse-transpose"):
        group = enumeration.enumerate_group
        monkeypatch.setattr(
            enumeration, "enumerate_group", lambda n: itertools.islice(group(n), 1, None)
        )
    elif name in ("pipeline-confluence", "surjectivity"):
        build, dropped = enumeration.all_sdt, []

        def all_but_one(shape, lie_type):
            tableaux = build(shape, lie_type)
            if tableaux and not dropped:
                dropped.append(tableaux.pop(0))
            return tableaux

        monkeypatch.setattr(enumeration, "all_sdt", all_but_one)
    else:
        _, closed_form = enumeration._SUITES[name]
        monkeypatch.setitem(
            enumeration._SUITES, name, (lambda n, lie_type, report: None, closed_form)
        )


@pytest.mark.parametrize("name", CLOSED_FORM_SUITES)
@pytest.mark.parametrize("t", ["C", "B"])
def test_suite_checks_its_own_instance_count(monkeypatch, name, t):
    full = verify_suite(name, 3, t)
    assert full.passed
    drop_one_instance(monkeypatch, name)
    report = verify_suite(name, 3, t)
    assert report.instances == full.instances - 1
    assert f"checked {report.instances} instances, expected {full.instances}" in report.failures
    assert report.passed is False


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite("no-such-suite", 2, "C")
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        verify_suite("rs-bijection", 0, "C")


@pytest.mark.parametrize("t", ["C", "B"])
@pytest.mark.parametrize("suite", ["inverse-transpose", "operator-cell-compat"])
def test_group_suites_keep_no_group_table(suite, t):
    # A table of every insertion pair of the group peaks above 1 MB at rank
    # 4 (about 200 MB at rank 6).  Each suite holds one element's pair at a
    # time; operator-cell-compat's per-tableau maps peak near 0.3 MB here.
    tracemalloc.start()
    try:
        report = verify_suite(suite, 4, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * 2**20


@pytest.mark.parametrize("t", ["C", "B"])
def test_inverse_transpose_reports_both_elements(monkeypatch, t):
    # rs swaps the pair of w0 alone, so the check of {w0, w0^-1} fails
    # whichever of the two the suite visits, and reports both.
    w0 = (2, 3, -1)
    insert = enumeration.rs

    def swapped_at_w0(w, lie_type):
        pair = insert(w, lie_type)
        return TableauPair(pair.right, pair.left) if w == w0 else pair

    monkeypatch.setattr(enumeration, "rs", swapped_at_w0)
    report = verify_suite("inverse-transpose", 3, t)
    assert report.instances == 48
    assert sorted(report.failures) == sorted(
        ["w=2 3 -1", f"w={format_perm(inverse(w0))}"]
    )


def test_verify_suite_keeps_no_tableaux():
    # In a fresh interpreter, so that no earlier call in this process has
    # already filled whatever a suite might keep.
    script = (
        "import gc\n"
        "from domino_tableaux import DominoTableau, verify_suite\n"
        "def live():\n"
        "    gc.collect()\n"
        "    return sum(isinstance(o, DominoTableau) for o in gc.get_objects())\n"
        "before = live()\n"
        "for name in ('rs-bijection', 'pipeline-confluence', 'inverse-transpose',\n"
        "             'operator-cell-compat', 'surjectivity'):\n"
        "    assert verify_suite(name, 3, 'C').passed\n"
        "print(before, live())\n"
    )
    src = os.path.dirname(os.path.dirname(domino_tableaux.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    before, after = out.stdout.split()
    assert after == before
