import contextlib
import decimal
import io
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domino_tableaux.cli import COUNT_MAX_CELLS, OPERATOR_NAMES, VERIFY_MAX_RANK, main
from domino_tableaux.cycles import Coloring, move_through_extended
from domino_tableaux.enumeration import SUITE_NAMES, count_sdt
from domino_tableaux.insertion import pair_serialize, pair_to_json_dict, rs
from domino_tableaux.partitions import is_special
from domino_tableaux.pipeline import special_projection
from domino_tableaux.signed_perm import format_perm, parse_perm
from domino_tableaux.tableau import serialize, to_json_dict
from test_enumeration import CLOSED_FORM_SUITES, drop_one_instance
from test_insertion import random_signed_perm

# A shuffle of 1..64, then each sign by a coin flip; its type-B recording
# tableau has a shape that is not special.
RANK_64_WORD = random_signed_perm(random.Random(64), 64)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rs_json(capsys):
    code, out, err = run(capsys, "rs", "--type", "C", "2 -1")
    assert code == 0 and err == ""
    assert out.endswith("\n") and not out.endswith("\n\n")
    doc = json.loads(out)
    assert doc == pair_to_json_dict(rs((2, -1), "C"))
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_rs_then_inverse_round_trip(capsys):
    code, out, _ = run(capsys, "rs", "--type", "B", "-2 1 3")
    assert code == 0
    code, out2, _ = run(capsys, "inverse", out.strip())
    assert code == 0
    assert json.loads(out2) == {"word": "-2 1 3"}


@pytest.mark.parametrize(
    "lie_type, w", [("C", ()), ("B", ()), ("B", RANK_64_WORD)], ids=["C", "B", "B64"]
)
def test_empty_word_round_trips(lie_type, w):
    # dtab rs --type T "w" | dtab inverse -, at rank 0 and at rank 64
    text = format_perm(w)
    code, out, err = _run_with_stdin(["rs", "--type", lie_type, text], "")
    assert (code, err) == (0, "")
    assert json.loads(out) == pair_to_json_dict(rs(w, lie_type))
    assert _run_with_stdin(["inverse", "-"], out) == (0, json.dumps({"word": text}) + "\n", "")


def test_orbital_example(capsys):
    code, out, _ = run(capsys, "orbital", "--type", "C", "2 1")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"] == [2, 2]
    assert doc["trace"] == []


def test_orbital_with_trace(capsys):
    code, out, _ = run(capsys, "orbital", "--type", "C", "-1 2")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"] == [2, 2]
    assert [step["labels"] for step in doc["trace"]] == [[2]]
    assert doc["trace"][0]["shape_before"] == [3, 1]
    # two-step annealings, so that shapes paired with the wrong step show
    for lie_type, word, trace in [
        ("C", "-1 -2 3 5 4", [
            ([5], "typeD", [5, 3, 1, 1], [5, 2, 2, 1]),
            ([3, 4, 5], "native", [5, 2, 2, 1], [4, 2, 2, 2]),
        ]),
        ("B", "2 1 5 4 3", [
            ([5], "typeD", [5, 4, 2], [5, 4, 1, 1]),
            ([2, 4, 5], "native", [5, 4, 1, 1], [5, 3, 1, 1, 1]),
        ]),
    ]:
        code, out, _ = run(capsys, "orbital", "--type", lie_type, word)
        assert code == 0
        assert json.loads(out)["trace"] == [
            dict(zip(("labels", "coloring", "shape_before", "shape_after"), step))
            for step in trace
        ]


def test_orbital_accepts_tableau_json(capsys):
    left = rs((-1, 2), "C").left
    code, out, _ = run(capsys, "orbital", "--type", "C", serialize(left))
    assert code == 0
    assert json.loads(out)["orbit"] == [2, 2]


def test_orbital_ascii(capsys):
    code, out, _ = run(capsys, "orbital", "--type", "C", "--format", "ascii", "2 1")
    assert code == 0
    assert out.startswith("orbit [2,2]\n")


def test_special_command(capsys):
    # both recording shapes are not special; the projection is, and fed
    # back in as tableau JSON on stdin it comes back unchanged
    for lie_type, w in (("C", (-1, 2)), ("B", RANK_64_WORD)):
        right = rs(w, lie_type).right
        assert not is_special(right.shape(), lie_type)
        code, out, _ = run(capsys, "special", "--type", lie_type, format_perm(w))
        assert code == 0
        expected = special_projection(right)
        assert is_special(expected.shape(), lie_type)
        assert json.loads(out) == {"tableau": to_json_dict(expected)}
        argv = ["special", "--type", lie_type, "-"]
        assert _run_with_stdin(argv, serialize(expected)) == (0, out, "")


def test_cycles_listing(capsys):
    code, out, _ = run(
        capsys, "cycles", "--type", "C", "--coloring", "native", "2 -1"
    )
    assert code == 0
    doc = json.loads(out)
    got = {(tuple(c["labels"]), c["open"]) for c in doc["cycles"]}
    assert got == {((1,), False), ((2,), True)}
    for c in doc["cycles"]:
        assert set(c) == {"labels", "coloring", "open", "boxed", "hole", "corner", "down"}


def test_move_single_tableau(capsys):
    left = rs((-1, 2), "C").left
    code, out, _ = run(
        capsys, "move", "--label", "2", "--coloring", "native", serialize(left)
    )
    assert code == 0
    doc = json.loads(out)
    cells = {tuple(map(tuple, d["cells"])) for d in doc["dominoes"]}
    assert cells == {((1, 1), (2, 1)), ((1, 2), (2, 2))}


def test_move_pair_is_extended(capsys):
    pair = rs((-1, 2), "C")
    code, out, _ = run(capsys, "move", "--label", "2", pair_serialize(pair))
    assert code == 0
    expected = move_through_extended(pair, 2, Coloring.NATIVE)
    assert json.loads(out) == pair_to_json_dict(expected)
    # the native closure of label 7 and the typeD closure of label 1 each
    # change both tableaux, and moving through them again gives the pair back
    for w, options in (
        ("6 1 -7 5 -2 8 3 4", ["--label", "7"]),
        ("1 3 -4 2", ["--label", "1", "--coloring", "typeD"]),
    ):
        text = pair_serialize(rs(parse_perm(w), "C"))
        code, once, err = _run_with_stdin(["move", "-", *options], text)
        assert (code, err) == (0, "")
        before, after = json.loads(text), json.loads(once)
        assert after["left"] != before["left"] and after["right"] != before["right"]
        assert _run_with_stdin(["move", "-", *options], once) == (0, text + "\n", "")


def test_move_pair_multiple_labels_rejected(capsys):
    # the check comes before the pair is read, so a document with "left"
    # that is no valid pair is a usage error too: non-tableau sides, a
    # mixed-type pair, and a missing right side
    pair = pair_to_json_dict(rs((-1, 2), "C"))
    docs = (
        pair,
        {"left": 5, "right": 6},
        {"left": pair["left"], "right": pair_to_json_dict(rs((-1, 2), "B"))["right"]},
        {"left": pair["left"]},
    )
    for doc in docs:
        with pytest.raises(SystemExit) as exc:
            main(["move", "--label", "1,2", json.dumps(doc)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "extended moves take a single label" in captured.err


def test_op_equal_length(capsys):
    pair = rs((2, 1, 3), "C")
    code, out, _ = run(
        capsys, "op", "equal-length", pair_serialize(pair), "--i", "2", "--j", "3"
    )
    assert code == 0
    assert json.loads(out) == pair_to_json_dict(rs((2, 3, 1), "C"))


def test_op_equal_length_undefined(capsys):
    pair = rs((1, 2, 3), "C")
    code, out, _ = run(
        capsys, "op", "equal-length", pair_serialize(pair), "--i", "2", "--j", "3"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["defined"] is False and "neither" in doc["reason"]


def test_op_equal_length_needs_indices(capsys):
    # the check comes before the pair is read, so invalid JSON without the
    # indices is a usage error too, as for the pair operators below
    for pair in (pair_serialize(rs((2, 1, 3), "C")), "{"):
        for indices in ([], ["--i", "2"], ["--j", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["op", "equal-length", pair, *indices])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage:" in captured.err and "needs --i and --j" in captured.err


@pytest.mark.parametrize("name", ["unequal-length", "type-d"])
@pytest.mark.parametrize("indices", [["--i", "7", "--j", "9"], ["--i", "2"], ["--j", "3"]])
def test_op_indices_apply_to_equal_length_only(capsys, name, indices):
    # the pair operators take no index, so an index is a usage error, not
    # silently dropped; the check comes before the pair is read
    for pair in (pair_serialize(rs((-1, 2), "C")), "{"):
        with pytest.raises(SystemExit) as exc:
            main(["op", name, pair, *indices])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "--i and --j apply to equal-length only" in captured.err


def test_op_unequal_length(capsys):
    pair = rs((-1, 2), "C")
    code, out, _ = run(capsys, "op", "unequal-length", pair_serialize(pair))
    assert code == 0
    assert json.loads(out) == pair_to_json_dict(rs((2, -1), "C"))


def test_op_type_d_undefined(capsys):
    pair = rs((1, 2), "C")
    code, out, _ = run(capsys, "op", "type-d", pair_serialize(pair))
    assert code == 1
    assert json.loads(out)["defined"] is False
    code, out, err = run(capsys, "op", "type-d", pair_serialize(pair), "--format", "ascii")
    assert (code, out, err) == (1, "undefined: needs at least four dominoes\n", "")


def test_op_unequal_length_undefined(capsys):
    # the domain report is handled inside the op command, whose calls raise it
    pair = rs((1, 2), "C")
    code, out, err = run(capsys, "op", "unequal-length", pair_serialize(pair))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["defined"] is False and "first two dominoes" in doc["reason"]


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--type", "C", "[2,2]")
    assert code == 0
    assert json.loads(out) == {"count": 2, "shape": [2, 2], "type": "C"}
    code, out, _ = run(capsys, "count", "--type", "C", "--format", "ascii", "[2,2]")
    assert code == 0 and out == "2\n"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C", "rs-bijection", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == []


def test_verify_ascii_line(capsys):
    code, out, _ = run(
        capsys, "verify", "--type", "B", "--format", "ascii",
        "counting-identities", "--n", "2",
    )
    assert code == 0
    assert out.startswith("counting-identities: pass")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rs", "2 -1"])  # --type missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "C", "bogus-suite", "--n", "2"])
    assert exc.value.code == 2


def test_verify_unknown_suite_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "C", "bogus-suite", "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dtab verify ")
    assert "argument suite: invalid choice: 'bogus-suite'" in err
    assert all(repr(name) in err for name in SUITE_NAMES)


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null", "not json", "{", "2 -1"])
def test_move_needs_json_object(capsys, text):
    # move reads its input as inverse does: text that is not JSON, or JSON
    # that is not an object, is an input failure (exit 1), not a usage error
    code, out, err = run(capsys, "move", text, "--label", "1")
    assert code == 1 and out == "" and "Traceback" not in err
    parsed = text in ("5", "[1, 2]", "null")
    message = "malformed tableau document" if parsed else "not valid JSON"
    assert err.startswith(f"error: {message}: ")
    assert run(capsys, "inverse", text)[0] == 1


@pytest.mark.parametrize("command", ["orbital", "special", "cycles"])
def test_type_conflicting_with_tableau_json(capsys, command):
    left = serialize(rs((-1, 2), "C").left)
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "B", left])
    assert exc.value.code == 2
    assert "conflicts" in capsys.readouterr().err
    code, _, _ = run(capsys, command, "--type", "C", left)
    assert code == 0


@pytest.mark.parametrize("n", ["0", "-3", "x"])
def test_verify_n_must_be_positive(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "C", "--n", n, "rs-bijection"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("n", [VERIFY_MAX_RANK + 1, 10**6])
def test_verify_refuses_ranks_above_the_bound(capsys, n):
    # rank 8 would walk 10 million group elements
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "C", "--n", str(n), "rs-bijection"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and time.perf_counter() - start < 1
    assert f"argument --n: rank {n}; verify takes at most {VERIFY_MAX_RANK}" in err
    assert "Traceback" not in err


def test_bad_word_exits_one(capsys):
    code, out, err = run(capsys, "rs", "--type", "C", "2 2")
    assert code == 1 and err.startswith("error:")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 -1"))
    code, out, _ = run(capsys, "rs", "--type", "C", "-")
    assert code == 0
    assert json.loads(out) == pair_to_json_dict(rs((2, -1), "C"))


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "rs", "--type", "B", "3 -1 2")
    _, second, _ = run(capsys, "rs", "--type", "B", "3 -1 2")
    assert first == second


@pytest.mark.parametrize("option", [["--sample", "3"], ["--seed", "7"]])
def test_verify_has_no_sample_or_seed(capsys, option):
    # every suite is exhaustive, so there is nothing to sample
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "C", "pipeline-confluence", "--n", "3", *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dtab ")
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_verify_pipeline_confluence_runs_every_tableau(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C", "pipeline-confluence", "--n", "3")
    assert code == 0 and json.loads(out)["instances"] == 20


@pytest.mark.parametrize("name", CLOSED_FORM_SUITES)
def test_verify_exits_one_on_a_wrong_instance_count(capsys, monkeypatch, name):
    code, out, _ = run(capsys, "verify", "--type", "C", name, "--n", "3")
    expected = json.loads(out)["instances"]
    assert code == 0
    drop_one_instance(monkeypatch, name)
    code, out, _ = run(capsys, "verify", "--type", "C", name, "--n", "3")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False
    assert f"checked {expected - 1} instances, expected {expected}" in doc["failures"]


@pytest.mark.parametrize("label", ["x", "1,x", ""])
def test_move_label_must_be_integers(capsys, label):
    text = serialize(rs((2, -1), "C").left)
    with pytest.raises(SystemExit) as exc:
        main(["move", text, "--label", label])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--label" in err and "Traceback" not in err


@pytest.mark.parametrize("shape", ["[2,x]", "2,2", "[1,3]"])
def test_count_malformed_shape_is_usage_error(capsys, shape):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--type", "C", shape])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [COUNT_MAX_CELLS + 2, 99999999999])
def test_count_refuses_shapes_above_the_cell_cap(capsys, cells):
    # counting a one-row shape of 10**11 cells would take minutes and gigabytes
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--type", "C", f"[{cells}]"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert exc.value.code == 2 and elapsed < 1
    assert f"shape has {cells} cells; count takes at most {COUNT_MAX_CELLS}" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "count", "--type", "C", f"[{COUNT_MAX_CELLS}]")
    assert code == 0 and json.loads(out)["count"] == 1


def test_count_prints_counts_of_any_length(capsys):
    # the 100 x 100 square's count has 8,078 digits, past the 4,300 that
    # str() and json.dumps allow; the digits are read back as a Decimal
    square = "[" + ",".join(["100"] * 100) + "]"
    value = decimal.Decimal(count_sdt((100,) * 100, "C"))
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--type", "C", square)
    assert code == 0
    assert json.loads(out, parse_int=decimal.Decimal)["count"] == value
    code, out, _ = run(capsys, "count", "--type", "C", "--format", "ascii", square)
    assert code == 0 and out == f"{value}\n"
    assert sys.get_int_max_str_digits() == limit

def test_move_unknown_label_prints_plain_message(capsys):
    text = serialize(rs((2, -1), "C").left)
    code, out, err = run(capsys, "move", text, "--label", "0")
    assert code == 1 and out == ""
    assert err == "error: no domino labeled 0\n"


@pytest.mark.parametrize("dominoes", ["5", "null", '"x"', "{}"])
def test_malformed_tableau_document_exits_one(capsys, dominoes):
    text = '{"type": "C", "dominoes": %s}' % dominoes
    code, out, err = run(capsys, "orbital", "--type", "C", text)
    assert code == 1 and out == ""
    assert err.startswith("error: malformed tableau document")


def test_non_integer_json_numbers_exit_one(capsys):
    # rounded to integers, these numbers would make a valid pair of rank 1
    text = (
        '{"left": {"type": "C", "dominoes": [{"label": 1.9, "cells": [[1.5, 1], [1, 2.99]]}]},'
        ' "right": {"type": "C", "dominoes": [{"label": true, "cells": [[1, 1], [1, 2]]}]}}'
    )
    code, out, err = run(capsys, "inverse", text)
    assert code == 1 and out == ""
    assert err.startswith("error: malformed domino entry")


_C_PAIR = rs((-1, 2), "C")
_B_PAIR = rs((2, -1, 3), "B")
_C_LEFT = to_json_dict(_C_PAIR.left)
# Positional inputs: words, shapes, suite and operator names, and tableau
# or pair JSON, valid and malformed.
FUZZ_INPUTS = (
    "2 -1", "-1 2", "3 -1 2", "1 2 3", "2 2", "0", "", "x", "-",
    "[2,2]", "[3,1]", "[3]", "[2,x]", "[]", "[1,3]", "[99999999999]",
    serialize(_C_PAIR.left),
    serialize(_B_PAIR.right),
    pair_serialize(_C_PAIR),
    pair_serialize(_B_PAIR),
    json.dumps({"left": _C_LEFT, "right": to_json_dict(_B_PAIR.right)}),
    json.dumps({"left": _C_LEFT, "right": {"type": "C", "dominoes": 5}}),
    '{"type": "C", "dominoes": 5}',
    '{"type": "B", "dominoes": null}',
    '{"type": "C", "dominoes": [5]}',
    '{"type": "Z", "dominoes": []}',
    '{"type": "C", "dominoes": [{"label": 1, "cells": [[1, 2], [1, 3]]}]}',
    '{"type": "B", "dominoes": [{"label": 2, "cells": [[1, 2], [1, 3]]}]}',
    '{"left": 1, "right": 2}',
    "[1, 2]", "null", "{}", "{",
    *SUITE_NAMES,
    *OPERATOR_NAMES,
)
# Argument lists that parse; "T" takes a type and "X" one of FUZZ_INPUTS.
FUZZ_SKELETONS = (
    ["rs", "--type", "T", "X"],
    ["inverse", "X"],
    ["orbital", "--type", "T", "X"],
    ["special", "--type", "T", "X"],
    ["cycles", "--type", "T", "X"],
    ["move", "X", "--label", "1"],
    ["op", "unequal-length", "X"],
    ["op", "type-d", "X"],
    ["op", "equal-length", "X", "--i", "2", "--j", "3"],
    ["count", "--type", "T", "X"],
    ["verify", "--type", "T", "X", "--n", "2"],
)
# Appended to a skeleton: options that override or break it, and stray
# tokens.  "--n" never exceeds 3, so verification stays small.
FUZZ_EXTRAS = tuple(
    [flag, value]
    for flag, values in (
        ("--label", ("2", "0", "-1", "1,2", "x")),
        ("--i", ("3", "x")),
        ("--j", ("1", "2")),
        ("--n", ("1", "3", "0")),
        ("--sample", ("1", "0")),
        ("--seed", ("1",)),
        ("--coloring", ("native", "typeD", "both")),
        ("--format", ("ascii",)),
        ("--type", ("B", "C")),
    )
    for value in values
) + (["-h"], ["--type"], ["--bogus"], ["x"], ["2 -1"])


def _run_with_stdin(argv, stdin_text):
    """main(argv) reading stdin_text as stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(stdin_text))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(FUZZ_SKELETONS),
    st.sampled_from("BC"),
    st.sampled_from(FUZZ_INPUTS),
    st.lists(st.sampled_from(FUZZ_EXTRAS), max_size=2),
    st.sampled_from(FUZZ_INPUTS),
)
def test_cli_exit_code_contract(skeleton, lie_type, text, extras, stdin_text):
    # 0 success, 1 domain or verification failure, 2 usage error; nothing
    # else may escape main, whatever the arguments
    argv = [{"T": lie_type, "X": text}.get(token, token) for token in skeleton]
    argv += [token for extra in extras for token in extra]
    code, _, err = _run_with_stdin(argv, stdin_text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Signed permutations of rank 1 to 4.
SIGNED_WORDS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n + 1)), st.lists(st.booleans(), min_size=n, max_size=n)
    )
).map(lambda ps: tuple(-x if neg else x for x, neg in zip(*ps)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["orbital", "special", "cycles"]),
    st.sampled_from("BC"),
    SIGNED_WORDS,
    st.sampled_from(["left", "right"]),
    st.booleans(),
    st.booleans(),
)
def test_cli_type_conflicting_with_json_is_usage_error(
    command, lie_type, w, side, from_stdin, ascii_out
):
    pair = rs(w, lie_type)
    text = serialize(pair.left if side == "left" else pair.right)
    other = "C" if lie_type == "B" else "B"
    extras = ["--format", "ascii"] if ascii_out else []
    argv = [command, "--type", other, "-" if from_stdin else text, *extras]
    code, out, err = _run_with_stdin(argv, text)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: dtab {command}")
    assert f"--type {other} conflicts with the tableau's type {lie_type}" in err
    argv[2] = lie_type
    code, _, err = _run_with_stdin(argv, text)
    assert code in (0, 1) and "usage:" not in err
