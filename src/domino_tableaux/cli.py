"""Command-line interface.

Single-shot subcommands over the library: insertion and its inverse,
annealing to the orbit partition, special-shape projection, cycle listing
and moves, wall-crossing operators, tableau counting, and the verification
suites.  Output is canonical JSON (sorted keys, one trailing newline) or a
human-readable ASCII rendering.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error.

Each command imports the library modules it calls, at the top of its body,
so a call loads only the layers it runs: ``--help`` and ``count`` load
``partitions`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .partitions import GROUP_TYPES, count_sdt, format_partition, parse_partition

OPERATOR_NAMES = ("equal-length", "unequal-length", "type-d")
COUNT_MAX_CELLS = 10_000  # an input bound: count_sdt makes one pass over the cells
# An input bound: the group suites walk all 2^n n! elements, 16 times as many
# at rank 8 as at rank 7, the top rank of the release gates.
VERIFY_MAX_RANK = 7


class UsageError(Exception):
    """Input that no subcommand accepts; reported like argparse's own errors."""


def _read_input(raw: str) -> str:
    return sys.stdin.read() if raw == "-" else raw


def _emit(args, doc: dict, ascii_text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(ascii_text)


def _pair_ascii(pair) -> str:
    from .tableau import render

    return "left:\n{}\nright:\n{}".format(render(pair.left), render(pair.right))


def _tableau_arg(raw: str, lie_type: str, side: str):
    """A tableau given directly as JSON, or the chosen tableau of rs(w)."""
    from .insertion import rs
    from .signed_perm import parse_perm
    from .tableau import deserialize

    text = _read_input(raw).strip()
    if text.startswith("{"):
        tab = deserialize(text)
        if tab.lie_type != lie_type:
            raise UsageError(
                f"--type {lie_type} conflicts with the tableau's type {tab.lie_type}"
            )
        return tab
    pair = rs(parse_perm(text), lie_type)
    return pair.left if side == "left" else pair.right


def _cycle_doc(cy) -> dict:
    return {
        "labels": list(cy.labels),
        "coloring": cy.coloring.value,
        "open": cy.open,
        "boxed": cy.boxed,
        "hole": list(cy.hole) if cy.hole else None,
        "corner": list(cy.corner) if cy.corner else None,
        "down": cy.down,
    }


def _cmd_rs(args) -> int:
    from .insertion import pair_to_json_dict, rs
    from .signed_perm import parse_perm

    pair = rs(parse_perm(_read_input(args.word)), args.type)
    _emit(args, pair_to_json_dict(pair), _pair_ascii(pair))
    return 0


def _cmd_inverse(args) -> int:
    from .insertion import pair_deserialize, rs_inverse
    from .signed_perm import format_perm

    w = rs_inverse(pair_deserialize(_read_input(args.pair)))
    _emit(args, {"word": format_perm(w)}, format_perm(w))
    return 0


def _cmd_orbital(args) -> int:
    from .pipeline import orbital_tableau
    from .tableau import render, to_json_dict

    tab = _tableau_arg(args.input, args.type, "left")
    result = orbital_tableau(tab)
    shapes = [cy.source.shape() for cy in result.trace] + [result.orbit]
    doc = {
        "tableau": to_json_dict(result.tableau),
        "orbit": list(result.orbit),
        "trace": [
            {
                "labels": list(cy.labels),
                "coloring": cy.coloring.value,
                "shape_before": list(before),
                "shape_after": list(after),
            }
            for cy, before, after in zip(result.trace, shapes, shapes[1:])
        ],
    }
    text = "orbit {}\n{}".format(format_partition(result.orbit), render(result.tableau))
    _emit(args, doc, text)
    return 0


def _cmd_special(args) -> int:
    from .pipeline import special_projection
    from .tableau import render, to_json_dict

    tab = _tableau_arg(args.input, args.type, "right")
    out = special_projection(tab)
    _emit(args, {"tableau": to_json_dict(out)}, render(out))
    return 0


def _cmd_cycles(args) -> int:
    from .cycles import Coloring, all_cycles

    tab = _tableau_arg(args.input, args.type, "left")
    colorings = (
        list(Coloring) if args.coloring == "both" else [Coloring(args.coloring)]
    )
    docs = [_cycle_doc(cy) for col in colorings for cy in all_cycles(tab, col)]
    lines = [
        "{} {} {} {}".format(
            doc["labels"],
            doc["coloring"],
            "open" if doc["open"] else "closed",
            "boxed" if doc["boxed"] else "unboxed",
        )
        for doc in docs
    ]
    _emit(args, {"cycles": docs}, "\n".join(lines))
    return 0


def _cmd_move(args) -> int:
    from .cycles import Coloring, cycle_of, move_through_extended, move_through_set
    from .insertion import pair_from_json_dict, pair_to_json_dict
    from .tableau import from_json_dict, read_json, render, to_json_dict

    doc = read_json(_read_input(args.input))
    labels = args.label
    coloring = Coloring(args.coloring)
    if isinstance(doc, dict) and "left" in doc:
        # the usage error comes before the pair is read
        if len(labels) != 1:
            raise UsageError("extended moves take a single label")
        out = move_through_extended(pair_from_json_dict(doc), labels[0], coloring)
        _emit(args, pair_to_json_dict(out), _pair_ascii(out))
        return 0
    tab = from_json_dict(doc)
    cycles = {cycle_of(tab, k, coloring) for k in labels}
    moved = move_through_set(tab, cycles)
    _emit(args, to_json_dict(moved), render(moved))
    return 0


def _cmd_op(args) -> int:
    from .insertion import pair_deserialize, pair_to_json_dict, rs, rs_inverse
    from .operators import (
        OperatorUndefinedError,
        wall_cross_equal_length,
        wall_cross_type_d,
        wall_cross_unequal_length,
    )

    # both usage errors come before the pair is read
    if args.name == "equal-length":
        if args.i is None or args.j is None:
            raise UsageError("equal-length needs --i and --j")
    elif (args.i, args.j) != (None, None):
        raise UsageError("--i and --j apply to equal-length only")
    pair = pair_deserialize(_read_input(args.pair))
    try:
        # equal-length acts on the group element, the others on the pair
        if args.name == "equal-length":
            image = wall_cross_equal_length(rs_inverse(pair), args.i, args.j)
            out = rs(image, pair.left.lie_type)
        elif args.name == "unequal-length":
            out = wall_cross_unequal_length(pair)
        else:
            out = wall_cross_type_d(pair)
    except OperatorUndefinedError as exc:
        _emit(args, exc.report.to_json_dict(), f"undefined: {exc.report.reason}")
        return 1
    _emit(args, pair_to_json_dict(out), _pair_ascii(out))
    return 0


def _cmd_count(args) -> int:
    # a Decimal's str() has no 4,300-digit limit, unlike an int's
    import decimal

    try:
        shape = parse_partition(_read_input(args.shape))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if sum(shape) > COUNT_MAX_CELLS:
        raise UsageError(f"shape has {sum(shape)} cells; count takes at most {COUNT_MAX_CELLS}")
    digits = str(decimal.Decimal(count_sdt(shape, args.type)))
    doc = {"shape": list(shape), "type": args.type, "count": 0}
    text = json.dumps(doc, sort_keys=True).replace('"count": 0', '"count": ' + digits, 1)
    print(text if args.format == "json" else digits)
    return 0


def _cmd_verify(args) -> int:
    from .enumeration import verify_suite

    report = verify_suite(args.suite, args.n, args.type)
    text = "{}: {} ({} instances, {} failures)".format(
        report.suite,
        "pass" if report.passed else "FAIL",
        report.instances,
        len(report.failures),
    )
    _emit(args, report.to_json_dict(), text)
    return 0 if report.passed else 1


def _rank(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value > VERIFY_MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank {value}; verify takes at most {VERIFY_MAX_RANK}")
    return value


def _suite_name(text: str) -> str:
    from .enumeration import SUITE_NAMES

    if text not in SUITE_NAMES:
        choices = ", ".join(map(repr, SUITE_NAMES))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _label_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer label or comma-separated labels, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtab", description="domino tableau combinatorics for types B and C"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_type=True):
        p.set_defaults(parser=p)
        p.add_argument("--format", choices=("json", "ascii"), default="json")
        if with_type:
            p.add_argument("--type", choices=GROUP_TYPES, required=True)

    p = sub.add_parser("rs", help="two-tableau insertion of a signed permutation")
    common(p)
    p.add_argument("word", help='signed permutation, e.g. "2 -1" (or - for stdin)')
    p.set_defaults(func=_cmd_rs)

    p = sub.add_parser("inverse", help="signed permutation of a tableau pair")
    common(p, with_type=False)
    p.add_argument("pair", help="pair as JSON (or - for stdin)")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("orbital", help="anneal to the orbit partition")
    common(p)
    p.add_argument("input", help="signed permutation or tableau JSON")
    p.set_defaults(func=_cmd_orbital)

    p = sub.add_parser("special", help="project onto the special shape")
    common(p)
    p.add_argument("input", help="signed permutation or tableau JSON")
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("cycles", help="list cycles with classification")
    common(p)
    p.add_argument("input", help="signed permutation or tableau JSON")
    p.add_argument(
        "--coloring", choices=("native", "typeD", "both"), default="both"
    )
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("move", help="move through cycles (pair input: extended)")
    common(p, with_type=False)
    p.add_argument("input", help="tableau or pair JSON (or - for stdin)")
    p.add_argument(
        "--label", type=_label_list, required=True, help="label, or comma-separated labels"
    )
    p.add_argument("--coloring", choices=("native", "typeD"), default="native")
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("op", help="apply a wall-crossing operator to a pair")
    common(p, with_type=False)
    p.add_argument("name", choices=OPERATOR_NAMES)
    p.add_argument("pair", help="pair as JSON (or - for stdin)")
    p.add_argument("--i", type=int, help="first index (equal-length only)")
    p.add_argument("--j", type=int, help="second index (equal-length only)")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("count", help="count standard domino tableaux of a shape")
    common(p)
    p.add_argument("shape", help='partition, e.g. "[2,2]"')
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    common(p)
    p.add_argument("suite", type=_suite_name, help="suite name; an unknown name lists them")
    p.add_argument("--n", type=_rank, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, KeyError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its argument; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
