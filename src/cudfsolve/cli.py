"""Batch command-line front end: CUDF documents in, answers out.

Five subcommands cover the pipeline: ``solve`` (optimal installation or
the single line ``FAIL``), ``facts`` (the compiled logic facts),
``closure`` (preprocessing statistics), ``validate`` (check a proposed
solution against a document) and ``gen`` (seeded random instances).
Results go to stdout or ``--output``; diagnostics go to stderr.  Exit
codes: 0 for answers (``FAIL`` is an answer), 1 for a failed
validation, 2 for usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import monotonic

from .closure import compute_closure, full_scope
from .criteria import parse_criteria
from .errors import CudfError, InfeasibleInput, UnknownName
from .facts import generate, render_facts
from .gen import generate_instance
from .parser import parse_document, render_document, render_solution
from .semantics import DocIndex, validate_solution
from .solve import SolveLimits, Status, solve_document

FAIL_LINE = "FAIL\n"


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cudfsolve",
        description="Solve CUDF package-upgrade problems by lexicographic optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, criteria_flags: bool = True) -> None:
        p.add_argument("input", help="CUDF document, or - for standard input")
        p.add_argument("-o", "--output", default=None, help="write results here instead of stdout")
        if criteria_flags:
            p.add_argument(
                "-c",
                "--criteria",
                default="paranoid",
                help="optimization criteria: paranoid, trendy, or e.g. -removed,-changed",
            )
            p.add_argument(
                "--no-closure",
                action="store_true",
                help="keep the whole universe instead of the relevant closure",
            )

    p_solve = sub.add_parser("solve", help="compute an optimal installation")
    common(p_solve)
    p_solve.add_argument(
        "--timeout",
        type=_number("seconds >= 0"),
        default=300.0,
        help="wall-clock budget in seconds (default 300)",
    )

    p_facts = sub.add_parser("facts", help="print the compiled solver facts")
    common(p_facts)

    p_closure = sub.add_parser("closure", help="report preprocessing statistics")
    common(p_closure)

    p_validate = sub.add_parser("validate", help="check a proposed solution")
    common(p_validate, criteria_flags=False)
    p_validate.add_argument("solution", help="solution file (CUDF installed stanzas)")

    # an omitted knob takes generate_instance's default
    p_gen = sub.add_parser(
        "gen", help="generate a random instance", argument_default=argparse.SUPPRESS
    )
    probability = _number("a probability in [0, 1]", 1)
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.add_argument("--packages", type=_at_least(1), help="number of package stanzas")
    p_gen.add_argument("--max-versions", type=_at_least(1))
    p_gen.add_argument("--installed-fraction", type=probability)
    p_gen.add_argument("--depends-density", type=probability)
    p_gen.add_argument("--conflicts-density", type=probability)
    p_gen.add_argument("--provides-density", type=probability)
    p_gen.add_argument("--recommends-density", type=probability)
    p_gen.add_argument("--install-requests", type=_at_least(0))
    p_gen.add_argument("--upgrade-requests", type=_at_least(0))
    p_gen.add_argument("--remove-requests", type=_at_least(0))
    return parser


def _number(expected: str, high: float = float("inf")):
    """Parser for ``--timeout`` (>= 0) and ``gen``'s fraction and densities (in [0, 1])."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not 0 <= value <= high:  # NaN fails, and would switch the deadline off
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _at_least(minimum: int):
    """Parser for ``gen``'s sizes (>= 1) and request counts (>= 0)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a whole number >= {minimum}, got {text!r}"
            )
        return value

    return parse


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def run(args: argparse.Namespace) -> int:
    try:
        return _dispatch(args)
    except (CudfError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    started = monotonic()  # --timeout covers reading and indexing too
    if args.command == "gen":
        knobs = {k: v for k, v in vars(args).items() if k not in ("command", "seed", "output")}
        doc = generate_instance(args.seed, **knobs)
        _write(args.output, render_document(doc))
        return 0

    if args.command != "validate":
        criteria = parse_criteria(args.criteria)
    text = _read_input(args.input)
    doc = parse_document(text, warn=lambda message: print(message, file=sys.stderr))
    index = DocIndex(doc)

    if args.command == "solve":
        try:
            outcome = solve_document(
                doc,
                criteria,
                limits=SolveLimits(wall_clock=args.timeout - (monotonic() - started)),
                use_closure=not args.no_closure,
                _index=index,
            )
        except InfeasibleInput:
            _write(args.output, FAIL_LINE)
            return 0
        if outcome.solution is None:
            if outcome.status is Status.TIMED_OUT:
                print("timed out; no solution found", file=sys.stderr)
            _write(args.output, FAIL_LINE)
            return 0
        if outcome.status is Status.TIMED_OUT:
            print("timed out; writing best incumbent found", file=sys.stderr)
        print(f"objective: {outcome.solution.objective}", file=sys.stderr)
        _write(args.output, render_solution(outcome.solution.installed))
        return 0

    if args.command == "validate":
        solution_doc = parse_document(_read_input(args.solution))
        selection = solution_doc.installed_ids()
        try:
            report = validate_solution(doc, selection, _index=index)
        except UnknownName as exc:
            _write(args.output, f"unknown package in solution: {exc}\n")
            return 1
        if report.ok:
            _write(args.output, "OK\n")
            return 0
        _write(args.output, "".join(f"{violation}\n" for violation in report.violations))
        return 1

    if args.no_closure:
        shrunk = full_scope(doc, _index=index)
    else:
        shrunk = compute_closure(doc, criteria, _index=index)

    if args.command == "facts":
        try:
            facts = generate(doc, criteria, shrunk, _index=index)
        except InfeasibleInput:
            _write(args.output, FAIL_LINE)
            return 0
        _write(args.output, render_facts(facts))
        return 0

    assert args.command == "closure"
    feasible = "true" if shrunk.feasible else "false"
    report = (
        f"universe={len(doc.packages)} out={len(shrunk.out)}"
        f" closure={len(shrunk.closure)} feasible={feasible}"
        f" iterations={shrunk.iterations}\n"
    )
    _write(args.output, report)
    return 0


def _glue_criteria(argv: list[str]) -> list[str]:
    """Join ``-c -removed,...`` into one token so argparse accepts it."""
    glued: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("-c", "--criteria") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            glued.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            glued.append(token)
            i += 1
    return glued


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(_glue_criteria(sys.argv[1:] if argv is None else list(argv)))
    return run(args)
