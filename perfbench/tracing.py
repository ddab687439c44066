"""Spans and counts recorded around cudfsolve's public names, from outside.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back afterwards; nothing inside
``src/`` knows it is being traced.  A name that no longer exists is
listed in ``Tracer.absent`` instead of failing the run.

Spans live in memory as plain dicts (name, start, end, parent span,
instance id, counts) and are written out by the caller when the run
ends.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter
from typing import Any, Callable, Iterator


def _parse_probe(args, kwargs) -> Callable[[Any], dict]:
    size = len(args[0]) if args else 0
    return lambda result: {"bytes": size}


def _closure_probe(args, kwargs) -> Callable[[Any], dict]:
    universe = len(args[0].packages)
    return lambda result: {"closure": len(result.closure), "universe": universe}


def _sat_probe(args, kwargs) -> Callable[[Any], dict]:
    solver = args[0]
    before = solver.conflicts
    size = {"vars": solver.num_vars, "clauses": getattr(solver, "num_clauses", 0)}
    return lambda result: {
        **size,
        "conflicts": solver.conflicts - before,
        "result": getattr(result, "value", str(result)),
    }


#: (module, attribute path, probe) for every wrapped public name.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cudfsolve.cli", "main", None),
    ("cudfsolve.cli", "parse_document", _parse_probe),
    ("cudfsolve.cli", "DocIndex", None),
    ("cudfsolve.cli", "solve_document", None),
    ("cudfsolve.solve", "compute_closure", _closure_probe),
    ("cudfsolve.solve", "build_problem", None),
    ("cudfsolve.solve", "generate", None),
    ("cudfsolve.solve", "solve", None),
    ("cudfsolve.sat", "Solver.solve", _sat_probe),
    ("cudfsolve.cli", "render_solution", None),
    ("cudfsolve.semantics", "validate_solution", None),
)


def span_name(module: str, path: str) -> str:
    """``cudfsolve.sat`` + ``Solver.solve`` -> ``sat.Solver.solve``."""
    return f"{module.rpartition('.')[2]}.{path}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, probe: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "instance": self.instance,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            finish = probe(args, kwargs) if probe is not None else None
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if finish is not None:
                span["counts"] = finish(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every name in :data:`TARGETS` for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, path, probe in TARGETS:
                name = span_name(module_name, path)
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, probe))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over ``spans`` (one traced pass over a corpus).

    Times are inclusive span durations except ``*.self_s`` and
    ``solve.build_problem_s``, which subtract the time covered by child
    spans.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, list[dict]] = {}
    for span in spans:
        name = span["name"]
        total[name] = total.get(name, 0.0) + _duration(span)
        self_time[name] = self_time.get(name, 0.0) + _duration(span) - child_time.get(span["id"], 0.0)
        calls.setdefault(name, []).append(span)

    def counted(name: str) -> list[dict]:
        # a call that raised has no counts
        return [span for span in calls.get(name, []) if "counts" in span]

    sat_calls = counted("sat.Solver.solve")
    first_attempt: dict[str, dict] = {}
    for span in sat_calls:
        first_attempt.setdefault(span["instance"], span["counts"])
    closures = [span["counts"] for span in counted("solve.compute_closure")]
    parsed = sum(span["counts"]["bytes"] for span in counted("cli.parse_document"))

    parse_s = total.get("cli.parse_document", 0.0)
    search_s = total.get("sat.Solver.solve", 0.0)
    optimize_s = total.get("solve.solve", 0.0)
    conflicts = sum(span["counts"]["conflicts"] for span in sat_calls)
    unsat = [span for span in sat_calls if span["counts"]["result"] == "unsat"]
    return {
        "parser.parse_s": parse_s,
        "parser.mb_per_s": parsed / 1e6 / parse_s if parse_s else 0.0,
        "semantics.index_s": total.get("cli.DocIndex", 0.0),
        "semantics.validate_s": total.get("semantics.validate_solution", 0.0),
        "closure.closure_s": total.get("solve.compute_closure", 0.0),
        "closure.kept_frac": (
            sum(c["closure"] for c in closures) / sum(c["universe"] for c in closures)
            if closures
            else 0.0
        ),
        "facts.generate_s": total.get("solve.generate", 0.0),
        "solve.build_problem_s": self_time.get("solve.build_problem", 0.0),
        "solve.optimize_s": optimize_s,
        "solve.self_s": optimize_s - search_s,
        "solve.attempts": len(sat_calls),
        "sat.search_s": search_s,
        "sat.conflicts": conflicts,
        "sat.conflicts_per_s": conflicts / search_s if search_s else 0.0,
        "sat.unsat_attempts": len(unsat),
        "sat.unsat_conflicts": sum(span["counts"]["conflicts"] for span in unsat),
        "sat.unknown_attempts": sum(
            1 for span in sat_calls if span["counts"]["result"] == "unknown"
        ),
        "sat.vars.p50": _median([c["vars"] for c in first_attempt.values()]),
        "sat.clauses.p50": _median([c["clauses"] for c in first_attempt.values()]),
        "cli.render_s": total.get("cli.render_solution", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
