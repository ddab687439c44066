"""Lexicographic optimization of package selections.

The propositional model is built from the fact set that
:mod:`cudfsolve.facts` compiles (units plus interned provider sets for
requests, dependencies, conflicts and recommendations), and from
nothing else: one variable per unit, in sorted order, plus derived
per-name variables for the objective counts.  The criteria are read
back from the ``criterion`` facts and optimized one at a time, most
significant first, all in one live solver built once per solve, with
learned clauses kept.  Each level gets one bound on its literals plus
a guard literal's negation weighing 1, at the incumbent's count:
searched under the assumption that the guard is false, a model must
beat the incumbent, and the bound is tightened in place to each
model's count.  The search that proves no better model exists (or a
bound tightened to 0) leaves the guard true at the root, so the bound
holds the level at its optimum while the next levels improve.  Every
search first decides the objective literals false, most significant
level first, so the first model is already close to optimal and the
descent takes few steps; they are preferences, not assumptions, and a
conflict flips any of them that cannot hold.  :func:`solve_document`,
which holds the document, checks the chosen selection with the referee
and measures its objective.  For tiny universes :func:`brute_force`
grinds through every subset and is the final word in disagreements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cache
from time import monotonic

from .closure import compute_closure, full_scope
from .criteria import CriteriaSeq, Criterion, Polarity
from .errors import ScopeTooLarge
from .facts import FactSet, generate
from .model import Clause, CudfDocument, PackageId
from .sat import Result, Solver
from .semantics import ObjectiveVector, evaluate, validate_solution


class Status(enum.Enum):
    OPTIMAL = "optimal"
    UNSATISFIABLE = "unsatisfiable"
    TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class SolveLimits:
    max_steps: int | None = None  # conflicts the whole solve may meet
    wall_clock: float | None = 300.0


@dataclass(frozen=True)
class Solution:
    installed: frozenset[PackageId]
    objective: ObjectiveVector


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    solution: Solution | None = None


#: Not public: ``perfbench/tracing.py`` wraps this name, so it stays
#: until the tracer stops wrapping it.
build_problem = generate


def solve_document(
    doc: CudfDocument,
    criteria: CriteriaSeq,
    *,
    limits: SolveLimits | None = None,
    use_closure: bool = True,
) -> SolveOutcome:
    """Solve a parsed document: shrink, compile, optimize, check, measure.

    The wall clock of ``limits`` covers the shrinking and compiling too.
    Raises RuntimeError, a solver bug, when the answer breaks the document.
    """
    started = monotonic()
    limits = limits if limits is not None else SolveLimits()
    shrunk = compute_closure(doc, criteria) if use_closure else full_scope(doc)
    facts = generate(doc, criteria, shrunk)
    if limits.wall_clock is not None:
        # a spent budget goes negative, so the search stops before it starts
        limits = replace(limits, wall_clock=limits.wall_clock - (monotonic() - started))
    status, best = solve(facts, limits=limits)
    if best is None:
        return SolveOutcome(status)
    report = validate_solution(doc, best)
    if not report.ok:
        raise RuntimeError(f"solver answer breaks the document: {report.violations[0]}")
    return SolveOutcome(status, Solution(best, evaluate(doc, best, criteria)))


# ----------------------------------------------------------------------
# propositional model


def _build_model(
    facts: FactSet,
) -> tuple[Solver, dict[PackageId, int], list[tuple[list[int], list[int]]]]:
    """Fresh solver with hard constraints plus, per level, the literals it minimizes.

    One variable per unit, in sorted order; the levels come most
    significant first.
    """
    solver = Solver()
    installed = facts.installed
    members = facts.members
    invar = {pid: solver.new_var(phase=pid in installed) for pid in sorted(facts.units)}

    for sid in facts.requests:
        solver.add_clause([invar[q] for q in sorted(members[sid])])
    for pid, sid in facts.depends:
        solver.add_clause([-invar[pid]] + [invar[q] for q in sorted(members[sid])])
    seen_pairs: set[frozenset[PackageId]] = set()
    for pid, sid in facts.conflicts:
        for enemy in sorted(members[sid]):
            pair = frozenset((pid, enemy))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            solver.add_clause([-invar[pid], -invar[enemy]])

    by_name: dict[str, list[PackageId]] = {}
    for pid in invar:
        by_name.setdefault(pid.name, []).append(pid)
    o_names = {pid.name for pid in installed}
    o_gone = {pid.name for pid in installed if pid not in invar}  # a version out of scope

    @cache
    def define_or(*lits: int) -> int:
        """A literal true exactly when one of ``lits`` is, defined once."""
        if len(lits) == 1:
            return lits[0]
        y = solver.new_var()
        solver.add_clause([-y, *lits])
        for lit in lits:
            solver.add_clause([-lit, y])
        return y

    def inn_lit(name: str) -> int:
        """Some version of ``name`` installed."""
        return define_or(*(invar[p] for p in by_name[name]))

    def changed_lit(name: str) -> int | None:
        """Version set of ``name`` differs from before; None when forced."""
        if name in o_gone:
            return None
        return define_or(*(-invar[p] if p in installed else invar[p] for p in by_name[name]))

    def outdated_lit(name: str) -> int | None:
        """``name`` installed but not at its newest version."""
        group = by_name[name]
        top = PackageId(name, facts.newest[name])
        if top not in invar:
            return inn_lit(name)
        if group == [top]:
            return None  # the only choice is the newest version
        inn = inn_lit(name)
        y = solver.new_var()
        solver.add_clause([-y, inn])
        solver.add_clause([-y, -invar[top]])
        solver.add_clause([-inn, invar[top], y])
        return y

    def violation_lit(pid: PackageId, wanted: frozenset[PackageId]) -> int | None:
        """``pid`` installed with this recommendation unsatisfied."""
        if pid in wanted:
            return None
        if not wanted:
            return invar[pid]
        member_lits = [invar[q] for q in sorted(wanted)]
        y = solver.new_var()
        solver.add_clause([-y, invar[pid]])
        for lit in member_lits:
            solver.add_clause([-y, -lit])
        solver.add_clause([-invar[pid], y] + member_lits)
        return y

    name_lit = {  # the per-name criteria, each name weighing 1
        Criterion.NEW: lambda name: None if name in o_names else inn_lit(name),
        Criterion.REMOVED: lambda name: -inn_lit(name) if name in o_names else None,
        Criterion.CHANGED: changed_lit,
        Criterion.NOT_UP_TO_DATE: outdated_lit,
    }
    terms: list[tuple[list[int], list[int]]] = []
    for signed in CriteriaSeq.from_facts(facts.criteria).items:
        if signed.criterion is Criterion.UNSAT_RECOMMENDS:
            scored = [(violation_lit(pid, members[sid]), w) for pid, sid, w in facts.recommends]
        else:
            scored = [(name_lit[signed.criterion](name), 1) for name in by_name]
        scored = [(lit, w) for lit, w in scored if lit is not None]
        # maximize by minimizing the false literals
        sign = -1 if signed.polarity is Polarity.PLUS else 1
        terms.append(([sign * lit for lit, _ in scored], [w for _, w in scored]))
    return solver, invar, terms


def model_stats(facts: FactSet) -> dict[str, int]:
    """Size of the propositional model, without solving anything."""
    solver, _, terms = _build_model(facts)
    return {
        "candidates": len(facts.units),
        "variables": solver.num_vars,
        "clauses": solver.num_clauses,
        "count_literals": sum(len(lits) for lits, _ in terms),
    }


def solve(
    facts: FactSet, *, limits: SolveLimits | None = None
) -> tuple[Status, frozenset[PackageId] | None]:
    """Optimize the criteria of ``facts``, most significant level first.

    Returns the status and the best selection found, if any.  An
    interrupt (Ctrl-C) during the search ends it as an expired budget does.
    """
    limits = limits if limits is not None else SolveLimits()
    deadline = (
        monotonic() + limits.wall_clock if limits.wall_clock is not None else None
    )
    best: frozenset[PackageId] | None = None
    counts: list[int] = []

    def search(*assumptions: int) -> Result:
        """Solve within what is left of the budget; a model becomes the incumbent."""
        nonlocal best, counts
        try:
            result = solver.solve(
                assumptions=assumptions,
                prefer=prefer,
                conflict_limit=limits.max_steps,
                deadline=deadline,
            )
        except KeyboardInterrupt:  # Ctrl-C spends the budget: keep the incumbent
            return Result.UNKNOWN
        if result is Result.SAT:
            model = solver.model()
            best = frozenset(p for p, var in invar.items() if model[var])
            counts = [
                sum(w for lit, w in zip(lits, weights) if model[abs(lit)] == (lit > 0))
                for lits, weights in terms
            ]
        return result

    solver, invar, terms = _build_model(facts)
    prefer = [-lit for lits, _ in terms for lit in lits]  # every objective literal off
    result = search()
    if result is not Result.SAT:
        return (Status.UNSATISFIABLE if result is Result.UNSAT else Status.TIMED_OUT), None

    for level, (lits, weights) in enumerate(terms):
        guard = solver.new_var()  # -guard weighs 1: a model must beat the incumbent
        bound = solver.add_atmost(lits + [-guard], weights + [1], counts[level])
        while counts[level] > 0:
            result = search(-guard)
            if result is Result.UNKNOWN:
                return Status.TIMED_OUT, best
            if result is Result.UNSAT:
                break
            solver.tighten(bound, counts[level])

    return Status.OPTIMAL, best


# ----------------------------------------------------------------------
# exhaustive oracle


def brute_force(doc: CudfDocument, criteria: CriteriaSeq) -> Solution | None:
    """Try every subset of the document's packages.

    Returns the best valid selection, preferring smaller then
    lexicographically smaller witnesses among ties, or None when no
    subset is valid.  Refuses universes past 20 packages.
    """
    index = doc.index
    pool = tuple(p.id for p in doc)
    if len(pool) > 20:
        raise ScopeTooLarge(f"cannot enumerate 2**{len(pool)} selections")
    # necessary conditions as bitmasks over the pool, so that only the
    # subsets passing all of them reach the referee
    bits = {pid: 1 << i for i, pid in enumerate(pool)}
    allowed = frozenset(pool)

    def providing(clauses: tuple[Clause, ...]) -> int:
        """The pool members that provide any of ``clauses``, one bit each."""
        return sum({bits[q] for c in clauses for q in index.providers(c, allowed)})

    removed = providing(index.effective.remove.clauses)
    wanted = [
        providing((c,)) for c in index.effective.install.clauses + index.effective.upgrade.clauses
    ]
    needs = [(bits[p], providing((c,))) for p in pool for c in index.by_id[p].depends.clauses]
    clashes = [(bits[p], providing(index.by_id[p].conflicts.clauses) & ~bits[p]) for p in pool]
    best_rank: tuple | None = None
    best: Solution | None = None
    for mask in range(1 << len(pool)):
        if (
            mask & removed
            or not all(mask & w for w in wanted)
            or any(mask & b and not mask & d for b, d in needs)
            or any(mask & b and mask & c for b, c in clashes)
        ):
            continue
        selection = frozenset(pid for i, pid in enumerate(pool) if mask >> i & 1)
        if not validate_solution(doc, selection).ok:
            continue
        vector = evaluate(doc, selection, criteria)
        rank = (vector.key(), len(selection), tuple(sorted(selection)))
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = Solution(selection, vector)
    return best
