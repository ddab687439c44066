"""Shrinking the universe to the packages a solver needs to look at.

Three steps: first rule out packages that can never be part of any
solution (remove targets; packages that would downgrade, duplicate or
miss an upgraded name), then check the request is satisfiable at all,
then grow a closure from the request providers along dependencies —
plus whatever the active optimization criteria can actually reward:
keeping installed names, reaching newest versions, honoring
recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import CriteriaSeq, Criterion, Polarity
from .model import CudfDocument, PackageId


@dataclass(frozen=True)
class ClosureResult:
    """What preprocessing found out about a document."""

    out: frozenset[PackageId]
    closure: frozenset[PackageId]
    feasible: bool
    iterations: int


def compute_out(doc: CudfDocument) -> frozenset[PackageId]:
    """Packages no solution may contain.

    Covers providers of remove targets, and per upgrade clause:
    packages providing a version of an upgraded name below one that is
    installed now, packages providing two or more versions of upgraded
    names at once, and packages providing upgraded names only in
    versions the clause does not accept.
    """
    index = doc.index
    out: set[PackageId] = set()

    for clause in index.effective.remove.clauses:
        out.update(index.providers(clause))

    for clause, highest in index.upgrades:
        accepted = set(index.providers(clause))
        for pid in {pid for name in highest for pid in index.touching.get(name, ())}:
            provided = {name: index.touching.get(name, {}).get(pid, ()) for name in highest}
            if None in provided.values():
                out.add(pid)  # provides every version of an upgraded name
                continue
            pairs = [(name, v) for name, versions in provided.items() for v in versions]
            if len(pairs) >= 2:
                out.add(pid)  # several versions of upgraded names at once
                continue
            name, version = pairs[0]
            top = highest[name]
            if top is not None and version < top:
                out.add(pid)  # would downgrade below the installed version
            elif pid not in accepted:
                out.add(pid)  # only provides a version the clause rejects
    return frozenset(out)


def compute_closure(doc: CudfDocument, criteria: CriteriaSeq) -> ClosureResult:
    """The packages that can influence an optimal solution.

    Narrows :func:`full_scope`'s candidates, and returns its result
    when the request is infeasible.  Starts from the providers of the
    request, seeds every package a criterion could reward keeping or
    adding, then follows dependency (and, when unsatisfied
    recommendations are penalized, recommendation) providers to a
    fixpoint.  ``iterations`` counts the fixpoint rounds that found
    something new.
    """
    scope = full_scope(doc)
    if not scope.feasible:
        return scope
    index = doc.index
    allowed = scope.closure
    o_names = {pid.name for pid in index.installed}

    closure: set[PackageId] = set()
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        closure.update(index.providers(clause, allowed))

    def seed(condition) -> None:
        closure.update(pid for pid in allowed if condition(pid))

    # seeds defined by the installed set come from the index by set
    # operations; the others test every allowed package
    if criteria.polarity_of(Criterion.NEW) is Polarity.PLUS:
        seed(lambda pid: pid.name not in o_names)
    if criteria.polarity_of(Criterion.REMOVED) is Polarity.MINUS:
        closure.update(
            pid
            for name in o_names
            for pid in index.touching[name]
            if pid.name == name and pid in allowed
        )
    if criteria.polarity_of(Criterion.CHANGED) is Polarity.PLUS:
        closure.update(allowed - index.installed)
    if criteria.polarity_of(Criterion.CHANGED) is Polarity.MINUS:
        closure.update(allowed & index.installed)
    if criteria.polarity_of(Criterion.NOT_UP_TO_DATE) is Polarity.PLUS:
        seed(lambda pid: pid.version < index.umax[pid.name])
    if criteria.polarity_of(Criterion.UNSAT_RECOMMENDS) is Polarity.PLUS:
        seed(lambda pid: bool(index.by_id[pid].recommends))

    follow_recommends = criteria.polarity_of(Criterion.UNSAT_RECOMMENDS) is Polarity.MINUS
    follow_newest = criteria.polarity_of(Criterion.NOT_UP_TO_DATE) is Polarity.MINUS

    iterations = 0
    frontier = set(closure)
    while frontier:
        add: set[PackageId] = set()
        for pid in frontier:
            desc = index.by_id[pid]
            for clause in desc.depends.clauses:
                add.update(index.providers(clause, allowed))
            if follow_recommends:
                for clause in desc.recommends.clauses:
                    add.update(index.providers(clause, allowed))
            if follow_newest:
                newest = PackageId(pid.name, index.umax[pid.name])
                if newest in allowed:
                    add.add(newest)
        add -= closure
        if not add:
            break
        closure |= add
        frontier = add
        iterations += 1

    return ClosureResult(
        out=scope.out, closure=frozenset(closure), feasible=True, iterations=iterations
    )


def full_scope(doc: CudfDocument) -> ClosureResult:
    """Preprocessing with the closure step disabled.

    Still excludes the packages no solution may contain and still
    checks feasibility, but keeps every remaining package as a
    candidate.
    """
    index = doc.index
    out = compute_out(doc)
    allowed = frozenset(doc.universe() - out)
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        if not index.providers(clause, allowed):
            return ClosureResult(out=out, closure=frozenset(), feasible=False, iterations=0)
    return ClosureResult(out=out, closure=allowed, feasible=True, iterations=0)
