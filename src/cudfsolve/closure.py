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
from .semantics import DocIndex


@dataclass(frozen=True)
class ClosureResult:
    """What preprocessing found out about a document."""

    out: frozenset[PackageId]
    closure: frozenset[PackageId]
    feasible: bool
    iterations: int


def compute_out(doc: CudfDocument, *, _index: DocIndex | None = None) -> frozenset[PackageId]:
    """Packages no solution may contain.

    Covers providers of remove targets, and per upgrade clause:
    packages providing a version of an upgraded name below one that is
    installed now, packages providing two or more versions of upgraded
    names at once, and packages providing upgraded names only in
    versions the clause does not accept.
    """
    index = _index if _index is not None else DocIndex(doc)
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


def compute_closure(
    doc: CudfDocument,
    criteria: CriteriaSeq,
    *,
    _index: DocIndex | None = None,
) -> ClosureResult:
    """The packages that can influence an optimal solution.

    Starts from the providers of the request, seeds every package a
    criterion could reward keeping or adding, then follows dependency
    (and, when unsatisfied recommendations are penalized,
    recommendation) providers to a fixpoint.  ``iterations`` counts the
    fixpoint rounds that found something new.
    """
    index = _index if _index is not None else DocIndex(doc)
    out = compute_out(doc, _index=index)
    allowed = frozenset(doc.universe() - out)
    o_names = {pid.name for pid in index.installed}

    closure: set[PackageId] = set()
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        found = index.providers(clause, allowed)
        if not found:
            return ClosureResult(out=out, closure=frozenset(), feasible=False, iterations=0)
        closure.update(found)

    def seed(condition) -> None:
        closure.update(pid for pid in allowed if condition(pid))

    if criteria.has(Criterion.NEW, Polarity.PLUS):
        seed(lambda pid: pid.name not in o_names)
    if criteria.has(Criterion.REMOVED, Polarity.MINUS):
        seed(lambda pid: pid.name in o_names)
    if criteria.has(Criterion.CHANGED, Polarity.PLUS):
        seed(lambda pid: pid not in index.installed)
    if criteria.has(Criterion.CHANGED, Polarity.MINUS):
        seed(lambda pid: pid in index.installed)
    if criteria.has(Criterion.NOT_UP_TO_DATE, Polarity.PLUS):
        seed(lambda pid: pid.version < index.umax[pid.name])
    if criteria.has(Criterion.UNSAT_RECOMMENDS, Polarity.PLUS):
        seed(lambda pid: bool(index.by_id[pid].recommends.clauses))

    follow_recommends = criteria.has(Criterion.UNSAT_RECOMMENDS, Polarity.MINUS)
    follow_newest = criteria.has(Criterion.NOT_UP_TO_DATE, Polarity.MINUS)

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
        out=out, closure=frozenset(closure), feasible=True, iterations=iterations
    )


def full_scope(doc: CudfDocument, *, _index: DocIndex | None = None) -> ClosureResult:
    """Preprocessing with the closure step disabled.

    Still excludes the packages no solution may contain and still
    checks feasibility, but keeps every remaining package as a
    candidate.
    """
    index = _index if _index is not None else DocIndex(doc)
    out = compute_out(doc, _index=index)
    allowed = frozenset(doc.universe() - out)
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        if not index.providers(clause, allowed):
            return ClosureResult(out=out, closure=frozenset(), feasible=False, iterations=0)
    return ClosureResult(out=out, closure=allowed, feasible=True, iterations=0)
