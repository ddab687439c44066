"""What documents mean: matching, virtual packages, objectives, validity.

This module is deliberately independent of the preprocessing and
solving machinery so it can act as the referee for both: it decides
which packages satisfy a constraint, measures an installation against a
criteria sequence, and checks whether a proposed installation is
actually a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .criteria import CriteriaSeq, Criterion, Polarity, SignedCriterion
from .errors import UnknownName
from .model import (
    Clause,
    CudfDocument,
    PackageDesc,
    PackageId,
    RelOp,
    VersionBound,
    effective_request,
)


def bound_satisfiable(bound: VersionBound | None) -> bool:
    """Whether any version at all (over positive integers) meets ``bound``."""
    if bound is None:
        return True
    if bound.op is RelOp.LT:
        return bound.value >= 2
    if bound.op in (RelOp.LE, RelOp.EQ):
        return bound.value >= 1
    return True  # NEQ, GT, GE always have a witness


class DocIndex:
    """Precomputed lookup structures for one document.

    Built once per document, as ``CudfDocument.index``, and shared by
    the preprocessing, fact generation and validation paths.  It keeps
    no reference to the document, so the two form no cycle.
    ``touching`` holds, per provided name, each package that provides
    it (itself included) and the versions it provides, with None for
    every version; ``upgrades`` holds, per effective upgrade clause,
    the names it can target and the highest version of each that is
    installed now.
    """

    def __init__(self, doc: CudfDocument) -> None:
        self.by_id: dict[PackageId, PackageDesc] = {p.id: p for p in doc.packages}
        self.installed: frozenset[PackageId] = doc.installed_ids()
        self.umax: dict[str, int] = {}
        # provided name -> each package providing it, in document order,
        # -> its provided versions, sorted, or None for every version
        self.touching: dict[str, dict[PackageId, tuple[int, ...] | None]] = {}
        for desc in doc.packages:
            name, version = desc.id
            if self.umax.get(name, 0) < version:
                self.umax[name] = version
            if not desc.provides:  # most packages provide only themselves
                self.touching.setdefault(name, {})[desc.id] = (version,)
                continue
            # a package provides itself; an unversioned provide covers
            # every version, which swallows exact ones of the same name
            provided: dict[str, set[int] | None] = {name: {version}}
            for clause in desc.provides.clauses:
                atom = clause.atoms[0]
                versions = provided.setdefault(atom.name, set())
                if atom.bound is None:
                    provided[atom.name] = None
                elif versions is not None:
                    versions.add(atom.bound.value)
            for name, versions in provided.items():
                self.touching.setdefault(name, {})[desc.id] = (
                    None if versions is None else tuple(sorted(versions))
                )
        self.effective = effective_request(doc)
        # per effective upgrade clause: each name it can target, in clause
        # order, -> the highest version installed packages provide of it
        # (inf for an unversioned provide, None when none provides it)
        self.upgrades: list[tuple[Clause, dict[str, float | None]]] = []
        for clause in self.effective.upgrade.clauses:
            highest: dict[str, float | None] = {}
            for atom in clause.atoms:
                if bound_satisfiable(atom.bound) and atom.name not in highest:
                    held = [
                        versions
                        for pid, versions in self.touching.get(atom.name, {}).items()
                        if pid in self.installed
                    ]
                    highest[atom.name] = max(
                        (math.inf if vs is None else max(vs) for vs in held), default=None
                    )
            self.upgrades.append((clause, highest))

    def providers(
        self, clause: Clause, allowed: frozenset[PackageId] | None = None
    ) -> list[PackageId]:
        """Who in ``allowed`` (default: all) serves ``clause``, by name then version.

        The one matching query: preprocessing, facts and validation all ask it."""
        seen: set[PackageId] = set()
        for atom in clause.atoms:
            for pid, versions in self.touching.get(atom.name, {}).items():
                if pid in seen or (allowed is not None and pid not in allowed):
                    continue
                if _meets(atom.bound, versions):
                    seen.add(pid)
        return sorted(seen)


def _meets(bound: VersionBound | None, versions: tuple[int, ...] | None) -> bool:
    """Whether a provide of ``versions`` (None: every version) meets ``bound``."""
    if bound is None:
        return True
    if versions is None:
        return bound_satisfiable(bound)
    return any(bound.op.holds(v, bound.value) for v in versions)


def _selection(index: DocIndex, installed: Iterable[PackageId]) -> frozenset[PackageId]:
    """``installed`` as a set; each of its packages must be in the document."""
    chosen = frozenset(installed)
    unknown = chosen.difference(index.by_id)
    if unknown:  # name the least, whatever the hash seed
        raise UnknownName(f"{min(unknown)} is not in the document")
    return chosen


def compute_sets(
    doc: CudfDocument,
    installed: Iterable[PackageId],
    criteria: CriteriaSeq,
) -> dict[Criterion, frozenset]:
    """Measure the follow-up installation against the current one.

    One set per criterion that ``criteria`` ranks, in its order, whose
    size is that criterion's count: names, except for
    ``UNSAT_RECOMMENDS``, which holds the (name, version, clause index)
    triples of unserved recommends, indices starting at 1 in source
    order.  Criteria left unranked are not measured.
    """
    index = doc.index
    chosen = _selection(index, installed)

    p_versions: dict[str, set[int]] = {}
    for pid in chosen:
        p_versions.setdefault(pid.name, set()).add(pid.version)
    o_versions: dict[str, set[int]] = {}
    for pid in index.installed:
        o_versions.setdefault(pid.name, set()).add(pid.version)

    measure = {
        Criterion.NEW: lambda: (n for n in p_versions if n not in o_versions),
        Criterion.REMOVED: lambda: (n for n in o_versions if n not in p_versions),
        Criterion.CHANGED: lambda: (
            n
            for n in set(p_versions) | set(o_versions)
            if p_versions.get(n, set()) != o_versions.get(n, set())
        ),
        Criterion.NOT_UP_TO_DATE: lambda: (
            n for n, versions in p_versions.items() if index.umax[n] not in versions
        ),
        Criterion.UNSAT_RECOMMENDS: lambda: (
            (pid.name, pid.version, i)
            for pid in chosen
            for i, clause in enumerate(index.by_id[pid].recommends.clauses, 1)
            if not index.providers(clause, chosen)
        ),
    }
    return {sc.criterion: frozenset(measure[sc.criterion]()) for sc in criteria.items}


@dataclass(frozen=True)
class ObjectiveVector:
    """(signed criterion, count) pairs, most significant first."""

    values: tuple[tuple[SignedCriterion, int], ...]

    def key(self) -> tuple[int, ...]:
        """Comparison key: lexicographically smaller is better."""
        return tuple(n if sc.polarity is Polarity.MINUS else -n for sc, n in self.values)

    def __str__(self) -> str:
        return " ".join(f"{sc}={n}" for sc, n in self.values) if self.values else "(no criteria)"


def evaluate(
    doc: CudfDocument,
    installed: Iterable[PackageId],
    criteria: CriteriaSeq,
) -> ObjectiveVector:
    """The objective vector of an installation: the size of each ranked set."""
    sets = compute_sets(doc, installed, criteria)
    return ObjectiveVector(tuple((sc, len(sets[sc.criterion])) for sc in criteria.items))


@dataclass(frozen=True)
class UnsatisfiedRequest:
    which: str
    clause: Clause

    def __str__(self) -> str:
        return f"unsatisfied request: {self.which} '{self.clause}'"


@dataclass(frozen=True)
class UnsatisfiedDependency:
    package: PackageId
    clause: Clause

    def __str__(self) -> str:
        return f"unsatisfied dependency: {self.package} needs '{self.clause}'"


@dataclass(frozen=True)
class ConflictViolated:
    package: PackageId
    other: PackageId

    def __str__(self) -> str:
        return f"conflict violated: {self.package} conflicts with {self.other}"


@dataclass(frozen=True)
class OutPackageInstalled:
    package: PackageId
    reason: str

    def __str__(self) -> str:
        return f"forbidden package installed: {self.package} {self.reason}"


@dataclass(frozen=True)
class UpgradeMultiVersion:
    name: str

    def __str__(self) -> str:
        return f"upgrade violated: several versions of {self.name} would be available"


Violation = Union[
    UnsatisfiedRequest,
    UnsatisfiedDependency,
    ConflictViolated,
    OutPackageInstalled,
    UpgradeMultiVersion,
]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate_solution(
    doc: CudfDocument,
    installed: Iterable[PackageId],
    *,
    _index: DocIndex | None = None,
) -> ValidationReport:
    """Check a proposed installation against the document.

    Verifies the request (install and upgrade clauses served, remove
    targets gone), dependencies and conflicts of everything installed,
    and the upgrade rules: no version below one currently provided, and
    one available version at most per upgraded name.

    The private keyword serves only the benchmark's corpus builder,
    which holds an index already; it goes with ROADMAP item 1.
    """
    index = _index if _index is not None else doc.index
    chosen = _selection(index, installed)
    ordered = sorted(chosen)
    violations: list[Violation] = []

    for clause in index.effective.install.clauses:
        if not index.providers(clause, chosen):
            violations.append(UnsatisfiedRequest("install", clause))
    for clause in index.effective.upgrade.clauses:
        if not index.providers(clause, chosen):
            violations.append(UnsatisfiedRequest("upgrade", clause))

    for clause in index.effective.remove.clauses:
        for pid in index.providers(clause, chosen):
            violations.append(
                OutPackageInstalled(pid, f"matches the remove request '{clause}'")
            )

    for pid in ordered:
        for clause in index.by_id[pid].depends.clauses:
            if not index.providers(clause, chosen):
                violations.append(UnsatisfiedDependency(pid, clause))

    for pid in ordered:
        for clause in index.by_id[pid].conflicts.clauses:
            for atom in clause.atoms:
                for other in index.providers(Clause((atom,)), chosen):
                    if other != pid:
                        violations.append(ConflictViolated(pid, other))

    for clause, highest in index.upgrades:
        flagged: set[str] = set()
        pairs: set[tuple[str, int]] = set()
        for name, omax in highest.items():
            provided = index.touching.get(name, {})
            for pid in sorted(chosen.intersection(provided)):
                versions = provided[pid]
                if versions is None:
                    flagged.add(name)
                else:
                    pairs.update((name, v) for v in versions)
                # an unversioned provide counts as providing version 1
                if omax is not None and (1 if versions is None else versions[0]) < omax:
                    violations.append(
                        OutPackageInstalled(
                            pid, f"downgrades {name} relative to what is installed"
                        )
                    )
        per_name: dict[str, int] = {}
        for name, _ in pairs:
            per_name[name] = per_name.get(name, 0) + 1
        flagged.update(n for n, count in per_name.items() if count > 1)
        if not flagged and len(pairs) > 1:
            # several names of one disjunctive upgrade clause served at once
            flagged.add(min(n for n, _ in pairs))
        violations.extend(UpgradeMultiVersion(n) for n in sorted(flagged))

    unique = tuple(dict.fromkeys(violations))  # first-reported order
    return ValidationReport(ok=not unique, violations=unique)
