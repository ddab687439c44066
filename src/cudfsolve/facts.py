"""Compiling a preprocessed document into solver facts.

The output is a flat set of ground facts over interned package sets:
``depends(name, version, s3)`` says the package needs a member of set
``s3`` installed, ``satisfies(name, version, s3)`` enumerates that
set, and so on.  The bundled solver reads these facts and nothing
else, and :func:`render_facts` prints all of them as text for external
logic-programming tools.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .closure import ClosureResult
from .criteria import CriteriaSeq, Criterion
from .model import CudfDocument, PackageId


@dataclass(frozen=True, order=True)
class SetId:
    """Opaque handle for an interned package set."""

    ordinal: int

    def __str__(self) -> str:
        return f"s{self.ordinal}"


@dataclass(frozen=True)
class FactSet:
    """Everything the solver knows about one problem: what :func:`render_facts` prints."""

    units: frozenset[PackageId]
    installed: frozenset[PackageId]
    newest: Mapping[str, int]
    depends: tuple[tuple[PackageId, SetId], ...]
    recommends: tuple[tuple[PackageId, SetId, int], ...]
    conflicts: tuple[tuple[PackageId, SetId], ...]
    requests: tuple[SetId, ...]
    criteria: tuple[tuple[str, int], ...]
    #: every interned set, each referenced by some fact above
    members: Mapping[SetId, frozenset[PackageId]]

    @property
    def satisfies(self) -> tuple[tuple[PackageId, SetId], ...]:
        """The members of every set, by set and then by package."""
        members = self.members
        return tuple((pid, sid) for sid in sorted(members) for pid in sorted(members[sid]))


def generate(doc: CudfDocument, criteria: CriteriaSeq, closure: ClosureResult) -> FactSet:
    """Turn a document and its preprocessing result into facts.

    Only closure members are described, except that the currently
    installed packages are always listed in full so the objective can
    count what disappears.  An infeasible closure keeps no package, so
    its facts request the empty set, which no selection satisfies.
    """
    index = doc.index
    scope = closure.closure
    ordered = [desc for desc in doc.packages if desc.id in scope]
    ids: dict[frozenset[PackageId], SetId] = {}
    members: dict[SetId, frozenset[PackageId]] = {}

    def intern(pids: Iterable[PackageId]) -> SetId:
        """One stable token per distinct package set, numbered from 1."""
        key = frozenset(pids)
        if key not in ids:
            ids[key] = SetId(len(ids) + 1)
            members[ids[key]] = key
        return ids[key]

    want_recommends = criteria.polarity_of(Criterion.UNSAT_RECOMMENDS) is not None

    depends: dict[tuple[PackageId, SetId], None] = {}
    for desc in ordered:
        for clause in desc.depends.clauses:
            sid = intern(index.providers(clause, scope))
            depends.setdefault((desc.id, sid))

    recommends: dict[tuple[PackageId, SetId, int], None] = {}
    if want_recommends:
        for desc in ordered:
            groups: dict[SetId, int] = {}
            for clause in desc.recommends.clauses:
                sid = intern(index.providers(clause, scope))
                groups[sid] = groups.get(sid, 0) + 1
            for sid, count in groups.items():
                recommends.setdefault((desc.id, sid, count))

    conflicts: dict[tuple[PackageId, SetId], None] = {}
    for desc in ordered:
        enemies = {q for clause in desc.conflicts.clauses for q in index.providers(clause, scope)}
        enemies.discard(desc.id)
        if enemies:
            conflicts.setdefault((desc.id, intern(enemies)))

    for _, highest in index.upgrades:
        # compute_out leaves each candidate at most one provided (name,
        # version) of the upgraded names, and one the clause accepts
        pair = {
            desc.id: (name, version)
            for desc in ordered
            for name in highest
            for version in index.touching.get(name, {}).get(desc.id) or ()
        }
        for pid, mine in pair.items():
            rivals = {q for q, theirs in pair.items() if theirs != mine}
            if rivals:
                conflicts.setdefault((pid, intern(rivals)))

    requests: dict[SetId, None] = {}
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        requests.setdefault(intern(index.providers(clause, scope)))

    newest = {desc.name: index.umax[desc.name] for desc in ordered}

    return FactSet(
        units=frozenset(scope),
        installed=index.installed,
        newest=newest,
        depends=tuple(depends),
        recommends=tuple(recommends),
        conflicts=tuple(conflicts),
        requests=tuple(requests),
        criteria=criteria.facts(),
        members=members,
    )


_BARE_NAME = re.compile(r"[a-z][a-z0-9_]*")


def _term(name: str) -> str:
    """Render a package name as a logic-program constant."""
    if _BARE_NAME.fullmatch(name) and name != "not":  # a keyword of gringo
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_facts(facts: FactSet) -> str:
    """Render a fact set as text, one fact per line, stable order."""
    lines: list[str] = []
    for pid in sorted(facts.units):
        lines.append(f"unit({_term(pid.name)},{pid.version}).")
    for pid in sorted(facts.installed):
        lines.append(f"installed({_term(pid.name)},{pid.version}).")
    for name in sorted(facts.newest):
        lines.append(f"newestversion({_term(name)},{facts.newest[name]}).")
    for pid, sid in sorted(facts.depends):
        lines.append(f"depends({_term(pid.name)},{pid.version},{sid}).")
    for pid, sid, count in sorted(facts.recommends):
        lines.append(f"recommends({_term(pid.name)},{pid.version},{sid},{count}).")
    for pid, sid in sorted(facts.conflicts):
        lines.append(f"conflict({_term(pid.name)},{pid.version},{sid}).")
    for sid in sorted(facts.requests):
        lines.append(f"request({sid}).")
    for pid, sid in sorted(facts.satisfies):
        lines.append(f"satisfies({_term(pid.name)},{pid.version},{sid}).")
    for constant, position in facts.criteria:
        lines.append(f"criterion({constant},{position}).")
    return "\n".join(lines) + "\n" if lines else ""
