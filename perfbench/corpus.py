"""Seeded CUDF corpora with a valid starting state and a satisfiable request.

Every instance starts from ``generate_instance`` output.  The installed
set is repaired to a fixpoint with ``validate_solution`` under an empty
request, then install requests are picked one at a time while a witness
installation that satisfies all of them is grown greedily.  The finished
document is checked against its witness with ``validate_solution``, so
every request is satisfiable by construction and the solver under test
is never called.

Run as a script to write one workload's corpus and its manifest::

    python3 perfbench/corpus.py --workload big-trim --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cudfsolve import (  # noqa: E402
    Clause,
    Constraint,
    CudfDocument,
    DocIndex,
    Formula,
    PackageId,
    RelOp,
    Request,
    VersionBound,
    effective_request,
    evaluate,
    generate_instance,
    parse_criteria,
    render_document,
    validate_solution,
)
from cudfsolve.semantics import ConflictViolated, UnsatisfiedDependency  # noqa: E402


#: Per-instance ``--timeout`` in seconds; no instance comes near it.
BUDGET_S = 60.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One corpus recipe: generator knobs, request shape, criteria."""

    name: str
    criteria: str
    instances: int
    packages: int
    installed_fraction: float
    depends_density: float
    conflicts_density: float
    recommends_density: float
    install_requests: int
    #: share of requests asking for another version of an installed name
    version_change_share: float
    max_versions: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        # Large sparse universes, tiny request: parsing and DocIndex dominate
        # and the closure keeps a few percent, so the SAT core sits idle.
        Workload(
            name="big-trim",
            criteria="paranoid",
            instances=3,
            packages=16000,
            installed_fraction=0.05,
            depends_density=0.3,
            conflicts_density=0.05,
            recommends_density=0.1,
            install_requests=3,
            version_change_share=0.0,
        ),
        # Every version change clashes with what is installed; sparse
        # dependencies keep the hardest instances within ~2.5x the median,
        # so a corpus of 24 sums steadily while search stays over half.
        Workload(
            name="paranoid-search",
            criteria="paranoid",
            instances=24,
            packages=1000,
            installed_fraction=1.0,
            depends_density=0.2,
            conflicts_density=0.3,
            recommends_density=0.1,
            install_requests=80,
            version_change_share=0.6,
            max_versions=5,
        ),
        # Four criterion levels mean many bound steps per instance, each
        # rebuilding the model; small universes keep search from swamping it.
        Workload(
            name="trendy-levels",
            criteria="trendy",
            instances=100,
            packages=200,
            installed_fraction=0.4,
            depends_density=0.4,
            conflicts_density=0.15,
            recommends_density=0.3,
            install_requests=10,
            version_change_share=0.3,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Instance:
    doc: CudfDocument
    witness: frozenset[PackageId]


class _Grower:
    """Greedy installer over one document; never consults the solver.

    Matching depends only on names, versions and provides, so the keep
    and installed flags of ``doc`` do not matter here.
    """

    def __init__(self, doc: CudfDocument) -> None:
        self.index = index = DocIndex(doc)
        self._depends: dict[PackageId, list[frozenset[PackageId]]] = {}
        self._dependents: dict[PackageId, set[PackageId]] = {}
        self.enemies: dict[PackageId, set[PackageId]] = {desc.id: set() for desc in doc}
        for desc in doc.packages:
            for clause in desc.conflicts.clauses:
                for other in index.providers(clause):
                    if other != desc.id:
                        self.enemies[desc.id].add(other)
                        self.enemies[other].add(desc.id)
        self._providers: dict[Clause, frozenset[PackageId]] = {}

    def satisfied(self, clause: Clause, chosen: frozenset[PackageId]) -> bool:
        if clause not in self._providers:
            self._providers[clause] = frozenset(self.index.providers(clause))
        return not self._providers[clause].isdisjoint(chosen)

    def depends(self, pid: PackageId) -> list[frozenset[PackageId]]:
        """Provider sets of ``pid``'s dependency clauses."""
        if pid not in self._depends:
            clauses = self.index.by_id[pid].depends.clauses
            self._depends[pid] = [frozenset(self.index.providers(c)) for c in clauses]
            for providers in self._depends[pid]:
                for provider in providers:
                    self._dependents.setdefault(provider, set()).add(pid)
        return self._depends[pid]

    def settle(self, chosen: set[PackageId], suspects: set[PackageId]) -> frozenset[PackageId]:
        """Drop each suspect whose dependencies are unmet, then whatever
        depended on a dropped package, until nothing changes.

        Every package of ``chosen`` must have had :meth:`depends` called.
        """
        chosen = set(chosen)
        while suspects:
            broken = {
                pid
                for pid in suspects & chosen
                if any(providers.isdisjoint(chosen) for providers in self.depends(pid))
            }
            chosen -= broken
            suspects = set().union(*(self._dependents.get(pid, ()) for pid in broken))
        return frozenset(chosen)

    def install(self, chosen: frozenset[PackageId], target: PackageId) -> frozenset[PackageId]:
        """``chosen`` plus ``target`` and its dependencies, enemies evicted.

        Evictions can break other packages' dependencies; those packages
        are dropped in turn.  The caller checks what survived.
        """
        trial = set(chosen)
        added: set[PackageId] = set()
        evicted: set[PackageId] = set()
        pending = [target]
        while pending:
            pid = pending.pop()
            if pid in trial:
                continue
            trial.add(pid)
            added.add(pid)
            evicted |= self.enemies[pid] & trial
            trial -= self.enemies[pid]
            for providers in self.depends(pid):
                if providers and providers.isdisjoint(trial):
                    fresh = [p for p in sorted(providers) if self.enemies[p].isdisjoint(trial)]
                    pending.append(fresh[0] if fresh else min(providers))
        suspects = added.union(*(self._dependents.get(pid, ()) for pid in evicted))
        return self.settle(trial, suspects)


def repair_installed(doc: CudfDocument, grower: _Grower) -> frozenset[PackageId]:
    """Drop installed packages until the installed set is a valid state.

    The later package of each conflicting pair goes first, then every
    package whose dependencies are unmet.  ``doc`` carries no request
    and no keep flags: a kept package that stays installed satisfies its
    own keep clause, and one that is dropped no longer binds.
    ``validate_solution`` has the last word.
    """
    installed = set(doc.installed_ids())
    installed -= {max(pid, enemy) for pid in installed for enemy in grower.enemies[pid] & installed}
    installed = set(grower.settle(installed, installed))
    while True:
        report = validate_solution(doc, installed, _index=grower.index)
        if report.ok:
            return frozenset(installed)
        drop: set[PackageId] = set()
        for violation in report.violations:
            if isinstance(violation, UnsatisfiedDependency):
                drop.add(violation.package)
            elif isinstance(violation, ConflictViolated):
                drop.add(max(violation.package, violation.other))
        if not drop:
            raise RuntimeError(f"cannot repair: {report.violations[0]}")
        installed -= drop


def make_instance(workload: Workload, seed: int, number: int) -> Instance:
    """Instance ``number`` of ``workload``'s corpus for ``seed``."""
    rng = random.Random(f"{workload.name}/{seed}/{number}")
    raw = generate_instance(
        rng.randrange(2**31),
        packages=workload.packages,
        max_versions=workload.max_versions,
        installed_fraction=workload.installed_fraction,
        depends_density=workload.depends_density,
        conflicts_density=workload.conflicts_density,
        provides_density=0.05,
        recommends_density=workload.recommends_density,
        install_requests=0,
        upgrade_requests=0,
        remove_requests=0,
    )
    plain = CudfDocument(tuple(dataclasses.replace(desc, keep=None) for desc in raw))
    grower = _Grower(plain)
    installed = repair_installed(plain, grower)
    base = CudfDocument(
        tuple(dataclasses.replace(desc, installed=desc.id in installed) for desc in raw)
    )
    keeps = effective_request(base).install.clauses
    installed_names = {pid.name for pid in installed}
    by_name: dict[str, list[PackageId]] = {}
    for desc in base.packages:
        by_name.setdefault(desc.name, []).append(desc.id)
    other_versions = [
        pid
        for name in sorted(installed_names)
        for pid in by_name[name]
        if pid not in installed
    ]
    fresh_names = sorted(set(by_name) - installed_names)

    witness = installed
    accepted: list[Clause] = []
    for _ in range(20 * workload.install_requests):
        if len(accepted) == workload.install_requests or not (fresh_names or other_versions):
            break
        if not fresh_names or (
            other_versions and rng.random() < workload.version_change_share
        ):
            target = rng.choice(other_versions)
            clause = Clause((Constraint(target.name, VersionBound(RelOp.EQ, target.version)),))
        else:
            name = rng.choice(fresh_names)
            clause = Clause((Constraint(name),))
            target = rng.choice(by_name[name])
        if grower.satisfied(clause, witness):
            continue
        trial = grower.install(witness, target)
        if all(grower.satisfied(c, trial) for c in (*accepted, clause, *keeps)):
            witness = trial
            accepted.append(clause)

    doc = CudfDocument(base.packages, Request(install=Formula(tuple(accepted))))
    report = validate_solution(doc, witness)
    if not report.ok:
        raise RuntimeError(f"witness invalid: {report.violations[0]}")
    return Instance(doc, witness)


def write_corpus(workload: Workload, seed: int, out: Path) -> list[dict]:
    """Write the corpus files and ``manifest.json``; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    criteria = parse_criteria(workload.criteria)
    manifest = []
    for number in range(workload.instances):
        instance = make_instance(workload, seed, number)
        path = out / f"{workload.name}-{seed}-{number:03d}.cudf"
        path.write_text(render_document(instance.doc), encoding="utf-8")
        manifest.append(
            {
                "file": path.name,
                "packages": len(instance.doc.packages),
                "installed": len(instance.doc.installed_ids()),
                "requests": len(instance.doc.request.install.clauses),
                "witness": [str(pid) for pid in sorted(instance.witness)],
                "witness_key": list(evaluate(instance.doc, instance.witness, criteria).key()),
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_corpus(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
