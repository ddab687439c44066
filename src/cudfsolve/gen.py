"""Seeded random instance generator.

Produces syntactically valid upgrade problems of controllable size and
messiness for stress tests and benchmarks.  The same seed and knobs
always yield the same document, so failures can be replayed from a
single integer.
"""

from __future__ import annotations

import random

from .model import (
    Clause,
    Constraint,
    CudfDocument,
    Formula,
    Keep,
    PackageDesc,
    PackageId,
    RelOp,
    Request,
    VersionBound,
    make_document,
)

_BOUND_OPS = (RelOp.EQ, RelOp.GE, RelOp.LE, RelOp.GT, RelOp.LT, RelOp.NEQ)
_MAX_CLAUSES = 2  # per generated depends, conflicts or recommends formula


def _atom(rng: random.Random, names: list[str], max_versions: int) -> Constraint:
    name = rng.choice(names)
    if rng.random() < 0.3:
        return Constraint(name)
    op = rng.choice(_BOUND_OPS)
    return Constraint(name, VersionBound(op, rng.randint(1, max_versions)))


def _formula(
    rng: random.Random,
    names: list[str],
    max_versions: int,
    *,
    max_atoms: int = 2,
) -> Formula:
    clauses = []
    for _ in range(rng.randint(1, _MAX_CLAUSES)):
        atoms = tuple(
            _atom(rng, names, max_versions) for _ in range(rng.randint(1, max_atoms))
        )
        clauses.append(Clause(atoms))
    return Formula(tuple(clauses))


def _single_atoms(
    rng: random.Random,
    preferred: list[str],
    longshots: list[str],
    max_versions: int,
    count: int,
) -> Formula:
    """Single-atom clauses over mostly ``preferred`` names.

    A small share of picks comes from ``longshots`` (typically virtual
    names), which keeps unsatisfiable requests rare but present.
    """
    pool = list(preferred)
    picks: list[str] = []
    for _ in range(min(count, len(preferred) + len(longshots))):
        if longshots and (not pool or rng.random() < 0.08):
            name = rng.choice(longshots)
            longshots = [n for n in longshots if n != name]
        else:
            name = pool.pop(rng.randrange(len(pool)))
        picks.append(name)
    clauses = []
    for name in picks:
        roll = rng.random()
        if roll < 0.65:
            atom = Constraint(name)
        elif roll < 0.9:
            atom = Constraint(
                name, VersionBound(RelOp.GE, rng.randint(1, max_versions))
            )
        else:
            atom = Constraint(
                name, VersionBound(RelOp.EQ, rng.randint(1, max_versions))
            )
        clauses.append(Clause((atom,)))
    return Formula(tuple(clauses))


def generate_instance(
    seed: int,
    *,
    packages: int = 20,
    max_versions: int = 3,
    installed_fraction: float = 0.4,
    depends_density: float = 0.5,
    conflicts_density: float = 0.2,
    provides_density: float = 0.15,
    recommends_density: float = 0.2,
    install_requests: int = 2,
    upgrade_requests: int = 1,
    remove_requests: int = 0,
) -> CudfDocument:
    """Build a random document with exactly ``packages`` package stanzas.

    Names are ``p1, p2, ...`` with up to ``max_versions`` versions each;
    a sprinkling of ``virt*`` names exists only through provides.  The
    density knobs are per-package probabilities; the request knobs ask
    for that many distinct names per request kind (clamped to what is
    available).
    """
    if packages < 1:
        raise ValueError("need at least one package")
    rng = random.Random(seed)

    version_sets: list[tuple[str, list[int]]] = []
    remaining = packages
    index = 1
    while remaining:
        count = rng.randint(1, min(max_versions, remaining))
        versions = sorted(rng.sample(range(1, max_versions + 1), count))
        version_sets.append((f"p{index}", versions))
        index += 1
        remaining -= count

    real_names = [name for name, _ in version_sets]
    virtual_names = [f"virt{i}" for i in range(1, max(1, packages // 12) + 1)]
    target_names = real_names + virtual_names

    installed_by: dict[str, set[int]] = {}
    for name, versions in version_sets:
        if rng.random() < installed_fraction:
            marked = {rng.choice(versions)}
            if len(versions) > 1 and rng.random() < 0.1:
                marked.add(rng.choice([v for v in versions if v not in marked]))
            installed_by[name] = marked

    descs = []
    for name, versions in version_sets:
        for version in versions:
            installed = version in installed_by.get(name, ())
            depends = Formula(())
            if rng.random() < depends_density:
                depends = _formula(rng, target_names, max_versions)
            conflicts = Formula(())
            if rng.random() < conflicts_density:
                conflicts = _formula(rng, target_names, max_versions, max_atoms=1)
            provides = Formula(())
            if rng.random() < provides_density:
                target = rng.choice(virtual_names)
                if rng.random() < 0.4:
                    atom = Constraint(target)
                else:
                    atom = Constraint(
                        target, VersionBound(RelOp.EQ, rng.randint(1, max_versions))
                    )
                provides = Formula((Clause((atom,)),))
            recommends = Formula(())
            if rng.random() < recommends_density:
                recommends = _formula(rng, target_names, max_versions)
            keep = None
            if installed and rng.random() < 0.15:
                keep = rng.choice((Keep.VERSION, Keep.PACKAGE, Keep.NONE))
            descs.append(
                PackageDesc(
                    id=PackageId(name, version),
                    depends=depends,
                    conflicts=conflicts,
                    provides=provides,
                    recommends=recommends,
                    installed=installed,
                    keep=keep,
                )
            )

    installed_names = [name for name, _ in version_sets if name in installed_by]
    pool = installed_names or real_names  # for the upgrade and remove requests
    request = Request(
        install=_single_atoms(rng, real_names, virtual_names, max_versions, install_requests),
        remove=_bare_atoms(rng, pool, remove_requests),
        upgrade=_bare_atoms(rng, pool, upgrade_requests),
    )
    return make_document(descs, request)


def _bare_atoms(rng: random.Random, names: list[str], count: int) -> Formula:
    picks = rng.sample(names, min(count, len(names)))
    return Formula(tuple(Clause((Constraint(name),)) for name in picks))
