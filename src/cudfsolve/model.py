"""Data model for CUDF documents.

A document is a list of package descriptions (the universe) plus one
request.  Versions are plain positive integers; dependency-like
properties are conjunctions of disjunctions of version constraints.
Everything here is immutable so documents can be shared freely between
the preprocessing, solving and validation stages.

A :class:`Formula` read from CUDF text may hold that text, already
checked by the parser, and build its clauses the first time they are
read, so a solve that looks at a few packages of a large universe pays
for those packages' formulas only.  Nothing else can tell the two
kinds of formula apart.
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import DuplicatePackage, InvalidProvide, InvalidVersion

if TYPE_CHECKING:
    from .semantics import DocIndex

#: Largest version value accepted anywhere (machine-word sized).
MAX_VERSION = 2**63 - 1

#: Package names as CUDF spells them.
NAME_RE = re.compile(r"[a-zA-Z0-9.+-]+")

#: Reserved atom name used to represent the unsatisfiable ``false!``
#: literal.  The ``!`` keeps it disjoint from every parseable package
#: name, and the attached ``< 1`` bound makes it unsatisfiable even if
#: something were to match the name.
FALSE_MARKER = "false!"


class RelOp(enum.Enum):
    """Version comparison operators."""

    EQ = "="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def holds(self, left: int, right: int) -> bool:
        return _COMPARE[self](left, right)


_COMPARE = {
    RelOp.EQ: operator.eq,
    RelOp.NEQ: operator.ne,
    RelOp.LT: operator.lt,
    RelOp.LE: operator.le,
    RelOp.GT: operator.gt,
    RelOp.GE: operator.ge,
}


class PackageId(NamedTuple):
    """A single versioned package: the unit everything else counts.

    A tuple, so hashing, equality and ordering run in C; it equals the
    plain tuple ``(name, version)``.
    """

    name: str
    version: int

    def __str__(self) -> str:
        return f"{self.name}={self.version}"


@dataclass(frozen=True)
class VersionBound:
    op: RelOp
    value: int

    def __str__(self) -> str:
        return f"{self.op.value} {self.value}"


@dataclass(frozen=True)
class Constraint:
    """One atom of a formula: a name with an optional version bound.

    Without a bound the atom targets every version of ``name``.
    """

    name: str
    bound: VersionBound | None = None

    def __str__(self) -> str:
        if self.bound is None:
            return self.name
        return f"{self.name} {self.bound}"


@dataclass(frozen=True)
class Clause:
    """A disjunction of constraints; satisfied when any atom is."""

    atoms: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a clause needs at least one atom")

    def __str__(self) -> str:
        return " | ".join(str(a) for a in self.atoms)


class Formula:
    """A conjunction of clauses.  The empty formula is trivially true.

    Immutable, and compared, hashed and printed by its clauses alone.
    """

    # the clauses, or the checked text they are built from on first read
    __slots__ = ("_clauses",)

    def __init__(self, clauses: tuple[Clause, ...] = ()) -> None:
        self._clauses: tuple[Clause, ...] | str = clauses

    @classmethod
    def deferred(cls, text: str) -> Formula:
        """The formula of non-empty ``text`` that the parser's up-front
        check has accepted, so that building it cannot fail."""
        formula = cls.__new__(cls)
        formula._clauses = text
        return formula

    @property
    def clauses(self) -> tuple[Clause, ...]:
        clauses = self._clauses
        if isinstance(clauses, str):
            from .parser import parse_formula  # the parser imports this module

            clauses = self._clauses = parse_formula(clauses).clauses
        return clauses

    def __bool__(self) -> bool:
        return bool(self._clauses)  # deferred text is never empty

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash((self.clauses,))

    def __repr__(self) -> str:
        return f"Formula(clauses={self.clauses!r})"

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.clauses)


#: The always-true formula (``true!`` in CUDF syntax).
TRUE_FORMULA = Formula(())


def false_formula() -> Formula:
    """A formula no package can satisfy (``false!`` in CUDF syntax)."""
    return Formula((false_clause(),))


def false_clause() -> Clause:
    return Clause((Constraint(FALSE_MARKER, VersionBound(RelOp.LT, 1)),))


class Keep(enum.Enum):
    """What an installed package insists on keeping across the upgrade."""

    VERSION = "version"
    PACKAGE = "package"
    FEATURE = "feature"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class PackageDesc:
    """One package stanza."""

    id: PackageId
    depends: Formula = TRUE_FORMULA
    conflicts: Formula = TRUE_FORMULA
    provides: Formula = TRUE_FORMULA
    recommends: Formula = TRUE_FORMULA
    installed: bool = False
    keep: Keep | None = None

    @property
    def name(self) -> str:
        return self.id.name

    @property
    def version(self) -> int:
        return self.id.version


@dataclass(frozen=True)
class Request:
    """The change a user asks for."""

    install: Formula = TRUE_FORMULA
    remove: Formula = TRUE_FORMULA
    upgrade: Formula = TRUE_FORMULA


@dataclass(frozen=True)
class CudfDocument:
    """An immutable universe of packages plus the request against it."""

    packages: tuple[PackageDesc, ...]
    request: Request = field(default_factory=Request)

    def __iter__(self) -> Iterator[PackageDesc]:
        return iter(self.packages)

    def universe(self) -> frozenset[PackageId]:
        return frozenset(p.id for p in self.packages)

    def installed_ids(self) -> frozenset[PackageId]:
        return frozenset(p.id for p in self.packages if p.installed)

    @cached_property
    def index(self) -> DocIndex:
        """Lookup tables, built on first use; ``==``, ``hash`` and ``replace`` ignore them."""
        from .semantics import DocIndex  # semantics imports this module

        return DocIndex(self)


def _check_version(value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidVersion(f"version must be an integer, got {value!r}")
    if value < 1 or value > MAX_VERSION:
        raise InvalidVersion(f"version out of range: {value}")


def _check_formula(owner: str, prop: str, formula: Formula) -> None:
    for clause in formula.clauses:
        for atom in clause.atoms:
            if atom.name != FALSE_MARKER and NAME_RE.fullmatch(atom.name) is None:
                raise InvalidVersion(
                    f"{owner}: bad name {atom.name!r} in {prop} formula"
                )
            if atom.bound is not None:
                _check_version(atom.bound.value)


def _check_provides(owner: str, formula: Formula) -> None:
    for clause in formula.clauses:
        if len(clause.atoms) != 1:
            raise InvalidProvide(f"{owner}: provides clauses cannot be disjunctions")
        atom = clause.atoms[0]
        if atom.bound is not None and atom.bound.op is not RelOp.EQ:
            raise InvalidProvide(
                f"{owner}: provides may only pin an exact version, got {atom}"
            )


def make_document(
    packages: Iterable[PackageDesc], request: Request | None = None
) -> CudfDocument:
    """Build a validated document.

    Checks version ranges, rejects duplicate (name, version) pairs and
    enforces that provides formulas contain only single, optionally
    ``= n``-pinned atoms.
    """
    packages = tuple(packages)
    request = request if request is not None else Request()
    seen: set[PackageId] = set()
    for desc in packages:
        if NAME_RE.fullmatch(desc.name) is None:
            raise InvalidVersion(f"bad package name {desc.name!r}")
        _check_version(desc.version)
        if desc.id in seen:
            raise DuplicatePackage(desc.name, desc.version)
        seen.add(desc.id)
        owner = str(desc.id)
        _check_formula(owner, "depends", desc.depends)
        _check_formula(owner, "conflicts", desc.conflicts)
        _check_formula(owner, "provides", desc.provides)
        _check_formula(owner, "recommends", desc.recommends)
        _check_provides(owner, desc.provides)
    for prop in ("install", "remove", "upgrade"):
        _check_formula("request", prop, getattr(request, prop))
    return CudfDocument(packages=packages, request=request)


def effective_request(doc: CudfDocument) -> Request:
    """The request with ``keep`` markers folded in as install clauses.

    A ``keep`` only binds while its package is installed, so stanzas
    with ``installed: false`` contribute nothing.  ``keep: version``
    pins the exact pair, ``keep: package`` any version of the name, and
    ``keep: feature`` every feature the package provides.
    """
    extra: list[Clause] = []
    for desc in doc.packages:
        if not desc.installed or desc.keep in (None, Keep.NONE):
            continue
        if desc.keep is Keep.VERSION:
            extra.append(
                Clause((Constraint(desc.name, VersionBound(RelOp.EQ, desc.version)),))
            )
        elif desc.keep is Keep.PACKAGE:
            extra.append(Clause((Constraint(desc.name),)))
        else:  # Keep.FEATURE
            extra.extend(Clause((clause.atoms[0],)) for clause in desc.provides.clauses)
    if not extra:
        return doc.request
    install = Formula(doc.request.install.clauses + tuple(extra))
    return Request(
        install=install, remove=doc.request.remove, upgrade=doc.request.upgrade
    )
