"""Reading and writing CUDF text.

The format is line oriented: stanzas separated by blank lines, each
line a ``property: value`` pair, lines starting with whitespace
continuing the previous value.  ``parse_document`` is total — any
input either yields a document or raises :class:`ParseError`, never
anything else — which keeps it safe to point at untrusted bytes.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Iterable

from . import model
from .errors import CudfError
from .model import (
    Clause,
    Constraint,
    CudfDocument,
    Formula,
    Keep,
    PackageDesc,
    PackageId,
    Request,
    RelOp,
    VersionBound,
)


class ParseErrorKind(enum.Enum):
    SYNTAX = "syntax"
    UNKNOWN_PROPERTY = "unknown-property"
    DUPLICATE_PROPERTY = "duplicate-property"
    BAD_VERSION = "bad-version"
    BAD_OPERATOR = "bad-operator"


class ParseError(CudfError):
    """Input rejected; ``line`` is 1-based, 0 when no line applies."""

    def __init__(self, line: int, kind: ParseErrorKind, message: str) -> None:
        super().__init__(f"line {line}: {kind.value}: {message}")
        self.line = line
        self.kind = kind
        self.message = message


WarnSink = Callable[[str], None]

_LINE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*):(.*)$")
_DIGITS_RE = re.compile(r"[0-9]+")
#: name, then an optional operator run with its optional version, then the rest
_ATOM_RE = re.compile(
    rf"\s*({model.NAME_RE.pattern})\s*(?:([<>=!]+)\s*([0-9]+)?\s*)?(.*)", re.DOTALL
)

_OPS = {op.value: op for op in RelOp}

_PACKAGE_PROPS = {
    "package",
    "version",
    "depends",
    "conflicts",
    "provides",
    "recommends",
    "installed",
    "keep",
}
_REQUEST_PROPS = {"request", "install", "remove", "upgrade"}

_KEEP_VALUES = {k.value: k for k in Keep}


def _parse_version_token(token: str, line: int) -> int:
    if _DIGITS_RE.fullmatch(token) is None:
        raise ParseError(line, ParseErrorKind.BAD_VERSION, f"bad version {token!r}")
    if len(token) > 20:
        raise ParseError(line, ParseErrorKind.BAD_VERSION, f"version too large: {token}")
    value = int(token)
    if value < 1 or value > model.MAX_VERSION:
        raise ParseError(line, ParseErrorKind.BAD_VERSION, f"version out of range: {value}")
    return value


def _parse_atom(text: str, line: int) -> Constraint:
    match = _ATOM_RE.match(text)
    if match is None:
        raise ParseError(line, ParseErrorKind.SYNTAX, f"expected a package name in {text!r}")
    name, op_token, digits, rest = match.groups()
    if op_token is None:
        if rest:
            raise ParseError(line, ParseErrorKind.SYNTAX, f"unexpected {rest!r} after {name!r}")
        return Constraint(name)
    op = _OPS.get(op_token)
    if op is None:
        raise ParseError(line, ParseErrorKind.BAD_OPERATOR, f"unknown operator {op_token!r}")
    if digits is None:
        raise ParseError(
            line, ParseErrorKind.BAD_VERSION, f"expected a version after {op_token!r}"
        )
    value = _parse_version_token(digits, line)
    if rest:
        raise ParseError(line, ParseErrorKind.SYNTAX, f"trailing input {rest!r} in atom")
    return Constraint(name, VersionBound(op, value))


def _parse_formula(text: str, line: int) -> Formula:
    text = text.strip()
    if text == "true!" or not text:
        return model.TRUE_FORMULA
    if text == "false!":
        return model.false_formula()
    clauses: list[Clause] = []
    for chunk in text.split(","):
        if not chunk.strip():
            raise ParseError(line, ParseErrorKind.SYNTAX, "empty clause in formula")
        atoms: list[Constraint] = []
        for part in chunk.split("|"):
            if not part.strip():
                raise ParseError(line, ParseErrorKind.SYNTAX, "empty atom in clause")
            atoms.append(_parse_atom(part, line))
        clauses.append(Clause(tuple(atoms)))
    return Formula(tuple(clauses))


def parse_formula(text: str) -> Formula:
    """Parse a standalone formula string such as ``a >= 2 | b, c``."""
    return _parse_formula(text, 1)


class _Stanza:
    """A block of properties plus the line each one started on."""

    def __init__(self, line: int) -> None:
        self.line = line
        self.props: dict[str, str] = {}
        self.lines: dict[str, int] = {}


def _split_stanzas(text: str) -> Iterable[_Stanza]:
    stanza: _Stanza | None = None
    last_key: str | None = None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip():
            if stanza is not None:
                yield stanza
            stanza, last_key = None, None
            continue
        if line[0] in " \t":
            if stanza is None or last_key is None:
                raise ParseError(
                    lineno, ParseErrorKind.SYNTAX, "continuation line without a property"
                )
            joined = f"{stanza.props[last_key]} {line.strip()}".strip()
            stanza.props[last_key] = joined
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ParseError(
                lineno, ParseErrorKind.SYNTAX, f"expected 'property: value', got {line!r}"
            )
        key, value = match.group(1), match.group(2).strip()
        if stanza is None:
            stanza = _Stanza(lineno)
        if key in stanza.props:
            raise ParseError(
                lineno, ParseErrorKind.DUPLICATE_PROPERTY, f"property {key!r} repeated"
            )
        stanza.props[key] = value
        stanza.lines[key] = lineno
        last_key = key
    if stanza is not None:
        yield stanza


def _formulas(stanza: _Stanza, props: tuple[str, ...]) -> dict[str, Formula]:
    """Each of ``props`` parsed, in order; an absent one is true."""
    return {
        prop: _parse_formula(stanza.props[prop], stanza.lines[prop])
        if prop in stanza.props
        else model.TRUE_FORMULA
        for prop in props
    }


def _check_props(
    stanza: _Stanza, own: set[str], foreign: set[str], misplaced: str, warn: WarnSink | None
) -> None:
    """Reject a ``foreign`` key with ``misplaced`` (``{}`` is the key); warn about unknown ones."""
    for key, line in stanza.lines.items():
        if key in own:
            continue
        if key in foreign:
            raise ParseError(line, ParseErrorKind.UNKNOWN_PROPERTY, misplaced.format(repr(key)))
        if warn is not None:
            warn(f"line {line}: unknown property {key!r} ignored")


def _package_from_stanza(stanza: _Stanza, warn: WarnSink | None) -> PackageDesc:
    props = stanza.props
    name = props["package"]
    if model.NAME_RE.fullmatch(name) is None:
        raise ParseError(
            stanza.lines["package"], ParseErrorKind.SYNTAX, f"bad package name {name!r}"
        )
    if "version" not in props:
        raise ParseError(
            stanza.line, ParseErrorKind.BAD_VERSION, f"package {name!r} has no version"
        )
    version = _parse_version_token(props["version"], stanza.lines["version"])
    formulas = _formulas(stanza, ("depends", "conflicts", "provides", "recommends"))

    for clause in formulas["provides"].clauses:
        bound = clause.atoms[0].bound
        if len(clause.atoms) != 1 or (bound is not None and bound.op is not RelOp.EQ):
            raise ParseError(
                stanza.lines["provides"],
                ParseErrorKind.SYNTAX,
                "provides entries must be plain names or 'name = version'",
            )

    installed = False
    if "installed" in props:
        value = props["installed"]
        if value not in ("true", "false"):
            raise ParseError(
                stanza.lines["installed"],
                ParseErrorKind.SYNTAX,
                f"installed must be true or false, got {value!r}",
            )
        installed = value == "true"

    keep: Keep | None = None
    if "keep" in props:
        keep = _KEEP_VALUES.get(props["keep"])
        if keep is None:
            raise ParseError(
                stanza.lines["keep"],
                ParseErrorKind.SYNTAX,
                f"keep must be one of version/package/feature/none, got {props['keep']!r}",
            )

    misplaced = "request property {} inside a package stanza"
    _check_props(stanza, _PACKAGE_PROPS, _REQUEST_PROPS, misplaced, warn)
    return PackageDesc(PackageId(name, version), **formulas, installed=installed, keep=keep)


def _request_from_stanza(stanza: _Stanza, warn: WarnSink | None) -> Request:
    parts = _formulas(stanza, ("install", "remove", "upgrade"))
    misplaced = "package property {} inside the request stanza"
    _check_props(stanza, _REQUEST_PROPS, _PACKAGE_PROPS, misplaced, warn)
    return Request(**parts)


def parse_document(text: str, warn: WarnSink | None = None) -> CudfDocument:
    """Parse CUDF text into a document.

    Unknown properties are reported through ``warn`` and skipped;
    anything structurally wrong raises :class:`ParseError`.
    """
    packages: list[PackageDesc] = []
    seen: dict[PackageId, int] = {}
    request: Request | None = None
    for stanza in _split_stanzas(text):
        opener = next(iter(stanza.props))
        if opener == "preamble":
            continue
        if opener == "package":
            desc = _package_from_stanza(stanza, warn)
            if desc.id in seen:
                raise ParseError(
                    stanza.line,
                    ParseErrorKind.SYNTAX,
                    f"duplicate package {desc.id} (first at line {seen[desc.id]})",
                )
            seen[desc.id] = stanza.line
            packages.append(desc)
        elif opener == "request":
            if request is not None:
                raise ParseError(
                    stanza.line, ParseErrorKind.SYNTAX, "more than one request stanza"
                )
            request = _request_from_stanza(stanza, warn)
        else:
            raise ParseError(
                stanza.line,
                ParseErrorKind.SYNTAX,
                f"stanza must start with package:, request: or preamble:, got {opener!r}",
            )
    # every check of model.make_document has already been made above
    return CudfDocument(tuple(packages), request if request is not None else Request())


def render_formula(formula: Formula) -> str:
    """Render a formula in canonical spacing.

    A formula containing the unsatisfiable marker clause collapses to
    ``false!`` — the conjunction is false either way.
    """
    if not formula.clauses:
        return "true!"
    if model.false_clause() in formula.clauses:
        return "false!"
    return str(formula)


def render_document(doc: CudfDocument) -> str:
    """Serialize a document so that parsing it back yields ``doc``."""
    stanzas: list[str] = []
    for desc in doc.packages:
        lines = [f"package: {desc.name}", f"version: {desc.version}"]
        for prop in ("depends", "conflicts", "provides", "recommends"):
            formula: Formula = getattr(desc, prop)
            if formula.clauses:
                lines.append(f"{prop}: {render_formula(formula)}")
        if desc.installed:
            lines.append("installed: true")
        if desc.keep is not None:
            lines.append(f"keep: {desc.keep.value}")
        stanzas.append("\n".join(lines))
    lines = ["request: "]
    for prop in ("install", "remove", "upgrade"):
        formula = getattr(doc.request, prop)
        if formula.clauses:
            lines.append(f"{prop}: {render_formula(formula)}")
    stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + "\n"


def render_solution(installed: Iterable[PackageId]) -> str:
    """Serialize a follow-up installation as CUDF package stanzas."""
    stanzas = [
        f"package: {pid.name}\nversion: {pid.version}\ninstalled: true"
        for pid in sorted(installed)
    ]
    if not stanzas:
        return ""
    return "\n\n".join(stanzas) + "\n"
