"""Reading and writing CUDF text.

The format is line oriented: stanzas separated by blank lines, each
line a ``property: value`` pair, lines starting with whitespace
continuing the previous value.  ``parse_document`` is total — any
input either yields a document or raises :class:`ParseError`, never
anything else — which keeps it safe to point at untrusted bytes.

It checks every formula as it reads it.  A ``depends``, ``conflicts``
or ``recommends`` value that a grammar regex accepts, a subset of what
``parse_formula`` accepts, is kept as text and built on first use, so
that build cannot fail; any other value is parsed at once.
"""

from __future__ import annotations

import enum
import re
from typing import Any, Callable, Iterable, Iterator

from . import model
from .errors import CudfError
from .model import (
    Clause, Constraint, CudfDocument, Formula, Keep, PackageDesc, PackageId, Request, RelOp,
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

#: A stanza: a run of lines that are not blank.
_STANZA_RE = re.compile(r"^[^\S\n]*\S.*(?:\n[^\S\n]*\S.*)*", re.M)
#: A line and its continuation lines: the property (empty when the line
#: is not ``property: value``), then the value.
_PROPERTY_RE = re.compile(r"^(?:([A-Za-z][A-Za-z0-9-]*):)?(.*(?:\n[ \t].*)*)", re.M)
_DIGITS_RE = re.compile(r"[0-9]+")
#: name, then an optional operator run with its optional version, then the rest
_ATOM_RE = re.compile(
    rf"\s*({model.NAME_RE.pattern})\s*(?:([<>=!]+)\s*([0-9]+)?\s*)?(.*)", re.DOTALL
)
#: The up-front check: a subset of what ``parse_formula`` accepts, with
#: versions of 1-18 digits and no leading zero, so always in range.
_CHECKED_ATOM = rf"{model.NAME_RE.pattern}(?:[ \t]*(?:[<>]=?|!?=)[ \t]*[1-9][0-9]{{0,17}})?"
_CHECKED_RE = re.compile(rf"{_CHECKED_ATOM}(?:[ \t]*[,|][ \t]*{_CHECKED_ATOM})*")

_OPS = {op.value: op for op in RelOp}

_PACKAGE_PROPS = {
    "package", "version", "depends", "conflicts", "provides", "recommends", "installed", "keep"
}
_REQUEST_PROPS = {"request", "install", "remove", "upgrade"}

_KEEP_VALUES = {k.value: k for k in Keep}


def _parse_version_token(token: str) -> int:
    if _DIGITS_RE.fullmatch(token) is None:
        raise ParseError(1, ParseErrorKind.BAD_VERSION, f"bad version {token!r}")
    if len(token) > 20:
        raise ParseError(1, ParseErrorKind.BAD_VERSION, f"version too large: {token}")
    value = int(token)
    if value < 1 or value > model.MAX_VERSION:
        raise ParseError(1, ParseErrorKind.BAD_VERSION, f"version out of range: {value}")
    return value


def _parse_atom(text: str) -> Constraint:
    match = _ATOM_RE.match(text)
    if match is None:
        raise ParseError(1, ParseErrorKind.SYNTAX, f"expected a package name in {text!r}")
    name, op_token, digits, rest = match.groups()
    if op_token is None:
        if rest:
            raise ParseError(1, ParseErrorKind.SYNTAX, f"unexpected {rest!r} after {name!r}")
        return Constraint(name)
    op = _OPS.get(op_token)
    if op is None:
        raise ParseError(1, ParseErrorKind.BAD_OPERATOR, f"unknown operator {op_token!r}")
    if digits is None:
        raise ParseError(1, ParseErrorKind.BAD_VERSION, f"expected a version after {op_token!r}")
    value = _parse_version_token(digits)
    if rest:
        raise ParseError(1, ParseErrorKind.SYNTAX, f"trailing input {rest!r} in atom")
    return Constraint(name, VersionBound(op, value))


def parse_formula(text: str) -> Formula:
    """Parse a standalone formula string such as ``a >= 2 | b, c``."""
    text = text.strip()
    if text == "true!" or not text:
        return model.TRUE_FORMULA
    if text == "false!":
        return model.false_formula()
    clauses: list[Clause] = []
    for chunk in text.split(","):
        if not chunk.strip():
            raise ParseError(1, ParseErrorKind.SYNTAX, "empty clause in formula")
        atoms: list[Constraint] = []
        for part in chunk.split("|"):
            if not part.strip():
                raise ParseError(1, ParseErrorKind.SYNTAX, "empty atom in clause")
            atoms.append(_parse_atom(part))
        clauses.append(Clause(tuple(atoms)))
    return Formula(tuple(clauses))


class _Lines:
    """Line numbers of offsets in ``text``, counted on from the last one asked."""

    def __init__(self, text: str) -> None:
        self.text, self.offset, self.line = text, 0, 1

    def at(self, offset: int) -> int:
        if offset < self.offset:
            self.offset, self.line = 0, 1
        self.line += self.text.count("\n", self.offset, offset)
        self.offset = offset
        return self.line


class _Stanza:
    """A block's properties, and where it is in the text for messages."""

    __slots__ = ("lines", "start", "end", "props")

    def __init__(self, lines: _Lines, start: int, end: int, props: dict[str, str]) -> None:
        self.lines, self.start, self.end, self.props = lines, start, end, props

    def entries(self) -> Iterator[tuple[int, str | None, str]]:
        """Each line's offset, property (None: not ``property: value``) and raw value."""
        for match in _PROPERTY_RE.finditer(self.lines.text, self.start, self.end):
            yield match.start(), match[1], match[2]

    def error(self, key: str | None, kind: ParseErrorKind, message: str) -> ParseError:
        """``message`` at ``key``'s line, or at the stanza's first line for None."""
        offset = next(offset for offset, prop, _ in self.entries() if key in (None, prop))
        return ParseError(self.lines.at(offset), kind, message)


def _split_stanzas(lines: _Lines) -> Iterator[_Stanza]:
    text = lines.text
    for block in _STANZA_RE.finditer(text):
        start, end = block.start(), block.end()
        pairs = _PROPERTY_RE.findall(text, start, end)
        props = {key: _join(value) if "\n" in value else value.strip() for key, value in pairs}
        stanza = _Stanza(lines, start, end, props)
        if "" in props or len(props) < len(pairs):
            _reject_lines(stanza)
        yield stanza


def _join(value: str) -> str:
    """A value and its continuation lines, each stripped, joined by spaces."""
    return " ".join(part.strip() for part in value.split("\n")).strip()


def _reject_lines(stanza: _Stanza) -> None:
    """Raise for the first line that does not start a new property."""
    seen: set[str] = set()
    for offset, key, value in stanza.entries():
        line = stanza.lines.at(offset)
        if key is None:
            got = value.split("\n", 1)[0].rstrip("\r")
            message = f"expected 'property: value', got {got!r}"
            if got[0] in " \t":
                message = "continuation line without a property"
            raise ParseError(line, ParseErrorKind.SYNTAX, message)
        if key in seen:
            raise ParseError(line, ParseErrorKind.DUPLICATE_PROPERTY, f"property {key!r} repeated")
        seen.add(key)


def _read(stanza: _Stanza, key: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of ``key``'s value.  Value parsers see one line, so their
    errors name line 1; this names the value's line in the document."""
    try:
        return parse(stanza.props[key])
    except ParseError as error:
        raise stanza.error(key, error.kind, error.message) from None


def _formula(stanza: _Stanza, key: str, parse: Callable[[str], Formula] | None = None) -> Formula:
    """``key``'s formula, true when absent.  Without ``parse``, a value the
    up-front check accepts is built on first use, any other at once."""
    text = stanza.props.get(key)
    if text is None:
        return model.TRUE_FORMULA
    if parse is None:
        if _CHECKED_RE.fullmatch(text) is not None:
            return Formula.deferred(text)
        parse = parse_formula
    return _read(stanza, key, parse)


def _check_props(
    stanza: _Stanza, own: set[str], foreign: set[str], misplaced: str, warn: WarnSink | None
) -> None:
    """Reject a ``foreign`` key with ``misplaced`` (``{}`` is the key); warn about unknown ones."""
    for offset, key, _ in stanza.entries():
        if key in foreign:
            line = stanza.lines.at(offset)
            raise ParseError(line, ParseErrorKind.UNKNOWN_PROPERTY, misplaced.format(repr(key)))
        if key not in own and warn is not None:
            warn(f"line {stanza.lines.at(offset)}: unknown property {key!r} ignored")


def _package_from_stanza(stanza: _Stanza, warn: WarnSink | None) -> PackageDesc:
    props = stanza.props
    name = props["package"]
    if model.NAME_RE.fullmatch(name) is None:
        raise stanza.error("package", ParseErrorKind.SYNTAX, f"bad package name {name!r}")
    if "version" not in props:
        raise stanza.error(None, ParseErrorKind.BAD_VERSION, f"package {name!r} has no version")
    version = _read(stanza, "version", _parse_version_token)
    depends = _formula(stanza, "depends")
    conflicts = _formula(stanza, "conflicts")
    provides = _formula(stanza, "provides", parse_formula)
    recommends = _formula(stanza, "recommends")
    for clause in provides.clauses:
        bound = clause.atoms[0].bound
        if len(clause.atoms) != 1 or (bound is not None and bound.op is not RelOp.EQ):
            message = "provides entries must be plain names or 'name = version'"
            raise stanza.error("provides", ParseErrorKind.SYNTAX, message)
    flag = props.get("installed", "false")
    if flag not in ("true", "false"):
        message = f"installed must be true or false, got {flag!r}"
        raise stanza.error("installed", ParseErrorKind.SYNTAX, message)
    keep = _KEEP_VALUES.get(props.get("keep", ""))
    if keep is None and "keep" in props:
        message = f"keep must be one of version/package/feature/none, got {props['keep']!r}"
        raise stanza.error("keep", ParseErrorKind.SYNTAX, message)
    if not props.keys() <= _PACKAGE_PROPS:
        misplaced = "request property {} inside a package stanza"
        _check_props(stanza, _PACKAGE_PROPS, _REQUEST_PROPS, misplaced, warn)
    pid = PackageId(name, version)
    return PackageDesc(pid, depends, conflicts, provides, recommends, flag == "true", keep)


def _request_from_stanza(stanza: _Stanza, warn: WarnSink | None) -> Request:
    parts = [_formula(stanza, key, parse_formula) for key in ("install", "remove", "upgrade")]
    misplaced = "package property {} inside the request stanza"
    _check_props(stanza, _REQUEST_PROPS, _PACKAGE_PROPS, misplaced, warn)
    return Request(*parts)


def parse_document(text: str, warn: WarnSink | None = None) -> CudfDocument:
    """Parse CUDF text into a document.

    Unknown properties are reported through ``warn`` and skipped;
    anything structurally wrong raises :class:`ParseError`.  Every
    formula is checked here, so none can fail when it is built later.
    """
    packages: list[PackageDesc] = []
    seen: dict[PackageId, int] = {}  # where each package's stanza starts
    request: Request | None = None
    lines = _Lines(text)
    for stanza in _split_stanzas(lines):
        opener = next(iter(stanza.props))
        if opener == "preamble":
            continue
        if opener == "package":
            desc = _package_from_stanza(stanza, warn)
            if desc.id in seen:
                message = f"duplicate package {desc.id} (first at line {lines.at(seen[desc.id])})"
                raise stanza.error(None, ParseErrorKind.SYNTAX, message)
            seen[desc.id] = stanza.start
            packages.append(desc)
        elif opener == "request":
            if request is not None:
                raise stanza.error(None, ParseErrorKind.SYNTAX, "more than one request stanza")
            request = _request_from_stanza(stanza, warn)
        else:
            message = f"stanza must start with package:, request: or preamble:, got {opener!r}"
            raise stanza.error(None, ParseErrorKind.SYNTAX, message)
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
