import random

import pytest

from cudfsolve import (
    Clause,
    Constraint,
    Keep,
    PackageId,
    ParseError,
    ParseErrorKind,
    RelOp,
    VersionBound,
    generate_instance,
    make_document,
    parse_document,
    parse_formula,
    parser,
    render_document,
    render_formula,
    render_solution,
)
from cudfsolve.model import MAX_VERSION, TRUE_FORMULA, Formula, false_formula


def test_parse_minimal_document(scenario_doc):
    assert len(scenario_doc.packages) == 12
    inst3 = scenario_doc.packages[0]
    assert inst3.id == PackageId("inst", 3)
    assert str(inst3.conflicts) == "conf < 3"
    assert scenario_doc.request.install.clauses == (Clause((Constraint("inst"),)),)


def test_document_order_is_preserved():
    doc = parse_document(
        "package: b\nversion: 2\n\npackage: a\nversion: 9\n\nrequest: today\n"
    )
    assert [p.id for p in doc.packages] == [PackageId("b", 2), PackageId("a", 9)]


def test_request_stanza_value_is_ignored():
    doc = parse_document("request: \n")
    assert doc.request.install is TRUE_FORMULA
    assert doc.packages == ()


def test_continuation_lines_extend_the_previous_value():
    text = (
        "package: a\n"
        "version: 1\n"
        "depends: b ,\n"
        "  c |\n"
        "\td >= 2\n"
        "\nrequest: \n"
    )
    doc = parse_document(text)
    assert doc.packages[0].depends == parse_formula("b, c | d >= 2")


def test_true_and_false_formulas():
    text = "package: a\nversion: 1\ndepends: true!\nconflicts: false!\n\nrequest: \n"
    doc = parse_document(text)
    assert doc.packages[0].depends is TRUE_FORMULA
    assert doc.packages[0].conflicts == false_formula()


@pytest.mark.parametrize(
    "text,op",
    [
        ("a = 2", RelOp.EQ),
        ("a != 2", RelOp.NEQ),
        ("a < 2", RelOp.LT),
        ("a <= 2", RelOp.LE),
        ("a > 2", RelOp.GT),
        ("a >= 2", RelOp.GE),
    ],
)
def test_every_operator_parses(text, op):
    (clause,) = parse_formula(text).clauses
    assert clause.atoms == (Constraint("a", VersionBound(op, 2)),)


def test_whitespace_around_operators_is_optional():
    assert parse_formula("a>=2") == parse_formula("a >= 2")
    assert parse_formula("a|b,c") == parse_formula("a | b , c")


def err(text):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    return info.value


def test_missing_version_is_an_error():
    e = err("package: a\n")
    assert e.kind is ParseErrorKind.BAD_VERSION
    assert "a" in e.message


def test_error_carries_the_line_number():
    e = err("package: a\nversion: 1\n\npackage: b\nversion: nope\n")
    assert e.line == 5
    assert e.kind is ParseErrorKind.BAD_VERSION


@pytest.mark.parametrize("version", ["0", "-1", "1.2", "", "99999999999999999999999"])
def test_bad_versions(version):
    e = err(f"package: a\nversion: {version}\n")
    assert e.kind is ParseErrorKind.BAD_VERSION


def test_unknown_operator():
    e = err("package: a\nversion: 1\ndepends: b == 2\n")
    assert e.kind is ParseErrorKind.BAD_OPERATOR


def test_duplicate_property():
    e = err("package: a\nversion: 1\nversion: 2\n")
    assert e.kind is ParseErrorKind.DUPLICATE_PROPERTY
    assert e.line == 3


def test_request_property_inside_package_stanza():
    e = err("package: a\nversion: 1\ninstall: b\n")
    assert e.kind is ParseErrorKind.UNKNOWN_PROPERTY


def test_package_property_inside_request_stanza():
    e = err("request: \ndepends: b\n")
    assert e.kind is ParseErrorKind.UNKNOWN_PROPERTY


_PKG = "package: a\nversion: 1\n"

# One input per ParseError the parser can raise, with its exact text:
# a rewrite of the scanner must keep every message, kind and line.
_ERRORS = [
    ("package: a\nversion: x1\n", "BAD_VERSION", 2, "bad version 'x1'"),
    (
        "package: a\nversion: 123456789012345678901\n",
        "BAD_VERSION",
        2,
        "version too large: 123456789012345678901",
    ),
    ("package: a\nversion: 0\n", "BAD_VERSION", 2, "version out of range: 0"),
    (_PKG + "depends: b | >= 2\n", "SYNTAX", 3, "expected a package name in ' >= 2'"),
    (_PKG + "depends: b c\n", "SYNTAX", 3, "unexpected 'c' after 'b'"),
    (_PKG + "conflicts: b == 2\n", "BAD_OPERATOR", 3, "unknown operator '=='"),
    (_PKG + "depends: b >= x\n", "BAD_VERSION", 3, "expected a version after '>='"),
    (_PKG + "depends: b >= 2 3\n", "SYNTAX", 3, "trailing input '3' in atom"),
    (_PKG + "depends: b,,c\n", "SYNTAX", 3, "empty clause in formula"),
    (_PKG + "recommends: b||c\n", "SYNTAX", 3, "empty atom in clause"),
    ("  depends: b\n", "SYNTAX", 1, "continuation line without a property"),
    (_PKG + "depends b\n", "SYNTAX", 3, "expected 'property: value', got 'depends b'"),
    (_PKG + "version: 2\n", "DUPLICATE_PROPERTY", 3, "property 'version' repeated"),
    ("package: a b\nversion: 1\n", "SYNTAX", 1, "bad package name 'a b'"),
    ("\npackage: a\n", "BAD_VERSION", 2, "package 'a' has no version"),
    (
        _PKG + "provides: b >= 2\n",
        "SYNTAX",
        3,
        "provides entries must be plain names or 'name = version'",
    ),
    (_PKG + "installed: yes\n", "SYNTAX", 3, "installed must be true or false, got 'yes'"),
    (
        _PKG + "keep: forever\n",
        "SYNTAX",
        3,
        "keep must be one of version/package/feature/none, got 'forever'",
    ),
    (
        _PKG + "install: b\n",
        "UNKNOWN_PROPERTY",
        3,
        "request property 'install' inside a package stanza",
    ),
    (
        "request: \nupgrade: a\ndepends: b\n",
        "UNKNOWN_PROPERTY",
        3,
        "package property 'depends' inside the request stanza",
    ),
    (_PKG + "\n" + _PKG, "SYNTAX", 4, "duplicate package a=1 (first at line 1)"),
    ("request: \n\nrequest: \n", "SYNTAX", 3, "more than one request stanza"),
    (
        "version: 1\npackage: a\n",
        "SYNTAX",
        1,
        "stanza must start with package:, request: or preamble:, got 'version'",
    ),
]


@pytest.mark.parametrize("text,kind,line,message", _ERRORS)
def test_error_text_is_pinned(text, kind, line, message):
    e = err(text)
    assert (e.kind, e.line, e.message) == (ParseErrorKind[kind], line, message)
    assert str(e) == f"line {line}: {e.kind.value}: {message}"


def test_unknown_properties_warn_but_parse(scenario_text):
    warnings = []
    text = "package: a\nversion: 1\nbugs: none\n\nrequest: \n"
    doc = parse_document(text, warn=warnings.append)
    assert len(doc.packages) == 1
    assert warnings == ["line 3: unknown property 'bugs' ignored"]
    warnings.clear()
    parse_document("request: \nx-when: now\ninstall: a\n", warn=warnings.append)
    assert warnings == ["line 2: unknown property 'x-when' ignored"]


def test_duplicate_package_stanza_mentions_both_lines():
    e = err("package: a\nversion: 1\n\npackage: a\nversion: 1\n")
    assert "line 1" in e.message
    assert e.line == 4


def test_two_request_stanzas():
    e = err("request: \n\nrequest: \n")
    assert "request" in e.message


def test_stanza_must_open_with_a_known_kind():
    e = err("version: 1\npackage: a\n")
    assert e.kind is ParseErrorKind.SYNTAX


def test_continuation_without_a_property():
    e = err("  depends: b\n")
    assert e.line == 1


def test_preamble_stanza_is_skipped():
    doc = parse_document("preamble: \nproperty: extra\n\nrequest: \n")
    assert doc.packages == ()


def test_bad_installed_and_keep_values():
    assert err("package: a\nversion: 1\ninstalled: yes\n").line == 3
    assert err("package: a\nversion: 1\nkeep: forever\n").line == 3


def test_keep_values_parse():
    text = "package: a\nversion: 1\ninstalled: true\nkeep: feature\n\nrequest: \n"
    assert parse_document(text).packages[0].keep is Keep.FEATURE


def test_render_formula_special_cases():
    assert render_formula(TRUE_FORMULA) == "true!"
    assert render_formula(false_formula()) == "false!"
    assert render_formula(parse_formula("a >= 2 | b, c")) == "a >= 2 | b, c"


def test_render_parse_round_trip(scenario_doc):
    assert parse_document(render_document(scenario_doc)) == scenario_doc


def test_round_trip_on_generated_instances():
    for seed in range(30):
        doc = generate_instance(
            seed,
            packages=12 + seed % 9,
            installed_fraction=0.5,
            remove_requests=seed % 2,
        )
        again = parse_document(render_document(doc))
        assert again == doc, f"seed {seed} did not survive the round trip"


def test_render_solution_is_sorted_and_parseable():
    text = render_solution([PackageId("b", 1), PackageId("a", 2)])
    assert text.index("package: a") < text.index("package: b")
    doc = parse_document(text)
    assert doc.installed_ids() == {PackageId("a", 2), PackageId("b", 1)}
    assert render_solution([]) == ""


def test_parser_is_total_on_junk_bytes():
    # any input must either parse or raise ParseError — nothing else
    rng = random.Random(4242)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        try:
            parse_document(blob.decode("latin-1"))
        except ParseError:
            pass


# Token pools for the structured fuzz below: tokens the parser accepts,
# then ones it rejects (drawn rarely, so that most inputs still parse).
_NAMES = (("a", "b", "b2", "lib.so", "g++", "-", "A", "1"), ("", "a b", "é", "!"))
_VERSIONS = (("1", "2", "07", "4294967295"), ("0", "18446744073709551616", "x", "-1"))
_OPS = (("=", "!=", ">=", ">", "<=", "<"), ("=>", "", "==", "<>"))
_PROVIDE_OPS = (("=",), (">=", "|"))
_FLAGS = (("true", "false"), ("yes", "", "True"))
_KEEPS = (("version", "package", "feature", "none"), ("all", ""))
_ODD_FORMULAS = ("true!", "false!", ",", "|", "a |", ", b", "")
_PROPS = ("depends", "conflicts", "provides", "recommends", "installed", "keep", "x-extra")


def _pick(rng, pool):
    good, bad = pool
    return rng.choice(bad if rng.random() < 0.03 else good)


def _fuzz_formula(rng):
    if rng.random() < 0.1:
        return rng.choice(_ODD_FORMULAS)
    clauses = []
    for _ in range(1 + rng.randrange(3)):
        atoms = []
        for _ in range(1 + rng.randrange(2)):
            atom = _pick(rng, _NAMES)
            if rng.random() < 0.5:
                atom += f" {_pick(rng, _OPS)} {_pick(rng, _VERSIONS)}"
            atoms.append(atom)
        clauses.append(" | ".join(atoms))
    return ", ".join(clauses)


def _fuzz_provides(rng):
    entries = []
    for _ in range(1 + rng.randrange(2)):
        entry = _pick(rng, _NAMES)
        if rng.random() < 0.5:
            entry += f" {_pick(rng, _PROVIDE_OPS)} {_pick(rng, _VERSIONS)}"
        entries.append(entry)
    return ", ".join(entries)


def _fuzz_document(rng):
    """CUDF-shaped text built from near-valid tokens."""
    stanzas = []
    for _ in range(rng.randrange(4)):
        lines = [f"package: {_pick(rng, _NAMES)}", f"version: {_pick(rng, _VERSIONS)}"]
        for prop in rng.sample(_PROPS, rng.randrange(4)):
            if prop == "installed":
                value = _pick(rng, _FLAGS)
            elif prop == "keep":
                value = _pick(rng, _KEEPS)
            elif prop == "provides":
                value = _fuzz_provides(rng)
            else:
                value = _fuzz_formula(rng)
            lines.append(f"{prop}: {value}")
        stanzas.append("\n".join(lines))
    if rng.random() < 0.8:
        lines = ["request: "]
        for prop in rng.sample(("install", "remove", "upgrade"), rng.randrange(4)):
            lines.append(f"{prop}: {_fuzz_formula(rng)}")
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + "\n"


def test_parsed_documents_pass_make_document_unchanged():
    # the parser builds documents without make_document, so every check
    # make_document makes must already hold for what the parser accepts
    for seed in range(1000):
        doc = parse_document(
            render_document(
                generate_instance(
                    seed,
                    packages=5 + seed % 30,
                    max_versions=1 + seed % 4,
                    installed_fraction=(seed % 5) / 4,
                    remove_requests=seed % 2,
                )
            )
        )
        assert make_document(doc.packages, doc.request) == doc, f"seed {seed}"

    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(3000):
        try:
            doc = parse_document(_fuzz_document(rng))
        except ParseError:
            rejected += 1
            continue
        accepted += 1
        assert make_document(doc.packages, doc.request) == doc
    assert accepted > 1000 and rejected > 500


# Values the up-front check must pass to parse_formula at once: every
# one it accepts is built later, where no error can be reported.
_EIGHTEEN, _NINETEEN, _TWENTY = "9" * 18, "1" + "0" * 18, "1" + "0" * 19
_CHECK_CASES = [
    ("a", True),
    ("a >= 2 | b, c", True),
    ("lib.so!=3|g++<1,-", True),
    (f"a = {_EIGHTEEN}", True),
    ("a = 07", False),
    (f"a = {_NINETEEN}", False),
    (f"a = {_TWENTY}", False),
    ("a = 1" + "0" * 20, False),
    (f"a < {MAX_VERSION}", False),
    (f"a < {MAX_VERSION + 1}", False),
    ("a\xa0|\u2003b", False),
    ("a ,\x0bb", False),
    ("true!", False),
    ("false!", False),
    ("a,", False),
    ("a |", False),
    ("a, b |", False),
    ("a == 2", False),
    ("a >= -1", False),
]


@pytest.mark.parametrize("value,accepted", _CHECK_CASES)
def test_up_front_check_hand_cases(value, accepted):
    assert (parser._CHECKED_RE.fullmatch(value) is not None) is accepted
    text = f"package: a\nversion: 1\ndepends: {value}\n"
    try:
        expected = parse_formula(value)
    except ParseError as error:
        assert not accepted
        got = err(text)
        assert (got.kind, got.line, got.message) == (error.kind, 3, error.message)
    else:
        assert parse_document(text).packages[0].depends == expected


def test_up_front_check_accepts_only_what_parses():
    # the fuzz formulas, with versions of every length near the limits
    # and whitespace the check leaves to parse_formula
    rng = random.Random(11)
    versions = [str(10**n) for n in range(16, 22)] + [str(MAX_VERSION), str(MAX_VERSION + 1)]
    accepted = rejected = 0
    for _ in range(6000):
        value = _fuzz_formula(rng)
        if rng.random() < 0.2:
            value = value.replace("2", rng.choice(versions))
        if rng.random() < 0.1:
            value = value.replace(" ", rng.choice(["\t", "\xa0", "\u2003", "", "  "]))
        if parser._CHECKED_RE.fullmatch(value) is None:
            rejected += 1
            continue
        accepted += 1
        eager = parse_formula(value)  # must not raise
        assert eager.clauses and Formula.deferred(value) == eager
        assert parse_formula(str(eager)) == eager
    assert accepted > 2000 and rejected > 2000
