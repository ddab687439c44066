import dataclasses
import gc
import weakref

import pytest

from cudfsolve import (
    Clause,
    Constraint,
    DuplicatePackage,
    Formula,
    InvalidProvide,
    InvalidVersion,
    Keep,
    PackageDesc,
    PackageId,
    RelOp,
    Request,
    UnknownName,
    VersionBound,
    effective_request,
    generate_instance,
    make_document,
    parse_document,
    parser,
    render_document,
)
from cudfsolve.model import MAX_VERSION, TRUE_FORMULA, false_formula


def pkg(name, version, **kwargs):
    return PackageDesc(id=PackageId(name, version), **kwargs)


def formula(*clauses):
    return Formula(tuple(Clause(tuple(atoms)) for atoms in clauses))


def test_relop_holds():
    assert RelOp.EQ.holds(2, 2) and not RelOp.EQ.holds(2, 3)
    assert RelOp.NEQ.holds(2, 3) and not RelOp.NEQ.holds(2, 2)
    assert RelOp.LT.holds(1, 2) and not RelOp.LT.holds(2, 2)
    assert RelOp.LE.holds(2, 2) and not RelOp.LE.holds(3, 2)
    assert RelOp.GT.holds(3, 2) and not RelOp.GT.holds(2, 2)
    assert RelOp.GE.holds(2, 2) and not RelOp.GE.holds(1, 2)


def test_package_id_orders_by_name_then_version():
    ids = [PackageId("b", 1), PackageId("a", 2), PackageId("a", 10)]
    assert sorted(ids) == [PackageId("a", 2), PackageId("a", 10), PackageId("b", 1)]
    assert str(PackageId("a", 2)) == "a=2"
    assert repr(PackageId("a", 2)) == "PackageId(name='a', version=2)"


def test_package_id_is_the_plain_pair():
    package = PackageId("a", 2)
    assert package == ("a", 2) and hash(package) == hash(("a", 2))
    assert package.name == "a" and package.version == 2
    assert PackageId(name="a", version=2) == package


def test_clause_requires_an_atom():
    with pytest.raises(ValueError):
        Clause(())


def test_formula_truthiness_and_str():
    assert not TRUE_FORMULA
    f = formula([Constraint("a"), Constraint("b", VersionBound(RelOp.GE, 2))])
    assert f
    assert str(f) == "a | b >= 2"
    two = formula([Constraint("a")], [Constraint("b")])
    assert str(two) == "a, b"


def test_false_formula_is_unsatisfiable_by_construction():
    f = false_formula()
    (clause,) = f.clauses
    (atom,) = clause.atoms
    # nothing can be < 1, and the name is not even parseable
    assert atom.bound == VersionBound(RelOp.LT, 1)


def test_make_document_accepts_a_plain_universe():
    doc = make_document([pkg("a", 1), pkg("a", 2), pkg("b", 1, installed=True)])
    assert doc.universe() == {PackageId("a", 1), PackageId("a", 2), PackageId("b", 1)}
    assert doc.installed_ids() == {PackageId("b", 1)}
    assert list(doc) == list(doc.packages)


def test_make_document_rejects_duplicates():
    with pytest.raises(DuplicatePackage):
        make_document([pkg("a", 1), pkg("a", 1)])


@pytest.mark.parametrize("version", [0, -3, MAX_VERSION + 1, "2", 1.5, True])
def test_make_document_rejects_bad_versions(version):
    with pytest.raises(InvalidVersion):
        make_document([PackageDesc(id=PackageId("a", version))])


def test_make_document_rejects_bad_names():
    with pytest.raises(InvalidVersion):
        make_document([pkg("sp ace", 1)])
    with pytest.raises(InvalidVersion):
        make_document([pkg("a", 1, depends=formula([Constraint("b@d")]))])


def test_make_document_checks_request_formulas():
    with pytest.raises(InvalidVersion):
        make_document([pkg("a", 1)], Request(install=formula([Constraint("a", VersionBound(RelOp.GE, 0))])))


def test_provides_must_be_single_pinned_atoms():
    disjunction = formula([Constraint("v"), Constraint("w")])
    with pytest.raises(InvalidProvide):
        make_document([pkg("a", 1, provides=disjunction)])
    ranged = formula([Constraint("v", VersionBound(RelOp.GE, 1))])
    with pytest.raises(InvalidProvide):
        make_document([pkg("a", 1, provides=ranged)])
    pinned = formula([Constraint("v", VersionBound(RelOp.EQ, 2))])
    make_document([pkg("a", 1, provides=pinned)])  # fine


def test_effective_request_without_keeps_is_the_request_itself():
    request = Request(install=formula([Constraint("a")]))
    doc = make_document([pkg("a", 1)], request)
    assert effective_request(doc) is request


def test_keep_version_pins_the_exact_pair():
    doc = make_document([pkg("a", 2, installed=True, keep=Keep.VERSION)])
    (clause,) = effective_request(doc).install.clauses
    assert clause == Clause((Constraint("a", VersionBound(RelOp.EQ, 2)),))


def test_keep_package_wants_any_version():
    doc = make_document([pkg("a", 2, installed=True, keep=Keep.PACKAGE)])
    (clause,) = effective_request(doc).install.clauses
    assert clause == Clause((Constraint("a"),))


def test_keep_feature_wants_every_provided_feature():
    provides = formula([Constraint("v", VersionBound(RelOp.EQ, 1))], [Constraint("w")])
    doc = make_document([pkg("a", 2, installed=True, keep=Keep.FEATURE, provides=provides)])
    clauses = effective_request(doc).install.clauses
    assert clauses == (
        Clause((Constraint("v", VersionBound(RelOp.EQ, 1)),)),
        Clause((Constraint("w"),)),
    )


def test_keep_only_binds_installed_packages():
    doc = make_document(
        [
            pkg("a", 1, keep=Keep.PACKAGE),  # not installed: no effect
            pkg("b", 1, installed=True, keep=Keep.NONE),
            pkg("c", 1, installed=True, keep=Keep.PACKAGE),
        ]
    )
    clauses = effective_request(doc).install.clauses
    assert clauses == (Clause((Constraint("c"),)),)


def test_keep_clauses_append_after_the_requested_installs():
    request = Request(install=formula([Constraint("x")]))
    doc = make_document(
        [pkg("x", 1), pkg("a", 1, installed=True, keep=Keep.PACKAGE)], request
    )
    effective = effective_request(doc)
    assert effective.install.clauses[0] == Clause((Constraint("x"),))
    assert len(effective.install.clauses) == 2
    # the untouched parts are shared, not copied
    assert effective.remove is request.remove
    assert effective.upgrade is request.upgrade


def test_the_cached_index_cannot_be_seen(scenario_text):
    doc = parse_document(scenario_text)
    index = doc.index
    assert doc.index is index
    # equality, hashing and repr read the fields only
    again = parse_document(render_document(doc))
    assert doc == again and hash(doc) == hash(again)
    assert repr(doc) == repr(again)
    # a replaced document gets its own index, for its own request
    replaced = dataclasses.replace(doc, request=Request())
    assert replaced.index is not index
    assert index.upgrades and not replaced.index.upgrades
    # the index holds no reference back: the document goes with its last
    # reference, so the cyclic collector never has to find it
    ref = weakref.ref(doc)
    gc.disable()
    try:
        del doc
        assert ref() is None
    finally:
        gc.enable()


def test_deferred_formulas_cannot_be_seen(monkeypatch):
    built = []
    real = parser.parse_formula
    monkeypatch.setattr(parser, "parse_formula", lambda text: built.append(text) or real(text))
    for seed in range(20):
        eager = generate_instance(seed, packages=30, recommends_density=0.5)
        text = render_document(eager)
        # hashing and comparing the parsed document builds its formulas
        assert hash(parse_document(text)) == hash(eager)
        assert parse_document(text) == eager and eager == parse_document(text)
        assert make_document(eager.packages, eager.request) == parse_document(text)
        for lazy, known in zip(parse_document(text), eager):
            for prop in ("depends", "conflicts", "recommends"):
                mine, theirs = getattr(lazy, prop), getattr(known, prop)
                before = len(built)
                assert bool(mine) == bool(theirs)  # without building
                assert len(built) == before
                assert str(mine) == str(theirs) and repr(mine) == repr(theirs)
                assert len(built) == before + bool(theirs)  # built once, on first read
                assert mine.clauses is mine.clauses and hash(mine) == hash(theirs)
    assert built
    text = "package: a\nversion: 1\ndepends: true!\nconflicts:\n\nrequest: \n"
    (desc,) = parse_document(text).packages
    assert desc.depends is TRUE_FORMULA and desc.conflicts is TRUE_FORMULA
