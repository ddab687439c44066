import random

import pytest

from cudfsolve import (
    Clause,
    Constraint,
    Criterion,
    DocIndex,
    PackageDesc,
    PackageId,
    RelOp,
    Request,
    UnknownName,
    VersionBound,
    compute_sets,
    effective_request,
    evaluate,
    generate_instance,
    make_document,
    parse_criteria,
    parse_document,
    parse_formula,
    validate_solution,
)
from cudfsolve import semantics
from cudfsolve.semantics import (
    ConflictViolated,
    OutPackageInstalled,
    UnsatisfiedDependency,
    UnsatisfiedRequest,
    UpgradeMultiVersion,
    bound_satisfiable,
)

PARANOID = parse_criteria("paranoid")


def pid(name, version):
    return PackageId(name, version)


def desc(name, version, **kwargs):
    return PackageDesc(id=PackageId(name, version), **kwargs)


# ---------------------------------------------------------------- provides


def index_of(*descs):
    return DocIndex(make_document(descs))


def test_provide_includes_the_package_itself():
    index = index_of(desc("a", 2))
    assert index.touching == {"a": {pid("a", 2): (2,)}}


def test_provide_with_pinned_and_open_features():
    feat = pid("feat", 1)
    index = index_of(desc("feat", 1, provides=parse_formula("conf = 3, conf = 1, lib")))
    assert index.touching == {
        "feat": {feat: (1,)},
        "conf": {feat: (1, 3)},
        "lib": {feat: None},
    }


def _serves(index, atom):
    return index.providers(Clause((atom,))) != []


def test_provide_set_matching():
    index = index_of(desc("feat", 1, provides=parse_formula("conf = 3, lib")))
    assert _serves(index, Constraint("conf"))
    assert _serves(index, Constraint("conf", VersionBound(RelOp.GE, 3)))
    assert not _serves(index, Constraint("conf", VersionBound(RelOp.LT, 3)))
    assert _serves(index, Constraint("lib", VersionBound(RelOp.GT, 99)))
    assert not _serves(index, Constraint("nothere"))


def test_all_versions_swallows_exact_ones():
    index = index_of(
        desc("a", 1, provides=parse_formula("v = 2")),
        desc("b", 1, provides=parse_formula("v = 2, v")),
        desc("c", 1, provides=parse_formula("v, v = 3")),
    )
    assert index.touching["v"] == {pid("a", 1): (2,), pid("b", 1): None, pid("c", 1): None}
    five = Clause((Constraint("v", VersionBound(RelOp.EQ, 5)),))
    assert index.providers(five) == [pid("b", 1), pid("c", 1)]
    two = Clause((Constraint("v", VersionBound(RelOp.EQ, 2)),))
    assert index.providers(two) == [pid("a", 1), pid("b", 1), pid("c", 1)]


def test_open_provides_cannot_meet_an_unsatisfiable_bound():
    index = index_of(desc("a", 1, provides=parse_formula("v")))
    never = Constraint("v", VersionBound(RelOp.LT, 1))
    assert index.providers(Clause((never,))) == []


@pytest.mark.parametrize(
    "op,value,expected",
    [
        (RelOp.LT, 1, False),
        (RelOp.LT, 2, True),
        (RelOp.LE, 1, True),
        (RelOp.EQ, 1, True),
        (RelOp.NEQ, 1, True),
        (RelOp.GT, 10**9, True),
    ],
)
def test_bound_satisfiable(op, value, expected):
    assert bound_satisfiable(VersionBound(op, value)) is expected
    assert bound_satisfiable(None) is True


# ---------------------------------------------------------------- index


def test_index_providers_are_sorted_and_deduplicated(scenario_index):
    clause = parse_formula("conf < 3").clauses[0]
    assert scenario_index.providers(clause) == [pid("conf", 1), pid("conf", 2)]
    allowed = frozenset({pid("conf", 2)})
    assert scenario_index.providers(clause, allowed) == [pid("conf", 2)]


def _stanza_serves(d, atom):
    """Whether stanza ``d`` serves ``atom``, read off its own fields."""
    bound = atom.bound
    if d.name == atom.name and (bound is None or bound.op.holds(d.version, bound.value)):
        return True
    for provide in d.provides.clauses:
        target = provide.atoms[0]
        if target.name != atom.name:
            continue
        if target.bound is None:  # every version
            if bound_satisfiable(bound):
                return True
        elif bound is None or bound.op.holds(target.bound.value, bound.value):
            return True
    return False


def _scanned_providers(doc, clause, allowed):
    return sorted(
        d.id for d in doc if d.id in allowed and any(_stanza_serves(d, a) for a in clause.atoms)
    )


def test_index_providers_match_a_plain_scan(upgrade_heavy_docs):
    # the touching table must find exactly what a scan of the stanzas finds
    rng = random.Random(7)
    docs = [
        generate_instance(seed, packages=40, upgrade_requests=2, remove_requests=1)
        for seed in range(30)
    ]
    checked = 0
    for doc in docs + upgrade_heavy_docs:
        index = DocIndex(doc)
        universe = doc.universe()
        subset = frozenset(p for p in universe if rng.random() < 0.5)
        request = index.effective
        clauses = [
            clause
            for formula in (request.install, request.remove, request.upgrade)
            for clause in formula.clauses
        ]
        for d in doc:
            for formula in (d.depends, d.conflicts, d.recommends):
                clauses.extend(formula.clauses)
        for clause in clauses:
            assert index.providers(clause) == _scanned_providers(doc, clause, universe)
            assert index.providers(clause, subset) == _scanned_providers(doc, clause, subset)
            checked += 1
    assert checked > 1000


def test_touching_lists_providers_in_document_order(upgrade_heavy_docs):
    index = index_of(
        desc("b", 2),
        desc("a", 1, provides=parse_formula("b = 5")),
        desc("b", 1),
        desc("c", 1, provides=parse_formula("b")),
    )
    assert list(index.touching["b"]) == [pid("b", 2), pid("a", 1), pid("b", 1), pid("c", 1)]
    for doc in upgrade_heavy_docs:
        index = DocIndex(doc)
        for name, provided in index.touching.items():
            assert list(provided) == [d.id for d in doc if _stanza_serves(d, Constraint(name))]


def test_index_umax(scenario_index):
    assert scenario_index.umax == {
        "inst": 3,
        "conf": 2,
        "feat": 1,
        "dep": 3,
        "recomm": 1,
        "option": 1,
        "avail": 1,
    }


def test_index_upgrades(scenario_index):
    [(clause, highest)] = scenario_index.upgrades
    assert str(clause) == "conf > 1"
    assert highest == {"conf": 1}


def test_index_upgrade_targets_and_installed_maxima():
    doc = parse_document(
        "package: a\nversion: 1\nprovides: v\ninstalled: true\n\n"
        "package: b\nversion: 2\nprovides: w = 3, w = 1\ninstalled: true\n\n"
        "package: c\nversion: 1\nprovides: w = 7\n\n"
        "package: y\nversion: 4\n\n"
        "request: \nupgrade: v | w | x < 1 | v >= 2 | y\n"
    )
    [(clause, highest)] = DocIndex(doc).upgrades
    assert clause == doc.request.upgrade.clauses[0]
    # an open provider counts as every version at once; a name nothing
    # installed provides maps to None; x < 1 names nothing; v comes once
    assert list(highest.items()) == [("v", float("inf")), ("w", 3), ("y", None)]


def _scanned_upgrades(doc):
    installed = [d for d in doc if d.installed]
    scanned = []
    for clause in effective_request(doc).upgrade.clauses:
        highest = {}
        for atom in clause.atoms:
            if not bound_satisfiable(atom.bound) or atom.name in highest:
                continue
            tops = [d.version for d in installed if d.name == atom.name]
            for d in installed:
                for provide in d.provides.clauses:
                    target = provide.atoms[0]
                    if target.name == atom.name:
                        tops.append(float("inf") if target.bound is None else target.bound.value)
            highest[atom.name] = max(tops, default=None)
        scanned.append((clause, highest))
    return scanned


def test_index_upgrades_match_a_plain_scan(upgrade_heavy_docs):
    docs = [generate_instance(seed, packages=40, upgrade_requests=2) for seed in range(30)]
    tops = []
    for doc in docs + upgrade_heavy_docs:
        upgrades = DocIndex(doc).upgrades
        assert [(c, list(h.items())) for c, h in upgrades] == [
            (c, list(h.items())) for c, h in _scanned_upgrades(doc)
        ]
        tops.extend(top for _, h in upgrades for top in h.values())
    # measured 188 names: 14 reach an open provide, 35 nothing installed
    assert len(tops) >= 150 and tops.count(float("inf")) >= 10 and tops.count(None) >= 25


# ---------------------------------------------------------------- sets


def test_compute_sets_on_the_scenario(scenario_doc):
    chosen = [pid("inst", 1), pid("dep", 1), pid("conf", 2), pid("avail", 1)]
    sets = compute_sets(scenario_doc, chosen)
    assert sets.new == {"inst"}
    assert sets.removed == set()
    assert sets.changed == {"inst", "conf"}
    assert sets.not_up_to_date == {"inst", "dep"}
    assert sets.unsat_recommends == set()


def test_removing_everything():
    doc = parse_document("package: a\nversion: 1\ninstalled: true\n\nrequest: \n")
    sets = compute_sets(doc, [])
    assert sets.removed == {"a"} and sets.changed == {"a"}
    assert sets.new == set() == sets.not_up_to_date


def test_two_versions_of_one_name_differ_from_one():
    text = (
        "package: a\nversion: 1\ninstalled: true\n\n"
        "package: a\nversion: 2\n\nrequest: \n"
    )
    doc = parse_document(text)
    sets = compute_sets(doc, [pid("a", 1), pid("a", 2)])
    assert sets.changed == {"a"}  # {1} became {1, 2}
    assert sets.not_up_to_date == set()


def test_unsat_recommends_counts_clauses(scenario_doc):
    chosen = [pid("dep", 3), pid("avail", 1)]
    sets = compute_sets(scenario_doc, chosen)
    assert sets.unsat_recommends == {("dep", 3, 1)}
    satisfied = chosen + [pid("recomm", 1)]
    assert compute_sets(scenario_doc, satisfied).unsat_recommends == set()


def test_recommends_satisfied_through_provides():
    text = (
        "package: a\nversion: 1\nrecommends: v >= 2\n\n"
        "package: b\nversion: 1\nprovides: v = 2\n\n"
        "request: \n"
    )
    doc = parse_document(text)
    assert compute_sets(doc, [pid("a", 1), pid("b", 1)]).unsat_recommends == set()
    assert compute_sets(doc, [pid("a", 1)]).unsat_recommends == {("a", 1, 1)}


def test_compute_sets_rejects_foreign_packages(scenario_doc):
    with pytest.raises(UnknownName):
        compute_sets(scenario_doc, [pid("ghost", 1)])


def test_evaluate_orders_by_significance(scenario_doc):
    chosen = [pid("inst", 1), pid("dep", 1), pid("conf", 2), pid("avail", 1)]
    vector = evaluate(scenario_doc, chosen, PARANOID)
    assert [v.criterion for v in vector.values] == [
        Criterion.REMOVED,
        Criterion.CHANGED,
    ]
    assert [v.count for v in vector.values] == [0, 2]
    assert vector.key() == (0, 2)
    assert str(vector) == "-removed=0 -changed=2"


def test_plus_criteria_flip_the_comparison():
    seq = parse_criteria("+new")
    doc = parse_document(
        "package: a\nversion: 1\n\npackage: b\nversion: 1\n\nrequest: \n"
    )
    small = evaluate(doc, [pid("a", 1)], seq)
    large = evaluate(doc, [pid("a", 1), pid("b", 1)], seq)
    assert large.key() < small.key()


# ---------------------------------------------------------------- validity


def test_valid_solution_passes(scenario_doc):
    chosen = [pid("inst", 1), pid("dep", 1), pid("conf", 2), pid("avail", 1)]
    report = validate_solution(scenario_doc, chosen)
    assert report.ok and report.violations == ()


def test_empty_selection_misses_the_request(scenario_doc):
    report = validate_solution(scenario_doc, [])
    kinds = [type(v) for v in report.violations]
    assert kinds == [UnsatisfiedRequest, UnsatisfiedRequest]
    assert {v.which for v in report.violations} == {"install", "upgrade"}


def test_unsatisfied_dependency_is_reported(scenario_doc):
    report = validate_solution(
        scenario_doc, [pid("inst", 1), pid("conf", 2), pid("avail", 1)]
    )
    assert not report.ok
    needs = [v for v in report.violations if isinstance(v, UnsatisfiedDependency)]
    assert needs and needs[0].package == pid("inst", 1)


def test_conflict_violation_names_both_packages():
    text = (
        "package: a\nversion: 1\nconflicts: b\n\n"
        "package: b\nversion: 1\n\nrequest: \n"
    )
    doc = parse_document(text)
    report = validate_solution(doc, [pid("a", 1), pid("b", 1)])
    assert ConflictViolated(pid("a", 1), pid("b", 1)) in report.violations


def test_conflict_with_own_name_spares_itself():
    # `dep` version 3 conflicts with every other dep but not with itself
    doc = parse_document(
        "package: dep\nversion: 3\nconflicts: dep\n\nrequest: \n"
    )
    assert validate_solution(doc, [pid("dep", 3)]).ok


def test_remove_request_bans_matching_packages():
    text = (
        "package: a\nversion: 1\ninstalled: true\n\n"
        "package: b\nversion: 1\n\n"
        "request: \nremove: a\n"
    )
    doc = parse_document(text)
    report = validate_solution(doc, [pid("a", 1), pid("b", 1)])
    bans = [v for v in report.violations if isinstance(v, OutPackageInstalled)]
    assert len(bans) == 1 and bans[0].package == pid("a", 1)
    assert validate_solution(doc, [pid("b", 1)]).ok


def test_upgrade_forbids_two_available_versions(scenario_doc):
    chosen = [
        pid("inst", 1),
        pid("dep", 1),
        pid("conf", 2),
        pid("feat", 1),  # provides conf = 3 next to conf = 2
        pid("avail", 1),
    ]
    report = validate_solution(scenario_doc, chosen)
    assert UpgradeMultiVersion("conf") in report.violations


def test_upgrade_forbids_downgrades():
    text = (
        "package: a\nversion: 1\n\n"
        "package: a\nversion: 2\ninstalled: true\n\n"
        "request: \nupgrade: a\n"
    )
    doc = parse_document(text)
    report = validate_solution(doc, [pid("a", 1)])
    downs = [v for v in report.violations if isinstance(v, OutPackageInstalled)]
    assert downs and "downgrades" in downs[0].reason
    assert validate_solution(doc, [pid("a", 2)]).ok


def test_upgrade_clause_must_be_served(scenario_doc):
    # inst alone leaves `upgrade: conf > 1` without a provider
    report = validate_solution(
        scenario_doc, [pid("inst", 1), pid("dep", 1), pid("avail", 1)]
    )
    assert UnsatisfiedRequest("upgrade", parse_formula("conf > 1").clauses[0]) in report.violations


def test_validate_rejects_unknown_packages(scenario_doc):
    with pytest.raises(UnknownName):
        validate_solution(scenario_doc, [pid("ghost", 9)])


def test_violations_are_deduplicated():
    text = (
        "package: a\nversion: 1\nconflicts: b, b\n\n"
        "package: b\nversion: 1\n\nrequest: \n"
    )
    doc = parse_document(text)
    report = validate_solution(doc, [pid("a", 1), pid("b", 1)])
    assert len(report.violations) == len(set(report.violations))


def test_violations_come_pid_then_clause_then_atom_then_other():
    text = (
        "package: a\nversion: 1\ndepends: ghost\nconflicts: y | x, b\n\n"
        "package: b\nversion: 1\nprovides: v\nconflicts: a\n\n"
        "package: v\nversion: 1\n\n"
        "package: x\nversion: 1\n\n"
        "package: y\nversion: 1\nprovides: v = 2\n\n"
        "request: \ninstall: ghost\nremove: v\n"
    )
    doc = parse_document(text)
    chosen = [pid(n, 1) for n in ("y", "x", "v", "b", "a")]
    clause = {c: parse_formula(c).clauses[0] for c in ("ghost", "v")}
    assert validate_solution(doc, chosen).violations == (
        UnsatisfiedRequest("install", clause["ghost"]),
        OutPackageInstalled(pid("b", 1), "matches the remove request 'v'"),
        OutPackageInstalled(pid("v", 1), "matches the remove request 'v'"),
        OutPackageInstalled(pid("y", 1), "matches the remove request 'v'"),
        UnsatisfiedDependency(pid("a", 1), clause["ghost"]),
        ConflictViolated(pid("a", 1), pid("y", 1)),
        ConflictViolated(pid("a", 1), pid("x", 1)),
        ConflictViolated(pid("a", 1), pid("b", 1)),
        ConflictViolated(pid("b", 1), pid("a", 1)),
    )


def test_validation_is_linear_in_the_selection(monkeypatch):
    # a referee that scans the selection for every clause makes tens of
    # thousands of atom checks on a few hundred installed packages
    doc = generate_instance(0, packages=400, installed_fraction=1.0, conflicts_density=0.3)
    chosen = doc.installed_ids()
    calls = 0
    meets = semantics._meets

    def counted(bound, versions):
        nonlocal calls
        calls += 1
        return meets(bound, versions)

    monkeypatch.setattr(semantics, "_meets", counted)
    validate_solution(doc, chosen)
    assert calls < 10 * len(chosen), (calls, len(chosen))
