import re

import pytest
from conftest import _upgrade_heavy
from test_acceptance import _corpus_knobs

from cudfsolve import (
    FactSet,
    PackageId,
    SetId,
    Status,
    compute_closure,
    evaluate,
    full_scope,
    generate_facts,
    generate_instance,
    parse_criteria,
    parse_document,
    render_facts,
    solve_facts,
    validate_solution,
)

PARANOID = parse_criteria("paranoid")
TRENDY = parse_criteria("trendy")


def pid(name, version):
    return PackageId(name, version)


def sid(ordinal):
    return SetId(ordinal)


@pytest.fixture()
def scenario_facts(scenario_doc):
    closure = compute_closure(scenario_doc, PARANOID)
    return generate_facts(scenario_doc, PARANOID, closure)


def test_units_are_the_closure(scenario_doc, scenario_facts):
    closure = compute_closure(scenario_doc, PARANOID)
    assert scenario_facts.units == closure.closure
    assert len(scenario_facts.units) == 9


def test_installed_packages_are_always_listed(scenario_facts):
    # conf 1 is ruled out of the candidates, yet the objective still
    # needs to know it was installed
    assert scenario_facts.installed == {
        pid("conf", 1),
        pid("dep", 1),
        pid("avail", 1),
    }
    assert pid("conf", 1) not in scenario_facts.units


def test_newest_versions_cover_candidate_names_only(scenario_facts):
    assert scenario_facts.newest == {
        "inst": 3,
        "conf": 2,
        "feat": 1,
        "dep": 3,
        "avail": 1,
    }


def test_depends_facts(scenario_facts):
    assert scenario_facts.depends == (
        (pid("inst", 2), sid(1)),
        (pid("inst", 1), sid(2)),
    )
    assert scenario_facts.members[sid(1)] == {pid("dep", 1)}
    assert scenario_facts.members[sid(2)] == {
        pid("dep", 1),
        pid("dep", 2),
        pid("dep", 3),
    }


def test_conflict_facts_reuse_interned_sets(scenario_facts):
    conflicts = dict(scenario_facts.conflicts)
    # declared conflicts
    assert conflicts[pid("inst", 3)] == sid(3)
    assert conflicts[pid("dep", 3)] == sid(4)
    assert conflicts[pid("dep", 2)] == sid(1)  # same set as inst 2's depends
    # upgrade rivalry: conf 2 and feat 1 provide different versions of
    # the upgraded name, so each blocks the other
    assert conflicts[pid("conf", 2)] == sid(5)
    assert conflicts[pid("feat", 1)] == sid(3)  # {conf 2} again
    assert scenario_facts.members[sid(3)] == {pid("conf", 2)}
    assert scenario_facts.members[sid(4)] == {pid("dep", 1), pid("dep", 2)}
    assert scenario_facts.members[sid(5)] == {pid("feat", 1)}


def test_request_facts(scenario_facts):
    assert scenario_facts.requests == (sid(6), sid(7))
    assert scenario_facts.members[sid(6)] == {
        pid("inst", 1),
        pid("inst", 2),
        pid("inst", 3),
    }
    assert scenario_facts.members[sid(7)] == {pid("conf", 2), pid("feat", 1)}


def test_satisfies_enumerates_every_referenced_set(scenario_facts):
    assert len(scenario_facts.satisfies) == 13
    by_set = {}
    for member, set_id in scenario_facts.satisfies:
        by_set.setdefault(set_id, set()).add(member)
    assert by_set == {
        s: members for s, members in scenario_facts.members.items() if s in by_set
    }
    assert set(by_set) == {sid(i) for i in range(1, 8)}


@pytest.mark.parametrize("text", ["paranoid", "trendy", "-changed,+removed,-unsat_recommends"])
def test_every_interned_set_is_referenced_by_a_fact(upgrade_heavy_docs, text):
    criteria = parse_criteria(text)
    docs = upgrade_heavy_docs + [
        generate_instance(seed, packages=30, upgrade_requests=2, remove_requests=1)
        for seed in range(20)
    ]
    compiled = 0
    for doc in docs:
        for scope in (compute_closure(doc, criteria), full_scope(doc)):
            if not scope.feasible:
                continue
            facts = generate_facts(doc, criteria, scope)
            referenced = (
                {s for _, s in facts.depends}
                | {s for _, s, _ in facts.recommends}
                | {s for _, s in facts.conflicts}
                | set(facts.requests)
            )
            assert referenced == set(facts.members)
            compiled += 1
    assert compiled > 40


def test_criterion_facts_number_positions_from_least_significant(scenario_facts):
    assert scenario_facts.criteria == (("change", -1), ("remove", -2))


def test_trendy_criterion_facts(scenario_doc):
    closure = compute_closure(scenario_doc, TRENDY)
    facts = generate_facts(scenario_doc, TRENDY, closure)
    assert facts.criteria == (
        ("newpackage", -1),
        ("recommend", -2),
        ("uptodate", -3),
        ("remove", -4),
    )


def test_recommends_facts_only_exist_when_ranked(scenario_doc):
    paranoid = generate_facts(
        scenario_doc, PARANOID, compute_closure(scenario_doc, PARANOID)
    )
    assert paranoid.recommends == ()
    trendy = generate_facts(scenario_doc, TRENDY, compute_closure(scenario_doc, TRENDY))
    assert len(trendy.recommends) == 1
    owner, set_id, weight = trendy.recommends[0]
    assert owner == pid("dep", 3) and weight == 1
    assert trendy.members[set_id] == {pid("recomm", 1)}


def test_equal_recommendation_clauses_merge_with_multiplicity():
    text = (
        "package: a\nversion: 1\nrecommends: b, b | b >= 1, c\n\n"
        "package: b\nversion: 1\n\n"
        "package: c\nversion: 1\n\n"
        "request: \n"
    )
    doc = parse_document(text)
    criteria = parse_criteria("-unsat_recommends")
    facts = generate_facts(doc, criteria, full_scope(doc))
    weights = {
        frozenset(facts.members[set_id]): weight
        for _, set_id, weight in facts.recommends
    }
    assert weights == {
        frozenset({pid("b", 1)}): 2,  # `b` and `b | b >= 1` hit the same set
        frozenset({pid("c", 1)}): 1,
    }


def test_infeasible_closure_generates_an_empty_request():
    # as aspcud encodes it: a request over the empty set, which no
    # selection satisfies
    doc = parse_document("package: a\nversion: 1\n\nrequest: \ninstall: ghost\n")
    closure = compute_closure(doc, PARANOID)
    assert not closure.feasible
    facts = generate_facts(doc, PARANOID, closure)
    lines = render_facts(facts).splitlines()
    assert "request(s1)." in lines
    assert not [line for line in lines if line.startswith("satisfies(")]
    assert solve_facts(facts) == (Status.UNSATISFIABLE, None)


def test_facts_shrink_with_the_closure(scenario_doc):
    narrow = generate_facts(scenario_doc, PARANOID, compute_closure(scenario_doc, PARANOID))
    wide = generate_facts(scenario_doc, PARANOID, full_scope(scenario_doc))
    assert narrow.units < wide.units
    assert pid("option", 1) in wide.units


def test_rendered_facts_are_line_oriented_and_sorted(scenario_facts):
    text = render_facts(scenario_facts)
    lines = text.splitlines()
    assert lines[0] == "unit(avail,1)."
    assert all(line.endswith(".") for line in lines)
    kinds = [line.split("(")[0] for line in lines]
    expected = ["unit", "installed", "newestversion", "depends", "conflict",
                "request", "satisfies", "criterion"]
    assert [k for k in expected if k in kinds] == expected
    # stable kind grouping: units first, criteria last
    assert kinds == sorted(kinds, key=expected.index)


def test_awkward_names_are_quoted():
    for name in ("libstdc++6", "not"):  # `not` is a gringo keyword
        doc = parse_document(f"package: {name}\nversion: 1\n\nrequest: \ninstall: {name}\n")
        facts = generate_facts(doc, PARANOID, full_scope(doc))
        rendered = render_facts(facts)
        assert f'unit("{name}",1).' in rendered
        assert f'satisfies("{name}",1,s1).' in rendered
        assert read_facts(rendered) == facts


def test_render_of_empty_facts():
    doc = parse_document("request: \n")
    facts = generate_facts(doc, parse_criteria(""), full_scope(doc))
    assert render_facts(facts) == ""


_FACT = re.compile(r"([a-z]+)\((.*)\)\.")
_ARG = re.compile(r'"(?:[^"\\]|\\.)*"|[^,]+')


def read_facts(text):
    """The fact set that ``render_facts`` printed as ``text``."""
    rows = {}
    for line in text.splitlines():
        kind, args = _FACT.fullmatch(line).groups()
        rows.setdefault(kind, []).append(_ARG.findall(args))

    def name(term):
        return re.sub(r"\\(.)", r"\1", term[1:-1]) if term.startswith('"') else term

    def package(args):
        return PackageId(name(args[0]), int(args[1]))

    def set_id(term):
        return SetId(int(term.removeprefix("s")))

    def each(kind, parse):
        return tuple(parse(args) for args in rows.get(kind, ()))

    depends = each("depends", lambda a: (package(a), set_id(a[2])))
    recommends = each("recommends", lambda a: (package(a), set_id(a[2]), int(a[3])))
    conflicts = each("conflict", lambda a: (package(a), set_id(a[2])))
    requests = each("request", lambda a: set_id(a[0]))
    members = {sid: set() for _, sid, *_ in depends + recommends + conflicts}
    members.update((sid, set()) for sid in requests)
    for pid, sid in each("satisfies", lambda a: (package(a), set_id(a[2]))):
        members.setdefault(sid, set()).add(pid)
    return FactSet(
        units=frozenset(each("unit", package)),
        installed=frozenset(each("installed", package)),
        newest=dict(each("newestversion", lambda a: (name(a[0]), int(a[1])))),
        depends=depends,
        recommends=recommends,
        conflicts=conflicts,
        requests=requests,
        criteria=each("criterion", lambda a: (a[0], int(a[1]))),
        members={sid: frozenset(pids) for sid, pids in members.items()},
    )


def test_printed_facts_are_the_whole_problem(upgrade_heavy_docs):
    # the text `cudfsolve facts` prints reads back into a fact set that
    # prints the same and solves to an answer just as good; about half
    # the documents are infeasible by their closure alone, and their
    # facts, a request over the empty set, read back unsatisfiable
    docs = [generate_instance(seed, **_corpus_knobs(seed)) for seed in range(260)]
    docs += upgrade_heavy_docs + [_upgrade_heavy(seed) for seed in range(40, 400)]
    solved, infeasible = set(), set()
    for number, doc in enumerate(docs):
        for criteria in (PARANOID, TRENDY):
            closure = compute_closure(doc, criteria)
            facts = generate_facts(doc, criteria, closure)
            text = render_facts(facts)
            parsed = read_facts(text)
            assert render_facts(parsed) == text
            status, selection = solve_facts(facts)
            parsed_status, parsed_selection = solve_facts(parsed)
            assert parsed_status is status
            if not closure.feasible:
                assert status is Status.UNSATISFIABLE
                infeasible.add(number)
            if selection is None:
                assert parsed_selection is None
                continue
            assert validate_solution(doc, parsed_selection).ok
            assert (
                evaluate(doc, parsed_selection, criteria).key()
                == evaluate(doc, selection, criteria).key()
            )
            solved.add(number)
    # measured 339 documents infeasible under some criteria
    assert len(solved) >= 200 and len(infeasible) >= 300
