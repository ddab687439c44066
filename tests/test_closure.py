import dataclasses
import random

from cudfsolve import (
    Criterion,
    PackageId,
    Polarity,
    compute_closure,
    compute_out,
    full_scope,
    generate_instance,
    make_document,
    parse_criteria,
    parse_document,
)

PARANOID = parse_criteria("paranoid")
TRENDY = parse_criteria("trendy")


def pid(name, version):
    return PackageId(name, version)


def test_out_contains_the_displaced_version(scenario_doc):
    # upgrading conf past 1 rules the installed conf 1 out; nothing else
    # provides a lower or second version of an upgraded name
    assert compute_out(scenario_doc) == {pid("conf", 1)}


def test_out_covers_remove_targets():
    text = (
        "package: a\nversion: 1\ninstalled: true\n\n"
        "package: a\nversion: 2\n\n"
        "package: b\nversion: 1\nprovides: a = 3\n\n"
        "request: \nremove: a\n"
    )
    doc = parse_document(text)
    # every provider of the removed name is out, including the virtual one
    assert compute_out(doc) == {pid("a", 1), pid("a", 2), pid("b", 1)}


def test_out_covers_upgrade_misfits():
    text = (
        "package: a\nversion: 2\ninstalled: true\n\n"
        "package: a\nversion: 1\n\n"
        "package: a\nversion: 3\n\n"
        "package: twice\nversion: 1\nprovides: a = 3, a = 4\n\n"
        "package: open\nversion: 1\nprovides: a\n\n"
        "package: low\nversion: 1\nprovides: a = 1\n\n"
        "request: \nupgrade: a >= 3\n"
    )
    doc = parse_document(text)
    out = compute_out(doc)
    assert pid("a", 1) in out  # below the installed version
    assert pid("a", 2) in out  # rejected by the clause
    assert pid("twice", 1) in out  # two versions at once
    assert pid("open", 1) in out  # provides every version at once
    assert pid("low", 1) in out  # below the installed version
    assert pid("a", 3) not in out


def test_feasibility_spots_an_unprovidable_install():
    doc = parse_document("package: a\nversion: 1\n\nrequest: \ninstall: ghost\n")
    assert not full_scope(doc).feasible
    result = compute_closure(doc, PARANOID)
    assert not result.feasible and result.closure == frozenset()


def test_feasibility_accounts_for_out_packages():
    # the only provider of the upgraded name's newest version is also a
    # remove target, so preprocessing leaves nothing to upgrade to
    text = (
        "package: a\nversion: 1\ninstalled: true\n\n"
        "package: a\nversion: 2\ndepends: bad\n\n"
        "package: bad\nversion: 1\n\n"
        "request: \nremove: bad\nupgrade: a > 1\n"
    )
    doc = parse_document(text)
    assert pid("bad", 1) in compute_out(doc)
    assert full_scope(doc).feasible  # a=2 still provides the upgrade


def test_scenario_closure_under_paranoid(scenario_doc):
    result = compute_closure(scenario_doc, PARANOID)
    assert result.feasible
    assert result.out == {pid("conf", 1)}
    assert result.closure == {
        pid("inst", 1),
        pid("inst", 2),
        pid("inst", 3),
        pid("conf", 2),
        pid("feat", 1),
        pid("dep", 1),
        pid("dep", 2),
        pid("dep", 3),
        pid("avail", 1),
    }
    # request providers and criteria seeds already cover the reachable
    # packages, so the dependency sweep adds nothing
    assert result.iterations == 0


def test_penalizing_unsat_recommends_pulls_in_the_recommendation(scenario_doc):
    paranoid = compute_closure(scenario_doc, PARANOID).closure
    trendy = compute_closure(scenario_doc, TRENDY).closure
    assert trendy - paranoid == {pid("recomm", 1)}
    # option would only matter to recomm's conflicts, never to a solution
    assert pid("option", 1) not in trendy


def test_full_scope_keeps_everything_but_out(scenario_doc):
    result = full_scope(scenario_doc)
    assert result.feasible
    assert result.closure == scenario_doc.universe() - result.out
    assert result.iterations == 0


def test_each_upgrade_candidate_provides_one_accepted_version(upgrade_heavy_docs):
    # facts.generate reads an upgrade candidate's one pair straight off
    # index.touching to find its rivals
    provided = 0
    for doc in upgrade_heavy_docs:
        index = doc.index
        out = compute_out(doc)
        for clause, highest in index.upgrades:
            for desc in doc:
                if desc.id in out:
                    continue
                mine = {n: index.touching.get(n, {}).get(desc.id, ()) for n in highest}
                assert None not in mine.values(), desc.id
                pairs = [(n, v) for n, versions in mine.items() for v in versions]
                assert len(pairs) <= 1, (desc.id, clause, pairs)
                if pairs:
                    assert desc.id in index.providers(clause), (desc.id, clause)
                    provided += 1
    assert provided > 100


def test_closure_is_contained_in_the_allowed_universe():
    for seed in range(25):
        doc = generate_instance(seed, packages=30, installed_fraction=0.3)
        result = compute_closure(doc, TRENDY)
        if not result.feasible:
            continue
        allowed = doc.universe() - result.out
        assert result.closure <= allowed
        assert result.closure <= full_scope(doc).closure


def test_closure_is_closed_under_dependencies():
    rng = random.Random(7)
    for _ in range(15):
        doc = generate_instance(rng.randrange(10**6), packages=40, depends_density=0.7)
        index = doc.index
        result = compute_closure(doc, PARANOID)
        if not result.feasible:
            continue
        allowed = frozenset(doc.universe() - result.out)
        for target in result.closure:
            for clause in index.by_id[target].depends.clauses:
                providers = index.providers(clause, allowed)
                assert set(providers) <= result.closure, (
                    f"{target} can need {clause} but its providers were dropped"
                )


def test_closure_contains_every_request_provider():
    for seed in range(20):
        doc = generate_instance(seed, packages=25, install_requests=3)
        index = doc.index
        result = compute_closure(doc, PARANOID)
        if not result.feasible:
            continue
        allowed = frozenset(doc.universe() - result.out)
        clauses = index.effective.install.clauses + index.effective.upgrade.clauses
        for clause in clauses:
            assert set(index.providers(clause, allowed)) <= result.closure


def test_closure_is_deterministic(scenario_doc):
    first = compute_closure(scenario_doc, TRENDY)
    second = compute_closure(scenario_doc, TRENDY)
    assert first == second


def _scanned_closure(doc, criteria):
    """The closure with every criterion seed found by a scan of the allowed set."""
    index = doc.index
    allowed = full_scope(doc).closure
    o_names = {p.name for p in index.installed}
    seeds = {
        (Criterion.NEW, Polarity.PLUS): lambda p: p.name not in o_names,
        (Criterion.REMOVED, Polarity.MINUS): lambda p: p.name in o_names,
        (Criterion.CHANGED, Polarity.PLUS): lambda p: p not in index.installed,
        (Criterion.CHANGED, Polarity.MINUS): lambda p: p in index.installed,
        (Criterion.NOT_UP_TO_DATE, Polarity.PLUS): lambda p: p.version < index.umax[p.name],
        (Criterion.UNSAT_RECOMMENDS, Polarity.PLUS): lambda p: bool(index.by_id[p].recommends),
    }
    closure = set()
    for clause in index.effective.install.clauses + index.effective.upgrade.clauses:
        closure.update(index.providers(clause, allowed))
    for sc in criteria.items:
        condition = seeds.get((sc.criterion, sc.polarity))
        if condition is not None:
            closure.update(p for p in allowed if condition(p))
    follow_recommends = criteria.polarity_of(Criterion.UNSAT_RECOMMENDS) is Polarity.MINUS
    follow_newest = criteria.polarity_of(Criterion.NOT_UP_TO_DATE) is Polarity.MINUS
    frontier = set(closure)
    while frontier:
        add = set()
        for p in frontier:
            desc = index.by_id[p]
            clauses = desc.depends.clauses + (desc.recommends.clauses if follow_recommends else ())
            for clause in clauses:
                add.update(index.providers(clause, allowed))
            if follow_newest and pid(p.name, index.umax[p.name]) in allowed:
                add.add(pid(p.name, index.umax[p.name]))
        frontier = add - closure
        closure |= frontier
    return closure


def test_index_seeds_match_a_scan_of_the_universe(upgrade_heavy_docs):
    # the installed-set seeds come from the index; every polarity of every
    # criterion must keep the closure a scan of the allowed set gives
    generated = [
        generate_instance(seed, packages=40, installed_fraction=0.4, provides_density=0.5)
        for seed in range(20)
    ]
    # fewer installed names, so that providers of an installed name that
    # are not themselves of an installed name exist
    sparse = []
    for doc in upgrade_heavy_docs:
        kept = [
            dataclasses.replace(p, installed=p.installed and i % 3 == 0) for i, p in enumerate(doc)
        ]
        sparse.append(make_document(kept, doc.request))
    orders = [f"{sign}{c.value}" for c in Criterion for sign in "-+"] + ["paranoid", "trendy"]
    compared = 0
    for doc in upgrade_heavy_docs + sparse + generated:
        if not full_scope(doc).feasible:
            continue
        for order in orders:
            criteria = parse_criteria(order)
            assert compute_closure(doc, criteria).closure == _scanned_closure(doc, criteria)
            compared += 1
    assert compared > 400
