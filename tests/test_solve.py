import importlib
import random
import time

import pytest
from conftest import _upgrade_heavy
from test_acceptance import _corpus_knobs
from test_parser import _fuzz_document

from cudfsolve import (
    CriteriaSeq,
    CudfError,
    DocIndex,
    PackageId,
    ParseError,
    ScopeTooLarge,
    SolveLimits,
    Status,
    brute_force,
    build_problem,
    compute_closure,
    evaluate,
    full_scope,
    generate_facts,
    generate_instance,
    model_stats,
    parse_criteria,
    parse_document,
    parser,
    render_document,
    solve,
    solve_document,
    validate_solution,
)
from cudfsolve.cli import main
from cudfsolve.sat import Solver

PARANOID = parse_criteria("paranoid")
TRENDY = parse_criteria("trendy")


def pid(name, version):
    return PackageId(name, version)


def pigeonhole(pigeons, holes, criteria=CriteriaSeq(())):
    """Place every pigeon, one per hole: UNSAT when pigeons > holes.

    Returns the document and its facts over the whole universe.
    """
    stanzas = []
    for p in range(pigeons):
        for h in range(holes):
            stanza = f"package: p{p}h{h}\nversion: 1\n"
            rivals = ", ".join(f"p{q}h{h}" for q in range(p + 1, pigeons))
            if rivals:
                stanza += f"conflicts: {rivals}\n"
            stanzas.append(stanza)
    install = ", ".join(
        " | ".join(f"p{p}h{h}" for h in range(holes)) for p in range(pigeons)
    )
    doc = parse_document("\n".join(stanzas) + f"\nrequest: \ninstall: {install}\n")
    return doc, build_problem(doc, criteria, full_scope(doc))


def test_scenario_paranoid_optimum(scenario_doc):
    outcome = solve_document(scenario_doc, PARANOID)
    assert outcome.status is Status.OPTIMAL
    assert outcome.solution.objective.key() == (0, 2)
    assert validate_solution(scenario_doc, outcome.solution.installed).ok


def test_scenario_agrees_with_brute_force(scenario_doc):
    for criteria in (PARANOID, TRENDY):
        outcome = solve_document(scenario_doc, criteria)
        oracle = brute_force(scenario_doc, criteria)
        assert outcome.solution.objective.key() == oracle.objective.key()


def test_unsatisfiable_document():
    text = (
        "package: a\nversion: 1\ndepends: b\n\n"
        "package: b\nversion: 1\nconflicts: a\n\n"
        "request: \ninstall: a\n"
    )
    doc = parse_document(text)
    outcome = solve_document(doc, PARANOID)
    assert outcome.status is Status.UNSATISFIABLE
    assert outcome.solution is None
    assert brute_force(doc, PARANOID) is None


def test_infeasible_document_is_detected_before_search(monkeypatch):
    # the closure proves it: the facts request the empty set, and the
    # solver answers UNSAT at the root without a conflict or a decision
    doc = parse_document("package: a\nversion: 1\n\nrequest: \ninstall: ghost\n")
    searched = []
    original = Solver.solve

    def recording(self, **kwargs):
        result = original(self, **kwargs)
        searched.append((self.conflicts, self.decisions))
        return result

    monkeypatch.setattr(Solver, "solve", recording)
    outcome = solve_document(doc, PARANOID)
    assert outcome.status is Status.UNSATISFIABLE
    assert outcome.solution is None
    assert searched == [(0, 0)]


def test_solutions_match_brute_force_on_small_instances():
    mismatches = []
    for seed in range(40):
        doc = generate_instance(
            seed,
            packages=3 + seed % 8,
            installed_fraction=0.5,
            conflicts_density=0.3,
            upgrade_requests=seed % 2,
            remove_requests=(seed // 2) % 2,
        )
        for criteria in (PARANOID, TRENDY):
            outcome = solve_document(doc, criteria)
            if outcome.solution is None:
                got = None
            else:
                got = outcome.solution.objective.key()
                assert validate_solution(doc, outcome.solution.installed).ok
            oracle = brute_force(doc, criteria)
            expected = None if oracle is None else oracle.objective.key()
            if got != expected:
                mismatches.append((seed, str(criteria), got, expected))
    assert not mismatches


def test_maximized_criteria_match_brute_force():
    # the solver reads each level's sign back from the criterion facts
    criteria = parse_criteria("-removed,+new")
    checked = 0
    for seed in range(15):
        doc = generate_instance(4000 + seed, packages=3 + seed % 6, installed_fraction=0.5)
        outcome = solve_document(doc, criteria)
        oracle = brute_force(doc, criteria)
        got = None if outcome.solution is None else outcome.solution.objective.key()
        assert got == (None if oracle is None else oracle.objective.key()), seed
        checked += got is not None
    assert checked > 5


def test_closure_does_not_change_the_answer():
    for seed in range(20):
        doc = generate_instance(2000 + seed, packages=20, installed_fraction=0.4)
        narrow = solve_document(doc, TRENDY, use_closure=True)
        wide = solve_document(doc, TRENDY, use_closure=False)
        assert narrow.status is wide.status
        if narrow.solution is None:
            assert wide.solution is None
        else:
            assert narrow.solution.objective.key() == wide.solution.objective.key()


def test_reported_objective_agrees_with_the_referee():
    checked = 0
    for seed in range(12):
        doc = generate_instance(3000 + seed, packages=15, installed_fraction=0.5)
        for criteria in (PARANOID, TRENDY):
            outcome = solve_document(doc, criteria)
            if outcome.solution is not None:
                installed = outcome.solution.installed
                assert outcome.solution.objective == evaluate(doc, installed, criteria)
                checked += 1
    assert checked > 0
    # an incumbent cut short by the budget is measured the same way
    doc, _ = pigeonhole(7, 7)
    fewest_new = parse_criteria("-new")
    outcome = solve_document(
        doc,
        fewest_new,
        limits=SolveLimits(max_steps=1, wall_clock=None),
        use_closure=False,
    )
    assert outcome.status is Status.TIMED_OUT
    assert outcome.solution.objective == evaluate(doc, outcome.solution.installed, fewest_new)


def test_solver_reads_the_printed_fact_set(scenario_doc):
    assert build_problem is generate_facts
    for criteria in (PARANOID, TRENDY):
        facts = generate_facts(scenario_doc, criteria, compute_closure(scenario_doc, criteria))
        status, selection = solve(facts)
        whole = solve_document(scenario_doc, criteria)
        assert status is whole.status is Status.OPTIMAL
        assert selection == whole.solution.installed
        assert evaluate(scenario_doc, selection, criteria) == whole.solution.objective


def test_empty_criteria_returns_any_valid_solution(scenario_doc):
    outcome = solve_document(scenario_doc, CriteriaSeq(()))
    assert outcome.status is Status.OPTIMAL
    assert outcome.solution.objective.values == ()
    assert validate_solution(scenario_doc, outcome.solution.installed).ok


def test_pigeonhole_problems():
    status, selection = solve(pigeonhole(5, 5)[1])
    assert status is Status.OPTIMAL
    assert len(selection) == 5
    status, selection = solve(pigeonhole(6, 5)[1])
    assert status is Status.UNSATISFIABLE
    assert selection is None


def test_conflict_budget_gives_up_cleanly():
    _, facts = pigeonhole(7, 6)
    status, selection = solve(facts, limits=SolveLimits(max_steps=1, wall_clock=None))
    assert status is Status.TIMED_OUT
    assert selection is None


def test_budget_exhaustion_keeps_the_incumbent():
    fewest_new = parse_criteria("-new")
    doc, facts = pigeonhole(7, 7, criteria=fewest_new)
    status, selection = solve(facts, limits=SolveLimits(max_steps=1, wall_clock=None))
    assert status is Status.TIMED_OUT
    # the first model was found without a single conflict; tightening it
    # ran out of budget, so we keep what we have
    assert selection is not None
    assert evaluate(doc, selection, fewest_new).key() == (7,)


@pytest.mark.parametrize("at_call", [1, 2])
def test_an_interrupted_search_acts_like_an_expired_budget(
    monkeypatch, capsys, tmp_path, scenario_text, scenario_doc, at_call
):
    # Ctrl-C raises KeyboardInterrupt wherever the search happens to be;
    # raising it from the search itself needs no signal and no clock
    calls = []
    original = Solver.solve

    def interrupted(self, **kwargs):
        calls.append(kwargs)
        if len(calls) == at_call:
            raise KeyboardInterrupt
        return original(self, **kwargs)

    monkeypatch.setattr(Solver, "solve", interrupted)
    path, answer = tmp_path / "upgrade.cudf", tmp_path / "answer.cudf"
    path.write_text(scenario_text)
    facts = generate_facts(scenario_doc, TRENDY, compute_closure(scenario_doc, TRENDY))
    try:
        status, selection = solve(facts)
        calls.clear()
        code = main(["solve", str(path), "-c", "trendy", "-o", str(answer)])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("the interrupt escaped the search")
    err = capsys.readouterr().err
    assert status is Status.TIMED_OUT and code == 0
    if at_call == 1:  # nothing found yet
        assert selection is None
        assert answer.read_text() == "FAIL\n"
        assert err == "timed out; no solution found\n"
    else:  # the first model is the incumbent
        assert validate_solution(scenario_doc, selection).ok
        assert parse_document(answer.read_text()).installed_ids() == selection
        assert err.startswith("timed out; writing best incumbent found\n")


@pytest.mark.parametrize("status", [Status.OPTIMAL, Status.TIMED_OUT])
def test_solve_document_refuses_an_answer_that_breaks_the_document(
    monkeypatch, scenario_doc, status
):
    # the referee checks every answer, a timed-out incumbent too; a
    # broken one is a solver bug, not a problem with the input
    module = importlib.import_module("cudfsolve.solve")
    monkeypatch.setattr(module, "solve", lambda facts, limits: (status, frozenset()))
    with pytest.raises(RuntimeError, match="unsatisfied request") as caught:
        solve_document(scenario_doc, PARANOID)
    assert not isinstance(caught.value, CudfError)


def count_calls(monkeypatch, owner, name, tally):
    """Wrap ``owner.name`` so that ``tally`` records each call."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        tally.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_step_budget_caps_the_conflicts_of_the_whole_solve(monkeypatch):
    doc = generate_instance(7, packages=120, installed_fraction=0.5)
    used = []
    original = Solver.solve

    def counting(self, **kwargs):
        before = self.conflicts
        result = original(self, **kwargs)
        used.append(self.conflicts - before)
        return result

    monkeypatch.setattr(Solver, "solve", counting)
    solve_document(doc, TRENDY)
    assert sum(used) > 21 and len(used) > 2  # the budgets below bind
    for steps in (0, 1, 5, 20):
        used.clear()
        solve_document(doc, TRENDY, limits=SolveLimits(max_steps=steps, wall_clock=None))
        assert sum(used) <= steps + 1, (steps, used)


def test_one_model_build_per_solve(monkeypatch, scenario_doc):
    module = importlib.import_module("cudfsolve.solve")
    builds, searches = [], []
    count_calls(monkeypatch, module, "_build_model", builds)
    count_calls(monkeypatch, Solver, "solve", searches)
    docs = [scenario_doc] + [
        generate_instance(seed, packages=120, installed_fraction=0.5) for seed in (0, 7)
    ]
    for doc in docs:
        builds.clear()
        outcome = solve_document(doc, TRENDY)
        assert outcome.status is Status.OPTIMAL
        assert len(builds) == 1
    assert len(searches) > 3 * len(TRENDY)  # many bound steps, one build each
    builds.clear()
    assert solve_document(scenario_doc, CriteriaSeq(())).status is Status.OPTIMAL
    assert len(builds) == 1


def test_one_bound_per_level(monkeypatch):
    # each criterion level adds one bound and lowers it in place after
    # every model, however many bound steps the level takes; on this
    # document some level still steps past its first model
    bounds, tightenings = [], []
    count_calls(monkeypatch, Solver, "add_atmost", bounds)
    count_calls(monkeypatch, Solver, "tighten", tightenings)
    doc = generate_instance(0, packages=300, installed_fraction=0.5)
    assert solve_document(doc, TRENDY).status is Status.OPTIMAL
    assert len(bounds) == len(TRENDY)
    assert len(tightenings) > len(bounds)


def test_preprocessing_counts_against_the_wall_clock(monkeypatch, scenario_doc):
    module = importlib.import_module("cudfsolve.solve")
    original = module.generate

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "generate", slow)
    outcome = solve_document(scenario_doc, PARANOID, limits=SolveLimits(wall_clock=0.2))
    assert outcome.status is Status.TIMED_OUT
    assert outcome.solution is None


def test_brute_force_refuses_large_scopes():
    doc = generate_instance(8, packages=30)
    with pytest.raises(ScopeTooLarge):
        brute_force(doc, PARANOID)


@pytest.mark.parametrize("first", [solve_document, brute_force], ids=lambda f: f.__name__)
def test_library_entry_points_build_one_index(monkeypatch, scenario_doc, first):
    # one document builds one index, whichever entry point asks first; an
    # entry point that built its own would be a silent slowdown, not an error
    doc, chosen = scenario_doc, scenario_doc.installed_ids()
    calls = [
        lambda: solve_document(doc, TRENDY),
        lambda: evaluate(doc, chosen, TRENDY),
        lambda: validate_solution(doc, chosen),
        lambda: compute_closure(doc, TRENDY),
        lambda: full_scope(doc),
        lambda: generate_facts(doc, TRENDY, full_scope(doc)),
        lambda: brute_force(doc, TRENDY),
    ]
    built = []
    count_calls(monkeypatch, DocIndex, "__init__", built)
    for call in calls if first is solve_document else reversed(calls):
        assert call() is not None
    assert [args[1] for args in built] == [doc]


def test_a_solve_builds_only_the_formulas_of_its_closure(monkeypatch):
    # parsing checks every formula but builds none of the ones the closure
    # leaves out: a large universe costs what the solve reads of it
    knobs = dict(installed_fraction=0, depends_density=0.3, install_requests=3, upgrade_requests=0)
    eager = generate_instance(0, packages=4000, **knobs)
    doc = parse_document(render_document(eager))
    built = []
    count_calls(monkeypatch, parser, "parse_formula", built)
    outcome = solve_document(doc, PARANOID)
    monkeypatch.undo()
    assert outcome.status is Status.OPTIMAL
    closure = compute_closure(doc, PARANOID).closure
    formulas = [
        formula
        for desc in doc
        for formula in (desc.depends, desc.conflicts, desc.recommends)
        if formula
    ]
    in_closure = [
        formula
        for desc in doc
        if desc.id in closure
        for formula in (desc.depends, desc.conflicts, desc.recommends)
        if formula
    ]
    assert 0 < len(built) <= len(in_closure) < len(formulas) / 20


def test_model_stats(scenario_doc):
    problem = build_problem(scenario_doc, PARANOID, full_scope(scenario_doc))
    stats = model_stats(problem)
    assert stats["candidates"] == 11
    assert stats["variables"] >= stats["candidates"]
    assert stats["clauses"] > 0
    assert stats["count_literals"] > 0


def test_solving_is_deterministic(scenario_doc):
    first = solve_document(scenario_doc, TRENDY)
    second = solve_document(scenario_doc, TRENDY)
    assert first.solution.installed == second.solution.installed
    assert str(first.solution.objective) == str(second.solution.objective)


def test_oracle_prefilter_only_skips_invalid_subsets(monkeypatch):
    # brute_force drops subsets that fail a necessary condition before the
    # referee sees them; every subset it drops must really be invalid
    module = importlib.import_module("cudfsolve.solve")
    checked = []
    count_calls(monkeypatch, module, "validate_solution", checked)
    docs = [generate_instance(seed, **_corpus_knobs(seed)) for seed in range(0, 260, 10)]
    rng = random.Random(5)
    for _ in range(400):
        try:
            docs.append(parse_document(_fuzz_document(rng)))
        except ParseError:
            pass
    dropped = 0
    for doc in docs:
        checked.clear()
        brute_force(doc, PARANOID)
        passed = {frozenset(args[1]) for args in checked}
        pool = [desc.id for desc in doc]
        for mask in range(1 << len(pool)):
            selection = frozenset(p for i, p in enumerate(pool) if mask >> i & 1)
            if selection not in passed:
                dropped += 1
                assert not validate_solution(doc, selection).ok, (doc, selection)
    assert dropped > 10 * len(docs)


def test_solver_matches_the_oracle_up_to_its_size_cap():
    # wider than criterion 3's universes of 4..12: 13 up to the oracle's 20
    mismatches, solved = [], 0
    for seed in range(32):
        doc = generate_instance(seed, **dict(_corpus_knobs(seed), packages=13 + seed % 8))
        for criteria in (PARANOID, TRENDY):
            solution = solve_document(doc, criteria).solution
            oracle = brute_force(doc, criteria)
            got = None if solution is None else solution.objective.key()
            expected = None if oracle is None else oracle.objective.key()
            if got != expected:
                mismatches.append((seed, str(criteria), got, expected))
            solved += got is not None
    assert not mismatches
    assert solved >= 20


def test_upgrades_that_reach_a_provide_match_the_oracle():
    # generated upgrades name installed real packages, which nothing else
    # provides; these upgrade any name, and two in five packages provide one
    mismatches, reaching, open_ended, feasible = [], 0, 0, 0
    for seed in range(40):
        doc = _upgrade_heavy(seed, packages=8 + seed % 9)
        index = doc.index
        upgraded = {atom.name for c in index.effective.upgrade.clauses for atom in c.atoms}
        provides = [
            atom for desc in doc for c in desc.provides.clauses for atom in c.atoms
            if atom.name in upgraded
        ]
        reaching += bool(provides)
        open_ended += any(atom.bound is None for atom in provides)
        for criteria in (PARANOID, TRENDY):
            oracle = brute_force(doc, criteria)
            expected = None if oracle is None else oracle.objective.key()
            feasible += criteria is PARANOID and oracle is not None
            for use_closure in (True, False):
                solution = solve_document(doc, criteria, use_closure=use_closure).solution
                if solution is not None:
                    assert validate_solution(doc, solution.installed).ok
                got = None if solution is None else solution.objective.key()
                if got != expected:
                    mismatches.append((seed, str(criteria), use_closure, got, expected))
    assert not mismatches
    # measured 32, 22 and 11: the floors keep the path covered
    assert reaching >= 30 and open_ended >= 20 and feasible >= 10
