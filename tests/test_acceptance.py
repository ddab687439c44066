"""Release checklist: one test per shipping criterion.

Every test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -rP`` or on failure), so a full run doubles as a report.  The
reference values for the upgrade scenario were derived by hand from the
document in conftest.py: the displaced version of ``conf`` is the only
package ruled out, nine packages can matter under ``-removed,-changed``,
and the cheapest answer removes nothing while changing two names.
"""

import random
import statistics
import time

import pytest

from cudfsolve import (
    PackageId,
    ParseError,
    Status,
    brute_force,
    compute_closure,
    full_scope,
    generate_facts,
    generate_instance,
    model_stats,
    parse_criteria,
    parse_document,
    render_document,
    solve_document,
    validate_solution,
)
from cudfsolve.cli import main

PARANOID = parse_criteria("paranoid")
TRENDY = parse_criteria("trendy")


def report(number, ok, summary):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {summary}")
    assert ok, f"criterion {number}: {summary}"


def pid(name, version):
    return PackageId(name, version)


def pids(*pairs):
    return frozenset(pid(name, version) for name, version in pairs)


# ------------------------------------------------------------------ 1


def test_criterion_1_reference_fact_set(scenario_text):
    started = time.perf_counter()
    doc = parse_document(scenario_text)
    criteria = parse_criteria("-removed,-changed")
    facts = generate_facts(doc, criteria, compute_closure(doc, criteria))
    rendered_once = time.perf_counter() - started

    # the interned tokens are arbitrary; compare by set membership
    members = facts.members
    assert len(set(members.values())) == len(members), "set ids must be one-to-one"

    def resolved(pairs):
        return sorted((p, members[s]) for p, s in pairs)

    deps = pids(("dep", 1), ("dep", 2), ("dep", 3))
    insts = pids(("inst", 1), ("inst", 2), ("inst", 3))
    upgraders = pids(("conf", 2), ("feat", 1))

    assert facts.units == insts | upgraders | deps | pids(("avail", 1))
    assert facts.installed == pids(("conf", 1), ("dep", 1), ("avail", 1))
    assert facts.newest == {"inst": 3, "conf": 2, "feat": 1, "dep": 3, "avail": 1}
    assert resolved(facts.depends) == [
        (pid("inst", 1), deps),
        (pid("inst", 2), pids(("dep", 1))),
    ]
    assert resolved(facts.conflicts) == [
        (pid("conf", 2), pids(("feat", 1))),  # upgrade rivalry, one way
        (pid("dep", 2), pids(("dep", 1))),
        (pid("dep", 3), pids(("dep", 1), ("dep", 2))),
        (pid("feat", 1), pids(("conf", 2))),  # ... and the other
        (pid("inst", 3), pids(("conf", 2))),
    ]
    assert sorted(members[s] for s in facts.requests) == sorted([insts, upgraders])
    assert resolved(facts.satisfies) == sorted(
        [
            (pid("conf", 2), pids(("conf", 2))),
            (pid("dep", 1), pids(("dep", 1))),
            (pid("dep", 3), deps),
            (pid("dep", 2), deps),
            (pid("dep", 1), deps),
            (pid("feat", 1), pids(("feat", 1))),
            (pid("dep", 2), pids(("dep", 1), ("dep", 2))),
            (pid("dep", 1), pids(("dep", 1), ("dep", 2))),
            (pid("inst", 3), insts),
            (pid("inst", 2), insts),
            (pid("inst", 1), insts),
            (pid("conf", 2), upgraders),
            (pid("feat", 1), upgraders),
        ]
    )
    assert facts.criteria == (("change", -1), ("remove", -2))
    assert facts.recommends == ()

    report(
        1,
        rendered_once < 1.0,
        f"reference fact set reproduced in {rendered_once * 1000:.1f} ms",
    )


# ------------------------------------------------------------------ 2


def test_criterion_2_reference_closure(scenario_doc):
    nine = pids(
        ("inst", 1), ("inst", 2), ("inst", 3),
        ("conf", 2), ("feat", 1),
        ("dep", 1), ("dep", 2), ("dep", 3),
        ("avail", 1),
    )
    plain = compute_closure(scenario_doc, parse_criteria("-removed"))
    assert plain.feasible
    assert plain.out == pids(("conf", 1))
    assert plain.closure == nine

    extended = compute_closure(
        scenario_doc, parse_criteria("-removed,-unsat_recommends")
    )
    assert extended.closure == nine | pids(("recomm", 1))
    assert pid("option", 1) not in extended.closure

    report(2, True, "nine-package closure, recommendation pulls in the tenth")


# ------------------------------------------------------------------ 3 & 4


def _corpus_knobs(seed):
    return dict(
        packages=4 + seed % 9,  # universes of 4..12 packages
        max_versions=2 + seed % 3,
        installed_fraction=(0.0, 0.3, 0.5, 0.8)[seed % 4],
        depends_density=(0.3, 0.55, 0.8)[seed % 3],
        conflicts_density=(0.1, 0.3, 0.5)[(seed // 2) % 3],
        provides_density=(0.0, 0.2, 0.4)[(seed // 3) % 3],
        recommends_density=(0.0, 0.35)[seed % 2],
        install_requests=1 + seed % 3,
        upgrade_requests=seed % 2,
        remove_requests=(seed // 4) % 2,
    )


@pytest.fixture(scope="module")
def corpus():
    return [(seed, generate_instance(seed, **_corpus_knobs(seed))) for seed in range(260)]


@pytest.fixture(scope="module")
def corpus_answers(corpus):
    """Best solution (or None) per document and criteria, closure on."""
    answers = {}
    for seed, doc in corpus:
        for criteria in (PARANOID, TRENDY):
            outcome = solve_document(doc, criteria)
            assert outcome.status is not Status.TIMED_OUT
            answers[seed, str(criteria)] = outcome.solution
    return answers


def test_criterion_3_solver_matches_exhaustive_oracle(corpus, corpus_answers):
    started = time.perf_counter()
    runs = 0
    mismatches = []
    for seed, doc in corpus:
        for criteria in (PARANOID, TRENDY):
            runs += 1
            solution = corpus_answers[seed, str(criteria)]
            oracle = brute_force(doc, criteria)
            got = None if solution is None else solution.objective.key()
            expected = None if oracle is None else oracle.objective.key()
            if got != expected:
                mismatches.append((seed, str(criteria), got, expected))
            elif solution is not None:
                assert validate_solution(doc, solution.installed).ok
    elapsed = time.perf_counter() - started
    ok = not mismatches and runs >= 500 and elapsed < 300.0
    report(
        3,
        ok,
        f"{runs} solver runs match the subset oracle in {elapsed:.1f} s"
        + (f"; mismatches: {mismatches[:5]}" if mismatches else ""),
    )


def test_criterion_4_answers_unchanged_without_closure(corpus, corpus_answers):
    disagreements = []
    for seed, doc in corpus:
        for criteria in (PARANOID, TRENDY):
            with_closure = corpus_answers[seed, str(criteria)]
            without = solve_document(doc, criteria, use_closure=False).solution
            if (with_closure is None) != (without is None):
                disagreements.append((seed, str(criteria), "FAIL status differs"))
            elif with_closure is not None:
                if with_closure.objective.key() != without.objective.key():
                    disagreements.append(
                        (
                            seed,
                            str(criteria),
                            with_closure.objective.key(),
                            without.objective.key(),
                        )
                    )
    report(
        4,
        not disagreements,
        "shrinking the universe never changes the objective"
        + (f"; disagreements: {disagreements[:5]}" if disagreements else ""),
    )


# ------------------------------------------------------------------ 5


def test_criterion_5_closure_shrinks_large_instances():
    size_ratios = []
    variable_ratios = []
    for seed in range(14):
        doc = generate_instance(
            seed,
            packages=1000,
            max_versions=3,
            installed_fraction=0.08,
            depends_density=0.35,
            conflicts_density=0.1,
            provides_density=0.1,
            recommends_density=0.1,
            install_requests=5,
            upgrade_requests=0,
            remove_requests=0,
        )
        narrow = compute_closure(doc, PARANOID)
        if not narrow.feasible:
            continue
        wide = full_scope(doc)
        size_ratios.append(len(narrow.closure) / len(doc.packages))
        narrow_vars = model_stats(generate_facts(doc, PARANOID, narrow))["variables"]
        wide_vars = model_stats(generate_facts(doc, PARANOID, wide))["variables"]
        variable_ratios.append(wide_vars / narrow_vars)

    assert len(size_ratios) >= 8, "too few feasible large instances to judge"
    median_size = statistics.median(size_ratios)
    median_vars = statistics.median(variable_ratios)
    ok = median_size <= 0.5 and median_vars >= 2.0
    report(
        5,
        ok,
        f"on {len(size_ratios)} feasible 1000-package instances the closure keeps"
        f" a median {median_size:.2f} of the universe and divides solver"
        f" variables by {median_vars:.1f}",
    )


# ------------------------------------------------------------------ 6


def test_criterion_6_reference_optimum(scenario_doc):
    cheap = solve_document(scenario_doc, PARANOID)
    assert cheap.status is Status.OPTIMAL
    assert cheap.solution.objective.key() == (0, 2)  # removed 0, changed 2
    assert validate_solution(scenario_doc, cheap.solution.installed).ok

    fresh = solve_document(scenario_doc, TRENDY)
    oracle = brute_force(scenario_doc, TRENDY)
    assert fresh.status is Status.OPTIMAL
    assert fresh.solution.objective.key() == oracle.objective.key()
    assert validate_solution(scenario_doc, fresh.solution.installed).ok

    report(
        6,
        True,
        f"paranoid optimum {cheap.solution.objective}, trendy matches the oracle",
    )


# ------------------------------------------------------------------ 7


def test_criterion_7_parser_round_trip_and_fuzz():
    for seed in range(1000):
        doc = generate_instance(
            seed,
            packages=5 + seed % 30,
            max_versions=1 + seed % 4,
            installed_fraction=(seed % 5) / 4,
            remove_requests=seed % 2,
        )
        assert parse_document(render_document(doc)) == doc, f"seed {seed}"

    rng = random.Random(99)
    crashes = 0
    for _ in range(10**6):
        blob = rng.randbytes(rng.randrange(64))
        try:
            parse_document(blob.decode("latin-1"))
        except ParseError:
            pass
        except Exception:  # noqa: BLE001 - the whole point of the fuzz run
            crashes += 1
    report(
        7,
        crashes == 0,
        f"1000 documents round-trip, 10^6 junk inputs, {crashes} crashes",
    )


# ------------------------------------------------------------------ 8


def test_criterion_8_byte_identical_reruns(capsys, tmp_path, scenario_text):
    scenario = tmp_path / "scenario.cudf"
    scenario.write_text(scenario_text)
    generated = tmp_path / "generated.cudf"
    assert main(["gen", "--seed", "17", "--packages", "30", "-o", str(generated)]) == 0
    answer = tmp_path / "answer.cudf"
    assert main(["solve", str(scenario), "-o", str(answer)]) == 0
    capsys.readouterr()

    invocations = [
        ("solve", str(scenario)),
        ("solve", str(scenario), "-c", "trendy"),
        ("solve", str(generated)),
        ("facts", str(scenario)),
        ("facts", str(generated), "-c", "trendy"),
        ("closure", str(scenario)),
        ("closure", str(generated), "--no-closure"),
        ("validate", str(scenario), str(answer)),
        ("gen", "--seed", "23", "--packages", "40"),
    ]
    unstable = []
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            outputs.append((code, captured.out.encode(), captured.err.encode()))
        if outputs[0] != outputs[1]:
            unstable.append(argv)
    report(
        8,
        not unstable,
        "every subcommand reproduces itself byte for byte"
        + (f"; unstable: {unstable}" if unstable else ""),
    )
