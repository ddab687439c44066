"""Solving, and trusting the answer.

Runs the optimiser on the upgrade scenario under both built-in
criteria profiles, then cross-checks a batch of random instances
against an exhaustive subset search.  Every witness is re-validated
against the document it came from.
"""

from pathlib import Path

from cudfsolve import (
    PARANOID,
    TRENDY,
    brute_force,
    generate_instance,
    parse_document,
    solve_document,
    validate_solution,
)

doc = parse_document(Path(__file__).with_name("upgrade.cudf").read_text())

for criteria in (PARANOID, TRENDY):
    outcome = solve_document(doc, criteria)
    picked = sorted(outcome.solution.installed)
    print(f"{criteria}:")
    print(f"  objective {outcome.solution.objective}")
    print("  install  ", ", ".join(f"{p.name} {p.version}" for p in picked))
    assert validate_solution(doc, picked).ok

# now a batch of throwaway instances, solver vs. exhaustive search
agree = 0
for seed in range(40):
    instance = generate_instance(seed, packages=4 + seed % 7, conflicts_density=0.35)
    best = solve_document(instance, PARANOID).solution
    oracle = brute_force(instance, PARANOID)
    vector = lambda s: None if s is None else s.objective.key()
    assert vector(best) == vector(oracle), f"seed {seed}"
    if best is not None:
        assert validate_solution(instance, best.installed).ok
    agree += 1

print(f"\n{agree}/40 random instances agree with the exhaustive oracle")
