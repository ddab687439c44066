"""Why trim at all: model sizes on 1000-package universes.

Sparse requests touch a fraction of a big repository.  Trimming first
and building the solver model only over the survivors keeps both the
variable and clause counts small; this script measures the difference
on a handful of generated instances.
"""

import time

from cudfsolve import PARANOID, compute_closure, full_scope, generate_facts, generate_instance, model_stats

print(f"{'seed':>4}  {'kept':>9}  {'vars':>13}  {'clauses':>15}  {'trim time':>9}")
for seed in range(8):
    doc = generate_instance(
        seed,
        packages=1000,
        installed_fraction=0.08,
        depends_density=0.35,
        conflicts_density=0.1,
        provides_density=0.1,
        recommends_density=0.1,
        install_requests=5,
        upgrade_requests=0,
    )
    started = time.perf_counter()
    trimmed = compute_closure(doc, PARANOID)
    took = time.perf_counter() - started
    if not trimmed.feasible:
        print(f"{seed:>4}  cannot be satisfied at all, nothing to solve")
        continue

    small = model_stats(generate_facts(doc, PARANOID, trimmed))
    big = model_stats(generate_facts(doc, PARANOID, full_scope(doc)))
    print(
        f"{seed:>4}"
        f"  {len(trimmed.closure):>4}/1000"
        f"  {small['variables']:>5} vs {big['variables']:>5}"
        f"  {small['clauses']:>6} vs {big['clauses']:>6}"
        f"  {took * 1000:>6.1f} ms"
    )
