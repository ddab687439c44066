import itertools
import random
from time import monotonic

import pytest

from cudfsolve.sat import Result, Solver


def fresh(n):
    solver = Solver()
    for _ in range(n):
        solver.new_var()
    return solver


def pigeonhole_solver(pigeons, holes):
    """Every pigeon in some hole, no hole holding two: UNSAT when pigeons > holes."""
    s = fresh(pigeons * holes)
    for p in range(pigeons):
        s.add_clause([p * holes + h + 1 for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return s


def brute_sat(n, clauses, atmosts=()):
    """Ground-truth satisfiability by trying all 2**n assignments."""
    for bits in itertools.product([False, True], repeat=n):
        def holds(lit):
            return bits[abs(lit) - 1] == (lit > 0)

        if all(any(holds(l) for l in clause) for clause in clauses) and all(
            sum(w for l, w in zip(lits, weights) if holds(l)) <= bound
            for lits, weights, bound in atmosts
        ):
            return True
    return False


def test_unit_propagation():
    s = fresh(2)
    s.add_clause([1])
    s.add_clause([-1, 2])
    assert s.solve() is Result.SAT
    model = s.model()
    assert model[1] and model[2]


def test_empty_clause_means_unsat():
    s = fresh(1)
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve() is Result.UNSAT


def test_simple_backtracking():
    s = fresh(3)
    s.add_clause([1, 2])
    s.add_clause([-1, 3])
    s.add_clause([-3, -2])
    assert s.solve() is Result.SAT
    model = s.model()
    assert (model[1] or model[2]) and (not model[1] or model[3])
    assert not (model[3] and model[2])


def test_pigeonhole_is_unsat():
    # three pigeons, two holes: var (p, h) = p * 2 + h + 1; preferred
    # literals are decisions, so no list of them can decide a model into being
    for prefer in ((), [1, 3, 5], [-2, -4, -6, 1], [-6, -5, -4, -3, -2, -1]):
        s = pigeonhole_solver(3, 2)
        assert s.solve(prefer=prefer) is Result.UNSAT
        assert not s.ok


def test_tautology_and_duplicates_are_harmless():
    s = fresh(2)
    s.add_clause([1, -1])
    s.add_clause([2, 2])
    assert s.solve() is Result.SAT
    assert s.model()[2]


def test_atmost_zero_forces_everything_false():
    s = fresh(3)
    s.add_atmost([1, 2, 3], [1, 1, 1], 0)
    assert s.solve() is Result.SAT
    assert s.model()[1:] == [False, False, False]


def test_atmost_conflicts_with_units():
    s = fresh(3)
    s.add_clause([1])
    s.add_clause([2])
    s.add_clause([3])
    s.add_atmost([1, 2, 3], [1, 1, 1], 2)
    assert s.solve() is Result.UNSAT


def test_atmost_weighted_bound_is_respected():
    s = fresh(4)
    s.add_clause([1, 2])
    s.add_clause([3, 4])
    s.add_atmost([1, 2, 3, 4], [5, 1, 5, 1], 6)
    assert s.solve() is Result.SAT
    model = s.model()
    weight = 5 * model[1] + model[2] + 5 * model[3] + model[4]
    assert weight <= 6


def test_atmost_merges_duplicate_literals():
    s = fresh(1)
    s.add_atmost([1, 1], [1, 1], 1)  # together they weigh 2
    s.add_clause([1])
    assert s.solve() is Result.UNSAT


def test_overweight_literals_are_forced_off_up_front():
    s = fresh(2)
    s.add_atmost([1, 2], [3, 1], 2)
    assert s.value(1) == -1  # no search needed
    assert s.solve() is Result.SAT


def test_atmost_bound_already_blown_by_assignments():
    s = fresh(2)
    s.add_clause([1])
    s.add_atmost([1], [2], 1)
    assert s.solve() is Result.UNSAT


def test_phase_hint_steers_the_first_model():
    s = Solver()
    a = s.new_var(phase=True)
    b = s.new_var(phase=False)
    s.add_clause([a, b])
    assert s.solve() is Result.SAT
    assert s.model()[a] and not s.model()[b]


def test_preferred_literals_are_decided_first_in_order():
    # every variable's saved phase says true, and clause [-1, 2] makes 1
    # imply 2; the preferred literals still come first, with their signs,
    # each as a decision of its own, and the free rest follow the phase
    s = Solver()
    for _ in range(5):
        s.new_var(phase=True)
    s.add_clause([-1, 2])
    assert s.solve(prefer=[-3, 1, -5]) is Result.SAT
    assert s.trail == [-3, 1, 2, -5, 4]
    assert s.decisions == 4
    # a preferred literal that propagation already assigned is passed over
    s = Solver()
    for _ in range(3):
        s.new_var(phase=True)
    s.add_clause([-1, -2])
    assert s.solve(prefer=[1, 2, -3]) is Result.SAT
    assert s.trail == [1, -2, -3]


def test_a_preferred_literal_that_cannot_hold_is_flipped():
    # 1 breaks a clause either way 2 goes: the conflict flips the decision,
    # and the learned clause keeps it flipped on every later call. The
    # conflict undoes only its own level, so decision 3 stays, and the
    # learned unit -1 sits after it on the trail at level 0
    s = fresh(4)
    s.add_clause([-1, 2])
    s.add_clause([-1, -2])
    assert s.solve(prefer=[3, 1, 4]) is Result.SAT
    assert s.conflicts == 1
    assert s.trail == [3, -1, 4, 2]
    assert s.level[1] == 0 and s.decisions == 4
    s.add_clause([2, 3, 4])  # back to the root: every decision is made again
    assert s.solve(prefer=[3, 1, 4]) is Result.SAT
    assert s.conflicts == 1 and s.trail == [-1, 3, 4, 2]


def test_a_missed_lower_implication_is_no_conflict():
    # the conflict of decision -1 learns the unit 1, which lands after
    # decision -2 at level 0 and implies -3 there; [3, -1, 2] is then
    # false with only 2 at level 1, so 2 was implied at the root all
    # along: it moves there, and no second conflict is counted
    s = fresh(3)
    for clause in ([-3, 1], [-1, -3], [3, -1, 2], [3, 1]):
        s.add_clause(clause)
    assert s.solve(prefer=[-2, -1, -3]) is Result.SAT
    assert s.conflicts == 1 and s.decisions == 2
    assert s.trail == [1, -3, 2] and s.trail_lim == []


def test_models_are_reproducible():
    def build():
        rng = random.Random(11)
        s = fresh(30)
        for _ in range(80):
            clause = rng.sample(range(1, 31), 3)
            s.add_clause([lit if rng.random() < 0.5 else -lit for lit in clause])
        return s

    first = build()
    second = build()
    assert first.solve() is second.solve() is Result.SAT
    assert first.model() == second.model()


def test_a_zero_conflict_budget_meets_no_conflict():
    s = pigeonhole_solver(6, 5)
    clauses = s.num_clauses
    assert s.solve(conflict_limit=0) is Result.UNKNOWN
    assert s.conflicts == 0 and s.num_clauses == clauses  # nothing counted or learned
    # a search that needs no conflict still finds its model
    s = pigeonhole_solver(5, 5)
    assert s.solve(conflict_limit=0) is Result.SAT
    assert s.conflicts == 0


def test_a_spent_conflict_budget_counts_no_further_conflict():
    s = pigeonhole_solver(6, 5)
    assert s.solve(conflict_limit=3) is Result.UNKNOWN
    assert s.conflicts == 3
    clauses = s.num_clauses
    assert s.solve(conflict_limit=3) is Result.UNKNOWN
    assert s.conflicts == 3 and s.num_clauses == clauses


def test_conflict_budget_returns_unknown():
    # a hole-heavy pigeonhole instance needs far more than one conflict
    s = pigeonhole_solver(5, 4)
    assert s.solve(conflict_limit=1) is Result.UNKNOWN
    assert s.conflicts == 1
    # the limit counts every conflict the solver has met, not this call's
    assert s.solve(conflict_limit=6) is Result.UNKNOWN
    assert s.conflicts == 6


def test_bound_added_after_a_model_is_honoured():
    s = Solver()
    for _ in range(3):
        s.new_var(phase=True)
    s.add_clause([1, 2, 3])
    assert s.solve() is Result.SAT
    assert s.model()[1:] == [True, True, True]
    s.add_atmost([1, 2, 3], [1, 1, 1], 1)
    assert s.solve() is Result.SAT
    assert sum(s.model()[1:]) == 1


def test_clause_added_after_a_model_is_honoured():
    s = Solver()
    for _ in range(3):
        s.new_var(phase=True)
    s.add_clause([1, 2, 3])
    assert s.solve() is Result.SAT
    s.add_clause([-1])
    s.add_clause([-2])
    assert s.solve() is Result.SAT
    assert s.model()[1:] == [False, False, True]
    s.add_clause([-3])
    assert s.solve() is Result.UNSAT


def test_tighten_returns_to_the_root():
    s = Solver()
    xs = [s.new_var(phase=True) for _ in range(5)]
    bound = s.add_atmost(xs, [1] * 5, 5)
    assert s.solve() is Result.SAT
    assert s.trail == xs  # one decision per level, every literal true
    s.tighten(bound, 2)
    assert s.trail_lim == [] and s.trail == []  # each literal still fits alone
    assert s.solve() is Result.SAT
    assert s.model()[1:] == [True, True, False, False, False]
    # a bound of 0 rules out every literal at the root
    s.tighten(bound, 0)
    assert s.trail_lim == []
    assert s.trail == [-x for x in xs]
    assert all(s.level[x] == 0 for x in xs)
    assert s.solve() is Result.SAT
    assert s.model()[1:] == [False] * 5


def test_tighten_forces_the_literals_heavier_than_the_slack_at_the_root():
    s = Solver()
    guard = s.new_var()
    xs = [s.new_var(phase=True) for _ in range(5)]
    bound = s.add_atmost(xs + [-guard], [1, 1, 1, 3, 1, 1], 8)
    assert s.solve(assumptions=[-guard]) is Result.SAT
    assert s.trail == [-guard] + xs  # the assumption at level 1, then one per level
    # from the root the slack is 5, so even x4 fits; the search forces it
    # off once the guard and x1..x2 weigh 3
    s.tighten(bound, 5)
    assert s.trail_lim == [] and s.trail == []
    assert s.solve(assumptions=[-guard]) is Result.SAT
    assert s.model()[2:] == [True, True, True, False, True]
    # a slack of 2 leaves no room for x4 at all
    s.tighten(bound, 2)
    assert s.trail_lim == []
    assert s.trail == [-xs[3]] and s.level[xs[3]] == 0
    assert s.solve(assumptions=[-guard]) is Result.SAT
    assert s.model()[2:] == [True, False, False, False, False]


def test_expired_deadline_is_noticed_up_front():
    s = fresh(2)
    s.add_clause([1, 2])
    assert s.solve(deadline=0.0) is Result.UNKNOWN


def test_deadline_interrupts_a_long_search():
    # eight pigeons, seven holes: far more work than the deadline allows
    s = pigeonhole_solver(8, 7)
    assert s.solve(deadline=monotonic() + 0.05) is Result.UNKNOWN


def test_deadline_is_checked_on_decisions_too(monkeypatch):
    # a clock that moves one second per reading, so the deadline has
    # passed on the first reading after the check at entry
    clock = itertools.count()
    monkeypatch.setattr("cudfsolve.sat.monotonic", lambda: float(next(clock)))
    s = fresh(2000)
    for v in range(1, 2000, 2):
        s.add_clause([v, v + 1])  # never conflicts: a long conflict-free descent
    assert s.solve(deadline=0.5) is Result.UNKNOWN
    assert s.conflicts == 0


def test_random_3sat_agrees_with_enumeration():
    rng = random.Random(1234)
    for round_number in range(120):
        n = rng.randint(3, 9)
        clauses = []
        s = fresh(n)
        for _ in range(rng.randint(1, 4 * n)):
            size = rng.randint(1, 3)
            chosen = rng.sample(range(1, n + 1), size)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            clauses.append(clause)
            s.add_clause(clause)
        expected = brute_sat(n, clauses)
        got = s.solve() is Result.SAT
        assert got == expected, f"round {round_number}: expected {expected}"
        if got:
            model = s.model()
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


def test_random_mixed_constraints_agree_with_enumeration():
    rng = random.Random(987)
    for round_number in range(120):
        n = rng.randint(3, 8)
        clauses, atmosts = [], []
        s = fresh(n)
        for _ in range(rng.randint(1, 2 * n)):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, 3))
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            clauses.append(clause)
            s.add_clause(clause)
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, n))
            lits = [v if rng.random() < 0.7 else -v for v in chosen]
            weights = [rng.randint(1, 4) for _ in lits]
            bound = rng.randint(0, sum(weights))
            atmosts.append((lits, weights, bound))
            s.add_atmost(lits, weights, bound)
        expected = brute_sat(n, clauses, atmosts)
        got = s.solve() is Result.SAT
        assert got == expected, f"round {round_number}: expected {expected}"
        if got:
            model = s.model()
            for lits, weights, bound in atmosts:
                weight = sum(
                    w for l, w in zip(lits, weights) if model[abs(l)] == (l > 0)
                )
                assert weight <= bound


def holds(model, lit):
    return model[abs(lit)] == (lit > 0)


def weight_of(model, lits, weights):
    return sum(w for l, w in zip(lits, weights) if holds(model, l))


def assert_model_satisfies(model, clauses, atmosts):
    for clause in clauses:
        assert any(holds(model, l) for l in clause), clause
    for lits, weights, bound in atmosts:
        assert weight_of(model, lits, weights) <= bound, (lits, weights, bound)


def assert_bound_propagated(s, lits, weights, bound):
    # tighten leaves no free literal that the bound has no room for
    slack = bound - sum(w for l, w in zip(lits, weights) if s.value(l) == 1)
    assert slack >= 0
    assert all(w <= slack for l, w in zip(lits, weights) if s.value(l) == 0)


@pytest.mark.parametrize("rescale_limit", [1e100, 1.5])
def test_incremental_bounds_agree_with_enumeration(monkeypatch, rescale_limit):
    # one live solver, a weighted bound tightened between searches: two steps
    # add a bound for good, then two tighten one guarded bound in place, as
    # the optimizer does, searched under the assumption that its guard is
    # false; every search starts again from the root.
    # A low rescale limit makes every solver rescale its activities early.
    # Every odd round decides a random list of preferred literals first, as
    # the optimizer prefers its objective literals false; that list comes
    # from a stream of its own.
    monkeypatch.setattr("cudfsolve.sat._RESCALE_LIMIT", rescale_limit)
    rng = random.Random(5150)
    pick = random.Random(6502)
    guarded_unsat = tightened = 0
    for round_number in range(400):
        n = rng.randint(3, 7)
        s = Solver()
        for _ in range(n):
            s.new_var(phase=rng.random() < 0.5)
        prefer = []
        if round_number % 2:
            chosen = pick.sample(range(1, n + 1), pick.randint(1, n))
            prefer = [v if pick.random() < 0.5 else -v for v in chosen]
        clauses, atmosts = [], []
        for _ in range(rng.randint(1, n)):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, 3))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
            s.add_clause(clauses[-1])
        model = None
        lits = []
        for step in range(10):
            if model is None or weight_of(model, lits, weights) == 0:
                # a new objective, like the optimizer's next level
                chosen = rng.sample(range(1, n + 1), rng.randint(2, n))
                lits = [v if rng.random() < 0.7 else -v for v in chosen]
                weights = [rng.randint(1, 3) for _ in lits]
                total = sum(weights)
                guard = None
            if model is not None and weight_of(model, lits, weights) > 0:
                bound = max(weight_of(model, lits, weights) - rng.randint(1, 2), 0)
            else:
                bound = rng.randint(0, total)
            if step // 2 % 2:
                # while -guard is assumed it weighs 1, leaving the literals ``bound``
                if guard is None:
                    guard = s.new_var()
                    constraint = s.add_atmost(lits + [-guard], weights + [1], bound + 1)
                    atmosts.append(None)
                    guarded = len(atmosts) - 1
                else:
                    assert bound + 1 <= constraint.bound
                    s.tighten(constraint, bound + 1)
                    tightened += 1
                atmosts[guarded] = (lits + [-guard], weights + [1], bound + 1)
                assumptions = [-guard]
            else:
                atmosts.append((lits, weights, bound))
                s.add_atmost(*atmosts[-1])
                assumptions = []
            if s.ok:
                assert_bound_propagated(s, *atmosts[guarded if assumptions else -1])
            expected = brute_sat(s.num_vars, clauses + [[a] for a in assumptions], atmosts)
            result = s.solve(assumptions=assumptions, prefer=prefer)
            assert (result is Result.SAT) == expected, (round_number, step)
            model = s.model() if result is Result.SAT else None
            if model is not None:
                assert_model_satisfies(model, clauses + [[a] for a in assumptions], atmosts)
                continue
            if not assumptions:
                break  # the formula itself is unsatisfiable now
            # the assumption failed; unless the fixed guard breaks the
            # formula itself, the solver lives on without it
            guarded_unsat += s.ok
            clauses.append([guard])  # as the optimizer closes a level
            s.add_clause([guard])
            guard = None
            expected = brute_sat(s.num_vars, clauses, atmosts)
            result = s.solve(prefer=prefer)
            assert (result is Result.SAT) == expected, (round_number, step)
            if result is not Result.SAT:
                break
            model = s.model()
            assert_model_satisfies(model, clauses, atmosts)
    assert guarded_unsat > 100 and tightened > 40


def assert_trail_levels(s):
    # an implied literal sits at the highest level among its reason's
    # literals, and those are false and earlier on the trail
    for pos, lit in enumerate(s.trail):
        v = abs(lit)
        assert s.trail_pos[v] == pos and s.value(lit) == 1
        if s.reason[v] is None:
            continue
        assert isinstance(s.reason[v], list)  # a clause, whatever implied the literal
        reason_lits = s._reason_lits(lit)
        assert all(s.value(q) == -1 and s.trail_pos[abs(q)] < pos for q in reason_lits)
        assert s.level[v] == max((s.level[abs(q)] for q in reason_lits), default=0)


def test_deep_trails_agree_with_enumeration(monkeypatch):
    # enough variables for a conflict to sit levels above literals that
    # were implied late at a lower level; each round adds a bound and
    # blocks part of the last model before every further search
    kept_below = 0
    backtrack = Solver._backtrack

    def counting(s, target):
        nonlocal kept_below
        if target < len(s.trail_lim):
            above = s.trail[s.trail_lim[target] :]
            kept_below += any(s.level[abs(lit)] <= target for lit in above)
        backtrack(s, target)

    monkeypatch.setattr(Solver, "_backtrack", counting)
    rng = random.Random(1)
    for round_number in range(300):
        n = rng.randint(8, 13)
        s = Solver()
        for _ in range(n):
            s.new_var(phase=rng.random() < 0.5)
        clauses, atmosts = [], []
        for _ in range(rng.randint(n, 4 * n)):
            chosen = rng.sample(range(1, n + 1), rng.randint(2, 4))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
            s.add_clause(clauses[-1])
        models = [
            model
            for model in ([None, *bits] for bits in itertools.product([False, True], repeat=n))
            if all(any(holds(model, l) for l in clause) for clause in clauses)
        ]
        for step in range(4):
            chosen = rng.sample(range(1, n + 1), rng.randint(2, n))
            lits = [v if rng.random() < 0.7 else -v for v in chosen]
            weights = [rng.randint(1, 3) for _ in lits]
            bound = rng.randint(sum(weights) // 3, sum(weights))
            atmosts.append((lits, weights, bound))
            s.add_atmost(lits, weights, bound)
            models = [model for model in models if weight_of(model, lits, weights) <= bound]
            chosen = rng.sample(range(1, n + 1), rng.randint(0, n))
            prefer = [v if rng.random() < 0.5 else -v for v in chosen]
            result = s.solve(prefer=prefer)
            assert_trail_levels(s)
            assert (result is Result.SAT) == bool(models), (round_number, step)
            if result is not Result.SAT:
                break
            model = s.model()
            assert_model_satisfies(model, clauses, atmosts)
            block = [-v if model[v] else v for v in rng.sample(range(1, n + 1), rng.randint(2, 4))]
            clauses.append(block)
            s.add_clause(block)
            models = [model for model in models if any(holds(model, l) for l in block)]
    assert kept_below > 40
