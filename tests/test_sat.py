import itertools
import random
from time import monotonic

from cudfsolve.sat import Result, Solver, _luby


def fresh(n):
    solver = Solver()
    for _ in range(n):
        solver.new_var()
    return solver


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
    # three pigeons, two holes: var (p, h) = p * 2 + h + 1
    s = fresh(6)
    for p in range(3):
        s.add_clause([p * 2 + 1, p * 2 + 2])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                s.add_clause([-(p1 * 2 + h + 1), -(p2 * 2 + h + 1)])
    assert s.solve() is Result.UNSAT


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


def test_conflict_budget_returns_unknown():
    # a hole-heavy pigeonhole instance needs far more than one conflict
    s = fresh(20)
    for p in range(5):
        s.add_clause([p * 4 + h + 1 for h in range(4)])
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                s.add_clause([-(p1 * 4 + h + 1), -(p2 * 4 + h + 1)])
    assert s.solve(max_conflicts=1) is Result.UNKNOWN
    assert s.conflicts == 1
    # the budget counts the conflicts of this call only
    assert s.solve(max_conflicts=5) is Result.UNKNOWN
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


def test_expired_deadline_is_noticed_up_front():
    s = fresh(2)
    s.add_clause([1, 2])
    assert s.solve(deadline=0.0) is Result.UNKNOWN


def test_deadline_interrupts_a_long_search():
    # eight pigeons, seven holes: far more work than the deadline allows
    s = fresh(56)
    for p in range(8):
        s.add_clause([p * 7 + h + 1 for h in range(7)])
    for h in range(7):
        for p1 in range(8):
            for p2 in range(p1 + 1, 8):
                s.add_clause([-(p1 * 7 + h + 1), -(p2 * 7 + h + 1)])
    assert s.solve(deadline=monotonic() + 0.05) is Result.UNKNOWN


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


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]
