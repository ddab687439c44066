"""A small conflict-driven SAT solver with counting constraints.

Purpose-built for the package solver: besides plain clauses it
supports weighted at-most bounds ("at most 3 of these literals"),
which is how objective tightening is expressed without blowing the
formula up into adder circuits.  Both kinds may be added between two
searches, and :meth:`Solver.solve` takes assumptions, so one live
solver serves a whole optimization with its learned clauses kept.
Each criterion level needs one bound: its guard literal weighs 1 while
the guard is assumed false, and :meth:`Solver.tighten` lowers the
bound in place, at the root, after every model.  Every search starts
from the root and decides its assumptions first, then each free
literal of a list of preferred ones, in order, before any decision by
activity and saved phase.  Unlike assumptions these are ordinary
decisions, so a conflict overrides a preference and the clause it
learns keeps it overridden.  A conflict undoes one level, its own,
and the learned literal is asserted at the lower level its clause
gives it, so the preferences decided below the conflict stay decided
(chronological backtracking; Nadel and Ryvchin, SAT 2018).  An implied
literal takes the highest level among its reason's literals, so a
literal can sit on the trail after decisions of later levels.  Every
reason is a clause: the literals a bound forces false share one, the
negations of the bound's true literals.
A search never restarts: with the preferences decided first and one
level undone per conflict, Luby restarts fired twice over the 127
seed-1 benchmark instances, and deleting them changed no answer.
Everything is deterministic — ties in the decision heuristic break on
variable index — so repeated runs produce identical models.

Literals are signed integers (variable ``v`` appears as ``v`` and
``-v``); variables are numbered from 1.  Per-literal arrays are
addressed by the signed literal itself: ``-v`` lands in the upper half
through Python's negative indexing.
"""

from __future__ import annotations

import enum
from heapq import heapify, heappop, heappush
from time import monotonic
from typing import Iterable, Sequence

_RESCALE_LIMIT = 1e100
_DECAY = 1.0 / 0.95


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class AtMost:
    """Weighted bound: the true literals may weigh at most ``bound``.

    The literals are stored heaviest first, so a scan for the literals
    that no longer fit stops at the first one that does.
    """

    __slots__ = ("lits", "weights", "bound", "true_weight")

    def __init__(self, weighted: dict[int, int], bound: int) -> None:
        heaviest_first = sorted(weighted.items(), key=lambda item: -item[1])
        self.lits = [lit for lit, _ in heaviest_first]
        self.weights = [weight for _, weight in heaviest_first]
        self.bound = bound
        self.true_weight = 0


class Solver:
    def __init__(self) -> None:
        self.ok = True
        self.num_vars = 0
        # indexed by signed literal, 2 * capacity + 1 entries (entry 0 unused)
        self._capacity = 0
        self.lval: list[int] = [0]  # 0 free, 1 true, -1 false
        self.watches: list[list[list[int]]] = [[]]
        self.card_occur: list[list[tuple[AtMost, int]]] = [[]]
        # indexed by variable (entry 0 unused)
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.trail_pos: list[int] = [0]
        self.saved: list[int] = [0]  # the literal a decision on this variable picks
        self.activity: list[float] = [0.0]
        self.in_heap: list[bool] = [False]  # has an entry keyed by its activity
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.num_clauses = 0
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.conflicts = 0
        self.decisions = 0
        self._prefer_pos = 0  # literals of ``prefer`` before it are assigned

    # ------------------------------------------------------------------
    # building

    def new_var(self, phase: bool = False) -> int:
        v = self.num_vars + 1
        if v > self._capacity:
            self._grow(max(16, 2 * self._capacity))
        self.num_vars = v
        self.level.append(0)
        self.reason.append(None)
        self.trail_pos.append(0)
        self.saved.append(v if phase else -v)
        self.activity.append(0.0)
        self.in_heap.append(True)
        heappush(self.heap, (-0.0, v))
        return v

    def _grow(self, capacity: int) -> None:
        """Widen the literal-indexed arrays to ``capacity`` variables.

        The new slots go between the positive and the negative half, so
        every existing literal keeps its index.
        """
        middle = self._capacity + 1
        extra = 2 * (capacity - self._capacity)
        self.lval[middle:middle] = [0] * extra
        self.watches[middle:middle] = [[] for _ in range(extra)]
        self.card_occur[middle:middle] = [[] for _ in range(extra)]
        self._capacity = capacity

    def value(self, lit: int) -> int:
        return self.lval[lit]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause, before search or between two searches."""
        if not self.ok:
            return
        self._backtrack(0)  # judge the literals by the root assignment alone
        lval = self.lval
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen or lval[lit] == 1:
                return  # tautology or already satisfied
            if lval[lit] == -1:
                continue  # can never help
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None, 0)
            return
        self.num_clauses += 1
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    def add_atmost(self, lits: Sequence[int], weights: Sequence[int], bound: int) -> AtMost:
        """Require the true literals among ``lits`` to weigh at most ``bound``.

        Valid before search or between searches.  Merges duplicate
        literals and returns the constraint, whose bound :meth:`tighten`
        can lower later.
        """
        merged: dict[int, int] = {}
        for lit, weight in zip(lits, weights):
            merged[lit] = merged.get(lit, 0) + weight
        constraint = AtMost(merged, bound)
        for lit, weight in merged.items():
            self.card_occur[lit].append((constraint, weight))
            if self.lval[lit] == 1:
                constraint.true_weight += weight
        self.tighten(constraint, bound)
        return constraint

    def tighten(self, constraint: AtMost, bound: int) -> None:
        """Lower the bound of ``constraint`` to ``bound`` in place, at the root.

        Valid between searches; learned clauses stay implied, since the
        constraint only gets stronger.  A bound the root assignment
        already breaks makes the formula unsatisfiable; otherwise every
        free literal heavier than the slack is enqueued false at the
        root, with the negations of the true literals as its reason.
        """
        self._backtrack(0)
        constraint.bound = bound
        slack = bound - constraint.true_weight
        if slack < 0:
            self.ok = False
            return
        reason = [-q for q in constraint.lits if self.lval[q] == 1]
        for lit, weight in zip(constraint.lits, constraint.weights):
            if weight <= slack:
                break
            if self.lval[lit] == 0:
                self._enqueue(-lit, reason, 0)

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> None:
        """Make ``lit`` true at ``level``; it must be unassigned.

        ``level`` is the current level for a decision, and the highest
        level among the reason's other literals for an implied literal.
        """
        lval = self.lval
        v = lit if lit > 0 else -lit
        lval[lit] = 1
        lval[-lit] = -1
        self.level[v] = level
        self.reason[v] = reason
        self.trail_pos[v] = len(self.trail)
        self.saved[v] = lit
        self.trail.append(lit)
        # counters move with the assignment so that backtracking stays
        # symmetric even for literals that never reach the queue head
        for constraint, weight in self.card_occur[lit]:
            constraint.true_weight += weight

    def _backtrack(self, target: int) -> None:
        """Unassign every literal whose level is above ``target``.

        A literal at or below ``target`` can sit on the trail after the
        decision of level ``target + 1``, since an implied literal takes
        the highest level among its reason's literals.  Those stay, in
        trail order, and are propagated again: the conflict that led here
        may have stopped a watch list half-visited.
        """
        if len(self.trail_lim) <= target:
            return
        lval, card_occur, reason, level = self.lval, self.card_occur, self.reason, self.level
        in_heap, activity, heap = self.in_heap, self.activity, self.heap
        until = self.trail_lim[target]
        del self.trail_lim[target:]
        trail, trail_pos = self.trail, self.trail_pos
        kept: list[int] = []
        for lit in trail[until:]:
            v = lit if lit > 0 else -lit
            if level[v] <= target:
                trail_pos[v] = until + len(kept)
                kept.append(lit)
                continue
            for constraint, weight in card_occur[lit]:
                constraint.true_weight -= weight
            lval[lit] = lval[-lit] = 0
            reason[v] = None
            if not in_heap[v]:
                in_heap[v] = True
                heappush(heap, (-activity[v], v))
        trail[until:] = kept
        self.qhead = min(self.qhead, until)
        self._prefer_pos = 0

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        """Run to fixpoint; returns a falsified clause on conflict."""
        lval, trail, watches, card_occur = self.lval, self.trail, self.watches, self.card_occur
        level, enqueue = self.level, self._enqueue
        current = len(self.trail_lim)
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            lower = level[p if p > 0 else -p] < current

            for constraint, _ in card_occur[p]:
                slack = constraint.bound - constraint.true_weight
                if slack < 0:
                    return self._card_conflict(constraint)
                reason = None  # the true literals' negations, once needed
                for lit, w in zip(constraint.lits, constraint.weights):
                    if w <= slack:
                        break
                    if lval[lit] == 0:
                        if reason is None:
                            reason = [-q for q in constraint.lits if lval[q] == 1]
                            at = max(level[abs(q)] for q in reason) if lower else current
                        enqueue(-lit, reason, at)

            false_lit = -p
            ws = watches[false_lit]
            if not ws:
                continue
            kept: list[list[int]] = []
            conflict: list[int] | None = None
            for i, clause in enumerate(ws):
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if lval[first] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if lval[other] != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    kept.append(clause)
                    if lval[first] == -1:
                        conflict = clause
                        kept.extend(ws[i + 1 :])
                        break
                    at = max(level[abs(q)] for q in clause[1:]) if lower else current
                    enqueue(first, clause, at)
            watches[false_lit] = kept
            if conflict is not None:
                return conflict
        return None

    def _card_conflict(self, constraint: AtMost) -> list[int]:
        lval, trail_pos = self.lval, self.trail_pos
        culprits: list[tuple[int, int, int]] = []  # (trail position, lit, weight)
        for lit, weight in zip(constraint.lits, constraint.weights):
            if lval[lit] == 1:
                culprits.append((trail_pos[abs(lit)], lit, weight))
        culprits.sort()
        total = 0
        chosen: list[int] = []
        for _, lit, weight in culprits:
            chosen.append(-lit)
            total += weight
            if total > constraint.bound:
                break
        return chosen

    def _reason_lits(self, lit: int) -> list[int]:
        """The false literals of the clause that implied ``lit``."""
        return [other for other in self.reason[abs(lit)] if other != lit]

    # ------------------------------------------------------------------
    # learning

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > _RESCALE_LIMIT:
            for i in range(1, len(activity)):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # every key just went stale: one entry per free variable
            lval = self.lval
            self.heap = [(-activity[u], u) for u in range(1, self.num_vars + 1) if lval[u] == 0]
            heapify(self.heap)
            self.in_heap = [False] + [lval[u] == 0 for u in range(1, self.num_vars + 1)]
        elif self.in_heap[v]:
            heappush(self.heap, (-activity[v], v))  # supersedes the stale entry

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause of ``conflict`` and its backjump level.

        The current level must be the conflict level, the highest among
        the conflict's literals, and hold at least two of them.
        """
        level, trail = self.level, self.trail
        current = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learnt: list[int] = [0]
        counter = 0
        idx = len(trail) - 1
        reason_lits = conflict
        p = 0
        while True:
            for q in reason_lits:
                v = q if q > 0 else -q
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = True
                self._bump(v)
                if level[v] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while not seen[abs(trail[idx])] or level[abs(trail[idx])] != current:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._reason_lits(p)
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # move a literal of the backjump level into the watch slot
        best = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _learn(self, learnt: list[int], backjump: int) -> None:
        """Add ``learnt`` and assert its first literal at ``backjump``."""
        if len(learnt) == 1:
            self._enqueue(learnt[0], None, 0)
            return
        self.num_clauses += 1
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt, backjump)

    # ------------------------------------------------------------------
    # search

    def _pick_var(self) -> int | None:
        """The free variable of highest activity, lowest index on ties."""
        heap, activity, lval, in_heap = self.heap, self.activity, self.lval, self.in_heap
        while heap:
            negact, v = heappop(heap)
            if -negact != activity[v]:
                continue  # stale: a later push carries the current key
            in_heap[v] = False
            if lval[v] == 0:
                return v
        return None

    def solve(
        self,
        *,
        assumptions: Sequence[int] = (),
        prefer: Sequence[int] = (),
        conflict_limit: int | None = None,
        deadline: float | None = None,
    ) -> Result:
        """Search for a model in which every literal of ``assumptions`` holds.

        Every search starts from the root and decides the assumptions
        first, at levels 1, 2, ...  UNSAT under assumptions leaves the
        solver usable (``ok`` stays true); UNSAT with ``ok`` false means
        the formula itself is unsatisfiable.  Then, before any decision
        by activity, the first free literal of ``prefer`` is decided
        true.  These are decisions, not assumptions: a conflict can flip
        one, and the clause it learns keeps it flipped.  A conflict
        undoes only the highest level among its literals: with two or
        more literals there, the first-UIP clause is learned and its
        literal asserted at the clause's backjump level, below the
        levels that stay; with one, that literal was implied lower
        down, and it is assigned there.  UNKNOWN once ``conflicts``
        reaches ``conflict_limit`` (a conflict met there is not counted)
        or the clock passes ``deadline``, which is checked every 128
        conflicts and every 256 decisions; both limits are absolute, so
        they span every call.
        """
        if not self.ok:
            return Result.UNSAT
        if deadline is not None and monotonic() > deadline:
            return Result.UNKNOWN
        self._backtrack(0)
        self._prefer_pos = 0

        trail, trail_lim, lval, level = self.trail, self.trail_lim, self.lval, self.level

        while True:
            conflict = self._propagate()
            if conflict is not None:
                top = max(level[abs(q)] for q in conflict)
                at_top = [q for q in conflict if level[abs(q)] == top]
                if top and len(at_top) == 1:
                    # a missed implication: the literal held at a lower level
                    below = max((level[abs(q)] for q in conflict if q != at_top[0]), default=0)
                    self._backtrack(below)
                    self._enqueue(at_top[0], conflict, below)
                    continue
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return Result.UNKNOWN
                self.conflicts += 1
                if not top:
                    self.ok = False
                    return Result.UNSAT
                self._backtrack(top)
                learnt, backjump = self._analyze(conflict)
                self._backtrack(top - 1)
                self._learn(learnt, backjump)
                self.var_inc *= _DECAY
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return Result.UNKNOWN
                if deadline is not None and self.conflicts % 128 == 0:
                    if monotonic() > deadline:
                        return Result.UNKNOWN
                continue
            depth = len(trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                if lval[lit] == -1:
                    return Result.UNSAT  # the assumptions contradict the formula
                trail_lim.append(len(trail))  # an empty level when already true
                if lval[lit] == 0:
                    self._enqueue(lit, None, depth + 1)
                continue
            pos = self._prefer_pos
            while pos < len(prefer) and lval[prefer[pos]] != 0:
                pos += 1
            self._prefer_pos = pos
            if pos < len(prefer):
                lit = prefer[pos]
            else:
                variable = self._pick_var()
                if variable is None:
                    return Result.SAT
                lit = self.saved[variable]
            self.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(lit, None, len(trail_lim))
            if deadline is not None and self.decisions % 256 == 0:
                if monotonic() > deadline:
                    return Result.UNKNOWN

    def model(self) -> list[bool]:
        """Truth value per variable (index 0 unused); call after SAT."""
        return [value == 1 for value in self.lval[: self.num_vars + 1]]
