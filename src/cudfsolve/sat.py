"""A small conflict-driven SAT solver with counting constraints.

Purpose-built for the package solver: besides plain clauses it
supports weighted at-most bounds ("at most 3 of these literals"),
which is how objective tightening is expressed without blowing the
formula up into adder circuits.  Both kinds may be added between two
searches, so a bound can be tightened in a live solver that keeps its
learned clauses.  Everything is deterministic — ties in
the decision heuristic break on variable index — so repeated runs
produce identical models.

Literals are signed integers (variable ``v`` appears as ``v`` and
``-v``); variables are numbered from 1.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from time import monotonic
from typing import Iterable, Sequence

_RESCALE_LIMIT = 1e100
_DECAY = 1.0 / 0.95


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class AtMost:
    """Weighted bound: the true literals may weigh at most ``bound``."""

    __slots__ = ("lits", "weights", "bound", "true_weight", "wmax")

    def __init__(self, lits: list[int], weights: list[int], bound: int) -> None:
        self.lits = lits
        self.weights = weights
        self.bound = bound
        self.true_weight = 0
        self.wmax = max(weights) if weights else 0


class Solver:
    def __init__(self) -> None:
        self.ok = True
        # indexed by variable (entry 0 unused)
        self.assign: list[int] = [0]  # 0 free, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[object] = [None]
        self.trail_pos: list[int] = [0]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: dict[int, list[list[int]]] = {}
        self.card_occur: dict[int, list[tuple[AtMost, int]]] = {}
        self.atmosts: list[AtMost] = []
        self.num_clauses = 0
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.conflicts = 0

    # ------------------------------------------------------------------
    # building

    def new_var(self, phase: bool = False) -> int:
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.trail_pos.append(0)
        self.phase.append(phase)
        self.activity.append(0.0)
        return len(self.assign) - 1

    @property
    def num_vars(self) -> int:
        return len(self.assign) - 1

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause, before search or between two searches."""
        if not self.ok:
            return
        self._backtrack(0)  # judge the literals by the root assignment alone
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen or self.value(lit) == 1:
                return  # tautology or already satisfied
            if self.value(lit) == -1:
                continue  # can never help
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            return
        self.num_clauses += 1
        self.watches.setdefault(out[0], []).append(out)
        self.watches.setdefault(out[1], []).append(out)

    def add_atmost(self, lits: Sequence[int], weights: Sequence[int], bound: int) -> None:
        """Require the true literals among ``lits`` to weigh at most ``bound``.

        Like :meth:`add_clause`, valid before search or between searches.
        """
        if not self.ok:
            return
        self._backtrack(0)
        merged: dict[int, int] = {}
        for lit, weight in zip(lits, weights):
            merged[lit] = merged.get(lit, 0) + weight
        total = 0
        kept: dict[int, int] = {}
        for lit, weight in merged.items():
            value = self.value(lit)
            if value == 1:
                bound -= weight
            elif value == 0:
                kept[lit] = weight
                total += weight
        if bound < 0:
            self.ok = False
            return
        for lit, weight in list(kept.items()):
            if weight > bound:
                self._enqueue(-lit, None)
                if not self.ok:
                    return
                total -= weight
                del kept[lit]
        if total <= bound:
            return  # can never trip
        constraint = AtMost(list(kept), [kept[l] for l in kept], bound)
        self.atmosts.append(constraint)
        for lit, weight in kept.items():
            self.card_occur.setdefault(lit, []).append((constraint, weight))

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: object) -> bool:
        value = self.value(lit)
        if value == 1:
            return True
        if value == -1:
            if not self.trail_lim:
                self.ok = False
            return False
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail_pos[v] = len(self.trail)
        self.phase[v] = lit > 0
        self.trail.append(lit)
        # counters move with the assignment so that backtracking stays
        # symmetric even for literals that never reach the queue head
        for constraint, weight in self.card_occur.get(lit, ()):
            constraint.true_weight += weight
        return True

    def _backtrack(self, target: int) -> None:
        while len(self.trail_lim) > target:
            until = self.trail_lim.pop()
            while len(self.trail) > until:
                lit = self.trail.pop()
                for constraint, weight in self.card_occur.get(lit, ()):
                    constraint.true_weight -= weight
                v = abs(lit)
                self.assign[v] = 0
                self.reason[v] = None
                heappush(self.heap, (-self.activity[v], v))
            self.qhead = min(self.qhead, len(self.trail))

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        """Run to fixpoint; returns a falsified clause on conflict."""
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1

            for constraint, _ in self.card_occur.get(p, ()):
                slack = constraint.bound - constraint.true_weight
                if slack < 0:
                    return self._card_conflict(constraint)
                if constraint.wmax > slack:
                    for lit, w in zip(constraint.lits, constraint.weights):
                        if w > slack and self.value(lit) == 0:
                            self._enqueue(-lit, constraint)

            ws = self.watches.get(-p)
            if not ws:
                continue
            kept: list[list[int]] = []
            conflict: list[int] | None = None
            for i, clause in enumerate(ws):
                if clause[0] == -p:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.value(first) == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self.value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if self.value(first) == -1:
                        conflict = clause
                        kept.extend(ws[i + 1 :])
                        break
                    self._enqueue(first, clause)
            self.watches[-p] = kept
            if conflict is not None:
                return conflict
        return None

    def _card_conflict(self, constraint: AtMost) -> list[int]:
        culprits: list[tuple[int, int, int]] = []  # (trail position, lit, weight)
        for lit, weight in zip(constraint.lits, constraint.weights):
            if self.value(lit) == 1:
                culprits.append((self.trail_pos[abs(lit)], lit, weight))
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
        """The falsified tail of the clause that implied ``lit``."""
        reason = self.reason[abs(lit)]
        if isinstance(reason, AtMost):
            cutoff = self.trail_pos[abs(lit)]
            return [
                -other
                for other in reason.lits
                if self.value(other) == 1 and self.trail_pos[abs(other)] < cutoff
            ]
        assert isinstance(reason, list)
        return [other for other in reason if other != lit]

    # ------------------------------------------------------------------
    # learning

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > _RESCALE_LIMIT:
            for i in range(1, len(self.activity)):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        current = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learnt: list[int] = [0]
        counter = 0
        idx = len(self.trail) - 1
        reason_lits = conflict
        p = 0
        while True:
            for q in reason_lits:
                v = abs(q)
                if seen[v] or self.level[v] == 0:
                    continue
                seen[v] = True
                self._bump(v)
                if self.level[v] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._reason_lits(p)
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # move a literal of the backjump level into the watch slot
        best = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _learn(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.num_clauses += 1
        self.watches.setdefault(learnt[0], []).append(learnt)
        self.watches.setdefault(learnt[1], []).append(learnt)
        self._enqueue(learnt[0], learnt)

    # ------------------------------------------------------------------
    # search

    def _pick_var(self) -> int | None:
        while self.heap:
            negact, v = heappop(self.heap)
            if self.assign[v] != 0:
                continue
            if -negact != self.activity[v]:
                heappush(self.heap, (-self.activity[v], v))
                continue
            return v
        return None

    def solve(
        self,
        *,
        max_conflicts: int | None = None,
        deadline: float | None = None,
    ) -> Result:
        """UNKNOWN once this call meets ``max_conflicts`` conflicts or ``deadline``."""
        if not self.ok:
            return Result.UNSAT
        if deadline is not None and monotonic() > deadline:
            return Result.UNKNOWN
        self._backtrack(0)
        self.heap = []
        for v in range(1, self.num_vars + 1):
            if self.assign[v] == 0:
                heappush(self.heap, (-self.activity[v], v))

        restart_unit = 64
        luby_index = 1
        next_restart = self.conflicts + restart_unit * _luby(luby_index)
        give_up = None if max_conflicts is None else self.conflicts + max_conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return Result.UNSAT
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self._learn(learnt)
                if not self.ok:
                    return Result.UNSAT
                self.var_inc *= _DECAY
                if give_up is not None and self.conflicts >= give_up:
                    return Result.UNKNOWN
                if deadline is not None and self.conflicts % 128 == 0:
                    if monotonic() > deadline:
                        return Result.UNKNOWN
                if self.conflicts >= next_restart:
                    luby_index += 1
                    next_restart = self.conflicts + restart_unit * _luby(luby_index)
                    self._backtrack(0)
                continue
            variable = self._pick_var()
            if variable is None:
                return Result.SAT
            self.trail_lim.append(len(self.trail))
            lit = variable if self.phase[variable] else -variable
            self._enqueue(lit, None)

    def model(self) -> list[bool]:
        """Truth value per variable (index 0 unused); call after SAT."""
        return [value == 1 for value in self.assign]


def _luby(i: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 ... (``i`` starts at 1)."""
    size, exponent = 1, 0
    while size < i:
        exponent += 1
        size = 2 * size + 1
    x = i - 1
    while size - 1 != x:
        size = (size - 1) >> 1
        exponent -= 1
        x %= size
    return 1 << exponent
