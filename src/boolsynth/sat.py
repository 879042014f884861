"""A small deterministic CDCL satisfiability solver.

Implements just what the propositional region engine needs: incremental
clause addition, solving under assumptions, watched literals with a binary
fast path, first-UIP clause learning, activity-based decisions with index
tie-breaking and phase saving (callers may hint a phase with ``set_phase``).
No randomness anywhere, so runs are reproducible. It never restarts: after
a Luby restart it decided the active variables first, so on the glued
hardness instances each later backjump undid and redecided the untouched
support bits above them (95,620 decisions in one bench pass, 31,733
without). Learning without clause deletion keeps the search complete.

Literal convention: DIMACS-style nonzero ints at the API boundary
(``v``/``-v``), mapped internally to ``2v`` (positive) / ``2v + 1``
(negative); ``add_clause`` converts and normalises one DIMACS clause,
``add_clauses`` normalises a batch in internal literals, and ``attach``
appends a trusted CNF straight into ``watches[lit]``, the long clauses
watching ``lit``, and ``bins[lit]``, the partner literals of binary
clauses containing ``lit``. Both fire when ``lit`` becomes false.

As in MiniSat (Een & Sorensson, SAT 2003), a reason is the implying clause
itself, implied literal first (never reordered while that literal is true),
and the decision heap holds no duplicate entries. A binary implication's
reason is the other literal of its clause, an int, so that propagation
builds no clause for it. Every learnt clause of two or more literals is
attached and becomes the reason of the literal it asserts. ``conflicts``,
``decisions`` and ``propagations`` count work over the solver's lifetime.

Decision variables (MiniSat's ``setDecisionVar``): with ``decision_vars=k``
only variables 1..k get heap entries and are decided. ``solve`` answers sat
once they are all assigned without a conflict, and the variables left open
read false; the caller vouches that they can always complete a model.

Chronological backtracking (Nadel & Ryvchin, SAT 2018; Mohle & Biere, SAT
2019): a backjump over more than ``CHRONO_LEVELS`` levels backtracks one
level, and the learnt literal takes its asserting level, so the trail may
hold literals out of level order. On the glued hardness gadgets most open
levels have nothing to do with a given conflict, so long backjumps made most
propagations redo undone assignments. Of 0, 10, 25 and 100, 10 ran them the
fastest while the solver still restarted, and it leaves every search without
longer backjumps as it was. Without restarts 0, 3 and 10 run the cubic
formulas of m = 24 and 36 about equally fast, and plain backjumping takes
up to twice as long.
"""

from __future__ import annotations

import heapq
import sys
import time
from itertools import repeat
from typing import Iterable, Optional, Sequence, Union

_FALSE = 0
_TRUE = 1
_UNDEF = 2

#: Backjumps over more levels than this backtrack one level (read per conflict).
CHRONO_LEVELS = 10


class SatSolver:
    """Incremental CDCL solver over DIMACS-style integer literals."""

    def __init__(self, decision_vars: Optional[int] = None) -> None:
        # Only variables 1..decision_vars get a heap entry, so only they are
        # decided; the others keep ``in_heap`` at 1 and are never pushed.
        self._decision_limit = sys.maxsize if decision_vars is None else decision_vars
        self._nvars = 0
        # Lists, not bytearrays: the interpreter specialises list indexing.
        self._val: list[int] = [_UNDEF, _UNDEF]  # indexed by internal literal
        self._level: list[int] = [0]
        self._reason: list[Union[None, int, Sequence[int]]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._in_heap = bytearray(1)  # heap holds (-activity[var], var)
        self._watches: list[list[list[int]]] = [[], []]
        self._bins: list[list[int]] = [[], []]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._ok = True
        self.conflicts = self.decisions = self.propagations = 0
        self._model = b""

    # ------------------------------------------------------------------ api

    def ensure_vars(self, count: int) -> None:
        added = count - self._nvars
        if added <= 0:
            return
        # (0.0, var) sorts above every entry already in the heap
        decided = min(count, self._decision_limit)
        self._heap += [(0.0, var) for var in range(self._nvars + 1, decided + 1)]
        self._nvars = count
        self._val += [_UNDEF] * (2 * added)
        self._level += [0] * added
        self._reason += [None] * added
        self._activity += [0.0] * added
        self._phase += [0] * added
        self._in_heap += b"\1" * added
        self._watches += [[] for _ in repeat(None, 2 * added)]
        self._bins += [[] for _ in repeat(None, 2 * added)]

    @property
    def num_vars(self) -> int:
        return self._nvars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause of DIMACS literals (the solver first backtracks to
        level 0, so adding clauses between ``solve`` calls is safe)."""
        self._add_normalised([lit * 2 if lit > 0 else 1 - lit * 2 for lit in lits])

    def add_clauses(self, clauses: Iterable[list[int]]) -> None:
        """Add clauses of internal literals, with the effect of ``add_clause``
        on each in turn."""
        for clause in clauses:
            self._add_normalised(clause)

    def attach(self, pairs: Sequence[int], clauses: Iterable[list[int]]) -> None:
        """``add_clauses`` on binary clauses (a flat list of literal pairs)
        and then on longer ones, minus its checks, while nothing is assigned
        (MiniSat's ``attachClause``): each clause names distinct known
        variables. The solver keeps and reorders the long clauses' lists."""
        if self._trail:
            raise ValueError("clauses are attached only while nothing is assigned")
        bins = self._bins
        watches = self._watches
        it = iter(pairs)
        for a, b in zip(it, it):
            bins[a].append(b)
            bins[b].append(a)
        for clause in clauses:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)

    def _add_normalised(self, clause: list[int]) -> None:
        # Literals are taken in order: a tautology or a literal true at level
        # 0 skips the clause, and no variable after it is created.
        if min(clause, default=2) < 2:
            raise ValueError("literal 0 is not allowed")
        if self._trail_lim:
            self._backtrack(0)
        val = self._val
        kept: list[int] = []
        for lit in clause:
            self.ensure_vars(lit >> 1)
            if lit ^ 1 in kept or val[lit] == _TRUE:
                return
            if val[lit] == _UNDEF and lit not in kept:
                kept.append(lit)
        if not kept:
            self._ok = False
        elif self._ok and len(kept) > 1:
            self._attach(kept)
        elif self._ok:
            self._enqueue(kept[0], 0, None)
            self._ok = self._propagate() is None

    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """True = satisfiable, False = unsatisfiable (under assumptions), None =
        deadline passed (checked every 64 conflicts and 1,024 decisions); a
        later call resumes from the learnt clauses. With ``decision_vars``,
        variables above it may be left open in the model."""
        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        if not self._ok:
            return False
        if deadline is not None and time.monotonic() > deadline:
            return None
        self._backtrack(0)
        self.ensure_vars(max(map(abs, assumptions), default=0))
        assume = [lit * 2 if lit > 0 else 1 - lit * 2 for lit in assumptions]
        val = self._val
        trail = self._trail
        trail_lim = self._trail_lim
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflict_level = max(self._level[lit >> 1] for lit in conflict)
                if not conflict_level:
                    self._ok = False
                    return False
                self._backtrack(conflict_level)
                learnt, back_level = self._analyze(conflict)
                chrono = conflict_level - back_level > CHRONO_LEVELS
                self._backtrack(conflict_level - 1 if chrono else back_level)
                self._record_learnt(learnt, back_level)
                self._var_inc /= 0.95
                if self._var_inc > 1e100:
                    self._rescale_activity()
                if deadline is not None and self.conflicts % 64 == 0:
                    if time.monotonic() > deadline:
                        return None
                continue
            lvl = len(trail_lim)
            if lvl < len(assume):
                lit = assume[lvl]
                value = val[lit]
                if value == _FALSE:
                    return False
                trail_lim.append(len(trail))
                if value == _UNDEF:
                    self._enqueue(lit, lvl + 1, None)
                continue
            var = self._pick_branch_var()
            if not var:
                self._model = bytes(val)
                return True
            trail_lim.append(len(trail))
            self._enqueue(var * 2 + (self._phase[var] ^ 1), lvl + 1, None)
            self.decisions += 1
            if deadline is not None and not self.decisions % 1024:
                if time.monotonic() > deadline:
                    return None

    def set_phase(self, var: int, value: bool) -> None:
        """Set the saved phase that the next decision on ``var`` takes. A
        hint only: it never changes whether a query is satisfiable, and any
        later assignment of ``var`` saves its own phase over it."""
        if var < 1:
            raise ValueError("variables are numbered from 1")
        if var > self._nvars:
            self.ensure_vars(var)
        self._phase[var] = 1 if value else 0

    @property
    def model_values(self) -> bytes:
        """The most recent satisfying assignment by internal literal: byte
        ``2v`` is 1 where v is true, 0 where false, 2 where left open."""
        return self._model

    def model_value(self, var: int) -> bool:
        """Truth of ``var`` in the most recent satisfying assignment; a
        variable it left open (above ``decision_vars``) reads false."""
        return self._model[var * 2] == _TRUE

    def model(self) -> list[bool]:
        return [self.model_value(v) for v in range(1, self._nvars + 1)]

    def verify_model(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Check the last model against an iterable of DIMACS clauses."""
        model = self._model
        return all(
            any(model[abs(lit) * 2 + (lit < 0)] == _TRUE for lit in clause)
            for clause in clauses
        )

    # ------------------------------------------------------------ internals

    def _enqueue(self, lit: int, level: int, reason: Optional[Sequence[int]]) -> None:
        self._val[lit] = _TRUE
        self._val[lit ^ 1] = _FALSE
        var = lit >> 1
        self._level[var] = level
        self._reason[var] = reason
        self._phase[var] = 1 - (lit & 1)
        self._trail.append(lit)

    def _propagate(self) -> Optional[Sequence[int]]:
        val = self._val
        level = self._level
        reasons = self._reason
        phase = self._phase
        bins = self._bins
        watches = self._watches
        trail = self._trail
        lvl = len(self._trail_lim)
        qhead = start = self._qhead
        try:
            while qhead < len(trail):
                falsified = trail[qhead] ^ 1
                qhead += 1
                for implied in bins[falsified]:
                    v = val[implied]
                    if v == _FALSE:
                        return (implied, falsified)
                    if v == _UNDEF:
                        val[implied] = _TRUE
                        val[implied ^ 1] = _FALSE
                        var = implied >> 1
                        level[var] = level[falsified >> 1]
                        reasons[var] = falsified
                        phase[var] = 1 - (implied & 1)
                        trail.append(implied)
                # Only slots already passed are rewritten, and a clause moves
                # to a literal that is not false, so never back into this list.
                watch_list = watches[falsified]
                write = moved = 0
                for clause in watch_list:
                    first = clause[0]
                    if first == falsified:
                        first = clause[1]
                        clause[0] = first
                        clause[1] = falsified
                    if val[first] == _TRUE:
                        watch_list[write] = clause
                        write += 1
                        continue
                    lk = clause[2]  # most clauses are ternary: no range
                    if val[lk] != _FALSE:
                        clause[1] = lk
                        clause[2] = falsified
                        watches[lk].append(clause)
                        moved += 1
                        continue
                    for k in range(3, len(clause)):
                        lk = clause[k]
                        if val[lk] != _FALSE:
                            clause[1] = lk
                            clause[k] = falsified
                            watches[lk].append(clause)
                            moved += 1
                            break
                    else:
                        watch_list[write] = clause
                        write += 1
                        if val[first] == _FALSE:
                            del watch_list[write : write + moved]
                            return clause
                        val[first] = _TRUE
                        val[first ^ 1] = _FALSE
                        var = first >> 1
                        implied_level = level[falsified >> 1]
                        if implied_level != lvl:
                            implied_level = max(level[lit >> 1] for lit in clause[1:])
                        level[var] = implied_level
                        reasons[var] = clause
                        phase[var] = 1 - (first & 1)
                        trail.append(first)
                del watch_list[write:]
            return None
        finally:
            self._qhead = qhead
            self.propagations += qhead - start

    def _analyze(self, conflict: Sequence[int]) -> tuple[list[int], int]:
        """First-UIP learning: (the learnt clause, attached unless a unit,
        asserting literal first and a literal of the backjump level second;
        the backjump level). Bumps the activity of every variable it meets."""
        learnt: list[int] = [0]
        seen: set[int] = set()
        counter = 0
        levels = self._level
        activity = self._activity
        in_heap = self._in_heap
        var_inc = self._var_inc
        limit = self._decision_limit
        level = len(self._trail_lim)
        trail = self._trail
        reason: Sequence[int] = conflict
        idx = len(trail) - 1
        while True:
            # A variable stays seen once resolved: no reason met later holds
            # it, since a reason's literals precede its own on the trail.
            for lit in reason:
                var = lit >> 1
                if var in seen:
                    continue
                lit_level = levels[var]
                if lit_level == 0:
                    continue
                seen.add(var)
                activity[var] += var_inc
                if var <= limit:
                    in_heap[var] = 0  # assigned, so a backtrack pushes it anew
                if lit_level == level:
                    counter += 1
                else:
                    learnt.append(lit)
            # lower-level literals may sit among this level's on the trail
            while trail[idx] >> 1 not in seen or levels[trail[idx] >> 1] != level:
                idx -= 1
            uip = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                learnt[0] = uip ^ 1
                break
            reason = self._reason[uip >> 1] or ()
            if type(reason) is int:  # a binary implication's other literal
                reason = (reason,)
        if len(learnt) == 1:
            return learnt, 0
        back = max(levels[lit >> 1] for lit in learnt[1:])
        # keep a literal of the backjump level in the second watch slot
        for k in range(1, len(learnt)):
            if levels[learnt[k] >> 1] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        self._attach(learnt)
        return learnt, back

    def _attach(self, clause: list[int]) -> None:
        """Watch a clause of two or more literals by its first two."""
        if len(clause) == 2:
            a, b = clause
            self._bins[a].append(b)
            self._bins[b].append(a)
        else:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)

    def _record_learnt(self, learnt: Sequence[int], level: int) -> None:
        """Assert the first literal of a clause from ``_analyze``."""
        self._enqueue(learnt[0], level, learnt if len(learnt) > 1 else None)

    def _backtrack(self, target_level: int) -> None:
        # Lower-level literals above the target's start stay, in trail order,
        # and are propagated again: that restores their watch invariants.
        if len(self._trail_lim) <= target_level:
            return
        trail = self._trail
        boundary = kept = self._trail_lim[target_level]
        val = self._val
        level = self._level
        in_heap = self._in_heap
        heap = self._heap
        activity = self._activity
        heappush = heapq.heappush
        for lit in trail[boundary:]:
            var = lit >> 1
            if level[var] <= target_level:
                trail[kept] = lit
                kept += 1
                continue
            val[lit] = _UNDEF
            val[lit ^ 1] = _UNDEF
            if not in_heap[var]:  # push only variables without an entry
                in_heap[var] = 1
                heappush(heap, (-activity[var], var))
        del trail[kept:]
        del self._trail_lim[target_level:]
        self._qhead = boundary

    def _rescale_activity(self) -> None:
        self._activity = [a * 1e-100 for a in self._activity]
        self._var_inc *= 1e-100
        self._heap = []
        for var in range(1, min(self._nvars, self._decision_limit) + 1):
            undef = self._val[var * 2] == _UNDEF
            self._in_heap[var] = undef
            if undef:
                heapq.heappush(self._heap, (-self._activity[var], var))

    def _pick_branch_var(self) -> int:
        """The unassigned decision variable of highest activity, or 0 when
        every decision variable is assigned."""
        heap = self._heap
        activity = self._activity
        val = self._val
        while heap:  # every unassigned decision variable has a current entry
            neg_act, var = heapq.heappop(heap)
            if -neg_act == activity[var]:
                self._in_heap[var] = 0
                if val[var * 2] == _UNDEF:
                    return var
        return 0
