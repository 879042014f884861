"""The CDCL core: unit behavior, clause loading one by one and in batches,
assumptions, long searches, budgets, work counters, activity rescaling,
differential checks against a brute-force evaluator on random small
formulas, the reasons on the trail and the watch lists after every
propagation, a golden trace of the search on the hardness gadgets, and checks
of chronological backtracking with every backjump made chronological."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    PHI_SAT,
    PHI_UNSAT,
    CubicCnf,
    Family,
    NetType,
    SatSolver,
    TsUnion,
    build_instance,
    build_union,
    check_feasibility,
    solve_atom,
    solve_one_in_three,
    solving,
    verify_inhibiting_region,
)
from boolsynth import sat as sat_module
from conftest import consistency_cnf, region_digest, solver_state

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Seeded cubic formulas without a one-in-three model, written out so that
#: their searches stay pinned: ``random_cubic(random.Random(1), m)`` of
#: ``tests/test_reduction.py`` drew them for m = 4 and 24. The glued
#: instance of CUBIC_24 has 4,295 states.
CUBIC_4 = CubicCnf(
    (("x2", "x3", "x1"), ("x2", "x0", "x1"), ("x1", "x3", "x0"), ("x0", "x3", "x2"))
)
CUBIC_24 = CubicCnf(
    (
        ("x6", "x18", "x10"), ("x10", "x20", "x0"), ("x22", "x4", "x15"),
        ("x0", "x4", "x12"), ("x21", "x15", "x23"), ("x11", "x16", "x7"),
        ("x23", "x17", "x1"), ("x4", "x16", "x21"), ("x20", "x9", "x1"),
        ("x22", "x7", "x14"), ("x8", "x19", "x23"), ("x16", "x8", "x3"),
        ("x9", "x12", "x19"), ("x5", "x6", "x9"), ("x17", "x2", "x15"),
        ("x20", "x3", "x14"), ("x18", "x19", "x13"), ("x8", "x2", "x3"),
        ("x2", "x13", "x14"), ("x11", "x5", "x13"), ("x7", "x1", "x10"),
        ("x0", "x11", "x21"), ("x18", "x5", "x17"), ("x12", "x22", "x6"),
    )
)


def brute_force(nvars, clauses, assumptions=()):
    """Exhaustive satisfiability with assumptions (DIMACS-style literals)."""
    fixed = {}
    for lit in assumptions:
        var, want = abs(lit), lit > 0
        if fixed.get(var, want) != want:
            return None
        fixed[var] = want
    for bits in itertools.product([False, True], repeat=nvars):
        assign = {v: bits[v - 1] for v in range(1, nvars + 1)}
        if any(assign[v] != w for v, w in fixed.items()):
            continue
        if all(
            any(assign[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return assign
    return None


def fresh(nvars, clauses):
    solver = SatSolver()
    solver.ensure_vars(nvars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() is True

    def test_unit_clause_fixes_value(self):
        solver = fresh(1, [[1]])
        assert solver.solve() is True
        assert solver.model_value(1) is True

    def test_contradictory_units(self):
        solver = fresh(1, [[1], [-1]])
        assert solver.solve() is False

    def test_empty_clause_is_unsat(self):
        solver = fresh(1, [[]])
        assert solver.solve() is False

    def test_duplicate_literals_collapse(self):
        solver = fresh(2, [[1, 1, 2], [-1, -1]])
        assert solver.solve() is True
        assert solver.model_value(1) is False

    def test_tautological_clause_ignored(self):
        solver = fresh(1, [[1, -1]])
        assert solver.solve() is True

    def test_model_and_verify(self):
        clauses = [[1, 2], [-1, 2], [1, -2]]
        solver = fresh(2, clauses)
        assert solver.solve() is True
        assert solver.verify_model(clauses)
        model = solver.model()
        assert model[0] is True and model[1] is True  # 1-indexed vars 1,2


class TestAssumptions:
    def test_assumptions_restrict_the_single_clause(self):
        solver = fresh(3, [[1, 2, 3]])
        assert solver.solve([-1, -2]) is True
        assert solver.model_value(3) is True
        # all three assumed false leaves the clause unsatisfied
        assert solver.solve([-1, -2, -3]) is False
        # order must not matter
        assert solver.solve([-3, -1, -2]) is False
        assert solver.solve([-2, -3, -1]) is False
        # and the solver recovers afterwards
        assert solver.solve() is True

    def test_assumption_conflicting_with_a_unit(self):
        solver = fresh(1, [[1]])
        assert solver.solve([-1]) is False
        assert solver.solve([1]) is True

    def test_assumptions_are_temporary(self):
        solver = fresh(2, [[1, 2]])
        assert solver.solve([-1]) is True
        assert solver.model_value(2) is True
        assert solver.solve([-2]) is True
        assert solver.model_value(1) is True

    def test_assumption_literal_zero_is_rejected_before_any_work(self):
        solver = fresh(2, [[1, 2], [-1, 2]])
        assert solver.solve([-2]) is False
        assert solver.solve([1]) is True
        model = solver.model()
        work = (solver.conflicts, solver.decisions, solver.propagations)
        for assumptions in ([0], [1, 0]):
            with pytest.raises(ValueError, match="literal 0 is not allowed"):
                solver.solve(assumptions)
        assert solver.num_vars == 2 and solver.model() == model
        assert (solver.conflicts, solver.decisions, solver.propagations) == work
        assert solver.solve() is True

    def test_incremental_clause_addition(self):
        solver = fresh(2, [[1, 2]])
        assert solver.solve([-1]) is True
        solver.add_clause([-2])
        assert solver.solve([-1]) is False
        assert solver.solve() is True
        assert solver.model_value(1) is True


def pigeonhole(pigeons, holes):
    """PHP clauses; variable p*holes + h + 1 puts pigeon p in hole h."""
    nvars = pigeons * holes
    clauses = [
        [p * holes + h + 1 for h in range(holes)] for p in range(pigeons)
    ]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return nvars, clauses


class TestHarderInstances:
    def test_pigeonhole_unsat(self):
        for n in (3, 4, 5):
            nvars, clauses = pigeonhole(n + 1, n)
            solver = fresh(nvars, clauses)
            assert solver.solve() is False

    def test_pigeonhole_exact_fit_sat(self):
        nvars, clauses = pigeonhole(4, 4)
        solver = fresh(nvars, clauses)
        assert solver.solve() is True
        assert solver.verify_model(clauses)

    def test_interrupted_solve_resumes(self, monkeypatch):
        # The clock passes the deadline after the entry check, so the search
        # stops at its first deadline check, the 64th conflict.
        nvars, clauses = pigeonhole(6, 5)
        clock = iter([0.0])
        monkeypatch.setattr(
            sat_module.time, "monotonic", lambda: next(clock, 100.0)
        )
        solver = fresh(nvars, clauses)
        assert solver.solve(deadline=1.0) is None
        assert solver.conflicts == 64
        # and without the deadline the instance is still decidable
        assert solver.solve() is False

    def test_expired_deadline_yields_unknown(self):
        nvars, clauses = pigeonhole(6, 5)
        solver = fresh(nvars, clauses)
        assert solver.solve(deadline=0.0) is None

    def test_deadline_bounds_a_conflict_free_descent(self, monkeypatch):
        # All-negative is the saved phase and satisfies every clause, so the
        # search only decides: no conflict ever reaches the deadline check.
        nvars = 3000
        clauses = [[-v, -(v + 1)] for v in range(1, nvars)]
        clock = iter([0.0])
        monkeypatch.setattr(
            sat_module.time, "monotonic", lambda: next(clock, 100.0)
        )
        solver = fresh(nvars, clauses)
        assert solver.solve(deadline=1.0) is None
        assert solver.conflicts == 0
        assert solver.decisions == 1024
        assert solver.solve() is True
        assert solver.verify_model(clauses)

    def test_restarts_do_not_change_verdicts(self):
        # The solver never restarts: a search of many conflicts, past the
        # 32 after which it restarted while it had Luby restarts, keeps its
        # trail and still ends in the right verdict.
        nvars, clauses = pigeonhole(6, 5)
        solver = fresh(nvars, clauses)
        assert solver.solve() is False
        assert solver.conflicts > 32


class TestCounters:
    def test_a_free_descent_decides_and_propagates_every_variable(self):
        solver = fresh(3, [])
        assert solver.solve() is True
        assert (solver.conflicts, solver.decisions, solver.propagations) == (0, 3, 3)

    def test_units_propagate_without_decisions(self):
        # 1 is a unit; 1 -> 2 and 2 -> 3 follow from it at level 0.
        solver = fresh(3, [[1], [-1, 2], [-2, 3]])
        assert solver.solve() is True
        assert solver.model() == [True, True, True]
        assert (solver.decisions, solver.propagations) == (0, 3)

    def test_counters_accumulate_over_solves(self):
        nvars, clauses = pigeonhole(5, 4)
        solver = fresh(nvars, clauses)
        assert solver.solve() is False
        first = (solver.conflicts, solver.decisions, solver.propagations)
        assert all(first)
        assert solver.solve() is False  # refuted at level 0 from now on
        assert (solver.conflicts, solver.decisions, solver.propagations) == first


class TestDecisionBound:
    """``SatSolver(decision_vars=k)`` decides variables 1..k only and
    answers sat once they are all assigned without a conflict."""

    def test_no_variable_above_the_bound_is_decided(self, monkeypatch):
        picked = []
        pick = SatSolver._pick_branch_var

        def recording(self):
            picked.append(pick(self))
            return picked[-1]

        monkeypatch.setattr(SatSolver, "_pick_branch_var", recording)
        rng = random.Random(7)
        for _ in range(60):
            nvars = rng.randint(2, 10)
            bound = rng.randint(0, nvars)
            clauses = [
                [rng.randint(1, nvars) * rng.choice((1, -1)) for _ in range(3)]
                for _ in range(rng.randint(0, 4 * nvars))
            ]
            solver = SatSolver(decision_vars=bound)
            solver.ensure_vars(nvars)
            for clause in clauses:
                solver.add_clause(clause)
            picked.clear()
            verdict = solver.solve()
            assert all(var <= bound for var in picked)
            assert solver._in_heap[bound + 1 :] == b"\1" * (nvars - bound)
            assert all(var <= bound for _, var in solver._heap)
            if verdict is False:
                assert brute_force(nvars, clauses) is None
                continue
            # Propagation ended without a conflict: every clause is true or
            # keeps two open literals, and only variables above the bound
            # are open, reading false.
            assert picked[-1] == 0
            model = solver._model
            for clause in clauses:
                ilits = {2 * abs(lit) + (lit < 0) for lit in clause}
                values = [model[lit] for lit in ilits]
                assert 1 in values or values.count(2) >= 2
            for var in range(1, nvars + 1):
                if model[2 * var] == 2:
                    assert var > bound and solver.model_value(var) is False

    def test_free_variables_above_the_bound_stay_open(self):
        solver = SatSolver(decision_vars=2)
        solver.ensure_vars(6)
        solver.add_clause([-5, 6])
        assert solver.solve() is True
        assert (solver.decisions, solver.propagations) == (2, 2)
        assert solver.model() == [False] * 6
        assert solver.solve([5]) is True
        assert solver.model()[4:] == [True, True]


class TestActivityRescale:
    """Once the activity increment passes 1e100, ``_rescale_activity``
    scales every activity down and rebuilds the decision heap. A search
    reaches it only after thousands of conflicts, so the increment starts
    just below the limit here and the first conflict triggers it."""

    def test_rescaled_searches_match_brute_force(self, monkeypatch):
        rescales = 0
        rescale = SatSolver._rescale_activity

        def rescaling(self):
            nonlocal rescales
            rescales += 1
            rescale(self)
            # every unassigned decision variable has a current heap entry,
            # and no other variable has one
            limit = min(self._nvars, self._decision_limit)
            current = {var for act, var in self._heap if -act == self._activity[var]}
            assert all(var <= limit for var in current)
            for var in range(1, limit + 1):
                if self._val[2 * var] == sat_module._UNDEF:
                    assert var in current and self._in_heap[var]

        monkeypatch.setattr(SatSolver, "_rescale_activity", rescaling)
        rng = random.Random(23)
        for _ in range(400):
            nvars = rng.randint(3, 9)
            clauses = [
                [rng.randint(1, nvars) * rng.choice((1, -1)) for _ in range(3)]
                for _ in range(rng.randint(2 * nvars, 5 * nvars))
            ]
            assumptions = [
                var * rng.choice((1, -1))
                for var in rng.sample(range(1, nvars + 1), rng.randint(0, 2))
            ]
            bound = rng.choice((None, rng.randint(0, nvars)))
            solver = SatSolver(decision_vars=bound)
            solver.ensure_vars(nvars)
            for clause in clauses:
                solver.add_clause(clause)
            solver._var_inc = 0.96e100
            verdict = solver.solve(assumptions)
            expected = brute_force(nvars, clauses, assumptions) is not None
            if bound is None:
                assert verdict == expected
                assert not verdict or solver.verify_model(clauses)
            else:  # with a bound, sat only says the decision variables are set
                assert verdict or not expected
        assert rescales >= 100


class TestLearntClauses:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
    def test_every_learnt_clause_is_attached_and_asserts(self, family, monkeypatch):
        # Every learnt clause of two or more literals is attached once, by
        # the ``_analyze`` call that returns it, and is the reason of the
        # literal asserted next. That holds too for a conflict clause with
        # one literal at the conflict level, whose learnt clause has the
        # same literals less its level-0 ones: CUBIC_4 meets such conflicts
        # under both families.
        learnt_clauses = own_clauses = 0
        attached: list[list[int]] = []
        pending: list[list[int]] = []
        analyze = SatSolver._analyze
        attach = SatSolver._attach
        enqueue = SatSolver._enqueue

        def analyzing(self, conflict):
            nonlocal learnt_clauses, own_clauses
            latest = {lit for lit in conflict if self._level[lit >> 1]}
            attached.clear()
            learnt, level = analyze(self, conflict)
            if len(learnt) > 1:
                learnt_clauses += 1
                own_clauses += set(learnt) == latest
                assert len(attached) == 1 and attached[0] is learnt
                pending.append(learnt)
            else:
                assert not attached
            return learnt, level

        def attaching(self, clause):
            attached.append(clause)
            attach(self, clause)

        def enqueueing(self, lit, level, reason):
            if pending:
                learnt = pending.pop()
                assert lit == learnt[0] and reason is learnt
            enqueue(self, lit, level, reason)

        monkeypatch.setattr(SatSolver, "_analyze", analyzing)
        monkeypatch.setattr(SatSolver, "_attach", attaching)
        monkeypatch.setattr(SatSolver, "_enqueue", enqueueing)
        assert solve_one_in_three(CUBIC_4) is None
        instance = build_instance(CUBIC_4, family)
        region = solve_atom(
            instance.ts, family.base_type, instance.target_atom, engine="sat"
        )
        assert region is None
        assert own_clauses and learnt_clauses > own_clauses
        assert not pending


class TestReasons:
    """A binary implication's reason is the other literal of its clause, an
    int; every other reason is the implying clause, implied literal first."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
    @pytest.mark.parametrize("cnf", [PHI_SAT, PHI_UNSAT], ids=["sat", "unsat"])
    def test_every_reason_on_the_trail_implies_its_literal(
        self, cnf, family, monkeypatch
    ):
        kinds = {int: 0, list: 0}
        solve = SatSolver.solve

        def walking(self, assumptions=(), *args, **kwargs):
            verdict = solve(self, assumptions, *args, **kwargs)
            position = {lit: i for i, lit in enumerate(self._trail)}
            for i, lit in enumerate(self._trail):
                reason = self._reason[lit >> 1]
                if reason is None:
                    continue
                if type(reason) is int:
                    assert self._val[reason] == sat_module._FALSE
                    assert position[reason ^ 1] < i
                    assert lit in self._bins[reason]
                else:
                    assert type(reason) is list and reason[0] == lit
                kinds[type(reason)] += 1
            return verdict

        monkeypatch.setattr(SatSolver, "solve", walking)
        instance = build_instance(cnf, family)
        tau = family.base_type
        region = solve_atom(instance.ts, tau, instance.target_atom, engine="sat")
        assert (region is None) == (cnf is PHI_UNSAT)
        assert kinds[int] and kinds[list]


def watch_lists_of(solver) -> dict[int, list[int]]:
    """The literals whose watch lists hold each clause, by clause ``id``."""
    where: dict[int, list[int]] = {}
    for lit, watch_list in enumerate(solver._watches):
        for clause in watch_list:
            where.setdefault(id(clause), []).append(lit)
    return where


class TestWatches:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_each_long_clause_is_watched_by_its_first_two_literals(self, seed):
        # After every propagation, with or without a conflict, a clause of
        # three or more literals sits once in the watch lists of its first
        # two literals and in no other list. Clauses wider than three take
        # the scan's slower path, and assumptions force more conflicts.
        rng = random.Random(seed)
        nvars = rng.randint(6, 10)
        clauses = [
            [rng.randint(1, nvars) * rng.choice((1, -1)) for _ in range(width)]
            for width in (rng.randint(3, 5) for _ in range(8 * nvars))
        ]
        solver = SatSolver()
        solver.ensure_vars(nvars)
        long_clauses = []
        attach = solver._attach
        propagate = solver._propagate

        def attaching(clause):
            if len(clause) > 2:
                long_clauses.append(clause)
            attach(clause)

        def checked():
            conflict = propagate()
            where = watch_lists_of(solver)
            assert len(where) == len(long_clauses)
            for clause in long_clauses:
                assert sorted(where[id(clause)]) == sorted(clause[:2])
            return conflict

        solver._attach = attaching
        solver._propagate = checked
        for clause in clauses:
            solver.add_clause(clause)
        for _ in range(4):
            assumptions = [
                var * rng.choice((1, -1))
                for var in rng.sample(range(1, nvars + 1), rng.randint(0, 3))
            ]
            solver.solve(assumptions)


def random_formula(draw_size_rng):
    rng = draw_size_rng
    nvars = rng.randint(1, 6)
    nclauses = rng.randint(1, 14)
    clauses = []
    for _ in range(nclauses):
        width = rng.randint(1, 3)
        lits = []
        for _ in range(width):
            var = rng.randint(1, nvars)
            lits.append(var if rng.random() < 0.5 else -var)
        clauses.append(lits)
    return nvars, clauses


class TestDifferential:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        nvars, clauses = random_formula(rng)
        solver = fresh(nvars, clauses)
        verdict = solver.solve()
        expected = brute_force(nvars, clauses)
        assert verdict == (expected is not None)
        if verdict:
            assert solver.verify_model(clauses)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force_under_assumptions(self, seed):
        rng = random.Random(seed)
        nvars, clauses = random_formula(rng)
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))
        ]
        solver = fresh(nvars, clauses)
        verdict = solver.solve(assumptions)
        expected = brute_force(nvars, clauses, assumptions)
        assert verdict == (expected is not None)
        if verdict:
            assert solver.verify_model(clauses)
            for lit in assumptions:
                assert solver.model_value(abs(lit)) is (lit > 0)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_incremental_sequence_matches(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(2, 5)
        solver = SatSolver()
        solver.ensure_vars(nvars)
        clauses: list[list[int]] = []
        for _ in range(rng.randint(2, 5)):
            for _ in range(rng.randint(1, 3)):
                clause = [
                    rng.randint(1, nvars) * rng.choice((1, -1))
                    for _ in range(rng.randint(1, 3))
                ]
                clauses.append(clause)
                solver.add_clause(clause)
            verdict = solver.solve()
            assert verdict == (brute_force(nvars, clauses) is not None)
            if not verdict:
                break

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_clause_loading_paths_match_brute_force(self, seed):
        # Clauses arrive before any variable exists, at level 0 and between
        # solves (the solver is then above level 0), with duplicate,
        # tautological, unit and level-0-falsified literals.
        rng = random.Random(seed)
        nvars = rng.randint(2, 6)
        solver = SatSolver()
        solver.ensure_vars(rng.randint(0, nvars))
        clauses: list[list[int]] = []
        units: list[int] = []
        for _ in range(rng.randint(1, 5)):
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(
                    ("plain", "duplicate", "tautology", "unit", "falsified")
                )
                lits = [
                    rng.randint(1, nvars) * rng.choice((1, -1))
                    for _ in range(rng.randint(1, 3))
                ]
                if kind == "duplicate":
                    lits.insert(rng.randint(0, len(lits)), rng.choice(lits))
                elif kind == "tautology":
                    lits.insert(rng.randint(0, len(lits)), -rng.choice(lits))
                elif kind == "unit":
                    lits = lits[:1]
                    units.append(lits[0])
                elif kind == "falsified" and units:
                    lits.insert(rng.randint(0, len(lits)), -rng.choice(units))
                clauses.append(lits)
                solver.add_clause(lits)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 2))
            ]
            solver.ensure_vars(nvars)
            verdict = solver.solve(assumptions)
            expected = brute_force(nvars, clauses, assumptions)
            assert verdict == (expected is not None)
            if verdict:
                assert solver.verify_model(clauses)
                for lit in assumptions:
                    assert solver.model_value(abs(lit)) is (lit > 0)


class TestSetPhase:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_phase_hints_never_change_an_answer(self, seed):
        # Arbitrary hints between solves, under random assumptions and
        # with clauses added between solves, against brute force.
        rng = random.Random(seed)
        nvars, clauses = random_formula(rng)
        solver = fresh(nvars, clauses)
        for _ in range(rng.randint(1, 4)):
            for var in rng.sample(range(1, nvars + 1), rng.randint(0, nvars)):
                solver.set_phase(var, rng.random() < 0.5)
            picked = rng.sample(range(1, nvars + 1), rng.randint(0, min(2, nvars)))
            assumptions = [v if rng.random() < 0.5 else -v for v in picked]
            verdict = solver.solve(assumptions)
            expected = brute_force(nvars, clauses, assumptions)
            assert verdict == (expected is not None)
            if verdict:
                assert solver.verify_model(clauses)
            extra = [rng.randint(1, nvars) * rng.choice((1, -1))]
            clauses.append(extra)
            solver.add_clause(extra)

    @pytest.mark.parametrize("value", [False, True])
    def test_an_unconstrained_variable_takes_its_hint(self, value):
        # 1 and 2 are constrained by a clause; 3 and 4 appear in none.
        solver = fresh(4, [[1, -2]])
        solver.set_phase(3, value)
        solver.set_phase(4, not value)
        assert solver.solve() is True
        assert solver.model_value(3) is value
        assert solver.model_value(4) is (not value)
        # A hint re-set between solves is taken by the next model.
        solver.set_phase(3, not value)
        assert solver.solve() is True
        assert solver.model_value(3) is (not value)

    def test_a_hint_creates_missing_variables(self):
        solver = SatSolver()
        solver.set_phase(2, True)
        assert solver.num_vars == 2
        assert solver.solve() is True
        assert solver.model() == [False, True]

    def test_variable_zero_is_rejected(self):
        with pytest.raises(ValueError):
            SatSolver().set_phase(0, True)


def internal(clause):
    """A DIMACS clause in the solver's internal literals."""
    return [2 * lit if lit > 0 else 1 - 2 * lit for lit in clause]


class TestClauseLoading:
    def test_a_skipped_clause_creates_only_the_variables_before_the_skip(self):
        solver = SatSolver()
        solver.add_clause([2, 1, -2, 5])  # a tautology from its third literal
        assert solver.num_vars == 2
        solver.add_clause([-1])
        solver.add_clause([3, -1, 7])  # satisfied from its second literal
        assert solver.num_vars == 3
        solver.add_clause([1, 4])  # 1 is false at level 0: drops to a unit
        assert solver.num_vars == 4
        assert solver.solve() is True
        assert solver.model() == [False, False, False, True]

    def test_zero_after_a_tautology_is_rejected(self):
        solver = fresh(1, [])
        with pytest.raises(ValueError):
            solver.add_clause([1, -1, 0])

    def test_zero_after_a_satisfied_literal_is_rejected(self):
        solver = fresh(1, [[1]])
        with pytest.raises(ValueError):
            solver.add_clause([1, 0])

    def test_zero_is_rejected_before_the_solver_changes(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([2, 0])
        assert solver.num_vars == 0
        solver = fresh(2, [[1, 2]])
        assert solver.solve([-1]) is True
        before = solver_state(solver)
        with pytest.raises(ValueError):
            solver.add_clause([-2, 3, 0])
        assert solver_state(solver) == before

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_batch_loading_matches_clause_by_clause(self, seed):
        # Rounds of clauses, each round followed by a solve, so that later
        # rounds arrive above level 0. Clauses may name unknown variables,
        # also after a tautology (those stay uncreated), and literals true or
        # false at level 0. A second solver normalises every clause directly:
        # both must agree, with clauses of up to five literals.
        rng = random.Random(seed)
        nvars = rng.randint(2, 7)
        known = rng.randint(0, nvars)
        one, slow = SatSolver(), SatSolver()
        for solver in (one, slow):
            solver.ensure_vars(known)
        units: list[int] = []
        for _ in range(rng.randint(1, 4)):
            clauses = []
            for _ in range(rng.randint(0, 8)):
                kind = rng.choice(
                    ("plain", "plain", "duplicate", "tautology", "unit", "fixed")
                )
                lits = [
                    rng.randint(1, nvars) * rng.choice((1, -1))
                    for _ in range(rng.randint(1, 5))
                ]
                if kind == "duplicate":
                    lits.insert(rng.randint(0, len(lits)), rng.choice(lits))
                elif kind == "tautology":
                    lits.insert(rng.randint(0, len(lits)), -rng.choice(lits))
                    lits.append(nvars + rng.randint(1, 2))
                elif kind == "unit":
                    lits = lits[:1]
                    units.append(lits[0])
                elif kind == "fixed" and units:
                    unit = rng.choice(units)
                    lits.insert(rng.randint(0, len(lits)), rng.choice((unit, -unit)))
                clauses.append(lits)
            for clause in clauses:
                one.add_clause(clause)
                slow._add_normalised(internal(clause))
            assert solver_state(one) == solver_state(slow)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 2))
            ]
            verdicts = {solver.solve(assumptions) for solver in (one, slow)}
            assert len(verdicts) == 1
            work = {
                (solver.conflicts, solver.decisions, solver.propagations)
                for solver in (one, slow)
            }
            assert len(work) == 1
            if verdicts == {True}:
                assert one.model() == slow.model()

    @pytest.mark.parametrize(
        "spec", ["nop,set,swap,used", "nop,set,res,swap,used,free"]
    )
    def test_consistency_cnf_of_a_wide_type_loads_as_normalised(self, spec):
        # A type of four or more interactions has at-least-one clauses of
        # four or more literals. _SatContext attaches the CNF's pair list
        # and clause list as they are (SatSolver.attach); that must leave
        # the state that add_clause and _add_normalised leave, clause by
        # clause, given the binary clauses first and then the others, the
        # same clauses written in DIMACS literals. The attached solver
        # keeps each wide clause's own list. All decide support bits only,
        # as _SatContext's solver does.
        union, _ = build_union(PHI_UNSAT, Family.USED)
        problem = solving._Problem(union, NetType.from_spec(spec))
        ctx = solving._SatContext(problem)
        pairs, clauses = solving._consistency_clauses(
            problem, ctx.sup_var, ctx.sel_var
        )
        assert all(len(clause) >= 3 for clause in clauses)
        wide = [clause for clause in clauses if len(clause) >= 4]
        assert len(wide) == len(problem.events)
        one, slow, attached = (SatSolver(decision_vars=problem.n) for _ in range(3))
        for solver in (one, slow, attached):
            solver.ensure_vars(ctx.solver.num_vars)
        for clause in consistency_cnf(ctx):
            one.add_clause([v >> 1 if v & 1 == 0 else -(v >> 1) for v in clause])
            slow._add_normalised(list(clause))
        attached.attach(pairs, clauses)
        assert all(
            any(watched is clause for watched in attached._watches[clause[0]])
            for clause in wide
        )
        assert solver_state(ctx.solver) == solver_state(one) == solver_state(slow)
        assert solver_state(attached) == solver_state(slow)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_attach_matches_clause_by_clause(self, seed):
        # Clauses of distinct known variables, two to five literals, loaded
        # into a solver with nothing assigned: attach leaves the state that
        # add_clause leaves on the binary clauses and then the others.
        rng = random.Random(seed)
        nvars = rng.randint(5, 9)
        one, attached = SatSolver(), SatSolver()
        for solver in (one, attached):
            solver.ensure_vars(nvars)
        binary: list[list[int]] = []
        longer: list[list[int]] = []
        for _ in range(rng.randint(0, 4 * nvars)):
            chosen = rng.sample(range(1, nvars + 1), rng.randint(2, 5))
            clause = [v * rng.choice((1, -1)) for v in chosen]
            (binary if len(clause) == 2 else longer).append(clause)
        for clause in binary + longer:
            one.add_clause(clause)
        attached.attach(
            [lit for clause in binary for lit in internal(clause)],
            [internal(clause) for clause in longer],
        )
        assert solver_state(attached) == solver_state(one)
        assert attached.solve() == one.solve()
        assert attached.conflicts == one.conflicts
        assert attached.decisions == one.decisions

    def test_attach_is_refused_once_something_is_assigned(self):
        solver = fresh(2, [[1]])
        with pytest.raises(ValueError):
            solver.attach([2, 4], [])


class TestSearchIdentity:
    """A golden trace of the search: verdicts, decoded regions and the
    solver's conflict, decision and propagation counts on the hardness
    gadgets. Speed-ups of the solver must leave all of them unchanged; a
    deliberate change of the search (clause deletion, a new heuristic, a
    new encoding) must re-record them."""

    @pytest.mark.parametrize(
        "cnf, family, status, digest, work",
        [
            (PHI_SAT, Family.FREE, "sat", "f48c974db11a4f21", (1, 383, 1117)),
            (PHI_SAT, Family.USED, "sat", "b61a06e277b35e66", (8, 185, 1538)),
            (PHI_UNSAT, Family.FREE, "unsat", None, (188, 1048, 8311)),
            (PHI_UNSAT, Family.USED, "unsat", None, (138, 636, 6538)),
            (CUBIC_24, Family.FREE, "unsat", None, (583, 6378, 70532)),
        ],
        ids=["sat-free", "sat-used", "unsat-free", "unsat-used", "cubic24-free"],
    )
    def test_target_atom_query(self, cnf, family, status, digest, work):
        # Re-recorded when the solver began to backtrack chronologically
        # over long backjumps; the regions are unchanged and the work went
        # from (7, 687, 1793), (17, 657, 6201), (178, 6644, 23898) and
        # (214, 7448, 45443), in the order of the cases above. Re-recorded
        # again when decode began to sign regions by the exhaustive
        # engine's rule (first allowed interaction for every event the
        # tracker leaves unpicked) instead of taking the model's first true
        # selector: same supports and work, the digests were
        # ef4134429e1e72f3 (sat-free) and 060c9de54fab2ddb (sat-used).
        # Re-recorded again when the solver began to decide support bits
        # only and the CNF began to give an interaction of constant image
        # one binary clause per arc: the regions are unchanged and the work
        # went from (7, 607, 1571), (17, 240, 1676), (188, 3051, 12958) and
        # (208, 2777, 17470).
        # Re-recorded again when the solver stopped restarting (it made a
        # Luby restart after 32, 32, 64, ... conflicts): only the two unsat
        # searches reach 32 conflicts, and their work went from
        # (162, 2892, 12887) and (152, 2824, 20197). Each restart decided
        # the active variables again first, so hundreds of untouched
        # support bits landed above them on the trail, and every later
        # backjump undid and redecided them. The cubic24-free case pins a
        # search of 500+ conflicts, the scale where restarts made a target
        # decision 1.8-5.9 times slower (m = 24, seeds 1-2, both families);
        # with them its work was (403, 46415, 156929).
        instance = build_instance(cnf, family)
        problem = solving._Problem(instance.ts, family.base_type)
        ctx = solving._SatContext(problem)
        atom = instance.target_atom
        coverage = solving._Coverage.of_atom(problem, atom)
        solver = ctx.solver
        got, region = "unsat", None
        for lits, forced in ctx.queries(atom, coverage):
            if solver.solve(lits):
                got, region = "sat", ctx.decode(forced, coverage)
                break
        assert got == status
        assert (region and region_digest(region)) == digest
        assert (solver.conflicts, solver.decisions, solver.propagations) == work

    def test_union_part_pool(self, monkeypatch):
        # Re-recorded when the sat engine began to hint each query toward
        # the pending requirements and to re-sign decoded regions: the pool
        # went from 43 regions to 23 and the work from (9, 896, 2985).
        # Re-recorded again when an inhibition of an event pending at two
        # or more states began with one query for a region inhibiting all
        # of them: the pool went from 23 regions to 20 (the first ten
        # unchanged; the old tail was e4442fc7824a7944, 15fd70d47ebf62b0,
        # 4ccc461d55e437b1, b139faf7bd0ce875, 6c351b50bb6e3a2f, then the
        # last eight digests kept here) and the work from (5, 485, 1593).
        # Re-recorded again when decode began to sign regions by the
        # exhaustive engine's rule (first allowed interaction for every
        # event the tracker leaves unpicked) instead of taking the model's
        # first true selector: the same 20 supports and the same work, new
        # digests. The old ones were 56329a71fba9e413, 697b3588321a4267,
        # 2b27c15f3de4f626, b79948195615aa2f, f87be6ff4c8e3921,
        # 3ab52cdb71fa4fde, d68e357ec8d9d888, 81c88465ed360108,
        # 2464de11978d362b, 625349bcdf04d0da, 4ccc461d55e437b1,
        # 7db540fda03ce75e, 5e5d35f755915775, dded6d976a41139f,
        # ec6fc777acb73271, c489c3aee9ab9fb6, cbe02d27626b371a,
        # 78c13d76583180d7, a44d23e926d712b9 and a0e8fd09643d24c4.
        # Re-recorded again when the solver began to decide support bits
        # only and the CNF began to give an interaction of constant image
        # one binary clause per arc: still 20 regions, the 10th to 12th
        # digests were 54bcd6b59c395900, 906c78a15a8adbc6 and
        # 3e86bf01742818a8, and the work was (8, 372, 1547).
        union, _ = build_union(PHI_SAT, Family.FREE)
        part = TsUnion(
            tuple(m for m in union.members if m.name in ("H0", "T0_1", "G0"))
        )
        assert len(part.states) == 20
        contexts = []
        make_context = solving._SatContext

        def recording(problem):
            contexts.append(make_context(problem))
            return contexts[-1]

        monkeypatch.setattr(solving, "_SatContext", recording)
        result = check_feasibility(part, Family.FREE.base_type, engine="sat")
        assert result.outcome == "yes"
        assert [region_digest(region) for region in result.regions] == POOL_DIGESTS
        (ctx,) = contexts
        solver = ctx.solver
        assert (solver.conflicts, solver.decisions, solver.propagations) == (
            3, 215, 1197,
        )


POOL_DIGESTS = [
    "61bb302304fdd7e0", "3fef26edde6eaf91", "4e31317fd5cd3430", "bfe3b8d9ead0c138",
    "3de85b01f1de75ed", "25577c13771ef5b5", "4d796b20b26284ec", "6f710f412e9b097a",
    "2f122a40d8af28ba", "f609aa099ea9096a", "b9a397473da5e551", "0cad6b74af73cde7",
    "88cbe8243a5f73c9", "36a67240b5bc7a0e", "4bec58919fd1d3e8", "de7170301acece8a",
    "33f9830fe21d33a5", "c03e16aa92a41c25", "6cd7830f39294921", "bb254a72d6750f76",
]

# ------------------------------------------------- chronological backtracking


def check_levels(solver, n_assumptions):
    """The level bookkeeping of a solver that has just answered sat: every
    implied literal's level is the highest level among its reason's other
    literals, which all precede it on the trail, and each level holds one
    decision, at its start on the trail (an assumption that was already
    true when its level opened holds none). The trail assigns each variable
    once; only variables above the decision bound may be left open. An int
    reason is the other literal of a binary clause, read as that clause."""
    trail = solver._trail
    levels = solver._level
    position = {lit >> 1: i for i, lit in enumerate(trail)}
    assert len(position) == len(trail)
    assert all(
        var in position or var > solver._decision_limit
        for var in range(1, solver.num_vars + 1)
    )
    assert solver._qhead == len(trail)
    decided = []
    for i, lit in enumerate(trail):
        var = lit >> 1
        reason = solver._reason[var]
        if reason is None:
            if levels[var]:
                decided.append(levels[var])
                assert solver._trail_lim[levels[var] - 1] == i
            continue
        if isinstance(reason, int):  # a binary implication: the other literal
            reason = (lit, reason)
        assert reason[0] == lit
        assert all(position[other >> 1] < i for other in reason[1:])
        assert levels[var] == max(levels[other >> 1] for other in reason[1:])
    assert decided == sorted(set(decided))
    undecided = set(range(1, len(solver._trail_lim) + 1)) - set(decided)
    assert all(level <= n_assumptions for level in undecided)


def satisfying_set(nvars, clauses):
    """The assignments that satisfy every clause, as a set of bits: bit a
    stands for the assignment that makes variable v true iff bit v - 1 of
    a is set."""
    everything = (1 << (1 << nvars)) - 1
    true_at = [0] + [
        sum(1 << a for a in range(1 << nvars) if a >> (var - 1) & 1)
        for var in range(1, nvars + 1)
    ]
    result = everything
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= true_at[lit] if lit > 0 else everything ^ true_at[-lit]
        result &= mask
    return result


def body(test):
    """The undecorated body of a Hypothesis test."""
    return test.hypothesis.inner_test


@pytest.fixture(scope="class")
def always_chronological():
    """Backtrack one level on every conflict, so the trail holds literals
    out of level order, and check the level bookkeeping after every
    satisfiable ``solve``."""
    solve = SatSolver.solve

    def checked(self, assumptions=(), *args, **kwargs):
        verdict = solve(self, assumptions, *args, **kwargs)
        if verdict:
            check_levels(self, len(assumptions))
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat_module, "CHRONO_LEVELS", 0)
        patch.setattr(SatSolver, "solve", checked)
        yield


@pytest.mark.usefixtures("always_chronological")
class TestChronological:
    """Every backjump chronological: the brute-force differential and
    phase-hint properties again, learnt clauses and propagation checked on
    random 3-SAT, and target-atom decisions checked against the oracle."""

    # Hypothesis runs each property from one instance only, so these
    # rerun the bodies of the properties above as new properties.

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        body(TestDifferential.test_matches_brute_force)(self, seed)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force_under_assumptions(self, seed):
        body(TestDifferential.test_matches_brute_force_under_assumptions)(self, seed)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_incremental_sequence_matches(self, seed):
        body(TestDifferential.test_incremental_sequence_matches)(self, seed)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_clause_loading_paths_match_brute_force(self, seed):
        body(TestDifferential.test_clause_loading_paths_match_brute_force)(self, seed)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_phase_hints_never_change_an_answer(self, seed):
        body(TestSetPhase.test_phase_hints_never_change_an_answer)(self, seed)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_learnt_clauses_follow_from_the_formula(self, seed):
        # Random 3-SAT near the threshold searches long enough to learn
        # from trails out of level order. Every learnt clause must hold in
        # every model of the formula, and a propagation that ends without
        # a conflict must leave no clause unit.
        rng = random.Random(seed)
        nvars = rng.randint(8, 12)
        clauses = [
            [rng.randint(1, nvars) * rng.choice((1, -1)) for _ in range(3)]
            for _ in range(43 * nvars // 10)
        ]
        models = satisfying_set(nvars, clauses)
        solver = fresh(nvars, clauses)
        watched = [{2 * abs(lit) + (lit < 0) for lit in c} for c in clauses]
        record_learnt = solver._record_learnt
        propagate = solver._propagate

        def checking(learnt, level):
            clause = [(lit >> 1) * (-1 if lit & 1 else 1) for lit in learnt]
            assert models & satisfying_set(nvars, [clause]) == models
            watched.append(set(learnt))
            record_learnt(learnt, level)

        def complete():
            conflict = propagate()
            if conflict is None:
                for clause in watched:
                    values = [solver._val[lit] for lit in clause]
                    unit = values.count(sat_module._UNDEF) == 1
                    assert sat_module._TRUE in values or not unit
            return conflict

        solver._record_learnt = checking
        solver._propagate = complete
        assert solver.solve() == bool(models)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
    @pytest.mark.parametrize("cnf", [PHI_SAT, PHI_UNSAT], ids=["sat", "unsat"])
    def test_target_atom_decision_matches_the_oracle(self, cnf, family, monkeypatch):
        # Count the learnt literals asserted below the current level and
        # the lower-level literals a backtrack keeps: the paths that only
        # chronological backtracking reaches.
        out_of_order = kept = 0
        record_learnt = SatSolver._record_learnt
        backtrack = SatSolver._backtrack

        def recording(self, learnt, level):
            nonlocal out_of_order
            out_of_order += level < len(self._trail_lim)
            record_learnt(self, learnt, level)

        def counting(self, target_level):
            nonlocal kept
            boundary = self._trail_lim[target_level:][:1]
            backtrack(self, target_level)
            kept += sum(len(self._trail) - b for b in boundary)

        monkeypatch.setattr(SatSolver, "_record_learnt", recording)
        monkeypatch.setattr(SatSolver, "_backtrack", counting)
        instance = build_instance(cnf, family)
        tau = family.base_type
        region = solve_atom(instance.ts, tau, instance.target_atom, engine="sat")
        assert (region is None) == (solve_one_in_three(cnf) is None)
        if region is not None:
            assert verify_inhibiting_region(instance, tau, region).ok
        # The sat search under free has one conflict, whose learnt literal
        # is asserted one level below it, since the solver decides support
        # bits only; every other search asserts some learnt literal lower.
        assert bool(out_of_order) != (cnf is PHI_SAT and family is Family.FREE)
        assert kept or region is not None  # the sat searches are short
