"""The two separation engines: verdicts, counterexamples, witness pools,
single-requirement solving, enumeration, and witness assignment — each
cross-checked against the brute-force oracle from conftest."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    PHI_SAT,
    BooleanNet,
    EngineError,
    EventStateAtom,
    Family,
    Interaction,
    NetType,
    Region,
    ResourceExhausted,
    SatSolver,
    StatePairAtom,
    SynthesisError,
    TransitionSystem,
    TsUnion,
    all_net_types,
    assign_witnesses,
    build_instance,
    build_union,
    check_essp,
    check_feasibility,
    check_ssp,
    enumerate_inhibiting_regions,
    essp_atoms,
    family_types,
    iter_type,
    reachability_graph,
    solve_atom,
    ssp_atoms,
    synthesize,
    validate_region,
)
from boolsynth import solving
from conftest import (
    TAU,
    TAU_TILDE,
    admissible,
    consistency_cnf,
    line_ts,
    oracle_essp,
    oracle_inhibitable,
    oracle_separable,
    oracle_ssp,
    random_ts,
    region_digest,
    solver_state,
    witness_atoms,
)
from test_sat import satisfying_set

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ENGINES = ("exhaustive", "sat")

FULL = NetType(frozenset(Interaction))


def mixed_ts() -> TransitionSystem:
    """Two events, one missing state each; feasible under the full type."""
    return TransitionSystem.build("p", [("p", "a", "q"), ("q", "b", "p")])


class TestSubjectIndex:
    def test_checks_under_two_types_share_one_index(self, battery):
        loop = TransitionSystem.build("u0", [("u0", "a", "u1"), ("u1", "a", "u0")])
        union = TsUnion.of(battery["a1"], loop)
        for subject in (battery["a1"], union):
            first = solving._Problem(subject, TAU)
            second = solving._Problem(subject, TAU_TILDE)
            assert first.index is second.index is subject.index


class TestAtomEnumeration:
    def test_ssp_atoms_of_a_chain(self, battery):
        atoms = list(ssp_atoms(battery["a4"]))
        assert [(a.first, a.second) for a in atoms] == [
            ("s0", "s1"),
            ("s0", "s2"),
            ("s0", "s3"),
            ("s1", "s2"),
            ("s1", "s3"),
            ("s2", "s3"),
        ]

    def test_ssp_atoms_of_a_union_skip_cross_member_pairs(self):
        m0 = TransitionSystem.build("p0", [("p0", "e", "p1")])
        m1 = TransitionSystem.build("q0", [("q0", "e", "q1")])
        atoms = list(ssp_atoms(TsUnion.of(m0, m1)))
        assert [(a.first, a.second) for a in atoms] == [
            ("p0", "p1"),
            ("q0", "q1"),
        ]

    def test_essp_atoms_event_outer_state_inner(self, battery):
        atoms = list(essp_atoms(mixed_ts()))
        assert [(a.event, a.state) for a in atoms] == [("a", "q"), ("b", "p")]
        # the two-cycle example enables its only event everywhere
        assert list(essp_atoms(battery["a1"])) == []

    def test_atom_renderings(self):
        assert str(StatePairAtom("x", "y")) == "sp x y"
        assert str(EventStateAtom("e", "s")) == "essp e s"


class TestBatteryVerdicts:
    """The four examples under {nop,set,swap,free} and its complement twin."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("type_", [TAU, TAU_TILDE], ids=["tau", "twin"])
    def test_a1_fully_feasible(self, battery, engine, type_):
        result = check_feasibility(battery["a1"], type_, engine=engine)
        assert result.holds and result.outcome == "yes"
        assert result.counterexample is None
        for region in result.regions:
            assert validate_region(battery["a1"], type_, region)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("type_", [TAU, TAU_TILDE], ids=["tau", "twin"])
    def test_a2_separable_but_not_inhibitable(self, battery, engine, type_):
        assert check_ssp(battery["a2"], type_, engine=engine).holds
        result = check_essp(battery["a2"], type_, engine=engine)
        assert not result.holds
        assert result.counterexample == EventStateAtom("a", "s2")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("type_", [TAU, TAU_TILDE], ids=["tau", "twin"])
    def test_a3_inhibitable_but_not_separable(self, battery, engine, type_):
        assert check_essp(battery["a3"], type_, engine=engine).holds
        result = check_ssp(battery["a3"], type_, engine=engine)
        assert not result.holds
        assert result.counterexample == StatePairAtom("s1", "s2")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("type_", [TAU, TAU_TILDE], ids=["tau", "twin"])
    def test_a4_fails_both_ssp_first(self, battery, engine, type_):
        assert not check_ssp(battery["a4"], type_, engine=engine).holds
        assert not check_essp(battery["a4"], type_, engine=engine).holds
        result = check_feasibility(battery["a4"], type_, engine=engine)
        assert result.counterexample == StatePairAtom("s1", "s3")

    def test_result_truthiness_and_witness_lookup(self, battery):
        result = check_feasibility(battery["a1"], TAU)
        assert bool(result) is True
        assert any(region.separates("s0", "s1") for region in result.regions)


class TestUnionSemantics:
    def test_cross_member_twins_do_not_block_separation(self):
        m0 = TransitionSystem.build("p0", [("p0", "e", "p1")])
        m1 = TransitionSystem.build("q0", [("q0", "e", "q1")])
        union = TsUnion.of(m0, m1)
        for engine in ENGINES:
            assert check_ssp(union, TAU, engine=engine).holds

    def test_inhibition_ranges_over_all_members(self):
        m0 = TransitionSystem.build("p0", [("p0", "e", "p1")])
        m1 = TransitionSystem.build("q0", [("q0", "e", "q1")])
        union = TsUnion.of(m0, m1)
        for engine in ENGINES:
            result = check_essp(union, TAU, engine=engine)
            assert not result.holds
            assert result.counterexample == EventStateAtom("e", "p1")


class TestAllTypesAgree:
    """Exhaustive/propositional agreement over every usable net type."""

    @pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
    def test_battery_member_across_all_255_types(self, battery, name):
        subject = battery[name]
        for tau in all_net_types():
            baseline = check_feasibility(subject, tau, engine="exhaustive")
            other = check_feasibility(subject, tau, engine="sat")
            assert baseline.outcome == other.outcome, tau.spec()
            assert baseline.counterexample == other.counterexample, tau.spec()


def assert_distinct(regions) -> None:
    """No two regions have the same support and signature."""
    keys = [region.key() for region in regions]
    assert len(set(keys)) == len(keys)


class TestDifferentialAgainstOracle:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_both_engines_match_the_oracle(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=4, max_events=3)
        tau = NetType(
            frozenset(rng.sample(list(Interaction), rng.randint(1, 5)))
        )
        expected_ssp = oracle_ssp(ts, tau)
        expected_essp = oracle_essp(ts, tau)
        for engine in ENGINES:
            got_ssp = check_ssp(ts, tau, engine=engine)
            assert got_ssp.holds == (expected_ssp is None)
            if expected_ssp is not None:
                assert got_ssp.counterexample == StatePairAtom(*expected_ssp)
            got_essp = check_essp(ts, tau, engine=engine)
            assert got_essp.holds == (expected_essp is None)
            if expected_essp is not None:
                assert got_essp.counterexample == EventStateAtom(*expected_essp)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_pooled_regions_are_admissible_and_coherent(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=5, max_events=3)
        tau = rng.choice([TAU, TAU_TILDE, FULL])
        problem = solving._Problem(ts, tau)
        for engine in ENGINES:
            result = check_feasibility(ts, tau, engine=engine)
            coverage = solving._Coverage(problem, True, True)
            for region in result.regions:
                assert validate_region(ts, tau, region)
                assert admissible(ts, tau, region)
                # Replayed in pool order, each region settles a requirement
                # the earlier ones leave pending, so no region repeats and
                # neither engine needs to deduplicate its pool.
                support = problem.support_int_of(region)
                halves, inhibited = coverage.settle(support, region.signature)
                assert halves or any(newly for _, newly in inhibited)
            assert coverage.first_pending() == result.counterexample
            assert_distinct(result.regions)


class TestSolveAtom:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_pair_requirement_solved(self, battery, engine):
        region = solve_atom(
            battery["a1"], TAU, StatePairAtom("s0", "s1"), engine=engine
        )
        assert region is not None
        assert validate_region(battery["a1"], TAU, region)
        assert region.separates("s0", "s1")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unsolvable_pair_returns_none(self, battery, engine):
        assert (
            solve_atom(battery["a3"], TAU, StatePairAtom("s1", "s2"), engine=engine)
            is None
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_inhibition_requirement_solved(self, engine):
        ts = mixed_ts()
        region = solve_atom(ts, FULL, EventStateAtom("a", "q"), engine=engine)
        assert region is not None
        assert validate_region(ts, FULL, region)
        assert region.inhibits("a", "q")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unsolvable_inhibition_returns_none(self, battery, engine):
        assert (
            solve_atom(battery["a2"], TAU, EventStateAtom("a", "s2"), engine=engine)
            is None
        )

    def test_identical_pair_rejected(self, battery):
        with pytest.raises(ValueError, match="distinct"):
            solve_atom(battery["a1"], TAU, StatePairAtom("s0", "s0"))

    def test_enabled_event_rejected(self, battery):
        with pytest.raises(ValueError, match="occurs at"):
            solve_atom(battery["a1"], TAU, EventStateAtom("a", "s0"))

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "atom, unknown",
        [
            (StatePairAtom("s0", "zz"), "state 'zz'"),
            (EventStateAtom("zz", "s0"), "event 'zz'"),
            (EventStateAtom("a", "zz"), "state 'zz'"),
        ],
        ids=["pair-state", "event", "inhibition-state"],
    )
    def test_unknown_name_is_a_value_error(self, battery, engine, atom, unknown):
        with pytest.raises(ValueError, match=f"no {unknown} in the subject"):
            solve_atom(battery["a1"], TAU, atom, engine=engine)
        if isinstance(atom, EventStateAtom):
            with pytest.raises(ValueError, match=f"no {unknown} in the subject"):
                enumerate_inhibiting_regions(
                    battery["a1"], TAU, atom.event, atom.state, limit=1, engine=engine
                )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pair_across_members_is_a_value_error(self, engine):
        # No check pends a pair of states from two members of a union.
        union = TsUnion.of(
            TransitionSystem.build("a0", [("a0", "e", "a1")]),
            TransitionSystem.build("b0", [("b0", "f", "b1")]),
        )
        tau = NetType.from_spec("nop,set,swap,free")
        assert solve_atom(union, tau, StatePairAtom("a0", "a1"), engine=engine)
        with pytest.raises(ValueError, match="different members"):
            solve_atom(union, tau, StatePairAtom("a0", "b0"), engine=engine)

    def test_one_atom_tracker_pends_exactly_the_atom(self):
        # solve_atom is a check of a tracker whose one pending requirement
        # is the atom; a state pair is pending in canonical order.
        ts = random_ts(random.Random(5), max_states=6, max_events=3, min_states=4)
        problem = solving._Problem(ts, FULL)
        of_atom = solving._Coverage.of_atom
        for atom in list(ssp_atoms(ts)) + list(essp_atoms(ts)):
            coverage = of_atom(problem, atom)
            assert coverage.first_pending() == atom
            if isinstance(atom, StatePairAtom):
                assert coverage.blocks and not any(coverage.uncovered)
                swapped = StatePairAtom(atom.second, atom.first)
                assert of_atom(problem, swapped).first_pending() == atom
            else:
                assert not coverage.blocks
                assert sum(map(int.bit_count, coverage.uncovered)) == 1
        with pytest.raises(ValueError, match="distinct"):
            of_atom(problem, StatePairAtom("s1", "s1"))
        arc = ts.arcs[0]
        with pytest.raises(ValueError, match="occurs at"):
            of_atom(problem, EventStateAtom(arc.event, arc.source))

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_matches_oracle_per_atom(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=4, max_events=2)
        tau = NetType(
            frozenset(rng.sample(list(Interaction), rng.randint(2, 6)))
        )
        for atom in ssp_atoms(ts):
            expected = oracle_separable(ts, tau, atom.first, atom.second)
            for engine in ENGINES:
                region = solve_atom(ts, tau, atom, engine=engine)
                assert (region is not None) == expected
                if region is not None:
                    assert validate_region(ts, tau, region)
                    assert region.separates(atom.first, atom.second)
        for atom in essp_atoms(ts):
            expected = oracle_inhibitable(ts, tau, atom.event, atom.state)
            for engine in ENGINES:
                region = solve_atom(ts, tau, atom, engine=engine)
                assert (region is not None) == expected
                if region is not None:
                    assert validate_region(ts, tau, region)
                    assert region.inhibits(atom.event, atom.state)


class TestEnumeration:
    def test_exhaustive_lists_support_distinct_regions(self):
        ts = mixed_ts()
        regions = enumerate_inhibiting_regions(ts, FULL, "a", "q")
        assert regions
        supports = [r.support_set() for r in regions]
        assert len(set(supports)) == len(supports)
        for region in regions:
            assert validate_region(ts, FULL, region)
            assert region.inhibits("a", "q")

    def test_limit_truncates(self):
        ts = mixed_ts()
        full = enumerate_inhibiting_regions(ts, FULL, "a", "q")
        assert len(enumerate_inhibiting_regions(ts, FULL, "a", "q", limit=1)) == 1
        assert len(full) > 1

    def test_sat_engine_needs_a_limit(self):
        ts = mixed_ts()
        with pytest.raises(ValueError, match="limit"):
            enumerate_inhibiting_regions(ts, FULL, "a", "q", engine="sat")

    def test_sat_engine_finds_the_same_support_count(self):
        ts = mixed_ts()
        baseline = enumerate_inhibiting_regions(ts, FULL, "a", "q")
        via_sat = enumerate_inhibiting_regions(
            ts, FULL, "a", "q", engine="sat", limit=len(baseline) + 5
        )
        assert len(via_sat) == len(baseline)
        assert {r.support_set() for r in via_sat} == {
            r.support_set() for r in baseline
        }
        for region in via_sat:
            assert validate_region(ts, FULL, region)
            assert region.inhibits("a", "q")

    def test_unsolvable_atom_gives_empty_list(self, battery):
        assert enumerate_inhibiting_regions(battery["a2"], TAU, "a", "s2") == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_limit_gives_empty_list(self, engine):
        regions = enumerate_inhibiting_regions(
            mixed_ts(), FULL, "a", "q", engine=engine, limit=0
        )
        assert regions == []

    def test_enabled_pair_rejected(self, battery):
        with pytest.raises(ValueError, match="nothing to inhibit"):
            enumerate_inhibiting_regions(battery["a1"], TAU, "a", "s1")


def net_graph_18() -> TransitionSystem:
    """Reachability graph (18 states, 3 events) of a six-place net over TAU.
    Under TAU its pooled regions come from several 2^16-support windows."""
    flows = {
        "p0": "set nop set",
        "p1": "nop swap nop",
        "p2": "set nop swap",
        "p3": "nop free nop",
        "p4": "swap swap nop",
        "p5": "free swap set",
    }
    transitions = ("t0", "t1", "t2")
    flow = {
        (place, t): Interaction(value)
        for place, values in flows.items()
        for t, value in zip(transitions, values.split())
    }
    net = BooleanNet(TAU, tuple(flows), transitions, flow, {p: 0 for p in flows})
    return reachability_graph(net)


def support_bits(problem, support: int) -> bytes:
    """A support integer as one 0/1 byte per state, in position order."""
    return bytes(support >> (problem.n - 1 - p) & 1 for p in range(problem.n))


def naive_supports(problem) -> list[int]:
    """Reference scan: one support at a time, kept iff every event keeps
    some interaction of the type."""
    return [
        support
        for support in range(1 << problem.n)
        if all(problem.allowed_at(support_bits(problem, support)))
    ]


class TestSupportSweep:
    @pytest.mark.parametrize("window_bits", [solving._WINDOW_BITS, 2])
    def test_matches_a_naive_scan(self, monkeypatch, window_bits):
        # A 2-bit window splits every system of 3+ states into windows whose
        # higher support bits are constant.
        monkeypatch.setattr(solving, "_WINDOW_BITS", window_bits)
        types = list(all_net_types())
        rng = random.Random(2024)
        systems = 0
        while systems < 60:
            ts = random_ts(rng, max_states=10, max_events=3)
            if len(ts.states) < 2:
                continue
            systems += 1
            for tau in rng.sample(types, 3):
                problem = solving._Problem(ts, tau)
                swept = list(solving._admissible_supports(problem, None, []))
                assert swept == naive_supports(problem), (ts.arcs, tau.spec())

    def test_eighteen_states_agree_with_sat_across_windows(self):
        ts = net_graph_18()
        assert len(ts.states) == 18
        problem = solving._Problem(ts, TAU)
        swept = list(solving._admissible_supports(problem, None, []))
        assert swept == naive_supports(problem)
        assert len({support >> solving._WINDOW_BITS for support in swept}) > 1
        for tau in [TAU, *list(all_net_types())[::5]]:
            for checker in (check_feasibility, check_essp):
                exhaustive = checker(ts, tau, engine="exhaustive")
                via_sat = checker(ts, tau, engine="sat")
                assert exhaustive.outcome == via_sat.outcome, tau.spec()
                assert exhaustive.counterexample == via_sat.counterexample


def three_kinds_of_arc() -> TransitionSystem:
    """A self-loop (a), a two-cycle (b) and an event with three arcs (c)."""
    return TransitionSystem.build(
        "p",
        [
            ("p", "a", "p"),
            ("p", "b", "q"),
            ("q", "b", "p"),
            ("p", "c", "r"),
            ("q", "c", "r"),
            ("r", "c", "p"),
        ],
    )


def per_bit_clauses(ctx, event_pos):
    """The consistency rule of one event, per source bit, in DIMACS
    literals: at least one interaction; per arc, interaction and source bit
    b, the interaction is not selected, or the source is not b, or the
    target carries the image of b if there is one."""
    problem = ctx.problem
    sels = ctx.sel_var[event_pos]
    clauses = [list(sels)]
    for src, dst in problem.index.arcs_by_event[event_pos]:
        s, d = ctx.sup_var[src], ctx.sup_var[dst]
        for sel, interaction in zip(sels, problem.tau_list):
            for b, image in enumerate(interaction.effect):
                clause = [-sel, -s if b else s]
                if image is not None:
                    clause.append(d if image else -d)
                clauses.append(clause)
    return clauses


def arc_mix(rng: random.Random) -> TransitionSystem:
    """A system of two to five states whose one to four events each take a
    random mix of a self-loop, a two-cycle, two arcs into one state and a
    single arc, the system's arcs in random order."""
    states = [f"s{k}" for k in range(rng.randint(2, 5))]
    arcs: dict[tuple[str, str], str] = {}
    for event in (f"e{k}" for k in range(rng.randint(1, 4))):
        for shape in rng.sample(("loop", "cycle", "into", "one"), rng.randint(1, 4)):
            p, q, r = (rng.choice(states) for _ in range(3))
            pairs = {
                "loop": [(p, p)],
                "cycle": [(p, q), (q, p)],
                "into": [(p, r), (q, r)],
                "one": [(p, q)],
            }[shape]
            for source, target in pairs:
                arcs.setdefault((source, event), target)
    items = [(source, event, target) for (source, event), target in arcs.items()]
    rng.shuffle(items)
    return TransitionSystem.build(items[0][0], items)


def dimacs_reference(ctx) -> SatSolver:
    """A solver with the consistency CNF of ``ctx`` loaded clause by clause
    in DIMACS literals, by the rule of ``_consistency_clauses``'s docstring:
    per arc and interaction, per pattern (a, b) in ascending order that the
    interaction cannot follow (its image of a is not b), the interaction is
    not selected, or the source is not a, or the target is not b. The clause
    keeps only its source side if (a, not b) is ruled out too, and only its
    target side if (not a, b) is; repeats are dropped. On a self-loop a
    clause equal to one loaded before for the arc is dropped too, and the
    solver's normaliser drops a tautology and merges a repeated literal.
    Then, after the arc clauses, at least one interaction per event: a unit
    under a type of one interaction, which must come last, and otherwise a
    clause of positive selectors, whose lists no arc clause touches."""
    problem = ctx.problem
    reference = SatSolver(decision_vars=problem.n)
    reference.ensure_vars(ctx.solver.num_vars)
    for sels, arcs in zip(ctx.sel_var, problem.index.arcs_by_event):
        for src, dst in arcs:
            s, d = ctx.sup_var[src], ctx.sup_var[dst]
            for sel, interaction in zip(sels, problem.tau_list):
                out = [
                    (a, b)
                    for a in (0, 1)
                    for b in (0, 1)
                    if interaction.effect[a] != b
                ]
                sides = []  # (a or None, b or None) per clause
                for a, b in out:
                    if (a, 1 - b) in out:
                        side = (a, None)
                    elif (1 - a, b) in out:
                        side = (None, b)
                    else:
                        side = (a, b)
                    if side not in sides:
                        sides.append(side)
                loaded = []
                for a, b in sides:
                    clause = [-sel]
                    if a is not None:
                        clause.append(-s if a else s)
                    if b is not None:
                        clause.append(-d if b else d)
                    if set(clause) not in loaded:
                        loaded.append(set(clause))
                        reference.add_clause(clause)
    for sels in ctx.sel_var:
        reference.add_clause(list(sels))
    return reference


def dimacs(clause):
    return [lit >> 1 if lit & 1 == 0 else -(lit >> 1) for lit in clause]


class TestConsistencyCnf:
    def test_loaded_solver_matches_a_dimacs_reference_for_every_type(self):
        ts = three_kinds_of_arc()
        single = 0
        for tau in all_net_types():
            problem = solving._Problem(ts, tau)
            ctx = solving._SatContext(problem)
            assert solver_state(ctx.solver) == solver_state(
                dimacs_reference(ctx)
            ), tau.spec()
            single += len(problem.tau_list) == 1
        assert single == 8

    def test_a_self_loop_loads_no_binary_clause_twice(self):
        # The self-loop event a has one arc, so the binary lists of its
        # selectors' negations hold only that arc's clauses: none twice.
        # (Arcs of one event sharing a state, as b's two-cycle and c's two
        # arcs into r, still repeat one-sided clauses.)
        ts = three_kinds_of_arc()
        for tau in all_net_types():
            ctx = solving._SatContext(solving._Problem(ts, tau))
            for sel in ctx.sel_var[ctx.problem.index.event_pos["a"]]:
                partners = ctx.solver._bins[2 * sel + 1]
                assert len(partners) == len(set(partners)), tau.spec()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10**9))
    def test_loaded_solver_matches_a_dimacs_reference_on_random_systems(self, seed):
        # The rule of the test above on systems whose events mix self-loops,
        # two-cycles, arcs into one state and single arcs in random order,
        # under types of one to eight interactions.
        rng = random.Random(seed)
        ts = arc_mix(rng)
        for _ in range(4):
            tau = NetType(frozenset(rng.sample(list(Interaction), rng.randint(1, 8))))
            ctx = solving._SatContext(solving._Problem(ts, tau))
            assert solver_state(ctx.solver) == solver_state(
                dimacs_reference(ctx)
            ), (ts.arcs, tau.spec())

    @pytest.mark.parametrize(
        "tau", [*family_types(), NetType.from_spec("nop")], ids=NetType.spec
    )
    def test_the_glued_instance_loads_without_normalising(self, tau, monkeypatch):
        # The CNF is attached as it is: under a type of two or more
        # interactions no clause goes through the solver's normalising path,
        # and under one interaction only each event's unit selector does.
        # (nop's arc clauses are all ternary, so it fills no binary list.)
        family = Family.FREE if tau in Family.FREE.types() else Family.USED
        problem = solving._Problem(build_instance(PHI_SAT, family).ts, tau)
        calls = []
        normalise = SatSolver._add_normalised

        def counting(self, clause):
            calls.append(clause)
            return normalise(self, clause)

        monkeypatch.setattr(SatSolver, "_add_normalised", counting)
        ctx = solving._SatContext(problem)
        units = [[2 * sels[0]] for sels in ctx.sel_var if len(sels) == 1]
        assert calls == units
        assert any(ctx.solver._watches) and (any(ctx.solver._bins) or units)

    @staticmethod
    def assert_same_models_as_the_per_bit_rule(ts, tau):
        # The clauses of different events share only support bits, so the
        # two CNFs have the same models iff they have per event, over the
        # support bits and that event's selectors (renumbered after them).
        problem = solving._Problem(ts, tau)
        ctx = solving._SatContext(problem)
        clauses = [dimacs(c) for c in consistency_cnf(ctx)]
        for event_pos, sels in enumerate(ctx.sel_var):
            renumber = {sel: problem.n + k + 1 for k, sel in enumerate(sels)}

            def own(clause_list):
                return [
                    [
                        (1 if lit > 0 else -1) * renumber.get(abs(lit), abs(lit))
                        for lit in clause
                    ]
                    for clause in clause_list
                    if any(abs(lit) in renumber for lit in clause)
                ]

            nvars = problem.n + len(sels)
            new = satisfying_set(nvars, own(clauses))
            old = satisfying_set(nvars, own(per_bit_clauses(ctx, event_pos)))
            assert new == old, (ts.arcs, tau.spec(), problem.events[event_pos])

    def test_same_models_as_the_per_bit_rule_for_every_type(self):
        ts = three_kinds_of_arc()
        for tau in all_net_types():
            self.assert_same_models_as_the_per_bit_rule(ts, tau)

    @pytest.mark.parametrize("seed", range(40))
    def test_same_models_as_the_per_bit_rule_on_random_systems(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=4, max_events=3)
        for tau in rng.sample(list(all_net_types()), 8):
            self.assert_same_models_as_the_per_bit_rule(ts, tau)


class TestDecisionBound:
    """``_SatContext`` decides support bits only. Every query it asks gets
    the verdict of a solver that decides every variable, and its model,
    with every selector it left open set true, satisfies the consistency
    CNF and the query's assumptions."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_bounded_and_unbounded_solvers_agree_on_every_query(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=8, max_events=3, min_states=2)
        tau = NetType(frozenset(rng.sample(list(Interaction), rng.randint(1, 8))))
        problem = solving._Problem(ts, tau)
        ctx = solving._SatContext(problem)
        bounded = ctx.solver
        clauses = [dimacs(c) for c in consistency_cnf(ctx)]
        unbounded = SatSolver()
        unbounded.ensure_vars(bounded.num_vars)
        for clause in clauses:
            unbounded.add_clause(clause)
        coverage = solving._Coverage(problem, True, True)
        asked = 0
        for atom in [*ssp_atoms(ts), *essp_atoms(ts)]:
            for lits, _ in ctx.queries(atom, coverage):
                asked += 1
                verdict = bounded.solve(lits)
                assert verdict == unbounded.solve(lits), (ts.arcs, tau.spec(), lits)
                if not verdict:
                    continue
                model = bounded._model
                assert all(model[2 * var] != 2 for var in ctx.sup_var)
                # true (1), or open (2) and so set true
                value = [None] + [
                    model[2 * var] in (1, 2)
                    for var in range(1, bounded.num_vars + 1)
                ]
                for clause in [*clauses, *([lit] for lit in lits)]:
                    assert any(value[abs(lit)] == (lit > 0) for lit in clause)
        assert asked


class TestInhibitionQueries:
    """``_SatContext.queries`` for an inhibition (event, state): one query
    per partial interaction p of the type, in canonical order, whose
    assumptions are the selector of p for the event and the support value
    p is undefined at; before those, when the event is pending at two or
    more states, one batch query per p asking that value at all of them."""

    def expected(self, ctx, event, states):
        problem = ctx.problem
        e = problem.index.event_pos[event]
        sups = [ctx.sup_var[problem.index.state_pos[s]] for s in states]
        queries = []
        for sel, interaction in zip(ctx.sel_var[e], problem.tau_list):
            if interaction.is_partial:
                at = 0 if interaction.effect[0] is None else 1
                lits = tuple(sup if at else -sup for sup in sups)
                queries.append(((sel, *lits), {event: interaction}))
        return queries

    def test_one_pending_state_gives_the_one_atom_queries(self):
        ts = distinct_event_chain()
        problem = solving._Problem(ts, FULL)
        ctx = solving._SatContext(problem)
        for atom in essp_atoms(ts):
            coverage = solving._Coverage.of_atom(problem, atom)
            got = list(ctx.queries(atom, coverage))
            assert len(got) == 4  # inp, out, used and free
            assert got == self.expected(ctx, atom.event, [atom.state])

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_pending_states_first_get_batch_queries(self, k):
        ts = distinct_event_chain()
        problem = solving._Problem(ts, FULL)
        ctx = solving._SatContext(problem)
        coverage = solving._Coverage(problem, False, True)
        # a2 occurs at s2 only; keep the first k of its six pending states.
        pending = [s for s in problem.states if s != "s2"][:k]
        coverage.uncovered[problem.index.event_pos["a2"]] = sum(
            problem.state_bit(problem.index.state_pos[s]) for s in pending
        )
        atom = EventStateAtom("a2", pending[0])
        got = list(ctx.queries(atom, coverage))
        single = self.expected(ctx, "a2", [atom.state])
        assert got[4:] == single
        for (lits, forced), (want, want_forced) in zip(
            got[:4], self.expected(ctx, "a2", pending), strict=True
        ):
            assert forced == want_forced
            assert lits[0] == want[0]
            assert sorted(lits[1:]) == sorted(want[1:])
            assert len(lits) == 1 + k


def distinct_event_chain() -> TransitionSystem:
    """``s0 -a0-> s1 -a1-> ... -a5-> s6``: each event is pending at six of
    the seven states."""
    return TransitionSystem.build(
        "s0", [(f"s{k}", f"a{k}", f"s{k + 1}") for k in range(6)]
    )


#: Every interaction of this type maps each value to the other one or is
#: undefined there, so every arc joins states of opposite values.
SEPARATING = NetType.from_spec("swap,inp,out")


@pytest.fixture
def batch_verdicts(monkeypatch):
    """The verdicts of every batch query (more than two assumptions)."""
    verdicts = []
    solve = SatSolver.solve

    def counting(self, assumptions=(), *args, **kwargs):
        verdict = solve(self, assumptions, *args, **kwargs)
        if len(assumptions) > 2:
            verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(SatSolver, "solve", counting)
    return verdicts


class TestBatchFallback:
    def test_one_atom_queries_settle_what_no_batch_query_can(self, batch_verdicts):
        # b keeps s1 and s2 apart, so no region inhibits e at s1, s2 and s3
        # at once, but one does at each state alone.
        ts = TransitionSystem.build("s0", [("s0", "e", "s3"), ("s1", "b", "s2")])
        result = check_essp(ts, SEPARATING, engine="sat")
        assert batch_verdicts[:2] == [False, False]  # e under inp, then out
        assert result.outcome == "yes"
        assert check_essp(ts, SEPARATING, engine="exhaustive").outcome == "yes"
        assert oracle_essp(ts, SEPARATING) is None
        for region in result.regions:
            assert validate_region(ts, SEPARATING, region)

    def test_an_unsettleable_first_inhibition_is_the_counterexample(
        self, batch_verdicts
    ):
        # c has a two-cycle, so it is swap in every region: it is pending
        # at s0 and s3 and can be inhibited at neither.
        ts = TransitionSystem.build(
            "s0",
            [("s1", "c", "s2"), ("s2", "c", "s1"), ("s0", "e", "s3")],
        )
        via_sat = check_essp(ts, SEPARATING, engine="sat")
        exhaustive = check_essp(ts, SEPARATING, engine="exhaustive")
        assert batch_verdicts == [False, False]
        assert via_sat.outcome == exhaustive.outcome == "no"
        assert via_sat.counterexample == exhaustive.counterexample
        assert via_sat.counterexample == EventStateAtom("c", "s0")


class TestCheckResult:
    def test_is_frozen_equal_and_hashable(self, battery):
        result = check_ssp(battery["a1"], TAU, engine="sat")
        assert result == check_ssp(battery["a1"], TAU, engine="sat")
        assert result != dataclasses.replace(result, outcome="no")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.outcome = "no"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.reason
        # Hashable as far as its fields are (a Region holds dicts).
        atom = StatePairAtom("s0", "s1")
        one = solving.CheckResult("ssp", "no", "sat", atom, ())
        other = solving.CheckResult("ssp", "no", "sat", atom, (), reason="")
        assert one == other and hash(one) == hash(other)
        assert len({one, other, dataclasses.replace(one, engine="exhaustive")}) == 2
        assert repr(one) == (
            "CheckResult(property_name='ssp', outcome='no', engine='sat', "
            f"counterexample={atom!r}, regions=(), reason='')"
        )


def futile_resign(coverage, support, picks, allowed):
    """``_Coverage.resign`` gone wrong: each event with pending inhibitions
    and no pick gets an admissible partial interaction that inhibits none of
    its pending states, if there is one."""
    at = (~support, support)  # the states holding 0, 1
    for e, pending in enumerate(coverage.uncovered):
        event = coverage.problem.events[e]
        if pending and event not in picks:
            for mask_bit, interaction, bit in solving._PARTIALS:
                if allowed[e] & mask_bit and not pending & at[bit]:
                    picks[event] = interaction


DECODE = solving._SatContext.decode


def unsettling_decode(ctx, forced, coverage):
    """``_SatContext.decode`` gone wrong: the region is credited to a
    throwaway tracker, so it settles nothing of ``coverage``."""
    return DECODE(ctx, forced, solving._Coverage(ctx.problem, True, True))


class TestProgressGuards:
    """An engine loop whose round settles nothing raises ``EngineError``
    instead of pooling the same region until memory runs out."""

    def test_a_region_that_inhibits_nothing_new_stops_the_sweep(self, monkeypatch):
        assert check_essp(mixed_ts(), FULL, engine="exhaustive").holds
        monkeypatch.setattr(solving._Coverage, "resign", futile_resign)
        with pytest.raises(EngineError, match="settles nothing new"):
            check_essp(mixed_ts(), FULL, engine="exhaustive")

    @pytest.mark.parametrize("check", [check_ssp, check_essp])
    def test_a_decoded_region_that_settles_nothing_stops_the_queries(
        self, check, monkeypatch
    ):
        assert check(mixed_ts(), FULL, engine="sat").holds
        monkeypatch.setattr(solving._SatContext, "decode", unsettling_decode)
        with pytest.raises(EngineError, match="leaves its query pending"):
            check(mixed_ts(), FULL, engine="sat")


@pytest.fixture
def collector_on():
    """The cyclic garbage collector enabled for the test, and left after it
    as it was found."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


def watch_the_solvers(monkeypatch) -> list:
    """Spy on ``SatSolver.solve``: each call appends whether the collector
    was on, and a weak reference to the solver."""
    seen = []
    solve = SatSolver.solve

    def spy(solver, assumptions=(), deadline=None):
        seen.append((gc.isenabled(), weakref.ref(solver)))
        return solve(solver, assumptions, deadline)

    monkeypatch.setattr(SatSolver, "solve", spy)
    return seen


#: Every public call that runs the propositional engine on ``mixed_ts()``.
SAT_ENGINE_CALLS = {
    "check": lambda: check_ssp(mixed_ts(), FULL, engine="sat"),
    "solve_atom": lambda: solve_atom(
        mixed_ts(), FULL, EventStateAtom("a", "q"), engine="sat"
    ),
    "enumerate": lambda: enumerate_inhibiting_regions(
        mixed_ts(), FULL, "a", "q", engine="sat", limit=2
    ),
}


class TestCollectorPause:
    """The propositional engine runs with the cyclic garbage collector off,
    until its solver is freed, and then leaves it as it found it. Reference
    counting frees everything the engine makes, which is what makes the
    pause safe."""

    def test_the_engine_makes_no_reference_cycles(self, monkeypatch):
        gc.collect()
        gc.disable()
        try:
            for family in Family:
                inst = build_instance(PHI_SAT, family)
                tau = family.base_type
                assert check_feasibility(inst.ts, tau, engine="sat").holds
                assert solve_atom(inst.ts, tau, inst.target_atom, engine="sat")
                atom = inst.target_atom
                regions = enumerate_inhibiting_regions(
                    inst.ts, tau, atom.event, atom.state, engine="sat", limit=3
                )
                assert len(regions) == 3
            # A budget that runs out at the fifth query.
            answers = []
            solve = SatSolver.solve

            def expiring(solver, assumptions=(), deadline=None):
                if len(answers) == 4:
                    return None
                answers.append(solve(solver, assumptions, deadline))
                return answers[-1]

            monkeypatch.setattr(SatSolver, "solve", expiring)
            result = check_feasibility(inst.ts, tau, engine="sat")
            assert result.outcome == "inconclusive"
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", SAT_ENGINE_CALLS.values(), ids=SAT_ENGINE_CALLS)
    def test_the_solver_runs_paused_and_is_freed_on_return(
        self, call, monkeypatch, collector_on
    ):
        seen = watch_the_solvers(monkeypatch)
        assert call()
        assert seen
        assert not any(enabled for enabled, _ in seen)
        assert all(solver() is None for _, solver in seen)
        assert gc.isenabled()

    def test_the_collector_comes_back_after_a_spent_budget(
        self, monkeypatch, collector_on
    ):
        seen = watch_the_solvers(monkeypatch)
        result = check_ssp(mixed_ts(), FULL, engine="sat", budget=0.0)
        assert result.outcome == "inconclusive"
        assert [enabled for enabled, _ in seen] == [False]
        assert seen[0][1]() is None
        assert gc.isenabled()
        with pytest.raises(ResourceExhausted):
            enumerate_inhibiting_regions(
                mixed_ts(), FULL, "a", "q", engine="sat", limit=2, budget=0.0
            )
        assert gc.isenabled()

    def test_the_collector_comes_back_after_an_engine_error(
        self, monkeypatch, collector_on
    ):
        monkeypatch.setattr(solving._SatContext, "decode", unsettling_decode)
        with pytest.raises(EngineError, match="leaves its query pending"):
            check_ssp(mixed_ts(), FULL, engine="sat")
        assert gc.isenabled()

    @pytest.mark.parametrize("call", SAT_ENGINE_CALLS.values(), ids=SAT_ENGINE_CALLS)
    def test_a_collector_switched_off_beforehand_stays_off(self, call):
        gc.disable()
        try:
            assert call()
            assert not gc.isenabled()
        finally:
            gc.enable()


def lax_allowed_at(problem, bits):
    """``_Problem.allowed_at`` gone wrong: every event may take any
    interaction of the type, whatever its arcs show."""
    return [problem.allowed_by_code[0]] * len(problem.events)


class TestRegionGuard:
    """``_Problem.region`` re-validates every region it builds, so an engine
    that signs an event against its arcs raises ``EngineError``."""

    def test_an_inadmissible_region_stops_the_check(self, monkeypatch):
        assert check_ssp(mixed_ts(), FULL, engine="sat").holds
        monkeypatch.setattr(solving._Problem, "allowed_at", lax_allowed_at)
        with pytest.raises(EngineError) as caught:
            check_ssp(mixed_ts(), FULL, engine="sat")
        assert str(caught.value) == "engine produced an inadmissible region"


class TestBudgets:
    def test_zero_budget_check_is_inconclusive(self, battery):
        result = check_feasibility(
            battery["a1"], TAU, engine="sat", budget=0.0
        )
        assert result.outcome == "inconclusive"
        assert not result.holds
        assert "budget" in result.reason

    def test_zero_budget_solve_atom_raises(self, battery):
        with pytest.raises(ResourceExhausted):
            solve_atom(
                battery["a1"],
                TAU,
                StatePairAtom("s0", "s1"),
                engine="sat",
                budget=0.0,
            )

    def test_zero_budget_exhaustive_check_is_inconclusive(self, battery):
        result = check_feasibility(
            battery["a1"], TAU, engine="exhaustive", budget=0.0
        )
        assert result.outcome == "inconclusive"
        assert "budget" in result.reason

    def test_zero_budget_exhaustive_search_raises(self, battery):
        for atom in (StatePairAtom("s0", "s1"), EventStateAtom("a", "s2")):
            with pytest.raises(ResourceExhausted):
                solve_atom(
                    battery["a2"], TAU, atom, engine="exhaustive", budget=0.0
                )
        with pytest.raises(ResourceExhausted):
            enumerate_inhibiting_regions(
                battery["a2"], TAU, "a", "s2", engine="exhaustive", budget=0.0
            )

    def test_unbudgeted_exhaustive_engine_refuses_a_large_subject(self):
        # 33 states: a sweep of 2^33 supports would not end in useful time.
        line = line_ts(solving._EXHAUSTIVE_MAX_STATES + 1)
        calls = (
            lambda: check_ssp(line, TAU, engine="exhaustive"),
            lambda: solve_atom(
                line, TAU, StatePairAtom("s1", "s2"), engine="exhaustive"
            ),
            lambda: enumerate_inhibiting_regions(
                line, TAU, "a", "s32", engine="exhaustive"
            ),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"2\^33 supports"):
                call()
        assert check_ssp(line, TAU, engine="exhaustive", budget=0.0).outcome == (
            "inconclusive"
        )

    def test_deadline_inside_a_sat_query_keeps_the_pool(self, monkeypatch):
        # The deadline passes during the fifth query: the check keeps the
        # regions of the four answered ones, the same as a full run's.
        member = build_union(PHI_SAT, Family.FREE)[0].members[0]
        full = check_feasibility(member, Family.FREE.base_type, engine="sat")
        answers = []
        solve = SatSolver.solve

        def expiring(solver, assumptions=(), deadline=None):
            if len(answers) == 4:
                return None
            answers.append(solve(solver, assumptions, deadline))
            return answers[-1]

        monkeypatch.setattr(SatSolver, "solve", expiring)
        result = check_feasibility(member, Family.FREE.base_type, engine="sat")
        assert answers == [True] * 4
        assert result.outcome == "inconclusive"
        assert "budget" in result.reason
        assert result.regions == full.regions[:4]
        assert len(full.regions) > 4

    def test_deadline_inside_the_sweep_keeps_the_pool(self, monkeypatch):
        # All 2^13 supports of this chain are admissible under FULL, and a
        # full run pools its regions from the first 2,049 of them. The
        # deadline passes at the sweep's first every-1,024-supports check:
        # the check keeps the regions of the first 1,024 supports, the same
        # as a full run's.
        chain = TransitionSystem.build(
            "s0", [(f"s{k}", f"a{k}", f"s{k + 1}") for k in range(12)]
        )
        full = check_feasibility(chain, FULL, engine="exhaustive")
        readings = []

        def clock():
            # The budget is read, then the window opens; every later reading
            # is past the deadline.
            readings.append(len(readings) < 2)
            return 0.0 if readings[-1] else 2.0

        monkeypatch.setattr(solving, "time", SimpleNamespace(monotonic=clock))
        result = check_feasibility(chain, FULL, engine="exhaustive", budget=1.0)
        assert readings == [True, True, False]
        assert full.outcome == "yes"
        assert result.outcome == "inconclusive"
        assert "budget" in result.reason
        assert 0 < len(result.regions) < len(full.regions)
        assert result.regions == full.regions[: len(result.regions)]

    def test_nan_budget_is_rejected(self, battery):
        # No clock reading is ever past a NaN deadline, so it would never
        # run out.
        for engine in ("exhaustive", "sat"):
            with pytest.raises(ValueError, match="budget"):
                check_ssp(battery["a1"], TAU, engine=engine, budget=float("nan"))

    def test_infinite_and_negative_budgets_keep_their_meaning(self, battery):
        never = check_feasibility(battery["a1"], TAU, budget=float("inf"))
        assert never.outcome == "yes"
        spent = check_feasibility(battery["a1"], TAU, budget=-1.0)
        assert spent.outcome == "inconclusive"

    def test_zero_budget_sat_enumeration_raises(self, battery):
        with pytest.raises(ResourceExhausted):
            enumerate_inhibiting_regions(
                battery["a2"], TAU, "a", "s2", engine="sat", limit=3, budget=0.0
            )

    def test_exhaustive_windows_stay_small_on_forty_states(self, monkeypatch):
        widths = []
        table = solving._column_table

        def spy(width):
            widths.append(width)
            return table(width)

        monkeypatch.setattr(solving, "_column_table", spy)
        result = check_feasibility(
            line_ts(40), TAU, engine="exhaustive", budget=0.2
        )
        assert result.outcome == "inconclusive"
        assert widths == [solving._WINDOW_BITS]

    def test_unknown_engine_rejected(self, battery):
        with pytest.raises(ValueError, match="unknown engine"):
            check_ssp(battery["a1"], TAU, engine="dpll")


class TestAssignWitnesses:
    def test_one_record_per_atom_in_canonical_order(self):
        ts = mixed_ts()
        result = check_feasibility(ts, FULL)
        assert result.holds
        records = witness_atoms(ts, assign_witnesses(ts, FULL, result.regions))
        expected = list(ssp_atoms(ts)) + list(essp_atoms(ts))
        assert [atom for atom, _ in records] == expected
        for atom, region in records:
            assert validate_region(ts, FULL, region)
            if isinstance(atom, StatePairAtom):
                assert region.separates(atom.first, atom.second)
            else:
                assert region.inhibits(atom.event, atom.state)

    def test_unsolved_atoms_are_omitted(self, battery):
        # the chain example fails both properties; solved atoms still listed
        ts = battery["a4"]
        result = check_feasibility(ts, TAU)
        records = witness_atoms(ts, assign_witnesses(ts, TAU, result.regions))
        listed = {atom for atom, _ in records}
        assert StatePairAtom("s1", "s3") not in listed
        assert StatePairAtom("s0", "s1") in listed

    def test_property_selection_flags(self):
        ts = mixed_ts()
        regions = check_feasibility(ts, FULL).regions
        only_ssp = witness_atoms(ts, assign_witnesses(ts, FULL, regions, "ssp"))
        assert only_ssp and all(
            isinstance(atom, StatePairAtom) for atom, _ in only_ssp
        )
        only_essp = witness_atoms(ts, assign_witnesses(ts, FULL, regions, "essp"))
        assert only_essp and all(
            isinstance(atom, EventStateAtom) for atom, _ in only_essp
        )

    def test_an_unknown_property_is_rejected(self):
        ts = mixed_ts()
        regions = check_feasibility(ts, FULL).regions
        with pytest.raises(ValueError, match="unknown property 'sp'"):
            assign_witnesses(ts, FULL, regions, "sp")


def settles(region, atom) -> bool:
    if isinstance(atom, StatePairAtom):
        return region.separates(atom.first, atom.second)
    return region.inhibits(atom.event, atom.state)


def union_with_a_single_state_member() -> TsUnion:
    return TsUnion.of(
        TransitionSystem.build(
            "p0", [("p0", "a", "p1"), ("p1", "b", "p2"), ("p2", "a", "p0")]
        ),
        TransitionSystem.build("q0", [("q0", "b", "q0")]),
        TransitionSystem.build("r0", [("r0", "a", "r1"), ("r1", "a", "r2")]),
    )


def sampled_pool(seed: int):
    """A seeded subject, a type, and a random subset of a check's pool in
    random order; seed 0 is the union with a single-state member."""
    rng = random.Random(seed)
    subject = union_with_a_single_state_member() if seed == 0 else random_ts(rng)
    tau = rng.choice((TAU, TAU_TILDE, FULL))
    pool = list(check_feasibility(subject, tau, engine=rng.choice(ENGINES)).regions)
    return subject, tau, rng.sample(pool, rng.randint(0, len(pool)))


def grown_pool(seed: int):
    """``sampled_pool`` with both engines' whole pools behind the sample, so
    that regions repeat and overlap and ``irredundant`` has some to drop."""
    subject, tau, regions = sampled_pool(seed)
    regions += [
        region
        for engine in ENGINES
        for region in check_feasibility(subject, tau, engine=engine).regions
    ]
    return subject, tau, regions


class TestCoverageReplay:
    """Witness assignment and synthesis replay regions through the engines'
    coverage tracker; naive per-atom scans over the same regions agree."""

    @pytest.mark.parametrize("seed", range(40))
    def test_assign_witnesses_matches_a_naive_scan(self, seed):
        subject, tau, regions = sampled_pool(seed)
        for property_name in ("feasible", "ssp", "essp"):
            atoms = (list(ssp_atoms(subject)) if property_name != "essp" else []) + (
                list(essp_atoms(subject)) if property_name != "ssp" else []
            )
            expected = []
            for atom in atoms:
                first = next((r for r in regions if settles(r, atom)), None)
                if first is not None:
                    expected.append((atom, id(first)))
            rows = assign_witnesses(subject, tau, regions, property_name)
            records = witness_atoms(subject, rows)
            assert [(atom, id(region)) for atom, region in records] == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_synthesize_names_the_first_unsettled_atom(self, seed):
        subject, tau, regions = sampled_pool(seed)
        atoms = list(ssp_atoms(subject)) + list(essp_atoms(subject))
        expected = next(
            (a for a in atoms if not any(settles(r, a) for r in regions)), None
        )
        assert solving.first_unsettled(subject, tau, regions) == expected
        if isinstance(subject, TsUnion):
            return  # a union has no initial state to synthesize a net from
        if expected is None:
            net = synthesize(subject, tau, regions)
            assert len(net.places) == len({r.key() for r in regions})
        else:
            with pytest.raises(SynthesisError) as raised:
                synthesize(subject, tau, regions)
            assert raised.value.atom == expected


class TestIrredundant:
    """``solving.irredundant`` drops, in order, each region the kept others
    make redundant, counting inhibitions and separating states on ints."""

    def test_a_drop_is_subtracted_from_the_counts(self):
        # Two regions inhibit a at q and nothing else: either can go, not both.
        ts = mixed_ts()
        inp_swap, inp_set, swap_out = (
            Region({"p": 1, "q": 0}, {"a": a, "b": b})
            for a, b in (
                (Interaction.INP, Interaction.SWAP),
                (Interaction.INP, Interaction.SET),
                (Interaction.SWAP, Interaction.OUT),
            )
        )
        pool = [inp_swap, inp_set, swap_out]
        assert all(validate_region(ts, FULL, r) for r in pool)
        for k in (0, 1):
            assert solving.first_unsettled(ts, FULL, pool[:k] + pool[k + 1 :]) is None
        assert solving.first_unsettled(ts, FULL, [swap_out]) == EventStateAtom("a", "q")
        assert solving.irredundant(ts, FULL, pool) == [inp_set, swap_out]
        assert solving.irredundant(ts, FULL, pool[::-1]) == [swap_out, inp_swap]

    def test_a_drop_clears_its_bit_from_the_codes(self):
        # Two regions separate s1 from s2 and nothing else alone: either can
        # go, not both.
        ts = TransitionSystem.build("s0", [("s0", "a", "s1"), ("s0", "b", "s2")])
        set_b = Region(
            {"s0": 0, "s1": 0, "s2": 1}, {"a": Interaction.NOP, "b": Interaction.SET}
        )
        res_b = Region(
            {"s0": 1, "s1": 1, "s2": 0}, {"a": Interaction.NOP, "b": Interaction.RES}
        )
        inp = Region(
            {"s0": 1, "s1": 0, "s2": 0}, {"a": Interaction.INP, "b": Interaction.INP}
        )
        pool = [set_b, res_b, inp]
        assert all(validate_region(ts, FULL, r) for r in pool)
        assert solving.first_unsettled(ts, FULL, pool[1:]) is None
        assert solving.first_unsettled(ts, FULL, [inp]) == StatePairAtom("s1", "s2")
        assert solving.irredundant(ts, FULL, pool) == [res_b, inp]

    def test_union_state_pairs_count_inside_one_member(self):
        # Without ``across``, x1 and y1 share a code, which a union allows.
        union = TsUnion.of(
            TransitionSystem.build("x0", [("x0", "a", "x1")]),
            TransitionSystem.build("y0", [("y0", "b", "y1")]),
        )
        across = Region(
            {"x0": 1, "x1": 1, "y0": 0, "y1": 0},
            {"a": Interaction.NOP, "b": Interaction.NOP},
        )
        both = Region(
            {"x0": 1, "x1": 0, "y0": 1, "y1": 0},
            {"a": Interaction.INP, "b": Interaction.INP},
        )
        free_inp = Region(
            {"x0": 0, "x1": 0, "y0": 1, "y1": 0},
            {"a": Interaction.FREE, "b": Interaction.INP},
        )
        pool = [across, both, free_inp]
        assert all(validate_region(union, FULL, r) for r in pool)
        assert StatePairAtom("x1", "y1") not in set(ssp_atoms(union))
        kept = solving.irredundant(union, FULL, pool)
        assert kept == [both, free_inp]
        assert solving.first_unsettled(union, FULL, kept) is None
        # As one system, x1 and y1 are a pair that only ``across`` separates.
        one_system = TransitionSystem.build(
            "x0", [("x0", "a", "x1"), ("y0", "b", "y1")], states=union.states
        )
        assert solving.irredundant(one_system, FULL, pool) == pool

    @pytest.mark.parametrize("seed", range(40))
    def test_kept_regions_settle_what_the_pool_settles(self, seed):
        subject, tau, regions = grown_pool(seed)

        def settled(pool):
            rows = assign_witnesses(subject, tau, pool)
            return {atom for atom, _ in witness_atoms(subject, rows)}

        kept = solving.irredundant(subject, tau, regions)
        kept_ids = {id(r) for r in kept}
        assert [id(r) for r in kept] == [id(r) for r in regions if id(r) in kept_ids]
        assert settled(kept) == settled(regions)
        for k in range(len(kept)):
            assert settled(kept[:k] + kept[k + 1 :]) < settled(kept)

    def test_some_grown_pool_loses_more_than_its_repeats(self):
        # Kept regions are distinct, so fewer kept than distinct regions
        # means a drop that is no exact repeat.
        assert any(
            len(solving.irredundant(subject, tau, regions))
            < len({region.key() for region in regions})
            for subject, tau, regions in map(grown_pool, range(40))
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_greedy_replay(self, seed):
        # The reference drops region j iff the regions kept before it plus
        # those after it settle as much as they do with j.
        subject, tau, regions = grown_pool(seed)

        def settled(pool):
            rows = assign_witnesses(subject, tau, pool)
            return {atom for atom, _ in witness_atoms(subject, rows)}

        expected = []
        for j, region in enumerate(regions):
            later = regions[j + 1 :]
            if settled(expected + later) != settled(expected + [region] + later):
                expected.append(region)
        kept = solving.irredundant(subject, tau, regions)
        assert [id(r) for r in kept] == [id(r) for r in expected]


class TestExhaustivePoolPins:
    """Golden pools of the exhaustive engine on seeded systems where a
    support inhibits pending states. Re-recorded when the engine began to
    sign and credit its regions through the coverage tracker, by the one
    rule the sat engine uses: a region inhibiting for one event is now
    credited for every event it inhibits, so the pools shrank from 4 to 2
    and from 3 to 2 regions (each a region of the old pool), with the same
    outcomes and the same supports. Seed None is ``resign_system``, whose
    event z has no arcs: its first support, s1 and s3, admits inp for z
    (undefined at 0) and out (undefined at 1), so it pools one region for
    each side."""

    @pytest.mark.parametrize(
        "seed, spec, outcome, digests",
        [
            (72, "nop,out,swap,used", "yes", [
                "d9d355e74c525786", "265f3a0b55b28be0",
            ]),
            (844, "nop,inp,set,res,swap,used", "no", [
                "179ea61d3e24c749", "998b2ac651eb3f7d",
            ]),
            (None, "inp,out", "yes", [
                "00c521eab42884b8", "77878d5d354c03a5", "f69c53d323665e0a",
            ]),
        ],
    )
    def test_pool(self, seed, spec, outcome, digests):
        if seed is None:
            ts = resign_system()
        else:
            ts = random_ts(random.Random(seed), max_states=12, max_events=5)
        result = check_feasibility(ts, NetType.from_spec(spec), engine="exhaustive")
        assert result.outcome == outcome
        assert [region_digest(region) for region in result.regions] == digests


def pinned_subject(seed):
    """A seeded system of 4 to 7 states under a family type (or TAU, or
    TAU_TILDE); seed None is the union with a single-state member, under
    the full type."""
    if seed is None:
        return union_with_a_single_state_member(), FULL
    rng = random.Random(f"atom-pins/{seed}")
    ts = random_ts(rng, max_states=7, max_events=3, min_states=4)
    return ts, rng.choice([TAU, TAU_TILDE, *family_types()])


def combined_digest(regions) -> str:
    """One digest of a list of regions, None entries included."""
    digests = [region and region_digest(region) for region in regions]
    return hashlib.sha256(repr(digests).encode()).hexdigest()[:16]


class TestSingleQueryPins:
    """Golden regions of ``solve_atom`` on every requirement of seeded
    systems, and of ``enumerate_inhibiting_regions``, recorded while
    ``solve_atom`` still had a code path per engine, before it became a
    check of one pending requirement. The four sat digests of
    ``test_solve_atom`` were re-recorded when decode began to sign regions
    by the exhaustive engine's rule (first allowed interaction for every
    event the tracker leaves unpicked) instead of taking the model's first
    true selector; the solved and unsolved counts stayed, and the digests
    were 893c811daa5ac14c, f2c1107f0b11a44b, ce68d11cf9bc0214 and
    2a08796be08685dc for seeds None, 0, 1 and 6. The seed 0 sat digest was
    re-recorded again when the solver began to decide support bits only
    and the CNF began to give an interaction of constant image one binary
    clause per arc; the counts stayed, and the digest was a42fa965a65e2b11."""

    @pytest.mark.parametrize(
        "seed, engine, solved, unsolved, digest",
        [
            (None, "exhaustive", (6, 5), 3, "fd679477d17de192"),
            (None, "sat", (6, 5), 3, "f3c51469f794f62f"),
            (0, "exhaustive", (19, 1), 14, "82e8c5e9ecc953b8"),
            (0, "sat", (19, 1), 14, "7e7c94bc4dd2e5bf"),
            (1, "exhaustive", (6, 3), 4, "04fdd2084dd92947"),
            (1, "sat", (6, 3), 4, "f2abf69538ebe4e3"),
            (6, "exhaustive", (10, 4), 3, "b25b735f951db5fa"),
            (6, "sat", (10, 4), 3, "4db6c450e6183003"),
        ],
        # ids without the digest, so that re-recording one keeps the test name
        ids=[
            "None-exhaustive", "None-sat", "0-exhaustive", "0-sat",
            "1-exhaustive", "1-sat", "6-exhaustive", "6-sat",
        ],
    )
    def test_solve_atom(self, seed, engine, solved, unsolved, digest):
        # Every state pair in canonical order, then every inhibition.
        subject, tau = pinned_subject(seed)
        atoms = list(ssp_atoms(subject)) + list(essp_atoms(subject))
        regions = [solve_atom(subject, tau, atom, engine=engine) for atom in atoms]
        kinds = [
            type(atom) for atom, region in zip(atoms, regions) if region is not None
        ]
        assert (kinds.count(StatePairAtom), kinds.count(EventStateAtom)) == solved
        assert regions.count(None) == unsolved
        assert combined_digest(regions) == digest

    @pytest.mark.parametrize("seed", [None, 0, 1, 6])
    def test_a_support_both_engines_find_is_signed_alike(self, seed):
        # One signing rule: a region depends on its support and on what is
        # still pending, not on the engine that found the support.
        subject, tau = pinned_subject(seed)
        shared = 0
        for atom in [*ssp_atoms(subject), *essp_atoms(subject)]:
            exhaustive = solve_atom(subject, tau, atom, engine="exhaustive")
            via_sat = solve_atom(subject, tau, atom, engine="sat")
            if exhaustive and via_sat and exhaustive.support == via_sat.support:
                shared += 1
                assert exhaustive == via_sat, atom
        assert shared

    @pytest.mark.parametrize(
        "seed, event, state, count, digest, first_three",
        [
            (None, "b", "r0", 6, "ce901bbe91861012", [
                "901f881c3c6679ff", "b86c01adffda6436", "494fb5b1536ad17c",
            ]),
            (None, "a", "q0", 2, "284a4da535254a6e", [
                "1d6de2897c7a1f1f", "cf1060845123c3ab",
            ]),
            (1, "e0", "s2", 2, "7f5a0787d8ded0d3", [
                "93229328e8336bcf", "1320374b2d727afe",
            ]),
        ],
    )
    def test_enumeration(self, seed, event, state, count, digest, first_three):
        subject, tau = pinned_subject(seed)
        every = enumerate_inhibiting_regions(subject, tau, event, state)
        assert len(every) == count
        assert combined_digest(every) == digest
        via_sat = enumerate_inhibiting_regions(
            subject, tau, event, state, engine="sat", limit=3
        )
        assert [region_digest(region) for region in via_sat] == first_three


def resign_system() -> TransitionSystem:
    """s0 -a-> s1 and s2 -c-> s3, plus an event ``z`` with no arcs, so any
    interaction is admissible for ``z`` under any support."""
    return TransitionSystem.build(
        "s0",
        [("s0", "a", "s1"), ("s2", "c", "s3")],
        states=["s0", "s1", "s2", "s3"],
        events=["a", "c", "z"],
    )


class TestResign:
    """``_Coverage.resign`` on support s0..s3 = 0, 1, 1, 0 under the full
    type. There ``a`` (0 -> 1) admits out as its one partial interaction,
    ``c`` (1 -> 0) admits inp, and ``z`` admits all four."""

    SUPPORT = 0b0110

    def resign(self, picks=None, covered=()):
        ts = resign_system()
        problem = solving._Problem(ts, FULL)
        coverage = solving._Coverage(problem, False, True)
        for event, states in covered:
            bits = sum(problem.state_bit(problem.index.state_pos[s]) for s in states)
            coverage.uncovered[problem.index.event_pos[event]] &= ~bits
        picks = {event: Interaction(name) for event, name in (picks or {}).items()}
        bits = support_bits(problem, self.SUPPORT)
        allowed = problem.allowed_at(bits)
        coverage.resign(self.SUPPORT, picks, allowed)
        problem.region(bits, picks, allowed)  # raises unless admissible
        return {event: interaction.value for event, interaction in picks.items()}

    def test_events_get_the_partial_with_the_most_pending_states(self):
        # a is pending at s1, s2 (holding 1) and s3: out inhibits two of
        # them. z is pending at s1, s2 and s3 once s0 is covered: out and
        # free (undefined at 1) inhibit two, inp and used (at 0) one.
        got = self.resign(covered=[("z", ["s0"])])
        assert got == {"a": "out", "c": "inp", "z": "out"}

    def test_ties_go_in_canonical_order(self):
        # z is pending everywhere: two states hold 0 and two hold 1, so
        # inp, out, used and free all inhibit two; inp comes first.
        assert self.resign()["z"] == "inp"

    def test_an_event_without_an_inhibiting_partial_gets_no_pick(self):
        # a's out would inhibit none of its pending states (s3 holds 0).
        got = self.resign(covered=[("a", ["s1", "s2"])])
        assert got == {"c": "inp", "z": "inp"}

    def test_the_forced_event_keeps_its_interaction(self):
        # A query's forced entry is a pick that resign leaves alone.
        got = self.resign({"c": "swap"})
        assert got == {"a": "out", "c": "swap", "z": "inp"}

    def test_settled_events_are_left_alone(self):
        got = self.resign(
            covered=[("a", ["s1", "s2", "s3"]), ("c", ["s0", "s1", "s3"])]
        )
        assert got == {"z": "inp"}


class TestDecode:
    """``_SatContext.decode`` reads the model's support and signs it as the
    exhaustive engine does: the forced entries, then ``resign``'s picks for
    what was pending before the region, then first allowed interactions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_a_decoded_region_is_signed_by_the_rule(self, monkeypatch, seed):
        rng = random.Random(f"decode/{seed}")
        tau = rng.choice(family_types())
        graph = random_net_graph(rng, tau)
        decode = solving._SatContext.decode
        decoded = []

        def by_the_rule(ctx, forced, coverage):
            before = solving._Coverage(ctx.problem, False, False)
            before.blocks = list(coverage.blocks)
            before.uncovered = list(coverage.uncovered)
            region = decode(ctx, forced, coverage)
            support = ctx.problem.support_int_of(region)
            picks = dict(forced)
            bits = support_bits(ctx.problem, support)
            allowed = ctx.problem.allowed_at(bits)
            before.resign(support, picks, allowed)
            assert region == ctx.problem.region(bits, picks, allowed)
            decoded.append(region)
            return region

        monkeypatch.setattr(solving._SatContext, "decode", by_the_rule)
        for net_type in [tau, *rng.sample(list(all_net_types()), 2)]:
            check_feasibility(graph, net_type, engine="sat")
        assert decoded


def random_net_graph(rng: random.Random, tau: NetType) -> TransitionSystem:
    """Reachability graph of 12 to 16 states of a random five-place,
    four-transition net over ``tau``; feasible under ``tau``."""
    places = tuple(f"p{k}" for k in range(5))
    transitions = ("t0", "t1", "t2", "t3")
    interactions = list(tau)
    while True:
        flow = {
            (place, t): rng.choice(interactions)
            for place in places
            for t in transitions
        }
        marking = {place: rng.randint(0, 1) for place in places}
        net = BooleanNet(tau, places, transitions, flow, marking)
        graph = reachability_graph(net)
        if 12 <= len(graph.states) <= 16:
            return graph


class TestEngineAgreementAtScale:
    """The sat engine steers its queries, so its pools differ from the
    exhaustive engine's; outcomes and counterexamples must not. Both sign
    a region by one rule, so every event of a sat-pool region carries a
    partial interaction or its first allowed one at the region's support.
    Random systems (mostly infeasible) and net graphs (feasible under their
    own type) of 12 to 16 states, each under sampled types."""

    @pytest.mark.parametrize("seed", range(20))
    def test_outcome_and_counterexample(self, seed):
        rng = random.Random(f"agree/{seed}")
        types = list(all_net_types())
        tau = rng.choice(family_types())
        ts = random_ts(rng, max_states=16, max_events=4, min_states=12)
        graph = random_net_graph(rng, tau)
        cases = [(ts, t) for t in rng.sample(types, 3)]
        cases += [(graph, t) for t in [tau, *rng.sample(types, 2)]]
        for subject, net_type in cases:
            for checker in (check_ssp, check_essp, check_feasibility):
                exhaustive = checker(subject, net_type, engine="exhaustive")
                via_sat = checker(subject, net_type, engine="sat")
                assert exhaustive.outcome == via_sat.outcome, net_type.spec()
                assert exhaustive.counterexample == via_sat.counterexample
                assert_distinct(via_sat.regions)
                for region in via_sat.regions:
                    assert_signed_by_the_rule(subject, net_type, region)


def assert_signed_by_the_rule(subject, tau, region) -> None:
    """Every event of ``region`` carries a partial interaction or the first
    interaction of ``tau`` (canonical order) that all its arcs follow."""
    support = region.support
    for event, interaction in region.signature.items():
        if interaction.is_partial:
            continue
        arcs = [(a.source, a.target) for a in subject.arcs if a.event == event]
        first = next(
            i
            for i in iter_type(tau)
            if all(i.apply(support[src]) == support[dst] for src, dst in arcs)
        )
        assert interaction == first, (event, interaction, first)
