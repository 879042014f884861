"""The hardness-instance generator: formula validation, the brute-force
one-in-three solver, gadget structure (frozen counts), family differences,
and the verify/extract pipeline with its falsification guards."""

from __future__ import annotations

import hashlib
import random

import pytest

from boolsynth import (
    COMPLEMENT_MAP,
    PHI_SAT,
    PHI_UNSAT,
    CubicCnf,
    EventStateAtom,
    Family,
    FalsificationError,
    Interaction,
    NetType,
    Region,
    Report,
    Violation,
    build_instance,
    build_union,
    check_join_preconditions,
    extract_model,
    grade,
    join,
    solve_atom,
    solve_one_in_three,
    validate_region,
    verify_inhibiting_region,
)
from boolsynth import reduction
from boolsynth.fileformats import format_instance, format_union
from boolsynth.ts import join_events

SIX_CLAUSES = CubicCnf(
    (
        ("a", "b", "c"),
        ("a", "b", "c"),
        ("a", "b", "c"),
        ("d", "e", "f"),
        ("d", "e", "f"),
        ("d", "e", "f"),
    )
)

#: Two seeded cubic formulas, written out so that their instances stay pinned.
CUBIC_6 = CubicCnf(
    (
        ("x0", "x4", "x5"), ("x0", "x2", "x1"), ("x1", "x5", "x3"),
        ("x2", "x0", "x4"), ("x1", "x3", "x4"), ("x2", "x5", "x3"),
    )
)
CUBIC_9 = CubicCnf(
    (
        ("x8", "x6", "x2"), ("x3", "x6", "x1"), ("x4", "x5", "x2"),
        ("x5", "x1", "x7"), ("x4", "x3", "x0"), ("x7", "x1", "x8"),
        ("x0", "x5", "x3"), ("x7", "x8", "x6"), ("x0", "x4", "x2"),
    )
)

FORMULAS = {
    "PHI_SAT": PHI_SAT,
    "PHI_UNSAT": PHI_UNSAT,
    "CUBIC_6": CUBIC_6,
    "CUBIC_9": CUBIC_9,
}

#: sha256 of format_instance(instance) and of format_union(instance.union).
GOLDEN = {
    ("PHI_SAT", Family.FREE): (
        "d13525bffa36c2172f4c8bb393e77805326fa76081e5cecfac98fdc81689f983",
        "92d5909a6822529c58968d287592c733e91719f2e167e15bc33e53b3c493e56a",
    ),
    ("PHI_SAT", Family.USED): (
        "1f39feae93df429517d91b2a1b7821f15ff5fb53f403538a4aece04d9143b9ae",
        "e8c1feec98078e82d09c934ec0bf7fcbd333ecb95396df47f3003f6a4e9d5139",
    ),
    ("PHI_UNSAT", Family.FREE): (
        "a8de9595c9097f1262c654a210c02b544219ba8b2a89d59b93fa921faef54d8f",
        "7ba00b3a38f7d2212c3652f005ce46b3fa78b9b2c0371ac238dad78b8d7cc34d",
    ),
    ("PHI_UNSAT", Family.USED): (
        "8800b5c6929ec67ac55623630ddc009126a3ea657ed888b9997b3de70dd6de8b",
        "0cd0cafcdd7a1f33943a7bb3a463d0d4f52a2a3fbcfa206d85cc09592c2964de",
    ),
    ("CUBIC_6", Family.FREE): (
        "f8f420febb95ec8410f3a26d79a2f213e9726e9fb70bfac33d3d08e3f0b2f003",
        "d13b6dd01fda35a7677d2acc77d6eb2d1cb8f0dd165b9b194c866a439fdb5718",
    ),
    ("CUBIC_6", Family.USED): (
        "0856d23ac642320e4ae9bafcae4e12fe9ba32e0bf6702c2acc76e73ca5d13912",
        "f3ddbc83a20a0940559411a6aae6851285b0b3aa77c809a45ce94923b090173c",
    ),
    ("CUBIC_9", Family.FREE): (
        "925a6579af8faff49f0032ca63fc23fe01812c8f6e4e5e16478abfacfd9380ef",
        "593fe16ee7c3cd99d8b05caf035c5e2d281821f7489c18ec942c8513a38b5afa",
    ),
    ("CUBIC_9", Family.USED): (
        "2295256025c6094510285c47cd810c71011591b66db2dcab69ead026e5bb7f85",
        "4652b07305c14f59da3de8894f02fe6f263c556b4100292e85e039f8a3802795",
    ),
}


def random_cubic(rng: random.Random, m: int) -> CubicCnf:
    """A cubic formula over m variables: three copies of each variable are
    shuffled into m clauses until no clause repeats a variable."""
    slots = [f"x{i}" for i in range(m) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        clauses = [tuple(slots[3 * k : 3 * k + 3]) for k in range(m)]
        if all(len(set(clause)) == 3 for clause in clauses):
            return CubicCnf(tuple(clauses))


@pytest.fixture(scope="module")
def phi3_free():
    return build_instance(PHI_SAT, Family.FREE)


@pytest.fixture(scope="module")
def phi3_used():
    return build_instance(PHI_SAT, Family.USED)


@pytest.fixture(scope="module")
def phi4_free():
    return build_instance(PHI_UNSAT, Family.FREE)


@pytest.fixture(scope="module")
def phi4_used():
    return build_instance(PHI_UNSAT, Family.USED)


@pytest.fixture(scope="module")
def good(phi3_free):
    """A verified inhibiting region for the satisfiable instance."""
    tau = Family.FREE.types()[0]
    region = solve_atom(phi3_free.ts, tau, phi3_free.target_atom, engine="sat")
    assert region is not None
    return phi3_free, tau, region


class TestCubicCnf:
    def test_clause_needs_three_distinct_variables(self):
        with pytest.raises(ValueError, match="three distinct"):
            CubicCnf((("a", "a", "b"),) * 3)

    def test_occurrence_count_enforced(self):
        with pytest.raises(ValueError, match="exactly three times"):
            CubicCnf((("a", "b", "c"),))

    def test_bad_variable_names_rejected(self):
        for bad in ("", "a b", "x#1"):
            with pytest.raises(ValueError, match="bad variable name|three distinct"):
                CubicCnf(((bad, "y", "z"),) * 3)

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError, match="at least one clause"):
            CubicCnf(())

    def test_variables_sorted(self):
        cnf = CubicCnf((("z9", "m5", "a1"),) * 3)
        assert cnf.variables == ("a1", "m5", "z9")

    def test_is_model_requires_exactly_one_per_clause(self):
        assert PHI_SAT.is_model(frozenset({"x1"}))
        assert not PHI_SAT.is_model(frozenset({"x0", "x1"}))
        assert not PHI_SAT.is_model(frozenset())


class TestOneInThreeSolver:
    def test_sat_fixture_lexicographically_first_model(self):
        assert solve_one_in_three(PHI_SAT) == frozenset({"x0"})

    def test_unsat_fixture_has_no_model(self):
        assert solve_one_in_three(PHI_UNSAT) is None
        assert list(PHI_UNSAT.iter_models()) == []

    def test_clause_count_not_divisible_by_three_is_unsat(self):
        assert solve_one_in_three(PHI_UNSAT) is None  # 4 clauses
        assert len(PHI_UNSAT.clauses) % 3 != 0

    def test_two_component_formula(self):
        assert solve_one_in_three(SIX_CLAUSES) == frozenset({"a", "d"})

    def test_every_enumerated_model_checks_out(self):
        models = list(PHI_SAT.iter_models())
        assert models == [
            frozenset({"x0"}),
            frozenset({"x1"}),
            frozenset({"x2"}),
        ]
        assert all(PHI_SAT.is_model(m) for m in models)


class TestVariableNameGuard:
    """At m = 3 the union names its events k, m, z, q0-q3, v_0-v_11,
    w_0-w_2, a_0-a_8, y_0-y_2, p_0-p_8, u_0-u_38, and seal_, step_, side_
    and entry_ for each of its 39 members; a variable must not reuse one.
    The guard reads these names from the table that ``build_union`` builds
    its gadgets and role map from, plus ``join_events``."""

    @pytest.mark.parametrize("name", ["k", "v_0", "seal_0", "u_38"])
    def test_a_generated_name_is_rejected(self, name):
        cnf = CubicCnf(((name, "b", "c"),) * 3)
        with pytest.raises(ValueError, match="rename the variables") as raised:
            build_union(cnf, Family.FREE)
        assert repr([name]) in str(raised.value)

    def test_the_name_past_the_last_member_is_accepted(self):
        union, _ = build_union(CubicCnf((("u_39", "b", "c"),) * 3), Family.FREE)
        assert len(union.members) == 39

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("cnf", [PHI_SAT, PHI_UNSAT], ids=["sat", "unsat"])
    def test_every_event_the_construction_makes_is_rejected(self, cnf, family):
        union, _ = build_union(cnf, family)
        fresh = join_events(len(union.members))
        assert [e for e in join(union).events if e not in union.events] == fresh
        # renaming one variable keeps m, and with it the generated names
        old = cnf.variables[0]
        for name in sorted(set(union.events).difference(cnf.variables)) + fresh:
            renamed = CubicCnf(
                tuple(tuple(name if x == old else x for x in c) for c in cnf.clauses)
            )
            with pytest.raises(ValueError, match="rename the variables") as raised:
                build_union(renamed, family)
            assert repr([name]) in str(raised.value)


class TestGadgetStructure:
    """Frozen shape facts for the three-clause satisfiable formula."""

    def test_union_member_count_is_12m_plus_3(self):
        union, _ = build_union(PHI_SAT, Family.FREE)
        assert len(union.members) == 12 * 3 + 3
        union6, _ = build_union(SIX_CLAUSES, Family.FREE)
        assert len(union6.members) == 12 * 6 + 3

    def test_union_satisfies_the_gluing_preconditions(self):
        union, _ = build_union(PHI_SAT, Family.FREE)
        assert check_join_preconditions(union).ok

    def test_a_union_that_breaks_the_gluing_preconditions_is_refused(
        self, monkeypatch
    ):
        violation = Violation("shared-state", "g_0_0", "planted")
        monkeypatch.setattr(
            reduction, "check_join_preconditions", lambda union: Report((violation,))
        )
        with pytest.raises(AssertionError) as caught:
            build_instance(PHI_SAT, Family.FREE)
        assert str(caught.value) == (
            "generated union violates gluing preconditions:\n"
            "shared-state: g_0_0 (planted)"
        )

    def test_joined_system_frozen_counts(self, phi3_free, phi3_used):
        for inst in (phi3_free, phi3_used):
            assert len(inst.union.states) == 304
            assert len(inst.ts.states) == 578
            assert len(inst.ts.events) == 241
            assert len(inst.ts.arcs) == 1055

    def test_grade_two_for_both_families_and_formulas(
        self, phi3_free, phi3_used, phi4_free, phi4_used
    ):
        for inst in (phi3_free, phi3_used, phi4_free, phi4_used):
            assert grade(inst.ts) == 2
            assert grade(inst.union) == 2

    @pytest.mark.parametrize("family", list(Family))
    def test_grade_two_on_random_cubic_formulas(self, family):
        rng = random.Random(7)
        for m in range(3, 13):
            instance = build_instance(random_cubic(rng, m), family)
            assert grade(instance.ts) == 2, m

    @pytest.mark.parametrize(
        "name, family", list(GOLDEN), ids=[f"{n}-{f.value}" for n, f in GOLDEN]
    )
    def test_instance_files_are_pinned(self, name, family):
        instance = build_instance(FORMULAS[name], family)
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (format_instance(instance), format_union(instance.union))
        )
        assert digests == GOLDEN[name, family]

    def test_variable_names_do_not_mark_arc_directions(self, phi3_free):
        # "<" and ">" are legal in variable names; renamed back, the arcs
        # are those of the PHI_SAT instance
        marked = CubicCnf((("<x0", ">x1", "x2"),) * 3)
        instance = build_instance(marked, Family.FREE)
        back = {"<x0": "x0", ">x1": "x1"}
        arcs = [(s, back.get(e, e), t) for s, e, t in instance.ts.arcs]
        assert arcs == [tuple(arc) for arc in phi3_free.ts.arcs]

    def test_exactly_36_unreachable_guard_states(self, phi3_free):
        reachable = phi3_free.ts.reachable_states()
        unreachable = [s for s in phi3_free.ts.states if s not in reachable]
        assert len(unreachable) == 36
        assert {s.split("_")[0] for s in unreachable} == {"d", "g"}

    def test_role_census(self, phi3_free):
        assert phi3_free.target_atom == EventStateAtom("k", "h_0_2")
        roles = phi3_free.roles
        assert len(roles.flip_events) == 12  # one per variable occurrence slot
        assert len(roles.hold_events) == 3
        assert len(roles.occ_events) == 9
        assert len(roles.pad_events) == 4
        assert len(roles.clause_events) == 3
        assert len(roles.slot_events) == 9
        assert roles.variables == ("x0", "x1", "x2")
        assert len(roles.unique_events) == 39

    def test_unique_handles_occur_exactly_twice(self, phi3_free):
        counts = {e: 0 for e in phi3_free.roles.unique_events}
        for arc in phi3_free.union.arcs:
            if arc.event in counts:
                counts[arc.event] += 1
        assert set(counts.values()) == {2}

    def test_variables_label_events_of_the_instance(self, phi3_free):
        assert set(phi3_free.roles.variables) <= set(phi3_free.ts.events)

    def test_families_swap_the_flip_and_hold_rails(self):
        union_free, roles = build_union(PHI_SAT, Family.FREE)
        union_used, _ = build_union(PHI_SAT, Family.USED)
        free_arcs = {tuple(a) for a in union_free.arcs}
        used_arcs = {tuple(a) for a in union_used.arcs}
        exchange = {}
        for j, hold in enumerate(roles.hold_events):
            flip = roles.flip_events[4 * j]
            exchange[flip] = hold
            exchange[hold] = flip
        swapped = {
            (s, exchange.get(e, e), t) for (s, e, t) in free_arcs - used_arcs
        }
        assert swapped == used_arcs - free_arcs
        assert len(free_arcs - used_arcs) == 12


class TestTargetAtomDecision:
    def test_sat_formula_target_is_inhibitable_free(self, phi3_free):
        tau = Family.FREE.types()[0]
        region = solve_atom(phi3_free.ts, tau, phi3_free.target_atom, engine="sat")
        assert region is not None
        assert validate_region(phi3_free.ts, tau, region)
        assert verify_inhibiting_region(phi3_free, tau, region).ok

    def test_sat_formula_target_is_inhibitable_used(self, phi3_used):
        for tau in Family.USED.types():
            region = solve_atom(
                phi3_used.ts, tau, phi3_used.target_atom, engine="sat"
            )
            assert region is not None, tau.spec()
            assert verify_inhibiting_region(phi3_used, tau, region).ok

    def test_unsat_formula_target_not_inhibitable(self, phi4_free, phi4_used):
        free_type = Family.FREE.types()[0]
        assert (
            solve_atom(phi4_free.ts, free_type, phi4_free.target_atom, engine="sat")
            is None
        )
        maximal = NetType.from_spec("nop,set,swap,used,res,free")
        assert (
            solve_atom(phi4_used.ts, maximal, phi4_used.target_atom, engine="sat")
            is None
        )

    def test_model_extraction_certifies_against_the_oracle(self, phi3_free):
        tau = Family.FREE.types()[0]
        region = solve_atom(phi3_free.ts, tau, phi3_free.target_atom, engine="sat")
        model = extract_model(phi3_free, region)
        assert PHI_SAT.is_model(model)
        # the brute-force solver agrees the formula is satisfiable
        assert solve_one_in_three(PHI_SAT) is not None

    def test_used_family_extraction(self, phi3_used):
        for tau in Family.USED.types():
            region = solve_atom(
                phi3_used.ts, tau, phi3_used.target_atom, engine="sat"
            )
            model = extract_model(phi3_used, region)
            assert PHI_SAT.is_model(model)

    def test_complemented_used_region_extracts_through_res(self, phi3_used):
        # The type is its own complement, so the complemented region is one
        # of its regions too: the target is then freeness-inhibited at
        # support 1 and the model is read off res instead of set.
        tau = NetType.from_spec("nop,set,res,swap,used,free")
        assert tau.complement() == tau
        region = solve_atom(phi3_used.ts, tau, phi3_used.target_atom, engine="sat")
        complemented = Region(
            {s: 1 - bit for s, bit in region.support.items()},
            {e: COMPLEMENT_MAP[i] for e, i in region.signature.items()},
        )
        k = phi3_used.roles.target_event
        assert region.signature[k] is Interaction.USED
        assert complemented.signature[k] is Interaction.FREE
        assert verify_inhibiting_region(phi3_used, tau, complemented).ok
        assert sorted(extract_model(phi3_used, complemented)) == ["x1"]
        assert extract_model(phi3_used, region) == extract_model(
            phi3_used, complemented
        )


class TestVerifierGuards:
    def test_type_outside_family_flagged(self, good):
        inst, _, region = good
        foreign = NetType.from_spec("nop,res,swap,used")
        report = verify_inhibiting_region(inst, foreign, region)
        assert any(v.code == "family-type" for v in report.violations)

    def test_tampered_support_flagged(self, good):
        inst, tau, region = good
        state = inst.roles.target_state
        tampered = Region(
            {**region.support, state: 1 - region.support[state]},
            dict(region.signature),
        )
        report = verify_inhibiting_region(inst, tau, tampered)
        assert not report.ok

    def test_non_inhibiting_region_flagged(self, good):
        inst, tau, region = good
        # the target event's arcs all stay outside the support, so nop is
        # still admissible but no longer inhibits anything
        relaxed = Region(
            dict(region.support),
            {**region.signature, inst.roles.target_event: Interaction.NOP},
        )
        assert validate_region(inst.ts, tau, relaxed)
        report = verify_inhibiting_region(inst, tau, relaxed)
        codes = {v.code for v in report.violations}
        assert "not-inhibiting" in codes
        assert "target-polarity" in codes

    def test_broken_flip_signature_flagged(self, good):
        inst, tau, region = good
        flip = inst.roles.flip_events[0]
        broken = Region(
            dict(region.support), {**region.signature, flip: Interaction.NOP}
        )
        report = verify_inhibiting_region(inst, tau, broken)
        assert any(v.code == "flip-signature" for v in report.violations)

    def test_swap_on_a_steady_event_flagged(self, good):
        inst, tau, region = good
        hold = inst.roles.hold_events[0]
        broken = Region(
            dict(region.support), {**region.signature, hold: Interaction.SWAP}
        )
        report = verify_inhibiting_region(inst, tau, broken)
        steady = ("steady-signature", hold, "must not carry swap")
        assert steady in {(v.code, v.subject, v.detail) for v in report.violations}

    def test_foreign_region_domain_flagged(self, good, battery):
        inst, tau, _ = good
        foreign = Region({"s0": 0, "s1": 0, "s2": 0}, {"a": Interaction.NOP})
        report = verify_inhibiting_region(inst, tau, foreign)
        assert any(v.code == "region-domain" for v in report.violations)


class TestExtractionGuards:
    def test_non_inhibiting_region_raises(self, good):
        inst, _, region = good
        relaxed = Region(
            dict(region.support),
            {**region.signature, inst.roles.target_event: Interaction.NOP},
        )
        with pytest.raises(FalsificationError, match="does not inhibit"):
            extract_model(inst, relaxed)

    def test_overfull_assignment_raises(self, good):
        inst, _, region = good
        markers = {
            v: Interaction.SET for v in inst.roles.variables
        }  # every variable marked -> hits clauses three times
        tampered = Region(
            dict(region.support), {**region.signature, **markers}
        )
        with pytest.raises(FalsificationError, match="zero or multiple"):
            extract_model(inst, tampered)

    def test_free_family_target_without_free_raises(self, good):
        inst, _, region = good
        # out is undefined at 1 too, so the target stays inhibited
        k = inst.roles.target_event
        assert region.support[inst.roles.target_state] == 1
        tampered = Region(
            dict(region.support), {**region.signature, k: Interaction.OUT}
        )
        with pytest.raises(FalsificationError) as caught:
            extract_model(inst, tampered)
        assert str(caught.value) == (
            "target event carries out, expected the freeness test"
        )

    def test_used_family_target_without_used_or_free_raises(self, phi3_used):
        tau = Family.USED.base_type
        region = solve_atom(phi3_used.ts, tau, phi3_used.target_atom, engine="sat")
        # inp is undefined at 0 too, so the target stays inhibited
        k = phi3_used.roles.target_event
        assert region.support[phi3_used.roles.target_state] == 0
        tampered = Region(
            dict(region.support), {**region.signature, k: Interaction.INP}
        )
        with pytest.raises(FalsificationError) as caught:
            extract_model(phi3_used, tampered)
        assert str(caught.value) == (
            "target event carries inp, expected usedness or freeness"
        )
