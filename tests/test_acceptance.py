"""Acceptance gate: eight end-to-end criteria, one test (and one printed
PASS/FAIL line) each, with explicit wall-clock budgets where stated.

Later criteria audit the witness regions produced by earlier ones, so the
tests share a module-wide collection bin and run in definition order.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

from boolsynth import (
    PHI_SAT,
    PHI_UNSAT,
    Family,
    NetType,
    TransitionSystem,
    TsUnion,
    all_net_types,
    build_instance,
    check_essp,
    check_feasibility,
    check_join_preconditions,
    check_ssp,
    enumerate_inhibiting_regions,
    extract_model,
    family_types,
    grade,
    is_isomorphic,
    join,
    reachability_graph,
    solve_atom,
    solve_one_in_three,
    synthesize,
    validate_region,
    verify_inhibiting_region,
)
from boolsynth.solving import EventStateAtom, StatePairAtom
from conftest import TAU, TAU_TILDE, admissible, build_battery, random_ts

#: every witness region any criterion produces, audited by criterion 8
COLLECTED: list[tuple[str, object, NetType, object]] = []


def collect(origin, subject, tau, regions):
    for region in regions:
        COLLECTED.append((origin, subject, tau, region))


def announce(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {number}: {verdict} — {detail}")


# ------------------------------------------------------------ shared inputs


@lru_cache(maxsize=None)
def instance(formula_name: str, family: Family):
    cnf = PHI_SAT if formula_name == "phi3" else PHI_UNSAT
    return build_instance(cnf, family)


def glueable_member(rng: random.Random, k: int) -> TransitionSystem:
    """A small member whose initial state carries the private two-cycle
    handle the gluing preconditions require."""
    prefix = f"m{k}_"
    n = rng.randint(2, 4)
    states = [f"{prefix}s{j}" for j in range(n)]
    events = [f"{prefix}e{j}" for j in range(rng.randint(1, 2))] + ["shared"]
    arcs: list[tuple[str, str, str]] = []
    used: set[tuple[str, str]] = set()
    for j in range(1, n):
        source = states[rng.randrange(j)]
        options = [e for e in events if (source, e) not in used]
        if not options:
            source = states[j - 1]
            options = [e for e in events if (source, e) not in used]
        event = rng.choice(options)
        used.add((source, event))
        arcs.append((source, event, states[j]))
    for source in states:
        for event in events:
            if (source, event) not in used and rng.random() < 0.3:
                arcs.append((source, event, states[rng.randrange(n)]))
                used.add((source, event))
    handle, initial = f"{prefix}h", f"{prefix}i"
    arcs = [(initial, handle, states[0]), (states[0], handle, initial)] + arcs
    present = {e for _, e, _ in arcs}
    return TransitionSystem.build(
        initial,
        arcs,
        states=[initial] + states,
        events=[e for e in [handle] + events if e in present],
    )


def glueable_union(rng: random.Random) -> TsUnion:
    for _ in range(80):
        candidate = TsUnion.of(
            *(glueable_member(rng, k) for k in range(rng.randint(2, 3)))
        )
        if check_join_preconditions(candidate).ok:
            return candidate
    raise AssertionError("could not draw a union meeting the preconditions")


# ----------------------------------------------------------------- criteria


def test_criterion_1_battery_verdicts_under_both_twin_types():
    """The four canonical examples decide exactly as documented, under the
    type {nop,set,swap,free} and its complement twin, in under a second."""
    started = time.monotonic()
    battery = build_battery()
    expected = {
        "a1": ("yes", "yes", None),
        "a2": ("yes", "no", EventStateAtom("a", "s2")),
        "a3": ("no", "yes", StatePairAtom("s1", "s2")),
        "a4": ("no", "no", StatePairAtom("s1", "s3")),
    }
    ok = True
    for tau in (TAU, TAU_TILDE):
        for name, (want_ssp, want_essp, first_cex) in expected.items():
            ssp = check_ssp(battery[name], tau, engine="exhaustive")
            essp = check_essp(battery[name], tau, engine="exhaustive")
            ok &= ssp.outcome == want_ssp and essp.outcome == want_essp
            failing = ssp if want_ssp == "no" else essp
            if first_cex is not None:
                ok &= (
                    failing.counterexample == first_cex
                    if want_ssp == "no"
                    else essp.counterexample == first_cex
                )
            collect(f"battery/{name}", battery[name], tau, ssp.regions)
            collect(f"battery/{name}", battery[name], tau, essp.regions)
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    announce(1, ok, f"8 example/type combinations in {elapsed:.3f}s (budget 1s)")
    assert ok


def test_criterion_2_complement_types_decide_identically():
    """20 complement type pairs x 50 random systems (<=6 states, <=4
    events): verdicts and first counterexamples coincide, within 60s."""
    started = time.monotonic()
    rng = random.Random(20240811)
    pairs = []
    seen: set[frozenset] = set()
    for tau in all_net_types():
        twin = tau.complement()
        key = frozenset((tau.interactions, twin.interactions))
        if twin.interactions != tau.interactions and key not in seen:
            seen.add(key)
            pairs.append((tau, twin))
    rng.shuffle(pairs)
    pairs = pairs[:20]
    subjects = [random_ts(rng, max_states=6, max_events=4) for _ in range(50)]
    checked = disagreements = 0
    for tau, twin in pairs:
        for ts in subjects:
            for checker in (check_ssp, check_essp):
                left = checker(ts, tau)
                right = checker(ts, twin)
                checked += 1
                if (
                    left.outcome != right.outcome
                    or left.counterexample != right.counterexample
                ):
                    disagreements += 1
                collect("complement-pairs", ts, tau, left.regions)
                collect("complement-pairs", ts, twin, right.regions)
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and checked == 2000 and elapsed < 60.0
    announce(
        2,
        ok,
        f"{checked} paired checks over 20 type pairs x 50 systems, "
        f"{disagreements} disagreements, {elapsed:.1f}s (budget 60s)",
    )
    assert ok


def test_criterion_3_gluing_preserves_both_properties():
    """20 random glueable unions x all 5 family types, propositional
    engine: SSP/ESSP verdicts of the union and of its glued system agree,
    within 10 minutes."""
    started = time.monotonic()
    rng = random.Random(20240812)
    mismatches = comparisons = 0
    for _ in range(20):
        union = glueable_union(rng)
        glued = join(union)
        for tau in family_types():
            for checker in (check_ssp, check_essp):
                on_union = checker(union, tau, engine="sat")
                on_glued = checker(glued, tau, engine="sat")
                comparisons += 1
                if on_union.outcome != on_glued.outcome:
                    mismatches += 1
                collect("gluing/union", union, tau, on_union.regions)
                collect("gluing/glued", glued, tau, on_glued.regions)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and comparisons == 200 and elapsed < 600.0
    announce(
        3,
        ok,
        f"{comparisons} union-vs-glued comparisons, {mismatches} mismatches, "
        f"{elapsed:.1f}s (budget 600s)",
    )
    assert ok


def test_criterion_4_synthesis_round_trip_on_every_feasible_case():
    """Whenever feasibility holds, the synthesized net's reachability graph
    is isomorphic to the input system."""
    started = time.monotonic()
    rng = random.Random(20240813)
    types = list(family_types()) + [TAU_TILDE, NetType(frozenset(TAU.interactions))]
    battery = build_battery()
    subjects = list(battery.values()) + [
        random_ts(rng, max_states=5, max_events=3) for _ in range(60)
    ]
    feasible_cases = round_trips = 0
    for ts in subjects:
        for tau in types:
            result = check_feasibility(ts, tau)
            if not result.holds:
                continue
            feasible_cases += 1
            net = synthesize(ts, tau, result.regions)
            if is_isomorphic(reachability_graph(net), ts) is not None:
                round_trips += 1
            collect("round-trip", ts, tau, result.regions)
    elapsed = time.monotonic() - started
    ok = feasible_cases >= 30 and round_trips == feasible_cases
    announce(
        4,
        ok,
        f"{round_trips}/{feasible_cases} feasible cases round-tripped "
        f"({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_5_satisfiable_instance_feasible_and_model_recovered():
    """The three-clause satisfiable formula: each of the 5 family types
    admits the construction (propositional engine), 5 enumerated inhibiting
    regions at the target all pass the role verifier, and every extracted
    model is certified; the engine verdict matches the brute-force solver."""
    per_type_budget = 300.0
    oracle_sat = solve_one_in_three(PHI_SAT) is not None
    ok = oracle_sat
    details = []
    for family in (Family.FREE, Family.USED):
        inst = instance("phi3", family)
        for tau in family.types():
            started = time.monotonic()
            feas = check_feasibility(inst.ts, tau, engine="sat")
            type_ok = feas.outcome == "yes"
            collect("phi3-feasibility", inst.ts, tau, feas.regions)
            regions = enumerate_inhibiting_regions(
                inst.ts,
                tau,
                inst.roles.target_event,
                inst.roles.target_state,
                limit=5,
                engine="sat",
            )
            type_ok &= len(regions) == 5
            for region in regions:
                type_ok &= validate_region(inst.ts, tau, region)
                type_ok &= verify_inhibiting_region(inst, tau, region).ok
                model = extract_model(inst, region)
                type_ok &= PHI_SAT.is_model(model) and oracle_sat
            collect("phi3-enumeration", inst.ts, tau, regions)
            elapsed = time.monotonic() - started
            type_ok &= elapsed < per_type_budget
            ok &= type_ok
            details.append(f"{tau.spec()}:{elapsed:.0f}s")
    announce(
        5,
        ok,
        "feasible + 5 verified inhibitors + certified models per type "
        f"[{', '.join(details)}] (budget {per_type_budget:.0f}s/type)",
    )
    assert ok


def test_criterion_6_unsatisfiable_instance_blocks_the_target():
    """The four-clause unsatisfiable formula: no admissible region inhibits
    the target requirement — freeness family via its only type, usedness
    family via its maximal type."""
    started = time.monotonic()
    free_inst = instance("phi4", Family.FREE)
    used_inst = instance("phi4", Family.USED)
    free_region = solve_atom(
        free_inst.ts,
        Family.FREE.types()[0],
        free_inst.target_atom,
        engine="sat",
    )
    used_region = solve_atom(
        used_inst.ts,
        NetType.from_spec("nop,set,swap,used,res,free"),
        used_inst.target_atom,
        engine="sat",
    )
    oracle_unsat = solve_one_in_three(PHI_UNSAT) is None
    elapsed = time.monotonic() - started
    ok = free_region is None and used_region is None and oracle_unsat
    announce(
        6,
        ok,
        f"target uninhibitable in both families, matching the brute-force "
        f"UNSAT verdict ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_7_instances_have_grade_two():
    """Every generated instance (both formulas x both families) has degree
    measure exactly 2, before and after gluing."""
    ok = True
    for formula in ("phi3", "phi4"):
        for family in (Family.FREE, Family.USED):
            inst = instance(formula, family)
            ok &= grade(inst.union) == 2
            ok &= grade(inst.ts) == 2
    announce(7, ok, "grade 2 for 4 instances, union and glued alike")
    assert ok


def test_criterion_8_every_emitted_witness_region_is_coherent():
    """Admissibility audit over every witness region the previous criteria
    produced, arc by arc and independent of the library's validator
    (``conftest.admissible``): zero violations allowed."""
    assert COLLECTED, "earlier criteria produced no regions to audit"
    violations = sum(
        not admissible(subject, tau, region) for _, subject, tau, region in COLLECTED
    )
    ok = violations == 0
    announce(
        8,
        ok,
        f"{len(COLLECTED)} regions audited from all suites, "
        f"{violations} violations",
    )
    assert ok
