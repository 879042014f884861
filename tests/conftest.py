"""Shared fixtures and helpers: the four-example battery as a fixture, small
random systems (seeded and as hypothesis strategies), engine fakes for the
guard tests, and renderings of engine state. The independent references the
engines are checked against live in ``oracles``."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from boolsynth import (
    EventStateAtom,
    Interaction,
    NetType,
    Region,
    StatePairAtom,
    TransitionSystem,
    TsUnion,
)
from boolsynth import solving

# ``perfbench/workloads.py`` loads this file by path, without this directory
# on ``sys.path``, and reads ``oracle_ssp`` and ``oracle_essp`` from it. The
# path line and the re-export go once the bench imports ``oracles`` itself.
sys.path.append(str(Path(__file__).resolve().parent))
from oracles import build_battery, oracle_essp, oracle_ssp

TAU = NetType.from_spec("nop,set,swap,free")
TAU_TILDE = NetType.from_spec("nop,res,swap,used")
FULL = NetType(frozenset(Interaction))


@pytest.fixture(scope="session")
def tau() -> NetType:
    return TAU


@pytest.fixture(scope="session")
def tau_tilde() -> NetType:
    return TAU_TILDE


@pytest.fixture(scope="session")
def battery() -> dict[str, TransitionSystem]:
    return build_battery()


def line_ts(n_states: int) -> TransitionSystem:
    """A line ``s0 -a-> s1 -a-> ...`` of ``n_states`` states. Under ``TAU``
    its inner states cannot all be separated, so a sweep never ends early."""
    return TransitionSystem.build(
        "s0", [(f"s{k}", "a", f"s{k + 1}") for k in range(n_states - 1)]
    )


def region_digest(region: Region) -> str:
    """First 16 hex digits of the sha256 of a region's key, for golden
    values that pin which regions a computation returns."""
    return hashlib.sha256(repr(region.key()).encode()).hexdigest()[:16]


def witness_atoms(subject, rows) -> list[tuple]:
    """The rows of ``solving.assign_witnesses`` expanded into (atom, first
    region settling it) pairs, in canonical order: state pairs by position,
    then inhibitions by event and state position."""
    states, events = subject.states, subject.events
    n = len(states)

    def positions(mask: int) -> list[int]:
        return [k for k in range(n) if mask >> (n - 1 - k) & 1]

    pairs, inhibitions = [], []
    for region, pair_rows, inhibition_rows in rows:
        for i, partners in pair_rows:
            pairs += [((i, j), region) for j in positions(partners)]
        for e, newly in inhibition_rows:
            inhibitions += [((e, k), region) for k in positions(newly)]
    pairs.sort(key=lambda entry: entry[0])
    inhibitions.sort(key=lambda entry: entry[0])
    return [
        (StatePairAtom(states[i], states[j]), region) for (i, j), region in pairs
    ] + [
        (EventStateAtom(events[e], states[k]), region)
        for (e, k), region in inhibitions
    ]


def line_by_line(records) -> str:
    """The reference rendering of witness records: one formatted string
    per line."""
    lines = []
    for record in records:
        lines.append("region")
        lines += [f"sup {s} {bit}" for s, bit in record.region.support.items()]
        lines += [f"sig {e} {i.value}" for e, i in record.region.signature.items()]
        for atom in record.atoms:
            if isinstance(atom, StatePairAtom):
                lines.append(f"atom sp {atom.first} {atom.second}")
            else:
                lines.append(f"atom essp {atom.event} {atom.state}")
    return "\n".join(lines) + "\n" if lines else ""


def solver_state(solver) -> tuple:
    """What loading clauses leaves in a ``SatSolver``: variable count, ok
    flag, values, trail, watch and binary lists, and decision heap."""
    return (
        solver.num_vars,
        solver._ok,
        bytes(solver._val),
        solver._trail,
        solver._trail_lim,
        solver._bins,
        solver._watches,
        solver._heap,
    )


def consistency_cnf(ctx) -> list[list[int]]:
    """The consistency CNF of a ``solving._SatContext`` as one list of
    clauses in internal literals, the binary ones (a flat list of pairs in
    ``_consistency_clauses``) first, and under a type of one interaction the
    unit selectors, which ``_SatContext`` asserts after the rest, last."""
    pairs, clauses = solving._consistency_clauses(
        ctx.problem, ctx.sup_var, ctx.sel_var
    )
    units = [[2 * sels[0]] for sels in ctx.sel_var if len(sels) == 1]
    return [pairs[k : k + 2] for k in range(0, len(pairs), 2)] + clauses + units


def mixed_ts() -> TransitionSystem:
    """Two events, one missing state each; feasible under the full type."""
    return TransitionSystem.build("p", [("p", "a", "q"), ("q", "b", "p")])


# ------------------------------------------------------------ engine fakes


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


def lax_allowed_at(problem, bits):
    """``_Problem.allowed_at`` gone wrong: every event may take any
    interaction of the type, whatever its arcs show."""
    return [problem.allowed_by_code[0]] * len(problem.events)


# ------------------------------------------------- deterministic random TSs


def random_ts(
    rng, max_states: int = 6, max_events: int = 4, min_states: int = 1
) -> TransitionSystem:
    """A small deterministic transition system with every state reachable."""
    n_states = rng.randint(min_states, max_states)
    n_events = rng.randint(1, max_events)
    states = [f"s{k}" for k in range(n_states)]
    events = [f"e{k}" for k in range(n_events)]
    arcs: list[tuple[str, str, str]] = []
    used: set[tuple[str, str]] = set()
    # spanning arcs keep everything reachable from s0
    for k in range(1, n_states):
        source = states[rng.randrange(k)]
        options = [e for e in events if (source, e) not in used]
        if not options:
            source = states[k - 1]
            options = [e for e in events if (source, e) not in used]
        event = rng.choice(options)
        used.add((source, event))
        arcs.append((source, event, states[k]))
    for source in states:
        for event in events:
            if (source, event) in used:
                continue
            if rng.random() < 0.35:
                arcs.append((source, event, states[rng.randrange(n_states)]))
                used.add((source, event))
    present = {e for _, e, _ in arcs}
    if not arcs:  # single state, no events drawn
        return TransitionSystem.build("s0", [])
    return TransitionSystem.build(
        "s0", arcs, states=states, events=[e for e in events if e in present]
    )


# ------------------------------------------------ hypothesis strategies


@st.composite
def small_systems(draw, prefix: str = "s") -> TransitionSystem:
    """A deterministic system of one to five states over one to three
    events, any of which may label no arc or one arc; arcs may be
    self-loops and states may be unreachable."""
    states = [f"{prefix}{k}" for k in range(draw(st.integers(1, 5)))]
    events = [f"e{k}" for k in range(draw(st.integers(1, 3)))]
    arcs = [
        (source, event, draw(st.sampled_from(states)))
        for source in states
        for event in events
        if draw(st.booleans())
    ]
    return TransitionSystem.build(states[0], arcs, states=states, events=events)


@st.composite
def subjects(draw):
    """A system, or a union of one to three systems sharing event names."""
    if draw(st.booleans()):
        return draw(small_systems())
    count = draw(st.integers(1, 3))
    return TsUnion(tuple(draw(small_systems(f"m{k}_")) for k in range(count)))
