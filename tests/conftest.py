"""Shared fixtures: the four-example battery, small random systems (seeded
and as hypothesis strategies), and an independent brute-force separation
oracle used to cross-check the engines."""

from __future__ import annotations

import hashlib
import itertools
from typing import Optional

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

TAU = NetType.from_spec("nop,set,swap,free")
TAU_TILDE = NetType.from_spec("nop,res,swap,used")


@pytest.fixture(scope="session")
def tau() -> NetType:
    return TAU


@pytest.fixture(scope="session")
def tau_tilde() -> NetType:
    return TAU_TILDE


def build_battery() -> dict[str, TransitionSystem]:
    """The four canonical three-to-four-state examples.

    a1: a line into a two-cycle (both properties hold)
    a2: a plain two-step line (state separation only)
    a3: a line into a terminal self-loop (event inhibition only)
    a4: a three-step line (neither property)
    """
    a1 = TransitionSystem.build(
        "s0", [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s1")], name="A1"
    )
    a2 = TransitionSystem.build(
        "s0", [("s0", "a", "s1"), ("s1", "a", "s2")], name="A2"
    )
    a3 = TransitionSystem.build(
        "s0", [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s2")], name="A3"
    )
    a4 = TransitionSystem.build(
        "s0",
        [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s3")],
        name="A4",
    )
    return {"a1": a1, "a2": a2, "a3": a3, "a4": a4}


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
    ``_consistency_clauses``) first."""
    pairs, clauses = solving._consistency_clauses(
        ctx.problem, ctx.sup_var, ctx.sel_var
    )
    return [pairs[k : k + 2] for k in range(0, len(pairs), 2)] + clauses


# ------------------------------------------------------- brute-force oracle


def oracle_event_interactions(
    subject: TransitionSystem | TsUnion,
    tau: NetType,
    support: dict[str, int],
    event: str,
) -> set[Interaction]:
    """All interactions of ``tau`` consistent with every arc of ``event``
    under ``support`` — by direct definition, no shared code with the lib."""
    allowed = set(tau.interactions)
    for arc in subject.arcs:
        if arc.event != event:
            continue
        src, dst = support[arc.source], support[arc.target]
        allowed = {
            i for i in allowed if i.effect[src] is not None and i.effect[src] == dst
        }
    return allowed


def admissible(
    subject: TransitionSystem | TsUnion, tau: NetType, region: Region
) -> bool:
    """True iff the region covers exactly the subject's states and events, its
    signature stays inside ``tau`` and every arc ``s -e-> t`` has
    ``sig[e].effect[sup[s]] == sup[t]``, checked arc by arc without the lib."""
    sup, sig = region.support, region.signature
    return (
        sup.keys() == set(subject.states)
        and sig.keys() == set(subject.events)
        and set(sig.values()) <= tau.interactions
        and all(sig[e].effect[sup[s]] == sup[t] for s, e, t in subject.arcs)
    )


def oracle_separable(
    subject: TransitionSystem | TsUnion, tau: NetType, first: str, second: str
) -> bool:
    states = list(subject.states)
    events = list(subject.events)
    for bits in itertools.product((0, 1), repeat=len(states)):
        support = dict(zip(states, bits))
        if support[first] == support[second]:
            continue
        if all(
            oracle_event_interactions(subject, tau, support, e) for e in events
        ):
            return True
    return False


def oracle_inhibitable(
    subject: TransitionSystem | TsUnion, tau: NetType, event: str, state: str
) -> bool:
    states = list(subject.states)
    events = list(subject.events)
    for bits in itertools.product((0, 1), repeat=len(states)):
        support = dict(zip(states, bits))
        options = oracle_event_interactions(subject, tau, support, event)
        if not any(i.effect[support[state]] is None for i in options):
            continue
        if all(
            oracle_event_interactions(subject, tau, support, e)
            for e in events
            if e != event
        ):
            return True
    return False


def oracle_ssp(subject: TransitionSystem | TsUnion, tau: NetType) -> Optional[tuple]:
    """First inseparable same-member pair, or None when the property holds."""
    if isinstance(subject, TsUnion):
        members: tuple[TransitionSystem, ...] = subject.members
    else:
        members = (subject,)
    for member in members:
        states = member.states
        for i, j in itertools.combinations(range(len(states)), 2):
            if not oracle_separable(subject, tau, states[i], states[j]):
                return (states[i], states[j])
    return None


def oracle_essp(subject: TransitionSystem | TsUnion, tau: NetType) -> Optional[tuple]:
    """First uninhibitable missing (event, state), or None when it holds."""
    enabled = {(arc.source, arc.event) for arc in subject.arcs}
    for event in subject.events:
        for state in subject.states:
            if (state, event) in enabled:
                continue
            if not oracle_inhibitable(subject, tau, event, state):
                return (event, state)
    return None


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
