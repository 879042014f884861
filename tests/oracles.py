"""The independent references the tests check the engines against.

Each one decides by direct definition: brute force over supports for the
separation properties, the arc rule of a region read arc by arc, exhaustive
assignment for propositional formulas, and the consistency CNF written out
clause by clause from its documented rule. None of them calls an engine,
the solver or the CNF builder. This module imports only the standard library
and the data types (``boolsynth.interactions``, ``boolsynth.ts`` and
``boolsynth.regions``), not pytest or hypothesis, so scripts can use it too.
"""

from __future__ import annotations

import itertools
from typing import Optional

from boolsynth.interactions import Interaction, NetType
from boolsynth.regions import Region
from boolsynth.ts import TransitionSystem, TsUnion


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


# ------------------------------------------------------ regions, brute force


def follows_every_arc(subject: TransitionSystem | TsUnion, region: Region) -> bool:
    """The arc rule of a region: every arc ``s -e-> t`` has
    ``sig[e].effect[sup[s]] == sup[t]``, checked arc by arc."""
    sup, sig = region.support, region.signature
    return all(sig[e].effect[sup[s]] == sup[t] for s, e, t in subject.arcs)


def admissible(
    subject: TransitionSystem | TsUnion, tau: NetType, region: Region
) -> bool:
    """True iff the region covers exactly the subject's states and events, its
    signature stays inside ``tau`` and it follows every arc, without the lib."""
    sup, sig = region.support, region.signature
    return (
        sup.keys() == set(subject.states)
        and sig.keys() == set(subject.events)
        and set(sig.values()) <= tau.interactions
        and follows_every_arc(subject, region)
    )


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


# ------------------------------------------------- propositional formulas


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


def verify_model(solver, clauses) -> bool:
    """Whether the last model of a ``SatSolver`` satisfies every DIMACS
    clause. It reads ``model_values``, one byte per internal literal (``2v``
    for v, ``2v + 1`` for not v): a literal holds only where its byte is 1,
    so a variable the model left open (byte 2) satisfies no literal."""
    model = solver.model_values
    return all(
        any(model[abs(lit) * 2 + (lit < 0)] == 1 for lit in clause)
        for clause in clauses
    )


# ------------------------------------------- the consistency CNF, by its rule


def per_bit_clauses(ctx, event_pos):
    """The consistency rule of one event of a ``solving._SatContext``, per
    source bit, in DIMACS literals: at least one interaction; per arc,
    interaction and source bit b, the interaction is not selected, or the
    source is not b, or the target carries the image of b if there is one."""
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


def dimacs_reference(ctx) -> list[list[int]]:
    """The consistency CNF of a ``solving._SatContext`` in DIMACS literals
    and in load order, by the rule of ``_consistency_clauses``'s docstring:
    per arc and interaction, per pattern (a, b) in ascending order that the
    interaction cannot follow (its image of a is not b), the interaction is
    not selected, or the source is not a, or the target is not b. The clause
    keeps only its source side if (a, not b) is ruled out too, and only its
    target side if (not a, b) is; repeats are dropped. On a self-loop a
    clause equal to one listed before for the arc is dropped too; loaded
    with ``add_clause``, the solver's normaliser drops a tautology and merges
    a repeated literal. Then, after the arc clauses, at least one interaction
    per event: a unit under a type of one interaction, which must come last,
    and otherwise a clause of positive selectors, whose lists no arc clause
    touches."""
    problem = ctx.problem
    reference = []
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
                        reference.append(clause)
    reference += [list(sels) for sels in ctx.sel_var]
    return reference
