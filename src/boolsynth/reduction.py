"""Hardness instances from cubic monotone one-in-three satisfiability.

A cubic monotone formula has negation-free three-variable clauses, every
variable occurring in exactly three of them (so there are as many variables
as clauses). The generator compiles such a formula into a union of small
transition-system gadgets and glues it into a single initialized system.

The construction is tuned to a family of net types: the glued
system has an inhibiting region for a fixed target event/state requirement
if and only if the formula has a one-in-three model, and the model can be
read back off any such region's signature (variables whose event carries
the distinguished total interaction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .interactions import Interaction, NetType
from .regions import Family, Region, validate_region
from .solving import EventStateAtom
from .ts import (
    Report,
    TransitionSystem,
    TsUnion,
    Violation,
    Way,
    check_join_preconditions,
    join,
    join_events,
    path_arcs,
)


class FalsificationError(RuntimeError):
    """A region that should encode a one-in-three model failed to."""


@dataclass(frozen=True)
class CubicCnf:
    """A monotone 3-CNF in which every variable occurs exactly 3 times."""

    clauses: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a formula needs at least one clause")
        counts: dict[str, int] = {}
        for clause in self.clauses:
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(
                    f"clause {clause!r} must hold three distinct variables"
                )
            for name in clause:
                if not name or any(ch.isspace() for ch in name) or "#" in name:
                    raise ValueError(f"bad variable name {name!r}")
                counts[name] = counts.get(name, 0) + 1
        bad = sorted(n for n, c in counts.items() if c != 3)
        if bad:
            raise ValueError(
                f"variables must occur exactly three times; violated by {bad}"
            )

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for clause in self.clauses for v in clause}))

    def is_model(self, assignment: frozenset[str]) -> bool:
        """True when exactly one variable per clause is in ``assignment``."""
        return all(
            sum(1 for v in clause if v in assignment) == 1
            for clause in self.clauses
        )

    def iter_models(self) -> Iterator[frozenset[str]]:
        """All one-in-three models, lexicographically by sorted contents."""
        m = len(self.clauses)
        if m % 3:
            return  # every model picks one slot per clause: |M| = m/3
        for combo in itertools.combinations(self.variables, m // 3):
            candidate = frozenset(combo)
            if self.is_model(candidate):
                yield candidate


def solve_one_in_three(cnf: CubicCnf) -> Optional[frozenset[str]]:
    """Lexicographically first one-in-three model, or None if unsatisfiable."""
    return next(cnf.iter_models(), None)


#: Satisfiable fixture: one clause repeated thrice; models pick one variable.
PHI_SAT = CubicCnf((("x0", "x1", "x2"),) * 3)

#: Unsatisfiable fixture: four clauses, so any model would need 4/3 variables.
PHI_UNSAT = CubicCnf(
    (("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"))
)


@dataclass(frozen=True)
class RoleMap:
    """Who is who inside a generated instance."""

    target_event: str
    target_state: str
    flip_events: tuple[str, ...]  # must be signed with the swapping interaction
    hold_events: tuple[str, ...]  # must NOT swap (clause guards)
    occ_events: tuple[str, ...]  # must NOT swap (occurrence guards)
    sync_event: str
    shift_event: str
    pad_events: tuple[str, ...]
    clause_events: tuple[str, ...]
    slot_events: tuple[str, ...]
    variables: tuple[str, ...]
    unique_events: tuple[str, ...]


def _path(name: str, steps: Sequence[tuple[str, Way]], unique: str) -> TransitionSystem:
    """A gadget member: the path along ``steps`` through the states
    ``h_3_0, h_3_1, ...`` for member ``H3`` (``t_0_1_0, ...`` for ``T0_1``),
    closed by a two-way step on the private handle ``unique`` into its last
    state, the member's initial state."""
    steps = [*steps, (unique, Way.BOTH)]
    states = [f"{name[0].lower()}_{name[1:]}_{x}" for x in range(len(steps) + 1)]
    # The orders ``TransitionSystem.build`` would infer from the arcs: the
    # initial state, then the path's states in order (no gadget path starts
    # with a backward step), and the events as the steps first name them.
    return TransitionSystem(
        initial=states[-1],
        arcs=tuple(path_arcs(states, steps)),
        states=(states[-1], *states[:-1]),
        events=tuple(dict.fromkeys(event for event, _ in steps)),
        name=name,
    )


def _both(*events: str) -> list[tuple[str, Way]]:
    return [(event, Way.BOTH) for event in events]


def build_union(cnf: CubicCnf, family: Family) -> tuple[TsUnion, RoleMap]:
    """The gadget union for a formula: anchors for every flip event,
    calibration members, clause and occurrence guards, and four members per
    clause wiring its variables together."""
    m = len(cnf.clauses)
    # Every event the construction names, by role; ``u`` holds one private
    # handle per member.
    k, sync, shift = "k", "m", "z"
    q = ("q0", "q1", "q2", "q3")
    v = tuple(f"v_{j}" for j in range(4 * m))
    w = tuple(f"w_{i}" for i in range(m))
    a = tuple(f"a_{l}" for l in range(3 * m))
    y = tuple(f"y_{j}" for j in range(m))
    p = tuple(f"p_{l}" for l in range(3 * m))
    u = tuple(f"u_{i}" for i in range(12 * m + 3))
    # Checked before any member is built: a variable named like a generated
    # event can make a gadget path nondeterministic.
    generated = {k, sync, shift, *q, *v, *w, *a, *y, *p, *u, *join_events(len(u))}
    colliding = sorted(generated.intersection(cnf.variables))
    if colliding:
        raise ValueError(
            "variable names collide with generated event names: "
            f"{colliding}; rename the variables"
        )
    members: list[TransitionSystem] = []

    def add(name: str, steps: Sequence[tuple[str, Way]]) -> None:
        members.append(_path(name, steps, u[len(members)]))

    for j in range(4 * m):
        add(f"H{j}", _both(k, sync, v[j], k))
    add("F0", _both(k, sync, q[0], k, sync, q[1], k))
    add("F1", _both(k, q[2], q[3], k))
    add("F2", _both(k, q[2], q[0], shift, q[1], shift, q[3], k))
    # clause guards G and occurrence guards D
    guards = [(f"G{j}", y[j], w[j]) for j in range(m)]
    guards += [(f"D{l}", p[l], a[l]) for l in range(3 * m)]
    for name, mid, tail in guards:
        add(name, [*_both(k, mid), (shift, Way.FORWARD), *_both(shift, mid, tail, k)])
    for i, clause in enumerate(cnf.clauses):
        head, tail = v[4 * i], w[i]
        if family is Family.USED:
            head, tail = tail, head
        steps = _both(k, head)
        for l, x in enumerate(clause, start=3 * i):
            steps += [*_both(a[l], x), (x, Way.BACK), *_both(a[l])]
        add(f"T{i}_0", steps + _both(tail, k))
        x0, x1, x2 = clause
        for alpha, (first, second) in enumerate(
            ((x0, x1), (x0, x2), (x1, x2)), start=1
        ):
            add(f"T{i}_{alpha}", _both(first, v[4 * i + alpha], second))
    union = TsUnion(members=tuple(members))
    roles = RoleMap(
        target_event=k,
        target_state="h_0_2",
        flip_events=v,
        hold_events=w,
        occ_events=a,
        sync_event=sync,
        shift_event=shift,
        pad_events=q,
        clause_events=y,
        slot_events=p,
        variables=cnf.variables,
        unique_events=u,
    )
    return union, roles


@dataclass(frozen=True)
class GadgetInstance:
    """A compiled hardness instance: the glued system plus its role map."""

    cnf: CubicCnf
    family: Family
    union: TsUnion
    ts: TransitionSystem
    roles: RoleMap

    @property
    def target_atom(self) -> EventStateAtom:
        return EventStateAtom(self.roles.target_event, self.roles.target_state)


def build_instance(cnf: CubicCnf, family: Family) -> GadgetInstance:
    """Compile a formula into a single initialized transition system."""
    union, roles = build_union(cnf, family)
    report = check_join_preconditions(union)
    if not report.ok:
        raise AssertionError(
            f"generated union violates gluing preconditions:\n{report}"
        )
    name = f"instance_{family.name.lower()}_m{len(cnf.clauses)}"
    ts = join(union, name=name)
    return GadgetInstance(cnf=cnf, family=family, union=union, ts=ts, roles=roles)


def verify_inhibiting_region(
    instance: GadgetInstance, tau: NetType, region: Region
) -> Report:
    """Check that a region is an admissible inhibitor of the instance's
    target requirement and respects every structural role constraint."""
    violations: list[Violation] = []
    roles = instance.roles
    if tau not in instance.family.types():
        violations.append(
            Violation(
                "family-type",
                str(tau),
                f"net type outside the {instance.family.name} family",
            )
        )
    try:
        admissible = validate_region(instance.ts, tau, region)
    except Exception as exc:  # domain mismatch
        violations.append(Violation("region-domain", "region", str(exc)))
        return Report(tuple(violations))
    if not admissible:
        violations.append(
            Violation("region-invalid", "region", "region violates an arc")
        )
    sig = region.signature
    sup = region.support
    if not region.inhibits(roles.target_event, roles.target_state):
        violations.append(
            Violation(
                "not-inhibiting",
                roles.target_event,
                "signature is defined on the target state's support value",
            )
        )
    for event in roles.flip_events:
        if sig.get(event) is not Interaction.SWAP:
            violations.append(
                Violation("flip-signature", event, "must carry swap")
            )
    for event in roles.hold_events + roles.occ_events:
        if sig.get(event) is Interaction.SWAP:
            violations.append(
                Violation("steady-signature", event, "must not carry swap")
            )
    k_sig = sig.get(roles.target_event)
    target_sup = sup.get(roles.target_state)
    polarity_ok = (k_sig is Interaction.FREE and target_sup == 1) or (
        k_sig is Interaction.USED and target_sup == 0
    )
    if not polarity_ok:
        violations.append(
            Violation(
                "target-polarity",
                roles.target_event,
                "target must be freeness-inhibited at support 1 or "
                "usedness-inhibited at support 0",
            )
        )
    return Report(tuple(violations))


def extract_model(instance: GadgetInstance, region: Region) -> frozenset[str]:
    """Read the one-in-three model off an inhibiting region's signature.

    Raises FalsificationError if the region does not inhibit the target
    requirement or the extracted assignment is not a model — either would
    contradict the construction's correctness claim.
    """
    roles = instance.roles
    sig = region.signature
    if not region.inhibits(roles.target_event, roles.target_state):
        raise FalsificationError(
            "region does not inhibit the target requirement"
        )
    k_sig = sig.get(roles.target_event)
    if instance.family is Family.FREE:
        if k_sig is not Interaction.FREE:
            raise FalsificationError(
                f"target event carries {k_sig!r}, expected the freeness test"
            )
        marker = Interaction.SET
    elif k_sig is Interaction.USED:
        marker = Interaction.SET
    elif k_sig is Interaction.FREE:
        marker = Interaction.RES
    else:
        raise FalsificationError(
            f"target event carries {k_sig!r}, expected usedness or freeness"
        )
    model = frozenset(
        v for v in roles.variables if sig.get(v) is marker
    )
    if not instance.cnf.is_model(model):
        raise FalsificationError(
            f"extracted assignment {sorted(model)} hits some clause "
            "zero or multiple times"
        )
    return model
