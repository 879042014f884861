"""Deterministic initialized labeled transition systems, unions, and joining.

A transition system here is finite, deterministic (per state and event at most
one outgoing arc) and initialized. It is meant to be reachable, with every event
occurring on at least one arc, but construction refuses neither unreachable
states nor unused events.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import pairwise
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union


class Arc(NamedTuple):
    """A labeled transition ``source --event--> target``.

    A named tuple, so it also equals the plain 3-tuple
    ``(source, event, target)``.
    """

    source: str
    event: str
    target: str


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with the offending subject."""

    code: str
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.code}: {self.subject}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class Report:
    """Outcome of a structural validation."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True, slots=True)
class SubjectIndex:
    """Positions of a subject's states and events, and its arcs by event.

    ``state_pos`` and ``event_pos`` give each state's position in
    ``states`` and each event's in ``events``. Per event position,
    ``arcs_by_event`` holds the (source, target) position pair of each of
    its arcs, in ``arcs`` order, and ``enabled_mask`` the support integer
    of the states it occurs at.

    In a support integer of an n-state subject, the state at position p is
    bit n - 1 - p, so ascending integers enumerate supports in
    lexicographic order over ``states``.

    ``arc_values`` reads a support per arc in one C-level gather. It takes
    the m arcs event by event in ``events`` order, each event's in
    ``arcs_by_event`` order, and returns the values at their sources and at
    their targets as two m-bit integers, the first arc most significant;
    event k's arcs are the bits of ``arc_slots[k]``.
    """

    state_pos: Mapping[str, int]
    event_pos: Mapping[str, int]
    arcs_by_event: tuple[tuple[tuple[int, int], ...], ...]
    enabled_mask: tuple[int, ...]
    arc_slots: tuple[int, ...]
    arc_count: int
    # The arcs' source positions, then their target positions, in slot order.
    arc_ends: Callable[[bytes], tuple[int, ...]] = field(compare=False, repr=False)
    # Per window width, the support sweep's pattern sets of a subject that
    # fits in one window, kept from its first check (``solving``).
    sweep_sets: dict[int, list] = field(
        default_factory=dict, compare=False, repr=False
    )

    def arc_values(self, support: bytes) -> tuple[int, int]:
        """The support's values at the arcs' sources and at their targets,
        given one byte per state in position order (nonzero reads as 1)."""
        m = self.arc_count
        ends = int(bytes(self.arc_ends(support)).translate(BIT_DIGITS) or b"0", 2)
        return ends >> m, ends & ((1 << m) - 1)


#: A ``bytes.translate`` table to the digits of a binary number: byte 0 to
#: "0", any other byte to "1".
BIT_DIGITS = b"0" + b"1" * 255

#: Its inverse on digits: "0" to byte 0 and "1" to byte 1, so the ``format``
#: of a support integer translates to one 0/1 byte per state.
DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def tuple_getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*positions)``, but returning a tuple however few
    positions there are (``itemgetter`` returns a single item bare)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda values: tuple(values[p] for p in positions)


def _build_index(
    states: Sequence[str], events: Sequence[str], arcs: Iterable[Arc]
) -> SubjectIndex:
    """The index of a subject with these states, events and arcs."""
    state_pos = {s: p for p, s in enumerate(states)}
    event_pos = {e: k for k, e in enumerate(events)}
    arcs_by_event: list[list[tuple[int, int]]] = [[] for _ in events]
    enabled = [0] * len(events)
    n1 = len(states) - 1
    for source, event, target in arcs:
        k = event_pos[event]
        src = state_pos[source]
        arcs_by_event[k].append((src, state_pos[target]))
        enabled[k] |= 1 << (n1 - src)
    grouped = [pair for pairs in arcs_by_event for pair in pairs]
    slots = []
    left = len(grouped)  # arcs of the later events
    for pairs in arcs_by_event:
        left -= len(pairs)
        slots.append(((1 << len(pairs)) - 1) << left)
    return SubjectIndex(
        state_pos,
        event_pos,
        tuple(map(tuple, arcs_by_event)),
        tuple(enabled),
        tuple(slots),
        len(grouped),
        tuple_getter([src for src, _ in grouped] + [dst for _, dst in grouped]),
    )


@dataclass(frozen=True)
class TransitionSystem:
    """A deterministic initialized labeled transition system.

    ``states`` and ``events`` are kept in a fixed order (initial state first,
    then first-seen order in the arc list, unless given explicitly); all
    canonical enumerations in the solvers derive from these orders.
    """

    initial: str
    arcs: tuple[Arc, ...]
    states: tuple[str, ...]
    events: tuple[str, ...]
    name: str = ""

    @classmethod
    def build(
        cls,
        initial: str,
        arcs: Iterable[Arc | Sequence[str]],
        states: Optional[Iterable[str]] = None,
        events: Optional[Iterable[str]] = None,
        name: str = "",
    ) -> "TransitionSystem":
        """Construct from an arc list, inferring state/event order if absent."""
        items = map(Arc._make, arcs)
        try:
            arc_tuple = tuple(items)
        except TypeError as exc:  # an item of the wrong length, or not iterable
            raise ValueError(f"an arc is source, event, target: {exc}") from None
        if states is None:
            ordered: dict[str, None] = {initial: None}
            for arc in arc_tuple:
                ordered.setdefault(arc.source, None)
                ordered.setdefault(arc.target, None)
            state_tuple = tuple(ordered)
        else:
            state_tuple = tuple(dict.fromkeys(states))
        if events is None:
            seen: dict[str, None] = {}
            for arc in arc_tuple:
                seen.setdefault(arc.event, None)
            event_tuple = tuple(seen)
        else:
            event_tuple = tuple(dict.fromkeys(events))
        return cls(
            initial=initial,
            arcs=arc_tuple,
            states=state_tuple,
            events=event_tuple,
            name=name,
        )

    def __post_init__(self) -> None:
        self.successors  # building it checks every arc

    @cached_property
    def successors(self) -> dict[str, dict[str, str]]:
        """Per state, in state order, its outgoing arcs as ``{event: target}``;
        building it checks the initial state, then each arc in turn."""
        succ: dict[str, dict[str, str]] = {s: {} for s in self.states}
        if self.initial not in succ:
            raise ValueError(f"initial state {self.initial!r} not among states")
        events = set(self.events)
        for arc in self.arcs:
            source, event, target = arc
            if source not in succ or target not in succ:
                raise ValueError(f"arc {arc} uses an undeclared state")
            if event not in events:
                raise ValueError(f"arc {arc} uses an undeclared event")
            out = succ[source]
            if event in out:
                raise ValueError(
                    f"nondeterministic: {source!r} has two arcs for "
                    f"event {event!r}"
                )
            out[event] = target
        return succ

    def step(self, state: str, event: str) -> Optional[str]:
        """The successor of ``state`` under ``event``, or None."""
        return self.successors.get(state, {}).get(event)

    def enabled(self, state: str, event: str) -> bool:
        return event in self.successors.get(state, ())

    @property
    def members(self) -> tuple[TransitionSystem]:
        """The system itself, as the one member of a subject."""
        return (self,)

    @cached_property
    def index(self) -> SubjectIndex:
        """Positions and arcs by event, built on first use."""
        return _build_index(self.states, self.events, self.arcs)

    def reachable_states(self) -> set[str]:
        """States reachable from the initial state."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for nxt in self.successors[state].values():
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def grade(subject: "Subject") -> int:
    """Max over states of max(in-degree, out-degree), arcs counted one by one."""
    in_deg = Counter(arc.target for arc in subject.arcs)
    best = 0
    for state, out in subject.successors.items():
        best = max(best, in_deg[state], len(out))
    return best


@dataclass(frozen=True)
class TsUnion:
    """Finitely many transition systems with disjoint states, shared events.

    Separation questions over a union treat the arcs of all members together;
    state-pair separation only ranges over pairs inside one member, while
    event/state inhibition ranges over all states of all members.
    """

    members: tuple[TransitionSystem, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a union needs at least one member")
        seen: dict[str, int] = {}
        for idx, member in enumerate(self.members):
            for state in member.states:
                if state in seen:
                    raise ValueError(
                        f"state {state!r} appears in members {seen[state]} "
                        f"and {idx}; union members must be state-disjoint"
                    )
                seen[state] = idx

    @classmethod
    def of(cls, *members: TransitionSystem) -> "TsUnion":
        return cls(tuple(members))

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(s for member in self.members for s in member.states)

    @cached_property
    def events(self) -> tuple[str, ...]:
        ordered: dict[str, None] = {}
        for member in self.members:
            for event in member.events:
                ordered.setdefault(event, None)
        return tuple(ordered)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(a for member in self.members for a in member.arcs)

    @cached_property
    def successors(self) -> dict[str, dict[str, str]]:
        """The members' successor indexes merged (their states are disjoint)."""
        succ: dict[str, dict[str, str]] = {}
        for member in self.members:
            succ.update(member.successors)
        return succ

    @cached_property
    def index(self) -> SubjectIndex:
        """Positions and arcs by event over all members, built on first use."""
        return _build_index(self.states, self.events, self.arcs)


def check_join_preconditions(union: TsUnion) -> Report:
    """Conditions under which joining preserves all separation verdicts.

    1. Every event must miss at least one state of the union (some state
       where it is not enabled).
    2. Each member's initial state must have exactly one incoming and one
       outgoing arc, both labeled with one event that occurs nowhere else in
       the whole union (a private handle on the initial state).
    """
    violations: list[Violation] = []
    occurrence_count = Counter(arc.event for arc in union.arcs)
    for event in union.events:
        if all(event in out for out in union.successors.values()):
            violations.append(
                Violation(
                    "event-misses-no-state",
                    event,
                    "enabled at every state of the union",
                )
            )
    for idx, member in enumerate(union.members):
        start = member.initial
        incoming = [a for a in member.arcs if a.target == start]
        outgoing = [a for a in member.arcs if a.source == start]
        if len(incoming) != 1 or len(outgoing) != 1:
            violations.append(
                Violation(
                    "initial-degree",
                    f"member {idx}: {start}",
                    f"{len(incoming)} in / {len(outgoing)} out, need 1/1",
                )
            )
            continue
        label_in = incoming[0].event
        label_out = outgoing[0].event
        if label_in != label_out:
            violations.append(
                Violation(
                    "initial-label",
                    f"member {idx}: {start}",
                    f"in {label_in!r} vs out {label_out!r}",
                )
            )
            continue
        if occurrence_count[label_out] != 2:
            violations.append(
                Violation(
                    "handle-not-private",
                    f"member {idx}: {label_out}",
                    "the initial-state event occurs elsewhere in the union",
                )
            )
    return Report(tuple(violations))


class Way(enum.Enum):
    """Direction of one path step from state ``a`` to the next state ``b``."""

    BOTH = "both"  # a -e-> b, then b -e-> a
    FORWARD = "forward"  # a -e-> b only
    BACK = "back"  # b -e-> a only


def path_arcs(
    states: Sequence[str], steps: Iterable[tuple[str, Way]]
) -> list[Arc]:
    """The arcs of a path: step ``k``, an event and its way, links
    ``states[k]`` to ``states[k + 1]``."""
    # Each arc in one C-level call: the named tuple's own ``__new__`` is
    # Python code, and these 3-tuples need no arity check.
    new_arc = partial(tuple.__new__, Arc)
    arcs: list[Arc] = []
    for (a, b), (event, way) in zip(pairwise(states), steps, strict=True):
        if way is not Way.BACK:
            arcs.append(new_arc((a, event, b)))
        if way is not Way.FORWARD:
            arcs.append(new_arc((b, event, a)))
    return arcs


def join_events(n: int) -> list[str]:
    """``join``'s fresh events for ``n`` members: seal_i, step_i, side_i, entry_i."""
    kinds = ("seal", "step", "side", "entry")
    return [f"{kind}_{i}" for i in range(n) for kind in kinds]


def join(union: TsUnion, name: str = "") -> TransitionSystem:
    """Glue the members of a union into a single transition system.

    A fresh rail ``rail_0 .. rail_4n`` threads the ``n`` members together;
    each member is entered through a three-state branch hanging off its rail
    section, via a fresh entry event looping on its initial state. For
    member ``i`` with rail states ``r0..r4`` (shared boundaries between
    neighbors) and branch states ``b1..b3``::

        r0 <-seal_i-> r1 -step_i-> r2 <-step_i-> r3 <-seal_i-> r4
                                   r2 -side_i-> b1 <-side_i-> b2
                                   b2 <-step_i-> b3 <-entry_i-> initial_i

    The glued system starts at ``rail_0``. Fresh state/event names must not
    collide with member names; collisions raise ValueError.
    """
    n = len(union.members)
    rail = [f"rail_{k}" for k in range(4 * n + 1)]
    branches = [f"branch_{i}_{x}" for i in range(n) for x in (1, 2, 3)]
    fresh = join_events(n)
    state_clash = set(union.states).intersection(rail + branches)
    event_clash = set(union.events).intersection(fresh)
    if state_clash:
        raise ValueError(f"member states collide with rail names: {sorted(state_clash)}")
    if event_clash:
        raise ValueError(f"member events collide with fresh events: {sorted(event_clash)}")

    arcs: list[Arc] = []
    states: list[str] = [rail[0]]
    events: list[str] = []
    both, forward = Way.BOTH, Way.FORWARD
    for i, member in enumerate(union.members):
        section = rail[4 * i : 4 * i + 5]
        b1, b2, b3 = branches[3 * i : 3 * i + 3]
        seal, step, side, entry = fresh[4 * i : 4 * i + 4]
        arcs += path_arcs(
            section, ((seal, both), (step, forward), (step, both), (seal, both))
        )
        arcs += path_arcs(
            (section[2], b1, b2, b3, member.initial),
            ((side, forward), (side, both), (step, both), (entry, both)),
        )
        arcs.extend(member.arcs)
        states += [*section[1:], b1, b2, b3, *member.states]
        events += [seal, step, side, entry, *member.events]
    return TransitionSystem(
        initial=rail[0],
        arcs=tuple(arcs),
        states=tuple(states),
        events=tuple(dict.fromkeys(events)),
        name=name or "joined",
    )


Subject = Union[TransitionSystem, TsUnion]
