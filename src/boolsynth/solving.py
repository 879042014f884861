"""Deciding separation properties of transition systems.

Two interchangeable engines answer, for a subject (a transition system or a
union of them) and a boolean net type, whether regions witness every state
separation requirement (distinct states told apart by some region's support)
and every event inhibition requirement (a region whose signature is undefined
on the support value of a state the event must not fire in).

One admissibility table, ``_type_data``, states the rule both engines rest
on: a region's signature follows every arc, sigma(e)(sup(s)) = sup(s').
Per interaction of the type it lists the arc patterns (source value, target
value) the interaction cannot follow; from that list come the sweep's
forbidden pattern sets, each clause of the consistency CNF
(``_consistency_clauses``) and, per 4-bit code of the patterns an event's
arcs show under a support, the mask of the interactions that follow them
all, from which regions are signed. A ``_Problem`` pairs the table with the
subject's one index (``subject.index``, ``ts.SubjectIndex``: state and event
positions, arcs and enabled states by event, and one gather of a support at
every arc), built on a system's first check and shared by every later one.

A region stays ints until it is signed: a support integer, and its allowed
masks per event read from the event's code, never from a loop over its
arcs. The sat engine reads a model's support bits in one gather and each
event's code from its slot in the gathered ints (``_Problem.allowed_at``);
the exhaustive engine reads the code from the sweep's pattern sets of the
support's window (``_Problem.allowed_in_window``). ``_Problem.region``
signs a region from its support in one form, one 0/1 byte per state in
position order, as the gather reads it. Every region either
engine builds passes ``regions.validate_region``, which reads it back from
its mappings and checks it against ``Interaction.effect``, independent of
this table and of the CNF.

* The exhaustive engine sweeps every support in ascending order
  (lexicographic over the subject's state list). It filters admissibility
  bit-parallel, a window of up to 2^16 supports per Python big int: each
  state's value is a bitset over the window, each event's arcs give the
  bitset of supports showing each pattern, and a support survives iff every
  event keeps an interaction of the type that follows all patterns shown
  there. A subject of one window keeps those bitsets in its index for its
  later checks. At each surviving support the tracker signs regions, as
  long as each settles something new. Without a budget it refuses subjects
  above ``_EXHAUSTIVE_MAX_STATES`` states.
* The propositional engine encodes admissibility as CNF over support bits
  and signature selectors, attached to the solver in one pass, and answers
  requirements through assumption-based incremental SAT queries. One table,
  ``_SatContext.queries``, lists the queries that settle a requirement:
  the two orientations of a state pair, or one partial interaction of the
  type per query for an inhibition, at all of the event's pending states
  before the one state. Checks take the first satisfiable one;
  enumeration takes every model of each, excluding each support after use.
  Phase hints steer each query toward supports that settle many pending
  requirements at once; they shape the region pool, never a verdict. Only
  the support of a model is read back. The solver decides support bits
  only (``SatSolver(decision_vars=n)``). Once they are all set and
  propagation ends without a conflict, each consistency clause is satisfied
  or has forced its selector false, and each event's at-least-one clause
  keeps a selector true or open. So setting every open selector true
  completes a model; the learnt clauses follow from the CNF and hold in it
  too.

A spent budget has one signal, ``ResourceExhausted``, raised by the sweep
and by ``_SatContext.solve`` when the solver stops at its deadline. Both
engines append to a pool their caller owns, so ``_run_check``, the one
place that catches it, answers "inconclusive" with the regions pooled so
far; every other caller lets it propagate.

One coverage tracker, ``_Coverage``, records which requirements are still
pending: a partition of state blocks for separation (pairs inside a block
are pending) and one uncovered-state mask per event for inhibition. A
check's scope is its property name: the scope table, ``_SCOPES``, says
which of the two kinds the tracker of ``ssp``, ``essp`` or ``feasible``
starts with pending, and ``_run_check`` and ``assign_witnesses`` both read
it (``_Coverage.of_property``). The tracker decides inhibition for both
engines: ``resign`` gives each event with pending inhibitions the
admissible partial interaction that inhibits the most of them, and
``settle`` credits a region with every requirement it settles. Both
engines sign a region by this one rule: a query's forced entry, then
``resign``'s picks, then each other event's first allowed interaction
(``_Problem.region``). So a region depends only on its support and on what
is still pending, whichever engine found the support. Each
pooled region settles a requirement no earlier one settles, so no pool
repeats a region. The counterexample is the tracker's first pending
requirement; ``assign_witnesses`` and ``first_unsettled`` replay a pool
through the same tracker, and ``solve_atom`` is a check whose tracker has
one pending requirement (``_Coverage.of_atom``). ``assign_witnesses`` keeps
what ``settle`` returns for each region as masks, one row per state or
event, and a witness file is written from those rows
(``fileformats.format_witnesses``), with no atom object per requirement.
``irredundant`` thins a pool for synthesis, on ints over the same index: it
drops, in order, each region whose state pairs and inhibitions the regions
it keeps settle too.
For a fixed subject the two engines agree on all verdicts and report the
same (canonically first) counterexample; only the witnessing regions may
differ.

The sat engine and witness parsing run with the cyclic garbage collector
paused (``collector_paused``): what they build holds no reference cycle, and
a cycle made during the pause is collected after it. The collector's state
is process-wide, so concurrent calls from threads are not supported.
"""

from __future__ import annotations

import functools
import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .interactions import (
    INTERACTION_ORDER,
    UNDEFINED_AT,
    Interaction,
    NetType,
    iter_type,
    require_usable,
)
from .regions import Region, validate_region
from .ts import BIT_DIGITS, DIGIT_BITS, Subject, tuple_getter


class ResourceExhausted(RuntimeError):
    """A computation ran out of its time budget before a verdict."""


class EngineError(RuntimeError):
    """An engine's region failed re-validation, or its loop made no progress."""


@dataclass(frozen=True)
class StatePairAtom:
    """Requirement that two distinct states be distinguished by a region."""

    first: str
    second: str

    def __str__(self) -> str:
        return f"sp {self.first} {self.second}"


@dataclass(frozen=True)
class EventStateAtom:
    """Requirement that an event be inhibited at a state it must not fire in."""

    event: str
    state: str

    def __str__(self) -> str:
        return f"essp {self.event} {self.state}"


Atom = Union[StatePairAtom, EventStateAtom]

_GLOBAL_INDEX = {i: idx for idx, i in enumerate(INTERACTION_ORDER)}

#: Per partial interaction, in canonical order: (its bit in an allowed
#: mask, the interaction, the token value it is undefined at).
_PARTIALS = tuple((1 << _GLOBAL_INDEX[i], i, at) for i, at in UNDEFINED_AT.items())

#: Per mask over the canonical order, its first interaction.
_FIRST_OF = tuple(INTERACTION_ORDER[(m & -m).bit_length() - 1] for m in range(256))


def ssp_atoms(subject: Subject) -> Iterator[StatePairAtom]:
    """All state separation requirements of ``subject``, canonical order.

    For a union only same-member pairs are requirements.
    """
    for member in subject.members:
        states = member.states
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                yield StatePairAtom(states[i], states[j])


def essp_atoms(subject: Subject) -> Iterator[EventStateAtom]:
    """All event inhibition requirements of ``subject``, canonical order."""
    successors = subject.successors
    for event in subject.events:
        for state in subject.states:
            if event not in successors[state]:
                yield EventStateAtom(event, state)


def _deadline_from_budget(budget: Optional[float]) -> Optional[float]:
    """When a budget of seconds ends; NaN, which never would, is rejected."""
    if budget is None:
        return None
    if budget != budget:
        raise ValueError("the budget is not a number")
    return time.monotonic() + budget


@functools.cache
def _type_data(
    interactions: frozenset[Interaction],
) -> tuple[tuple[Interaction, ...], tuple, tuple[int, ...], tuple]:
    """The admissibility table of a type with these ``interactions`` (a
    frozenset hashes in C, a ``NetType`` in Python): an interaction i
    follows the arc pattern ``2*a + b`` (source holds a, target holds b)
    iff i(a) = b.

    Returns the type's interactions in canonical order; per interaction,
    the patterns it cannot follow, ascending; per code of the patterns an
    event's arcs show (bit p set iff some arc shows pattern p), the mask of
    the interactions that follow them all (code 0, no arc: the whole type);
    and the sweep's forbidden sets: the distinct sets of patterns ruled
    out, supersets dropped (they are never the last left)."""
    tau_list = iter_type(interactions)
    bits = [1 << _GLOBAL_INDEX[i] for i in tau_list]
    ruled_out = tuple(
        tuple(p for p in range(4) if i.effect[p >> 1] != p & 1) for i in tau_list
    )
    follows = [
        sum(bit for bit, out in zip(bits, ruled_out) if p not in out) for p in range(4)
    ]
    allowed_by_code = [sum(bits)]
    for code in range(1, 16):
        # What follows the code's other patterns and its lowest one.
        low = code & -code
        rest = allowed_by_code[code ^ low]
        allowed_by_code.append(rest & follows[low.bit_length() - 1])
    sets = {frozenset(out) for out in ruled_out}
    forbidden = tuple(tuple(s) for s in sets if not any(t < s for t in sets))
    return tau_list, ruled_out, tuple(allowed_by_code), forbidden


class _Problem:
    """A subject's index (``SubjectIndex``) under a net type's data."""

    def __init__(self, subject: Subject, tau: NetType) -> None:
        self.subject = subject
        self.tau = tau
        self.index = subject.index
        self.states = subject.states
        self.events = subject.events
        self.n = len(self.states)
        self.full = (1 << self.n) - 1
        require_usable(tau)
        self.tau_list, self.ruled_out, self.allowed_by_code, self.forbidden = (
            _type_data(tau.interactions)
        )

    def state_bit(self, pos: int) -> int:
        """Bit of state ``pos`` in a support integer, as ``SubjectIndex``
        lays supports out."""
        return 1 << (self.n - 1 - pos)

    def bits_of(self, support: int) -> bytes:
        """A support integer as one 0/1 byte per state in position order."""
        return format(support, f"0{self.n}b").encode().translate(DIGIT_BITS)

    def allowed_at(self, bits: bytes) -> list[int]:
        """Per event, the mask of the interactions (over the canonical
        order) that follow every arc of the event under a support given as
        one 0/1 byte per state in position order; an event without arcs
        may take any interaction of the type. One gather reads the support
        at every arc (``SubjectIndex.arc_values``); an event's code of the
        patterns shown is then four tests on its slot."""
        index = self.index
        src, dst = index.arc_values(bits)
        zeros = ((1 << index.arc_count) - 1) ^ src
        a01 = zeros & dst
        a11 = src & dst
        a00 = zeros ^ a01
        a10 = src ^ a11
        by_code = self.allowed_by_code
        return [
            by_code[
                (a00 & slot and 1)
                | (a01 & slot and 2)
                | (a10 & slot and 4)
                | (a11 & slot and 8)
            ]
            for slot in index.arc_slots
        ]

    def allowed_in_window(self, shown: Sequence[tuple], support: int) -> list[int]:
        """``allowed_at`` for a support of the sweep's current window, read
        from each event's sets of the window's supports showing each pattern
        (``_admissible_supports``); the support's low ``_WINDOW_BITS`` bits
        are its offset in the window."""
        by_code = self.allowed_by_code
        bit = 1 << (support & ~(-1 << _WINDOW_BITS))
        return [
            by_code[
                (f00 & bit and 1)
                | (f01 & bit and 2)
                | (f10 & bit and 4)
                | (f11 & bit and 8)
            ]
            for f00, f01, f10, f11 in shown
        ]

    def region(
        self, bits: bytes, picks: Mapping[str, Interaction], allowed: Sequence[int]
    ) -> Region:
        """The region of a support given as one 0/1 byte per state in
        position order, re-validated: each event in ``picks`` gets its pick,
        every other the first interaction of its ``allowed`` mask in
        canonical order. An engine that builds an inadmissible region is at
        fault."""
        signature = dict(zip(self.events, map(_FIRST_OF.__getitem__, allowed)))
        if picks:
            signature.update(picks)
        region = Region(dict(zip(self.states, bits)), signature)
        if not validate_region(self.subject, self.tau, region):
            raise EngineError("engine produced an inadmissible region")
        return region

    def support_int_of(self, region: Region) -> int:
        """The support integer of a region, one bit per state position."""
        bits = bytes(map(region.support.__getitem__, self.states))
        return int(bits.translate(BIT_DIGITS), 2)


def _position(positions: Mapping[str, int], kind: str, name: str) -> int:
    """The position of a state or event named in an atom."""
    if name not in positions:
        raise ValueError(f"no {kind} {name!r} in the subject")
    return positions[name]


#: The scope table: per property a check decides, whether its coverage
#: tracker tracks (state pairs, inhibitions).
_SCOPES = {"ssp": (True, False), "essp": (False, True), "feasible": (True, True)}


class _Coverage:
    """Which requirements of a problem a set of regions leaves pending.

    State pairs are tracked as a partition of state masks: two states are a
    pending pair iff they share a block (singleton blocks are dropped, and a
    union starts with one block per member). Inhibitions are tracked as one
    mask per event of the states it is still to be inhibited at.
    """

    __slots__ = ("problem", "blocks", "uncovered")

    def __init__(self, problem: _Problem, want_ssp: bool, want_essp: bool) -> None:
        self.problem = problem
        self.blocks: list[int] = []
        if want_ssp:
            # A union lists its states member by member, so each member's
            # states are one run of adjacent bits.
            end = 0
            for member in problem.subject.members:
                size = len(member.states)
                end += size
                if size > 1:
                    self.blocks.append(((1 << size) - 1) << (problem.n - end))
        full = problem.full if want_essp else 0
        self.uncovered = [~mask & full for mask in problem.index.enabled_mask]

    @classmethod
    def of_property(cls, problem: _Problem, property_name: str) -> _Coverage:
        """A tracker of every requirement of ``property_name`` (``_SCOPES``)."""
        if property_name not in _SCOPES:
            raise ValueError(f"unknown property {property_name!r}")
        return cls(problem, *_SCOPES[property_name])

    @classmethod
    def of_atom(cls, problem: _Problem, atom: Atom) -> _Coverage:
        """A tracker whose one pending requirement is ``atom``."""
        coverage = cls(problem, False, False)
        index = problem.index
        if isinstance(atom, StatePairAtom):
            i = _position(index.state_pos, "state", atom.first)
            j = _position(index.state_pos, "state", atom.second)
            if i == j:
                raise ValueError("state pair requirement needs distinct states")
            pair = problem.state_bit(i) | problem.state_bit(j)
            if not any(pair & b == pair for b in cls(problem, True, False).blocks):
                raise ValueError(
                    f"states {atom.first!r} and {atom.second!r} lie in "
                    "different members; nothing to separate"
                )
            coverage.blocks.append(pair)
            return coverage
        event_pos = _position(index.event_pos, "event", atom.event)
        state_bit = problem.state_bit(_position(index.state_pos, "state", atom.state))
        if index.enabled_mask[event_pos] & state_bit:
            raise ValueError(
                f"event {atom.event!r} occurs at state {atom.state!r}; "
                "nothing to inhibit"
            )
        coverage.uncovered[event_pos] = state_bit
        return coverage

    def split(self, support: int) -> list[tuple[int, int]]:
        """Split every block the support cuts; returns the (ones, zeros)
        halves of each cut block, whose cross pairs are now settled."""
        for block in self.blocks:
            ones = block & support
            if ones and ones != block:
                break
        else:
            return []  # the support cuts no block
        halves: list[tuple[int, int]] = []
        kept: list[int] = []
        for block in self.blocks:
            ones = block & support
            zeros = block ^ ones
            if ones and zeros:
                halves.append((ones, zeros))
                if ones & (ones - 1):
                    kept.append(ones)
                if zeros & (zeros - 1):
                    kept.append(zeros)
            else:
                kept.append(block)
        if halves:
            self.blocks[:] = kept
        return halves

    def settle(
        self, support: int, signature: Mapping[str, Interaction]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Credit the region of a support integer and a signature with every
        requirement it settles; returns the split halves and (event, newly
        inhibited states) per partial event."""
        problem = self.problem
        halves = self.split(support)
        at = (support ^ problem.full, support)  # the states holding 0, 1
        inhibited: list[tuple[int, int]] = []
        for e, pending in enumerate(self.uncovered):
            if pending:
                bit = UNDEFINED_AT.get(signature[problem.events[e]])
                if bit is not None:
                    newly = pending & at[bit]
                    self.uncovered[e] ^= newly
                    inhibited.append((e, newly))
        return halves, inhibited

    def resign(
        self, support: int, picks: dict[str, Interaction], allowed: Sequence[int]
    ) -> None:
        """Pick in place, for the given support and its ``allowed`` masks
        per event, the inhibiting interactions: every event with pending
        inhibitions and no pick yet gets the admissible partial interaction
        that inhibits the most of its pending states (canonically first
        among equals), if one is admissible."""
        events = self.problem.events
        for e, pending in enumerate(self.uncovered):
            event = events[e]
            if not pending or event in picks:
                continue
            counts = ((pending & ~support).bit_count(), (pending & support).bit_count())
            most = 0
            for mask_bit, interaction, bit in _PARTIALS:
                if allowed[e] & mask_bit and counts[bit] > most:
                    picks[event], most = interaction, counts[bit]

    def first_pending(self) -> Optional[Atom]:
        """The canonically first pending requirement, state pairs first."""
        problem = self.problem
        if self.blocks:
            block = max(self.blocks, key=int.bit_length)
            rest = block ^ (1 << (block.bit_length() - 1))
            return StatePairAtom(
                problem.states[problem.n - block.bit_length()],
                problem.states[problem.n - rest.bit_length()],
            )
        for e, pending in enumerate(self.uncovered):
            if pending:
                return EventStateAtom(
                    problem.events[e], problem.states[problem.n - pending.bit_length()]
                )
        return None


def irredundant(
    subject: Subject, tau: NetType, regions: Sequence[Region]
) -> list[Region]:
    """``regions`` in order, less each one whose requirements the others
    kept settle too. What is kept settles every requirement ``regions``
    settles, and no kept region can be dropped without leaving one unsettled.

    Each state has a code whose bit j is its value in region j: region j
    separates nothing the others do not iff clearing bit j leaves as many
    distinct codes in each member. Region j inhibits nothing the others do
    not iff, for each event, the regions kept before j or those after j
    inhibit it at every state j does, which per-event OR masks over the kept
    and over the later regions answer. A dropped region clears its bit and
    joins neither mask, so two regions that are each redundant alone are
    never both dropped."""
    problem = _Problem(subject, tau)
    n, full = problem.n, problem.full
    enabled = problem.index.enabled_mask
    supports = [problem.support_int_of(region) for region in regions]
    # Column p of the supports' bit strings holds state p's value in each
    # region; reversed, it reads as a code whose bit j is region j.
    columns = zip(*(format(support, f"0{n}b") for support in supports))
    codes = [int("".join(column)[::-1], 2) for column in columns] or [0] * n
    # Per region, per event position, the states it inhibits the event at.
    inhibits: list[list[int]] = []
    for region, support in zip(regions, supports):
        at = (support ^ full, support)  # the states holding 0, 1
        row = []
        for e, event in enumerate(problem.events):
            bit = UNDEFINED_AT.get(region.signature[event])
            row.append(0 if bit is None else at[bit] & ~enabled[e])
        inhibits.append(row)
    # after[j]: per event, the states some region after j inhibits it at.
    after = [[0] * len(problem.events)]
    for row in inhibits[:0:-1]:
        after.append(list(map(int.__or__, after[-1], row)))
    after.reverse()
    members = [
        list(_positions(block, n)) for block in _Coverage(problem, True, False).blocks
    ]
    distinct = [len({codes[pos] for pos in member}) for member in members]
    kept: list[Region] = []
    kept_inhibit = [0] * len(problem.events)
    for j, region in enumerate(regions):
        clear = ~(1 << j)
        # Kept if it inhibits an event at a state no kept or later region does,
        # or clearing its bit merges two codes of one member.
        if any(
            mask & ~(before | later)
            for mask, before, later in zip(inhibits[j], kept_inhibit, after[j])
        ) or any(
            len({codes[pos] & clear for pos in member}) < count
            for member, count in zip(members, distinct)
        ):
            kept.append(region)
            kept_inhibit = list(map(int.__or__, kept_inhibit, inhibits[j]))
            continue
        for pos in _positions(supports[j], n):
            codes[pos] &= clear
    return kept


@dataclass(frozen=True, init=False)
class CheckResult:
    """Outcome of a separation check, with the witnessing region pool."""

    property_name: str  # "ssp" | "essp" | "feasible"
    outcome: str  # "yes" | "no" | "inconclusive"
    engine: str
    counterexample: Optional[Atom]
    regions: tuple[Region, ...]
    reason: str = ""

    def __init__(
        self, property_name, outcome, engine, counterexample, regions, reason=""
    ) -> None:
        # One dict update, not a frozen dataclass's setattr per field.
        self.__dict__.update(
            property_name=property_name, outcome=outcome, engine=engine,
            counterexample=counterexample, regions=regions, reason=reason,
        )

    @property
    def holds(self) -> bool:
        return self.outcome == "yes"

    def __bool__(self) -> bool:
        return self.holds


def _resolve_engine(engine: str, problem: _Problem, budget: Optional[float]) -> str:
    """The engine a check runs: ``auto`` sends subjects of up to
    ``_WINDOW_BITS`` states to the exhaustive engine, the others to the sat
    engine. Without a budget the exhaustive engine is refused above
    ``_EXHAUSTIVE_MAX_STATES``, where its sweep of all supports would not
    end in useful time."""
    if engine == "auto":
        return "exhaustive" if problem.n <= _WINDOW_BITS else "sat"
    too_large = problem.n > _EXHAUSTIVE_MAX_STATES
    if engine == "exhaustive" and budget is None and too_large:
        raise ValueError(
            f"the exhaustive engine would sweep all 2^{problem.n} supports; "
            f"without a budget it takes at most {_EXHAUSTIVE_MAX_STATES} states "
            "(use the sat engine or give a budget)"
        )
    if engine in ("exhaustive", "sat"):
        return engine
    raise ValueError(f"unknown engine {engine!r}")


# --------------------------------------------------------------- exhaustive

#: Support bits decided together in one big-int window. It is also the
#: ``auto`` cutoff, so every system ``auto`` sends here fits in one window.
_WINDOW_BITS = 16

#: The most states the exhaustive engine takes without a budget. Its sweep
#: doubles with each state: a "no" essp check on random three-event
#: systems took 0.04 s at 24 states, 0.2 s at 26 and 1.0 s at 28 (2-core
#: Intel Xeon, Python 3.11.7), so about 20 s at 32.
_EXHAUSTIVE_MAX_STATES = 32


@functools.cache
def _column_table(width: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The all-ones set of a ``width``-bit window and, for each support bit
    from the highest down, the pair (supports with the bit clear, supports
    with it set), each a ``2**width``-bit set over the window."""
    all_ones = (1 << (1 << width)) - 1
    columns = []
    for k in reversed(range(width)):
        run = 1 << k
        repunit = all_ones // ((1 << (2 * run)) - 1)
        ones = repunit * (((1 << run) - 1) << run)
        columns.append((all_ones ^ ones, ones))
    return all_ones, tuple(columns)


def _window_sets(
    problem: _Problem, columns: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int, int]]:
    """Per event, the sets of a window's supports at which some arc of the
    event shows the pattern 00, 01, 10 and 11; ``columns`` gives each
    state's pair (supports where it holds 0, where it holds 1)."""
    sets = []
    for arcs in problem.index.arcs_by_event:
        f00 = f01 = f10 = f11 = 0
        for src, dst in arcs:
            src0, src1 = columns[src]
            dst0, dst1 = columns[dst]
            f00 |= src0 & dst0
            f01 |= src0 & dst1
            f10 |= src1 & dst0
            f11 |= src1 & dst1
        sets.append((f00, f01, f10, f11))
    return sets


def _admissible_supports(
    problem: _Problem,
    deadline: Optional[float],
    shown: list[tuple[int, int, int, int]],
) -> Iterator[int]:
    """Every admissible support of ``problem`` in ascending order; raises
    ``ResourceExhausted`` once the deadline has passed. The list ``shown``
    holds, while a window's supports are yielded, its ``_window_sets``,
    from which ``_Problem.allowed_in_window`` reads a support's allowed
    masks.

    Supports are decided a window of ``2**w`` at a time: the low ``w``
    support bits vary inside the window and the window index fixes the
    rest. Each state's value becomes a set over the window; per event the
    arcs give the set of supports showing each (source, target) value
    pattern, and a support is admissible iff for every event some
    interaction of the type follows every pattern shown there. A subject
    of one window shows the same sets under every type, so they are kept
    in its index (``SubjectIndex.sweep_sets``).
    """
    n = problem.n
    width = min(n, _WINDOW_BITS)
    high_bits = n - width
    all_ones, low_columns = _column_table(width)
    forbidden = problem.forbidden
    emitted = 0
    for high in range(1 << high_bits):
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceExhausted("budget exhausted")
        if high_bits:
            high_columns = tuple(
                (0, all_ones) if high >> (high_bits - 1 - p) & 1 else (all_ones, 0)
                for p in range(high_bits)
            )
            sets = _window_sets(problem, high_columns + low_columns)
        else:
            sets = problem.index.sweep_sets.get(width)
            if sets is None:
                sets = problem.index.sweep_sets[width] = _window_sets(
                    problem, low_columns
                )
        shown[:] = sets
        blocked = 0
        for pattern_sets in sets:
            stuck = all_ones
            for patterns in forbidden:
                hit = 0
                for pattern in patterns:
                    hit |= pattern_sets[pattern]
                stuck &= hit
            blocked |= stuck
            if blocked == all_ones:
                break
        base = high << width
        bits = format(all_ones ^ blocked, "b")
        top = len(bits) - 1
        at = len(bits)
        while True:
            at = bits.rfind("1", 0, at)
            if at < 0:
                break
            yield base | (top - at)
            if deadline is not None:
                emitted += 1
                if not emitted % 1024 and time.monotonic() > deadline:
                    raise ResourceExhausted("budget exhausted")


def _exhaustive_check(
    problem: _Problem,
    coverage: _Coverage,
    deadline: Optional[float],
    pool: list[Region],
) -> None:
    """Full-support-sweep decision: settles ``coverage`` as far as the
    admissible regions allow, appending each region it pools to ``pool``.

    At each support the region is signed by the one rule (``resign``'s
    picks, then ``_Problem.region``'s first allowed interactions), and is
    pooled and settled if the support splits a block (its first region
    only) or ``resign`` picked an interaction. This repeats until a
    round settles nothing, so each pooled region settles something new (or
    ``EngineError`` is raised) and none repeats. The allowed masks are read
    from the sweep's window only at a support that splits a block or while
    inhibitions are pending."""
    blocks = coverage.blocks
    uncovered = coverage.uncovered
    essp = any(uncovered)
    if blocks or essp:
        shown: list[tuple[int, int, int, int]] = []
        for support in _admissible_supports(problem, deadline, shown):
            cut = blocks and coverage.split(support)
            if not cut and not essp:
                continue
            allowed = problem.allowed_in_window(shown, support)
            while True:
                picks: dict[str, Interaction] = {}
                if essp:
                    coverage.resign(support, picks, allowed)
                if not cut and not picks:
                    break
                region = problem.region(problem.bits_of(support), picks, allowed)
                pool.append(region)
                _, inhibited = coverage.settle(support, region.signature)
                if not cut and not any(newly for _, newly in inhibited):
                    raise EngineError("a pooled region settles nothing new")
                cut = False
                essp = essp and any(uncovered)
            if not blocks and not essp:
                break


# ------------------------------------------------------------ propositional


def collector_paused(func: Callable) -> Callable:
    """``func`` with the cyclic garbage collector off until it has returned
    and its frame is freed, then put back as it was (hence a decorator)."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class _SatContext:
    """Incremental CNF encoding of region admissibility for one subject and
    net type. Individual requirements are decided under assumptions, so the
    learnt-clause state carries over between queries."""

    def __init__(self, problem: _Problem) -> None:
        from .sat import SatSolver

        self.problem = problem
        n = problem.n
        # Decisions on support bits only; see the module docstring.
        self.solver = SatSolver(decision_vars=n)
        # Support bits in state name order: it sets the decision heap's tie-breaks.
        self.sup_var = [0] * n
        for var, pos in enumerate(sorted(range(n), key=problem.states.__getitem__), 1):
            self.sup_var[pos] = var
        width = len(problem.tau_list)
        # sel_var[event_pos][k] selects interaction tau_list[k] for the event
        n_events = len(problem.events)
        self.sel_var = [
            range(n + 1 + k * width, n + 1 + (k + 1) * width) for k in range(n_events)
        ]
        self.solver.ensure_vars(n + n_events * width)
        self.solver.attach(*_consistency_clauses(problem, self.sup_var, self.sel_var))
        if width == 1:  # the at-least-one clauses are units, asserted last
            for (sel,) in self.sel_var:
                self.solver.add_clause((sel,))

    def queries(
        self, atom: Atom, coverage: _Coverage
    ) -> Iterator[tuple[tuple[int, ...], dict[str, Interaction]]]:
        """The ways of settling ``atom``, in order, each as (assumptions, the
        signature entries they force): ``(a, -b)`` then ``(-a, b)`` for a
        state pair; for an inhibition, one query per partial interaction p
        of the type, with p's selector and the value p is undefined at, for
        every state the event is pending at (if two or more) and then for
        the atom's state. Before each, it hints the solver toward settling
        what ``coverage`` still has pending: 1, 0, 1, ... in position order
        inside every pending block, or every state at which the event is
        pending to the value the tried interaction is undefined at."""
        problem = self.problem
        state_pos = problem.index.state_pos
        sup_var = self.sup_var
        set_phase = self.solver.set_phase
        if isinstance(atom, StatePairAtom):
            a = sup_var[state_pos[atom.first]]
            b = sup_var[state_pos[atom.second]]
            for lits in ((a, -b), (-a, b)):
                for block in coverage.blocks:
                    for k, pos in enumerate(sorted(_positions(block, problem.n))):
                        set_phase(sup_var[pos], k % 2 == 0)
                yield lits, {}
            return
        event_pos = problem.index.event_pos[atom.event]
        groups = [[sup_var[state_pos[atom.state]]]]
        pending = coverage.uncovered[event_pos]
        if pending & (pending - 1):  # two or more pending states
            groups.insert(0, [sup_var[p] for p in _positions(pending, problem.n)])
        for sups in groups:
            for sel, interaction in zip(self.sel_var[event_pos], problem.tau_list):
                at = UNDEFINED_AT.get(interaction)
                if at is not None:
                    for pos in _positions(coverage.uncovered[event_pos], problem.n):
                        set_phase(sup_var[pos], at == 1)
                    lits = (sel, *(sup if at else -sup for sup in sups))
                    yield lits, {atom.event: interaction}

    @functools.cached_property
    def read_support(self) -> Callable[[bytes], tuple[int, ...]]:
        """The support bits of a model (``SatSolver.model_values``), in
        state position order."""
        return tuple_getter([2 * var for var in self.sup_var])

    def solve(self, lits: tuple[int, ...], deadline: Optional[float]) -> bool:
        """Whether a model satisfies the assumptions ``lits``; raises
        ``ResourceExhausted`` once the deadline has passed."""
        verdict = self.solver.solve(lits, deadline=deadline)
        if verdict is None:
            raise ResourceExhausted("budget exhausted")
        return verdict

    def block_support(self) -> None:
        """Exclude the support of the last model from future answers."""
        model = self.solver.model_value
        self.solver.add_clause([-var if model(var) else var for var in self.sup_var])

    def decode(self, forced: dict[str, Interaction], coverage: _Coverage) -> Region:
        """The region of the last model's support, signed as the exhaustive
        engine signs it: the ``forced`` entries, then ``_Coverage.resign``'s
        picks, then every other event's first allowed interaction. It is
        validated once and credited to ``coverage``."""
        problem = self.problem
        bits = bytes(self.read_support(self.solver.model_values))
        support = int(bits.translate(BIT_DIGITS), 2)
        allowed = problem.allowed_at(bits)
        picks = dict(forced)
        coverage.resign(support, picks, allowed)
        region = problem.region(bits, picks, allowed)
        coverage.settle(support, region.signature)
        return region


def _consistency_clauses(
    problem: _Problem,
    sup_var: Sequence[int],
    sel_var: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]]]:
    """CNF for 'the chosen signature is consistent with every arc', in the
    solver's internal literals (``2v`` for v, ``2v + 1`` for not v), as
    ``SatSolver.attach`` takes it: the binary clauses' literal pairs in one
    flat list, and the longer clauses, each in load order.

    For every event at least one interaction is selected. Per arc of the
    event, each arc pattern (a, b) the type's table rules out for a selected
    interaction is excluded: the interaction is not selected, or the source
    does not hold a, or the target does not hold b. The clause keeps only
    its source side when (a, not b) is ruled out too, and only its target
    side when (not a, b) is: the resolvent of the two patterns' clauses,
    which subsumes both. Each interaction's patterns are taken in ascending
    order, repeats dropped. On a self-loop source and target are one bit, so
    a tautology, a repeated literal and a repeated clause are dropped. (Arcs
    of an event that share a state repeat one-sided clauses too, but
    dropping those costs more than their repeats in the solver's binary
    lists, which change no search.) Under a type of one interaction each
    at-least-one clause is a unit, which ``attach`` does not take: both
    lists then hold arc clauses only, and the caller asserts the units.
    """
    pick_pairs, pick_loop_pairs, pick_triples = _clause_rows(problem.ruled_out)
    width = len(problem.tau_list)
    at_least_one = [[2 * sel for sel in sels] for sels in sel_var]
    pairs = [lit for clause in at_least_one for lit in clause] if width == 2 else []
    clauses = at_least_one if width > 2 else []
    triples: list[int] = []
    sup = [(2 * var, 2 * var + 1) for var in sup_var]
    for sels, arcs in zip(sel_var, problem.index.arcs_by_event):
        not_sel = tuple([2 * sel + 1 for sel in sels])
        for src, dst in arcs:
            lits = sup[src] + sup[dst] + not_sel
            if src == dst:
                pairs += pick_loop_pairs(lits)
            else:
                pairs += pick_pairs(lits)
                triples += pick_triples(lits)
    it = iter(triples)
    clauses += map(list, zip(it, it, it))
    return pairs, clauses


@functools.cache
def _clause_rows(ruled_out: tuple[tuple[int, ...], ...]) -> tuple[Callable, ...]:
    """What picks, per the rule above, the binary clauses of an arc, those
    of a self-loop and the ternary clauses of an arc, each flat, from its
    literals ``(s, not s, d, not d, not selector 0, not selector 1, ...)``,
    s and d being its source's and target's support literals."""
    rows: list[tuple[int, ...]] = []  # each clause as positions in those
    loop_rows: list[tuple[int, ...]] = []  # the rows whose sides read one bit
    for k, patterns in enumerate(ruled_out):
        for p in patterns:
            b = None if p ^ 1 in patterns else p & 1
            a = None if b is not None and p ^ 2 in patterns else p >> 1
            sides = (a,) if b is None else (2 + b,) if a is None else (a, 2 + b)
            bits = {side & 1 for side in sides}
            if len(bits) == 1 and (4 + k, *bits) not in loop_rows:
                loop_rows.append((4 + k, *bits))
            if (4 + k, *sides) not in rows:
                rows.append((4 + k, *sides))
    pairs = [pos for row in rows if len(row) == 2 for pos in row]
    loop_pairs = [pos for row in loop_rows for pos in row]
    triples = [pos for row in rows if len(row) == 3 for pos in row]
    return tuple_getter(pairs), tuple_getter(loop_pairs), tuple_getter(triples)


@collector_paused
def _sat_check(
    problem: _Problem,
    coverage: _Coverage,
    deadline: Optional[float],
    pool: list[Region],
) -> None:
    """Query-driven decision via incremental SAT: asks for a region settling
    the first pending requirement until none is left or one is unsettleable,
    appending each to ``pool``; each query is steered toward settling the
    other pending ones as well. Each region settles a requirement that no
    earlier one settles, so no region is pooled twice; one that leaves its
    query pending raises ``EngineError``."""
    ctx = _SatContext(problem)
    atom = coverage.first_pending()
    while atom is not None:
        for lits, forced in ctx.queries(atom, coverage):
            if ctx.solve(lits, deadline):
                pool.append(ctx.decode(forced, coverage))
                break
        else:
            break  # no region settles ``atom``: it is the counterexample
        # Requirements only leave the pending set: ``atom`` is first iff pending.
        queried, atom = atom, coverage.first_pending()
        if atom == queried:
            raise EngineError("a decoded region leaves its query pending")


#: The engines by name. Each settles a coverage as far as it can before a
#: deadline, appending the regions it pools to a list its caller owns.
_ENGINES = {"exhaustive": _exhaustive_check, "sat": _sat_check}


# ------------------------------------------------------------------- public


def _run_check(
    subject: Subject,
    tau: NetType,
    property_name: str,
    engine: str,
    budget: Optional[float],
) -> CheckResult:
    """The one place a spent budget ends in a verdict: "inconclusive", with
    the regions pooled so far."""
    problem = _Problem(subject, tau)
    coverage = _Coverage.of_property(problem, property_name)
    engine_name = _resolve_engine(engine, problem, budget)
    pool: list[Region] = []
    try:
        _ENGINES[engine_name](problem, coverage, _deadline_from_budget(budget), pool)
    except ResourceExhausted:
        outcome, counterexample = "inconclusive", None
        reason = "budget exhausted before a verdict"
    else:
        counterexample = coverage.first_pending()
        outcome, reason = "yes" if counterexample is None else "no", ""
    return CheckResult(
        property_name, outcome, engine_name, counterexample, tuple(pool), reason
    )


def check_ssp(
    subject: Subject,
    tau: NetType,
    *,
    engine: str = "auto",
    budget: Optional[float] = None,
) -> CheckResult:
    """Decide whether every pair of distinct states is separated."""
    return _run_check(subject, tau, "ssp", engine, budget)


def check_essp(
    subject: Subject,
    tau: NetType,
    *,
    engine: str = "auto",
    budget: Optional[float] = None,
) -> CheckResult:
    """Decide whether every non-occurring event/state pair is inhibited."""
    return _run_check(subject, tau, "essp", engine, budget)


def check_feasibility(
    subject: Subject,
    tau: NetType,
    *,
    engine: str = "auto",
    budget: Optional[float] = None,
) -> CheckResult:
    """Decide both separation properties (feasibility of synthesis)."""
    return _run_check(subject, tau, "feasible", engine, budget)


def solve_atom(
    subject: Subject,
    tau: NetType,
    atom: Atom,
    *,
    engine: str = "auto",
    budget: Optional[float] = None,
) -> Optional[Region]:
    """Find one admissible region settling the given requirement, or None
    if no such region exists. Raises ResourceExhausted on budget expiry."""
    problem = _Problem(subject, tau)
    coverage = _Coverage.of_atom(problem, atom)
    engine_name = _resolve_engine(engine, problem, budget)
    pool: list[Region] = []
    _ENGINES[engine_name](problem, coverage, _deadline_from_budget(budget), pool)
    return pool[0] if pool else None


@collector_paused
def enumerate_inhibiting_regions(
    subject: Subject,
    tau: NetType,
    event: str,
    state: str,
    *,
    limit: Optional[int] = None,
    engine: str = "auto",
    budget: Optional[float] = None,
) -> list[Region]:
    """Support-distinct regions inhibiting ``event`` at ``state``.

    The exhaustive engine yields them in ascending support order; the
    propositional engine in solver order (one per support, excluded via
    blocking clauses). The propositional engine requires ``limit``.
    """
    problem = _Problem(subject, tau)
    engine_name = _resolve_engine(engine, problem, budget)
    deadline = _deadline_from_budget(budget)
    atom = EventStateAtom(event, state)
    coverage = _Coverage.of_atom(problem, atom)
    if limit is not None and limit <= 0:
        return []
    found: list[Region] = []
    if engine_name == "exhaustive":
        shown: list[tuple[int, int, int, int]] = []
        for support in _admissible_supports(problem, deadline, shown):
            allowed = problem.allowed_in_window(shown, support)
            picks: dict[str, Interaction] = {}
            coverage.resign(support, picks, allowed)
            if picks:
                found.append(problem.region(problem.bits_of(support), picks, allowed))
                if len(found) == limit:
                    break
        return found
    if limit is None:
        raise ValueError(
            "the propositional engine needs an explicit limit for enumeration"
        )
    ctx = _SatContext(problem)
    for lits, forced in ctx.queries(atom, coverage):
        while len(found) < limit and ctx.solve(lits, deadline):
            found.append(ctx.decode(forced, coverage))
            ctx.block_support()
        if len(found) >= limit:
            break
    return found


def assign_witnesses(
    subject: Subject,
    tau: NetType,
    regions: Sequence[Region],
    property_name: str = "feasible",
) -> list[tuple[Region, list[tuple[int, int]], list[tuple[int, int]]]]:
    """What each region of ``regions`` settles first among the requirements
    of ``property_name`` (``ssp``, ``essp`` or ``feasible``, as a check
    names them), replayed through the checkers' coverage tracker, as rows
    of masks over the subject's state positions.

    One entry per region that settles a requirement no earlier region
    settles: the region, its state pair rows ``(i, the states j > i it
    separates from state i)`` ascending in i, and its inhibition rows
    ``(e, the states it inhibits event e at)`` ascending in e. Entries follow
    the canonical order of their first requirement, state pairs first, so
    each requirement appears once, under the first region that settles it;
    requirements no region settles are omitted (the failing or inconclusive
    case). ``fileformats.format_witnesses`` writes the entries as text.
    """
    problem = _Problem(subject, tau)
    n = problem.n
    coverage = _Coverage.of_property(problem, property_name)
    keyed = []
    for region in regions:
        support = problem.support_int_of(region)
        halves, inhibited = coverage.settle(support, region.signature)
        pair_rows = []
        for ones, zeros in halves:
            for i in _positions(ones | zeros, n):
                bit = 1 << (n - 1 - i)
                partners = (zeros if ones & bit else ones) & (bit - 1)
                if partners:
                    pair_rows.append((i, partners))
        pair_rows.sort()
        inhibition_rows = [(e, newly) for e, newly in inhibited if newly]
        if pair_rows:
            i, partners = pair_rows[0]
            key = (0, i, n - partners.bit_length())
        elif inhibition_rows:
            e, newly = inhibition_rows[0]
            key = (1, e, n - newly.bit_length())
        else:
            continue
        keyed.append((key, region, pair_rows, inhibition_rows))
    keyed.sort(key=lambda entry: entry[0])
    return [entry[1:] for entry in keyed]


def _positions(mask: int, n: int) -> Iterator[int]:
    """The state positions whose bits are set in ``mask``."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield n - low.bit_length()


def first_unsettled(
    subject: Subject, tau: NetType, regions: Sequence[Region]
) -> Optional[Atom]:
    """The canonically first requirement (state pairs first) that none of
    ``regions`` settles, or None when they settle every requirement."""
    problem = _Problem(subject, tau)
    coverage = _Coverage(problem, True, True)
    for region in regions:
        coverage.settle(problem.support_int_of(region), region.signature)
    return coverage.first_pending()
