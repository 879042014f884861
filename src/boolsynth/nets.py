"""Boolean Petri nets: firing semantics, reachability graphs, region-based
synthesis, and isomorphism checking between transition systems.

A net's behavior lives entirely in its flow map: each (place, transition)
pair carries one interaction, and a transition fires in a marking exactly
when every place's interaction is defined on that place's current bit.
Reachability exploration encodes markings as integers (one bit per place,
first place = most significant) so successor computation is a handful of
mask operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional

from .interactions import Interaction, NetType, require_usable
from .regions import Region, validate_region
from .solving import Atom, first_unsettled, irredundant
from .ts import Arc, TransitionSystem


class SynthesisError(ValueError):
    """A witness set leaves some separation requirement unsolved."""

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        super().__init__(f"witness set leaves unsolved: {atom}")


@dataclass(frozen=True)
class BooleanNet:
    """A net over a boolean type: places, transitions, a total flow map
    (place, transition) -> interaction, and an initial marking."""

    net_type: NetType
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    flow: Mapping[tuple[str, str], Interaction]
    initial_marking: Mapping[str, int]
    name: str = ""

    def __post_init__(self) -> None:
        if len(set(self.places)) != len(self.places):
            raise ValueError("duplicate place names")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition names")
        allowed = self.net_type.interactions
        for place in self.places:
            bit = self.initial_marking.get(place)
            if bit not in (0, 1):
                raise ValueError(
                    f"initial marking must give place {place!r} a 0/1 value"
                )
            for transition in self.transitions:
                interaction = self.flow.get((place, transition))
                if interaction is None:
                    raise ValueError(
                        f"flow is not total: missing ({place!r}, {transition!r})"
                    )
                if interaction not in allowed:
                    raise ValueError(
                        f"flow({place!r}, {transition!r}) = {interaction.value} "
                        f"is outside the net type {self.net_type.spec()}"
                    )
        if len(self.flow) != len(self.places) * len(self.transitions):
            raise ValueError("flow map has entries outside places x transitions")
        if len(self.initial_marking) != len(self.places):
            raise ValueError("initial marking has entries outside places")


def fire(
    net: BooleanNet, marking: Mapping[str, int], transition: str
) -> Optional[Dict[str, int]]:
    """The successor marking, or None when some place blocks the firing."""
    if transition not in net.transitions:
        raise ValueError(f"unknown transition {transition!r}")
    if set(marking) != set(net.places):
        raise ValueError("marking is not total over the net's places")
    successor: Dict[str, int] = {}
    for place in net.places:
        bit = marking[place]
        if bit not in (0, 1):
            raise ValueError(f"marking of place {place!r} must be 0 or 1")
        image = net.flow[(place, transition)].apply(bit)
        if image is None:
            return None
        successor[place] = image
    return successor


def _compile(net: BooleanNet) -> tuple[int, list[tuple[str, int, int, int, int]]]:
    """The initial marking as an int (first place = most significant bit)
    and, per transition, four place masks read off each place's
    ``Interaction.effect``: where it is undefined at 0, where it is undefined
    at 1, where it maps 0 to 1, and where it maps 1 to 1."""
    start = 0
    columns = {t: [0, 0, 0, 0] for t in net.transitions}
    for k, place in enumerate(reversed(net.places)):
        bit = 1 << k
        if net.initial_marking[place]:
            start |= bit
        for transition, masks in columns.items():
            for a, image in enumerate(net.flow[(place, transition)].effect):
                if image is None:
                    masks[a] |= bit
                elif image:
                    masks[2 + a] |= bit
    return start, [(t, *masks) for t, masks in columns.items()]


def _marking_name(marking: int, width: int) -> str:
    return "m" + format(marking, f"0{width}b") if width else "m"


def reachability_graph(net: BooleanNet) -> TransitionSystem:
    """Breadth-first exploration of all markings reachable from the initial
    one. States are named by the marking's bit vector over the place order;
    the event set keeps only transitions that fire at least once."""
    width = len(net.places)
    start, columns = _compile(net)
    names = {start: _marking_name(start, width)}  # in BFS order
    queue = [start]
    arcs: list[Arc] = []
    fired: dict[str, None] = {}
    head = 0
    while head < len(queue):
        marking = queue[head]
        head += 1
        source = names[marking]
        for transition, undef_0, undef_1, one_from_0, one_from_1 in columns:
            if ~marking & undef_0 or marking & undef_1:
                continue
            successor = marking & one_from_1 | ~marking & one_from_0
            fired.setdefault(transition, None)
            target = names.get(successor)
            if target is None:
                target = names[successor] = _marking_name(successor, width)
                queue.append(successor)
            arcs.append(Arc(source, transition, target))
    return TransitionSystem(
        initial=names[start],
        arcs=tuple(arcs),
        states=tuple(names.values()),
        events=tuple(fired),
        name=net.name,
    )


#: Per interaction, its rank in the order of the ``value`` strings, which
#: ``Region.key`` compares.
_VALUE_RANK = {
    i: rank for rank, i in enumerate(sorted(Interaction, key=lambda i: i.value))
}


def _region_order(subject: TransitionSystem) -> Callable[[Region], bytes]:
    """A key for the regions of ``subject`` that orders and identifies them
    as ``Region.key()`` does: the support bits in sorted state order, then
    the rank of each interaction's value in sorted event order, one byte
    each. Every region must map exactly the subject's states and events."""
    states = sorted(subject.states)
    events = sorted(subject.events)

    def key(region: Region) -> bytes:
        sig = map(region.signature.__getitem__, events)
        return bytes(map(region.support.__getitem__, states)) + bytes(
            map(_VALUE_RANK.__getitem__, sig)
        )

    return key


def synthesize(
    subject: TransitionSystem,
    tau: NetType,
    witnesses: Iterable[Region],
) -> BooleanNet:
    """Build a net from admissible regions: one place per region of an
    irredundant subset, flow = the region's signature, initial marking =
    the region's value at the initial state.

    The witness set must jointly settle every state-separation and
    event-inhibition requirement of ``subject`` (raises
    :class:`SynthesisError` naming the first unsolved one otherwise). The
    witnesses are then tried in sorted key order (:func:`_region_order`),
    and each one whose requirements the others kept settle too is dropped
    (:func:`~boolsynth.solving.irredundant`), so no place can be removed and
    of two equal witnesses only the later one stays.
    """
    require_usable(tau)
    regions = list(witnesses)
    for region in regions:
        if not validate_region(subject, tau, region):
            raise ValueError("witness is not an admissible region of the input")
    regions.sort(key=_region_order(subject))
    unsettled = first_unsettled(subject, tau, regions)
    if unsettled is not None:
        raise SynthesisError(unsettled)
    regions = irredundant(subject, tau, regions)
    places = tuple(f"p{k}" for k in range(len(regions)))
    flow = {
        (place, event): region.signature[event]
        for place, region in zip(places, regions)
        for event in subject.events
    }
    marking = {
        place: region.support[subject.initial]
        for place, region in zip(places, regions)
    }
    return BooleanNet(
        net_type=tau,
        places=places,
        transitions=tuple(subject.events),
        flow=flow,
        initial_marking=marking,
        name=subject.name,
    )


def is_isomorphic(
    a: TransitionSystem, b: TransitionSystem
) -> Optional[Dict[str, str]]:
    """The unique label-preserving, initial-preserving state bijection
    between two deterministic systems, or None if there is none.

    Determinism pins the candidate map down: the initial states must
    correspond, and matching arcs propagate the correspondence. The
    traversal fails fast on any mismatch of enabled labels and finally
    demands the map be a bijection on the full state sets.
    """
    if len(a.states) != len(b.states):
        return None
    if set(a.events) != set(b.events):
        return None
    mapping: Dict[str, str] = {a.initial: b.initial}
    image = {b.initial}
    queue = [a.initial]
    head = 0
    while head < len(queue):
        state_a = queue[head]
        head += 1
        state_b = mapping[state_a]
        succ_a = a.successors[state_a]
        succ_b = b.successors[state_b]
        if succ_a.keys() != succ_b.keys():
            return None
        for event, target_a in succ_a.items():
            target_b = succ_b[event]
            known = mapping.get(target_a)
            if known is not None:
                if known != target_b:
                    return None
                continue
            if target_b in image:
                return None
            mapping[target_a] = target_b
            image.add(target_b)
            queue.append(target_a)
    if len(mapping) != len(a.states):
        return None  # unreachable states cannot be matched up
    return mapping
