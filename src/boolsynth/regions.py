"""Regions of transition systems: supports, signatures, and their checks.

A region assigns every state a bit (the support) and every event an
interaction (the signature) so that each arc ``s --e--> s'`` satisfies
``signature(e)(support(s)) == support(s')``. Regions are the witnesses for
both kinds of separation question and become the places of synthesized nets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NoReturn, Sequence

from .interactions import Interaction, NetType
from .ts import Subject


class RegionDomainError(ValueError):
    """The support/signature domains do not match the transition system."""


@dataclass(frozen=True, eq=True)
class Region:
    """A support (state -> bit) plus a signature (event -> interaction)."""

    support: Mapping[str, int]
    signature: Mapping[str, Interaction]

    def separates(self, first: str, second: str) -> bool:
        """True if the two states get different support bits."""
        return self.support[first] != self.support[second]

    def inhibits(self, event: str, state: str) -> bool:
        """True if the event's interaction is undefined at the state's bit."""
        return self.signature[event].apply(self.support[state]) is None

    def support_set(self) -> frozenset[str]:
        return frozenset(s for s, bit in self.support.items() if bit)

    def key(self) -> tuple[tuple[str, int], ...]:
        """The order and identity of regions (support, then signature) that
        ``nets._region_order`` reproduces and the tests compare against."""
        sup = tuple(sorted(self.support.items()))
        sig = tuple(sorted((e, i.value) for e, i in self.signature.items()))
        return sup + sig


class Family(enum.Enum):
    """The two families of net types targeted by the hardness generator.

    ``FREE`` is the single type {nop, set, swap, free}; ``USED`` is the four
    supersets of {nop, set, swap, used} inside {nop, set, swap, used, res,
    free}. Every family member contains nop, set and swap; they differ in
    which partial interactions are available for inhibition.
    """

    FREE = "free"
    USED = "used"

    @property
    def base_type(self) -> NetType:
        if self is Family.FREE:
            return NetType.of(
                Interaction.NOP, Interaction.SET, Interaction.SWAP, Interaction.FREE
            )
        return NetType.of(
            Interaction.NOP, Interaction.SET, Interaction.SWAP, Interaction.USED
        )

    def types(self) -> tuple[NetType, ...]:
        """All member types of the family, in a fixed order."""
        if self is Family.FREE:
            return (self.base_type,)
        base = self.base_type.interactions
        extras = (
            frozenset(),
            frozenset({Interaction.RES}),
            frozenset({Interaction.FREE}),
            frozenset({Interaction.RES, Interaction.FREE}),
        )
        return tuple(NetType(base | extra) for extra in extras)


def family_types() -> tuple[NetType, ...]:
    """All five types covered by the two families, FREE first."""
    return Family.FREE.types() + Family.USED.types()


def parse_family(token: str) -> Family:
    try:
        return Family(token.strip().lower())
    except ValueError:
        raise ValueError(f"unknown family {token!r}; expected free or used") from None


def _check_keys(
    name: str, kind: str, items: Sequence[str], mapping: Mapping
) -> None:
    """Raise unless the keys of ``mapping`` are exactly ``items``."""
    extra = mapping.keys() - items
    # fewer keys inside the domain than items: some item lacks a key (a
    # subject lists each item once, which its construction checks)
    if len(mapping) - len(extra) < len(items):
        missing = [x for x in items if x not in mapping]
        raise RegionDomainError(f"{name} misses {kind} {missing[:5]}")
    if extra:
        raise RegionDomainError(f"{name} names unknown {kind} {sorted(extra)[:5]}")


def _check_domains(subject: Subject, tau: NetType, region: Region) -> NoReturn:
    """Raise the RegionDomainError that names how the region's domains fail."""
    support, signature = region.support, region.signature
    _check_keys("support", "states", subject.states, support)
    for state in subject.states:
        if not isinstance(support[state], int) or support[state] not in (0, 1):
            raise RegionDomainError(f"support of {state!r} is not a bit")
    _check_keys("signature", "events", subject.events, signature)
    outside = [
        e for e in subject.events
        if not isinstance(signature[e], Interaction) or signature[e] not in tau
    ]
    raise RegionDomainError(
        f"signature uses interactions outside the net type on {outside[:5]}"
    )


#: Per interaction, the codes of its images of 0 and 1: the image itself,
#: or 2 where it is undefined.
_IMAGE_CODES = {
    i: tuple(2 if image is None else image for image in i.effect) for i in Interaction
}


def validate_region(subject: Subject, tau: NetType, region: Region) -> bool:
    """True iff the region is valid on every arc of the subject.

    Domain mismatches (missing/extra states or events, signature values not
    in ``tau``) raise :class:`RegionDomainError` instead of returning False.

    The support is read once in state order and gathered per arc
    (``SubjectIndex.arc_values``). From its ``effect``, each interaction of
    the signature marks the arcs whose target contradicts it, and the
    region is valid iff no event has an arc marked by its interaction.
    """
    index = subject.index
    support, signature = region.support, region.signature
    try:
        bits = bytes(map(support.__getitem__, subject.states))
        sig = list(map(signature.__getitem__, subject.events))
        if (
            len(support) != len(index.state_pos)
            or len(signature) != len(index.event_pos)
            or bits.translate(None, b"\0\1")
            or not tau.interactions.issuperset(sig)
        ):
            raise ValueError("the region's domains do not match")
    except (KeyError, TypeError, ValueError):
        _check_domains(subject, tau, region)
    src, dst = index.arc_values(bits)
    full = (1 << index.arc_count) - 1
    zeros = full ^ src
    # Per image code, the arcs whose target contradicts that image.
    wrong = (dst, full ^ dst, full)
    marked: dict[Interaction, int] = {}  # per interaction, the arcs it cannot follow
    for slot, interaction in zip(index.arc_slots, sig):
        bad = marked.get(interaction)
        if bad is None:
            on0, on1 = _IMAGE_CODES[interaction]
            bad = marked[interaction] = zeros & wrong[on0] | src & wrong[on1]
        if slot & bad:
            return False
    return True
