"""Boolean place/transition interactions and net types.

An interaction is a partial map {0,1} -> {0,1} describing how firing a
transition changes (or constrains) the token count of a boolean place. A net
type is the set of interactions a net is allowed to use on its flow arcs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class Interaction(enum.Enum):
    """One of the eight partial maps {0,1} -> {0,1}."""

    NOP = "nop"
    INP = "inp"
    OUT = "out"
    SET = "set"
    RES = "res"
    SWAP = "swap"
    USED = "used"
    FREE = "free"

    # Members are singletons compared by identity; hashing them by identity
    # in C spares the hot dict and set lookups Enum's Python-level __hash__.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # keep solver/witness dumps compact
        return self.value

    @property
    def effect(self) -> tuple[Optional[int], Optional[int]]:
        """(image of 0, image of 1); None where the map is undefined."""
        return _EFFECT[self]

    def apply(self, tokens: int) -> Optional[int]:
        """Apply to a token count (0 or 1). None if undefined there."""
        if tokens not in (0, 1):
            raise ValueError(f"token count must be 0 or 1, got {tokens!r}")
        return _EFFECT[self][tokens]

    @property
    def is_partial(self) -> bool:
        on0, on1 = _EFFECT[self]
        return on0 is None or on1 is None


_EFFECT: dict[Interaction, tuple[Optional[int], Optional[int]]] = {
    Interaction.NOP: (0, 1),
    Interaction.INP: (None, 0),
    Interaction.OUT: (1, None),
    Interaction.SET: (1, 1),
    Interaction.RES: (0, 0),
    Interaction.SWAP: (1, 0),
    Interaction.USED: (None, 1),
    Interaction.FREE: (0, None),
}

#: Fixed enumeration order used everywhere a canonical order is needed.
INTERACTION_ORDER: tuple[Interaction, ...] = tuple(Interaction)

#: The token value each partial interaction is undefined at, in canonical
#: order; a total interaction is not a key.
UNDEFINED_AT: dict[Interaction, int] = {
    i: 0 if _EFFECT[i][0] is None else 1 for i in INTERACTION_ORDER if i.is_partial
}

#: The token-complement conjugation: renaming 0 <-> 1 turns each interaction
#: into its mirror partner and fixes nop and swap.
COMPLEMENT_MAP: dict[Interaction, Interaction] = {
    Interaction.NOP: Interaction.NOP,
    Interaction.SWAP: Interaction.SWAP,
    Interaction.INP: Interaction.OUT,
    Interaction.OUT: Interaction.INP,
    Interaction.SET: Interaction.RES,
    Interaction.RES: Interaction.SET,
    Interaction.USED: Interaction.FREE,
    Interaction.FREE: Interaction.USED,
}


def parse_interaction(token: str) -> Interaction:
    try:
        return Interaction(token.strip().lower())
    except ValueError:
        raise ValueError(f"unknown interaction {token!r}") from None


@dataclass(frozen=True)
class NetType:
    """A set of interactions; the 'alphabet' available to a boolean net.

    The empty type is constructible (so it can be reported on) but every
    decision procedure rejects it.
    """

    interactions: frozenset[Interaction]

    @classmethod
    def of(cls, *interactions: Interaction) -> "NetType":
        return cls(frozenset(interactions))

    @classmethod
    def from_spec(cls, text: str) -> "NetType":
        """Parse a comma-separated list such as ``"nop,set,swap,free"``."""
        tokens = [t for t in (piece.strip() for piece in text.split(",")) if t]
        if not tokens:
            raise ValueError(f"empty net-type spec {text!r}")
        seen: set[Interaction] = set()
        for token in tokens:
            seen.add(parse_interaction(token))
        return cls(frozenset(seen))

    def spec(self) -> str:
        """Canonical comma-separated rendering."""
        return ",".join(i.value for i in self)

    def complement(self) -> "NetType":
        """The image under the token-complement conjugation."""
        return NetType(frozenset(COMPLEMENT_MAP[i] for i in self.interactions))

    @property
    def is_empty(self) -> bool:
        return not self.interactions

    def __contains__(self, interaction: Interaction) -> bool:
        return interaction in self.interactions

    def __iter__(self) -> Iterator[Interaction]:
        return iter(i for i in INTERACTION_ORDER if i in self.interactions)

    def __len__(self) -> int:
        return len(self.interactions)

    def __str__(self) -> str:
        return "{" + self.spec() + "}"


def all_net_types(include_empty: bool = False) -> Iterator[NetType]:
    """All 256 net types (or 255 nonempty ones) in a fixed order."""
    n = len(INTERACTION_ORDER)
    for bits in range(0 if include_empty else 1, 1 << n):
        members = [INTERACTION_ORDER[k] for k in range(n) if bits >> k & 1]
        yield NetType(frozenset(members))


def require_usable(tau: NetType) -> None:
    """Reject the empty net type (no decision is meaningful over it)."""
    if tau.is_empty:
        raise ValueError("the empty net type admits no regions and no nets")


def iter_type(tau: NetType | Iterable[Interaction]) -> tuple[Interaction, ...]:
    """The interactions of ``tau`` in canonical order."""
    members = set(tau) if not isinstance(tau, NetType) else tau.interactions
    return tuple(i for i in INTERACTION_ORDER if i in members)
