"""Interaction table, complementation and net types."""

from __future__ import annotations

import pytest

from boolsynth import (
    COMPLEMENT_MAP,
    INTERACTION_ORDER,
    UNDEFINED_AT,
    Interaction,
    NetType,
    all_net_types,
    iter_type,
    parse_interaction,
    require_usable,
)

# The full effect table: interaction -> (image of 0, image of 1).
EFFECT_TABLE = {
    Interaction.NOP: (0, 1),
    Interaction.INP: (None, 0),
    Interaction.OUT: (1, None),
    Interaction.SET: (1, 1),
    Interaction.RES: (0, 0),
    Interaction.SWAP: (1, 0),
    Interaction.USED: (None, 1),
    Interaction.FREE: (0, None),
}


class TestEffectTable:
    def test_exactly_eight_interactions(self):
        assert len(list(Interaction)) == 8
        assert set(EFFECT_TABLE) == set(Interaction)

    @pytest.mark.parametrize("interaction", list(Interaction))
    def test_effect_matches_table(self, interaction):
        assert interaction.effect == EFFECT_TABLE[interaction]

    @pytest.mark.parametrize("interaction", list(Interaction))
    @pytest.mark.parametrize("tokens", [0, 1])
    def test_apply_agrees_with_effect(self, interaction, tokens):
        assert interaction.apply(tokens) == EFFECT_TABLE[interaction][tokens]

    def test_apply_takes_only_a_token_count(self):
        with pytest.raises(ValueError, match="token count must be 0 or 1, got 2"):
            Interaction.NOP.apply(2)

    def test_canonical_order(self):
        assert [i.value for i in INTERACTION_ORDER] == [
            "nop",
            "inp",
            "out",
            "set",
            "res",
            "swap",
            "used",
            "free",
        ]

    def test_partial_interactions_are_those_with_a_hole(self):
        partial = {i for i in Interaction if i.is_partial}
        assert partial == {
            Interaction.INP,
            Interaction.OUT,
            Interaction.USED,
            Interaction.FREE,
        }

    def test_undefined_at_buckets(self):
        assert UNDEFINED_AT == {
            Interaction.INP: 0,
            Interaction.OUT: 1,
            Interaction.USED: 0,
            Interaction.FREE: 1,
        }
        assert list(UNDEFINED_AT) == [i for i in INTERACTION_ORDER if i.is_partial]
        for bit in (0, 1):
            for i in Interaction:
                assert (i.effect[bit] is None) == (UNDEFINED_AT.get(i) == bit)


class TestComplement:
    def test_expected_pairs(self):
        cm = COMPLEMENT_MAP
        assert cm[Interaction.NOP] is Interaction.NOP
        assert cm[Interaction.SWAP] is Interaction.SWAP
        assert cm[Interaction.INP] is Interaction.OUT
        assert cm[Interaction.SET] is Interaction.RES
        assert cm[Interaction.USED] is Interaction.FREE

    def test_involution(self):
        for i in Interaction:
            assert COMPLEMENT_MAP[COMPLEMENT_MAP[i]] is i

    @pytest.mark.parametrize("interaction", list(Interaction))
    def test_complement_conjugates_the_effect(self, interaction):
        """flipping tokens before and after recovers the complement."""
        twin = COMPLEMENT_MAP[interaction]
        for tokens in (0, 1):
            out = interaction.apply(tokens)
            expected = None if out is None else 1 - out
            assert twin.apply(1 - tokens) == expected


class TestParsing:
    @pytest.mark.parametrize("interaction", list(Interaction))
    def test_round_trip(self, interaction):
        assert parse_interaction(interaction.value) is interaction
        token = interaction.value
        spellings = (token.upper(), token.title(), f" {token}\t", f"\t{token.upper()} ")
        for spelling in spellings:
            assert parse_interaction(spelling) is interaction

    def test_whitespace_and_case_tolerated(self):
        assert parse_interaction(" Swap ") is Interaction.SWAP
        assert parse_interaction("sWaP") is Interaction.SWAP

    def test_repr_is_the_token(self):
        assert repr(Interaction.OUT) == "out"
        assert f"{[Interaction.NOP, Interaction.FREE]}" == "[nop, free]"

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError):
            parse_interaction("sett")
        for token in ("sett", " Sett ", "", "swap,nop"):
            with pytest.raises(ValueError) as caught:
                parse_interaction(token)
            assert str(caught.value) == f"unknown interaction {token!r}"


class TestNetType:
    @pytest.mark.parametrize("text", ["", " , "])
    def test_from_spec_rejects_an_empty_spec(self, text):
        with pytest.raises(ValueError, match="empty net-type spec"):
            NetType.from_spec(text)

    def test_from_spec_round_trip(self):
        tau = NetType.from_spec("nop, set , swap,free")
        assert tau.spec() == "nop,set,swap,free"
        assert NetType.from_spec(tau.spec()) == tau

    def test_spec_uses_canonical_order(self):
        tau = NetType.from_spec("free,nop,swap,set")
        assert tau.spec() == "nop,set,swap,free"

    def test_membership_and_iteration(self):
        tau = NetType.of(Interaction.NOP, Interaction.INP)
        assert Interaction.NOP in tau
        assert Interaction.SET not in tau
        assert list(tau) == [Interaction.NOP, Interaction.INP]
        assert len(tau) == 2

    def test_256_types_including_empty(self):
        assert len(set(all_net_types()) | {NetType(frozenset())}) == 256
        assert len(set(all_net_types())) == 255
        assert all(not t.is_empty for t in all_net_types())

    def test_require_usable_rejects_only_the_empty_type(self):
        with pytest.raises(ValueError):
            require_usable(NetType(frozenset()))
        require_usable(NetType.of(Interaction.NOP))  # no exception

    def test_complement_is_an_involution_on_types(self):
        for tau in [NetType(frozenset()), *all_net_types()]:
            assert tau.complement().complement() == tau

    def test_iter_type_orders_canonically(self):
        tau = NetType.of(Interaction.FREE, Interaction.NOP, Interaction.RES)
        assert iter_type(tau) == (
            Interaction.NOP,
            Interaction.RES,
            Interaction.FREE,
        )
