"""Regions, admissibility checking and the generator families."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    COMPLEMENT_MAP,
    Family,
    Interaction,
    NetType,
    Region,
    RegionDomainError,
    TransitionSystem,
    family_types,
    parse_family,
    validate_region,
)
from conftest import TAU, TAU_TILDE, random_ts, subjects

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def region_of(ts, support_states, event_interactions) -> Region:
    support = {s: (1 if s in support_states else 0) for s in ts.states}
    signature = {e: event_interactions[e] for e in ts.events}
    return Region(support, signature)


class TestRegionBasics:
    def test_separates_and_support_set(self, battery):
        region = region_of(battery["a1"], {"s0", "s2"}, {"a": Interaction.SWAP})
        assert region.separates("s0", "s1")
        assert not region.separates("s0", "s2")
        assert region.support_set() == {"s0", "s2"}

    def test_inhibits_follows_the_undefined_bit(self, battery):
        region = region_of(battery["a2"], {"s0"}, {"a": Interaction.FREE})
        # free is undefined at 1, so only supported states are inhibited
        assert region.inhibits("a", "s0")
        assert not region.inhibits("a", "s1")

    def test_key_identifies_equal_content(self, battery):
        a = region_of(battery["a2"], {"s0"}, {"a": Interaction.INP})
        b = Region(
            {"s2": 0, "s1": 0, "s0": 1}, {"a": Interaction.INP}
        )
        assert a.key() == b.key()


class TestCanonicalRegionsOfTheTwoCycleExample:
    """The three admissible regions witnessing feasibility of a1 under
    {nop,set,swap,free}, and their images under complementation."""

    CASES = [
        ({"s0", "s2"}, Interaction.SWAP),
        ({"s1", "s2"}, Interaction.SET),
        (set(), Interaction.FREE),
    ]

    @pytest.mark.parametrize("support,interaction", CASES)
    def test_valid_under_tau(self, battery, support, interaction):
        region = region_of(battery["a1"], support, {"a": interaction})
        assert validate_region(battery["a1"], TAU, region)

    @pytest.mark.parametrize("support,interaction", CASES)
    def test_complement_image_valid_under_complement_type(
        self, battery, support, interaction
    ):
        ts = battery["a1"]
        flipped = {s: (0 if s in support else 1) for s in ts.states}
        region = Region(flipped, {"a": COMPLEMENT_MAP[interaction]})
        assert validate_region(ts, TAU_TILDE, region)

    def test_the_three_regions_settle_every_separation_question(self, battery):
        regions = [
            region_of(battery["a1"], sup, {"a": i}) for sup, i in self.CASES
        ]
        swap_r, set_r, free_r = regions
        assert swap_r.separates("s0", "s1") and swap_r.separates("s1", "s2")
        assert set_r.separates("s0", "s1") and set_r.separates("s0", "s2")
        # a is enabled everywhere, so no inhibition is ever needed
        assert not any(r.inhibits("a", s) for r in regions for s in "s0 s1 s2".split())


class TestValidateRegion:
    def test_bad_arc_image_fails(self, battery):
        region = region_of(battery["a1"], {"s0"}, {"a": Interaction.NOP})
        assert not validate_region(battery["a1"], TAU, region)

    def test_signature_outside_type_raises(self, battery):
        region = region_of(battery["a1"], {"s0", "s2"}, {"a": Interaction.SWAP})
        narrow = NetType.from_spec("nop,set,free")
        with pytest.raises(RegionDomainError, match=r"outside the net type on \['a'\]"):
            validate_region(battery["a1"], narrow, region)

    def test_missing_state_raises(self, battery):
        region = Region({"s0": 1, "s1": 0}, {"a": Interaction.SWAP})
        with pytest.raises(RegionDomainError, match=r"support misses states \['s2'\]"):
            validate_region(battery["a1"], TAU, region)
        extra = Region({"s0": 0, "s1": 0, "s2": 0, "s9": 0}, {"a": Interaction.NOP})
        with pytest.raises(
            RegionDomainError, match=r"support names unknown states \['s9'\]"
        ):
            validate_region(battery["a1"], TAU, extra)
        not_bit = Region({"s0": 0, "s1": 2, "s2": 0}, {"a": Interaction.NOP})
        with pytest.raises(RegionDomainError, match="support of 's1' is not a bit"):
            validate_region(battery["a1"], TAU, not_bit)

    def test_missing_event_raises(self, battery):
        region = Region(
            {"s0": 0, "s1": 0, "s2": 0}, {"wrong": Interaction.NOP}
        )
        with pytest.raises(RegionDomainError, match=r"signature misses events \['a'\]"):
            validate_region(battery["a1"], TAU, region)
        extra = Region(
            {"s0": 0, "s1": 0, "s2": 0},
            {"a": Interaction.NOP, "wrong": Interaction.NOP},
        )
        with pytest.raises(
            RegionDomainError, match=r"signature names unknown events \['wrong'\]"
        ):
            validate_region(battery["a1"], TAU, extra)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_agrees_with_direct_arc_scan(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=4, max_events=3)
        tau = NetType(frozenset(rng.sample(list(Interaction), 4)))
        support = {s: rng.randint(0, 1) for s in ts.states}
        signature = {e: rng.choice(list(tau)) for e in ts.events}
        region = Region(support, signature)
        expected = all(
            signature[a.event].apply(support[a.source]) == support[a.target]
            for a in ts.arcs
        )
        assert validate_region(ts, tau, region) == expected


def arc_by_arc(subject, region) -> bool:
    """The region definition applied to each arc in turn."""
    return all(
        region.signature[arc.event].apply(region.support[arc.source])
        == region.support[arc.target]
        for arc in subject.arcs
    )


class TestValidateRegionAgainstArcs:
    """``validate_region`` reads a region per arc in one gather; it must
    answer as the definition applied arc by arc, and raise the same domain
    errors as before."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_applying_each_arc(self, data):
        subject = data.draw(subjects())
        members = st.sets(st.sampled_from(list(Interaction)), min_size=1)
        tau = NetType(frozenset(data.draw(members)))
        support = {s: data.draw(st.integers(0, 1)) for s in subject.states}
        signature = {}
        for event in subject.events:
            # Often an interaction that follows every arc of the event, so
            # that valid regions are drawn too.
            arcs = [a for a in subject.arcs if a.event == event]
            following = [
                i for i in tau
                if all(i.apply(support[a.source]) == support[a.target] for a in arcs)
            ]
            if following and data.draw(st.booleans()):
                signature[event] = data.draw(st.sampled_from(following))
            else:
                signature[event] = data.draw(st.sampled_from(list(tau)))
        region = Region(support, signature)
        assert validate_region(subject, tau, region) == arc_by_arc(subject, region)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_domain_errors_keep_their_messages(self, data):
        subject = data.draw(subjects())
        states, events = list(subject.states), list(subject.events)
        support = {s: 0 for s in states}
        signature = {e: Interaction.NOP for e in events}
        kind = data.draw(st.sampled_from(
            ["missing state", "extra state", "not a bit", "missing event",
             "extra event", "outside the type"]
        ))
        tau = NetType.of(Interaction.NOP)
        if kind == "missing state":
            gone = data.draw(st.sampled_from(states))
            del support[gone]
            message = f"support misses states {[gone]}"
        elif kind == "extra state":
            support["zz"] = 0
            message = "support names unknown states ['zz']"
        elif kind == "not a bit":
            state = data.draw(st.sampled_from(states))
            support[state] = data.draw(st.sampled_from([2, -1, 255, 256, 1.0, 0.0]))
            message = f"support of {state!r} is not a bit"
        elif kind == "missing event":
            gone = data.draw(st.sampled_from(events))
            del signature[gone]
            message = f"signature misses events {[gone]}"
        elif kind == "extra event":
            signature["zz"] = Interaction.NOP
            message = "signature names unknown events ['zz']"
        else:
            event = data.draw(st.sampled_from(events))
            # a list or a string is no interaction, hashable or not
            signature[event] = data.draw(st.sampled_from([Interaction.SWAP, [], "nop"]))
            message = f"signature uses interactions outside the net type on {[event]}"
        with pytest.raises(RegionDomainError) as raised:
            validate_region(subject, tau, Region(support, signature))
        assert str(raised.value) == message

    def test_one_event_with_one_arc(self):
        # A one-item gather must still read as a sequence.
        ts = TransitionSystem.build("p", [("p", "a", "q")])
        region = Region({"p": 0, "q": 1}, {"a": Interaction.SET})
        assert validate_region(ts, TAU, region)
        assert not validate_region(
            ts, TAU, Region({"p": 1, "q": 0}, {"a": Interaction.SET})
        )

    def test_a_system_without_arcs(self):
        ts = TransitionSystem.build("p", [], states=["p"], events=["a"])
        for interaction in TAU:
            assert validate_region(ts, TAU, Region({"p": 1}, {"a": interaction}))


class TestFamilies:
    def test_free_family_is_a_single_type(self):
        assert Family.FREE.types() == (NetType.from_spec("nop,set,swap,free"),)

    def test_used_family_has_four_types(self):
        types = Family.USED.types()
        assert len(types) == 4
        base = {Interaction.NOP, Interaction.SET, Interaction.SWAP, Interaction.USED}
        for tau in types:
            assert base <= tau.interactions
            assert tau.interactions - base <= {Interaction.RES, Interaction.FREE}
        assert types[0] == NetType.from_spec("nop,set,swap,used")
        assert types[-1] == NetType.from_spec("nop,set,swap,used,res,free")

    def test_family_types_lists_all_five_free_first(self):
        types = family_types()
        assert len(types) == 5
        assert types[0] == Family.FREE.base_type
        assert types[1:] == Family.USED.types()
        assert len(set(types)) == 5

    def test_parse_family(self):
        assert parse_family(" FREE ") is Family.FREE
        assert parse_family("used") is Family.USED
        with pytest.raises(ValueError, match="unknown family"):
            parse_family("loose")
