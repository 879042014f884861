"""Boolean nets: firing, reachability graphs, synthesis from witness
regions, the synthesized-net round trip, and graph isomorphism."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    BooleanNet,
    Interaction,
    NetType,
    Region,
    SynthesisError,
    TransitionSystem,
    check_feasibility,
    fire,
    is_isomorphic,
    reachability_graph,
    synthesize,
    validate_region,
)
from boolsynth.fileformats import format_ts
from boolsynth.nets import _region_order
from boolsynth.solving import first_unsettled, irredundant
from conftest import TAU, TAU_TILDE, build_battery, random_ts

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FULL = NetType(frozenset(Interaction))


def single_place_net(interaction: Interaction, start: int) -> BooleanNet:
    return BooleanNet(
        net_type=FULL,
        places=("p",),
        transitions=("t",),
        flow={("p", "t"): interaction},
        initial_marking={"p": start},
    )


class TestConstruction:
    def test_duplicate_places_rejected(self):
        with pytest.raises(ValueError, match="duplicate place"):
            BooleanNet(FULL, ("p", "p"), ("t",), {("p", "t"): Interaction.NOP}, {"p": 0})

    def test_partial_flow_rejected(self):
        with pytest.raises(ValueError, match="not total"):
            BooleanNet(FULL, ("p", "q"), ("t",), {("p", "t"): Interaction.NOP}, {"p": 0, "q": 0})

    def test_flow_outside_type_rejected(self):
        with pytest.raises(ValueError, match="outside the net type"):
            BooleanNet(
                NetType.from_spec("nop"),
                ("p",),
                ("t",),
                {("p", "t"): Interaction.SWAP},
                {"p": 0},
            )

    def test_marking_must_be_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            single_place_net(Interaction.NOP, 2)

    def test_duplicate_transitions_rejected(self):
        with pytest.raises(ValueError, match="duplicate transition"):
            BooleanNet(FULL, ("p",), ("t", "t"), {("p", "t"): Interaction.NOP}, {"p": 0})

    def test_flow_outside_places_and_transitions_rejected(self):
        flow = {("p", "t"): Interaction.NOP, ("q", "t"): Interaction.NOP}
        with pytest.raises(ValueError, match="flow map has entries outside"):
            BooleanNet(FULL, ("p",), ("t",), flow, {"p": 0})

    def test_marking_outside_places_rejected(self):
        with pytest.raises(ValueError, match="initial marking has entries outside"):
            BooleanNet(FULL, ("p",), ("t",), {("p", "t"): Interaction.NOP}, {"p": 0, "q": 1})


class TestFiring:
    @pytest.mark.parametrize("interaction", list(Interaction))
    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_place_firing_follows_the_effect(self, interaction, bit):
        net = single_place_net(interaction, bit)
        successor = fire(net, {"p": bit}, "t")
        expected = interaction.apply(bit)
        if expected is None:
            assert successor is None
        else:
            assert successor == {"p": expected}

    def test_one_blocking_place_blocks_the_whole_step(self):
        net = BooleanNet(
            FULL,
            ("p", "q"),
            ("t",),
            {("p", "t"): Interaction.SET, ("q", "t"): Interaction.INP},
            {"p": 0, "q": 0},
        )
        assert fire(net, {"p": 0, "q": 0}, "t") is None
        assert fire(net, {"p": 0, "q": 1}, "t") == {"p": 1, "q": 0}

    def test_unknown_transition_rejected(self):
        net = single_place_net(Interaction.NOP, 0)
        with pytest.raises(ValueError, match="unknown transition"):
            fire(net, {"p": 0}, "zz")

    def test_partial_marking_rejected(self):
        net = BooleanNet(
            FULL,
            ("p", "q"),
            ("t",),
            {("p", "t"): Interaction.NOP, ("q", "t"): Interaction.NOP},
            {"p": 0, "q": 0},
        )
        with pytest.raises(ValueError, match="not total"):
            fire(net, {"p": 0}, "t")

    def test_non_binary_marking_rejected(self):
        net = single_place_net(Interaction.NOP, 0)
        with pytest.raises(ValueError, match="marking of place 'p' must be 0 or 1"):
            fire(net, {"p": 2}, "t")


class TestReachabilityGraph:
    def test_swap_place_gives_a_two_cycle(self):
        graph = reachability_graph(single_place_net(Interaction.SWAP, 0))
        assert set(graph.states) == {"m0", "m1"}
        assert graph.initial == "m0"
        assert graph.step("m0", "t") == "m1"
        assert graph.step("m1", "t") == "m0"

    def test_blocked_transition_left_out_of_events(self):
        net = single_place_net(Interaction.INP, 0)  # inp blocked at empty
        graph = reachability_graph(net)
        assert graph.states == ("m0",)
        assert graph.events == ()

    def test_marking_names_follow_place_order(self):
        net = BooleanNet(
            FULL,
            ("p", "q"),
            ("t",),
            {("p", "t"): Interaction.SET, ("q", "t"): Interaction.SWAP},
            {"p": 0, "q": 1},
        )
        graph = reachability_graph(net)
        assert graph.initial == "m01"
        assert graph.step("m01", "t") == "m10"
        assert graph.step("m10", "t") == "m11"
        assert graph.step("m11", "t") == "m10"

    def test_agreement_with_fire_on_every_arc(self):
        # Every ordered pair of interactions on one transition over two
        # places, under all four initial markings (256 nets): every arc is
        # the step ``fire`` takes, and every step ``fire`` takes from a
        # reached marking is an arc.
        nets = itertools.product(Interaction, Interaction, (0, 1), (0, 1))
        for first, second, p, q in nets:
            net = BooleanNet(
                FULL,
                ("p", "q"),
                ("t",),
                {("p", "t"): first, ("q", "t"): second},
                {"p": p, "q": q},
            )
            graph = reachability_graph(net)
            for state in graph.states:
                marking = {"p": int(state[1]), "q": int(state[2])}
                successor = fire(net, marking, "t")
                steps = {} if successor is None else {
                    "t": f"m{successor['p']}{successor['q']}"
                }
                assert graph.successors[state] == steps, (first, second, p, q)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_agreement_with_fire_on_random_nets(self, data):
        # Nets of 3-6 places and 1-4 transitions under a random type and
        # initial marking: the graph's states are the markings ``fire``
        # reaches from the initial one, and its arcs are exactly the steps
        # ``fire`` takes from them.
        allowed = data.draw(st.sets(st.sampled_from(list(Interaction)), min_size=1))
        places = tuple(f"p{k}" for k in range(data.draw(st.integers(3, 6))))
        transitions = tuple(f"t{k}" for k in range(data.draw(st.integers(1, 4))))
        choices = st.sampled_from(sorted(allowed, key=lambda i: i.value))
        flow = {(p, t): data.draw(choices) for p in places for t in transitions}
        initial = {p: data.draw(st.integers(0, 1)) for p in places}
        net = BooleanNet(NetType(frozenset(allowed)), places, transitions, flow, initial)

        def name(marking):
            return "m" + "".join(str(marking[p]) for p in places)

        reached, queue, steps = {name(initial)}, [initial], set()
        while queue:
            marking = queue.pop()
            for transition in transitions:
                successor = fire(net, marking, transition)
                if successor is None:
                    continue
                steps.add((name(marking), transition, name(successor)))
                if name(successor) not in reached:
                    reached.add(name(successor))
                    queue.append(successor)
        graph = reachability_graph(net)
        assert graph.initial == name(initial)
        assert set(graph.states) == reached
        assert set(graph.arcs) == steps
        assert set(graph.events) == {t for _, t, _ in steps}


    def test_ts_text_is_pinned_for_markings_reached_out_of_order(self):
        # BFS from m00 reaches m10 before m01, and u fires before t.
        net = BooleanNet(
            FULL,
            ("p", "q"),
            ("t", "u"),
            {
                ("p", "t"): Interaction.INP,
                ("q", "t"): Interaction.SET,
                ("p", "u"): Interaction.SWAP,
                ("q", "u"): Interaction.NOP,
            },
            {"p": 0, "q": 0},
        )
        graph = reachability_graph(net)
        assert graph.states == ("m00", "m10", "m01", "m11")
        assert graph.events == ("u", "t")
        assert format_ts(graph) == (
            "ts\n"
            "init m00\n"
            "arc m00 u m10\n"
            "arc m10 t m01\n"
            "arc m10 u m00\n"
            "arc m01 u m11\n"
            "arc m11 t m01\n"
            "arc m11 u m01\n"
        )


class TestSynthesize:
    def a1_witnesses(self, battery):
        result = check_feasibility(battery["a1"], TAU)
        assert result.holds
        return result.regions

    def test_synthesized_net_round_trips(self, battery):
        ts = battery["a1"]
        net = synthesize(ts, TAU, self.a1_witnesses(battery))
        assert net.net_type == TAU
        assert set(net.transitions) == set(ts.events)
        mapping = is_isomorphic(reachability_graph(net), ts)
        assert mapping is not None

    def test_places_are_deduplicated_regions(self, battery):
        regions = self.a1_witnesses(battery)
        doubled = tuple(regions) + tuple(regions)
        net = synthesize(battery["a1"], TAU, doubled)
        assert len(net.places) == len({r.key() for r in regions})

    def test_missing_witness_raises_synthesis_error(self, battery):
        ts = battery["a1"]
        with pytest.raises(SynthesisError, match="unsolved"):
            synthesize(ts, TAU, [])

    def test_synthesis_error_carries_the_atom(self, battery):
        ts = battery["a1"]
        try:
            synthesize(ts, TAU, [])
        except SynthesisError as err:
            assert str(err.atom) == "sp s0 s1"

    def test_infeasible_subject_cannot_be_synthesized(self, battery):
        ts = battery["a3"]  # state separation fails
        result = check_feasibility(ts, TAU)
        with pytest.raises(SynthesisError):
            synthesize(ts, TAU, result.regions)

    def test_invalid_witness_rejected(self, battery):
        bad = Region(
            {"s0": 1, "s1": 0, "s2": 0}, {"a": Interaction.NOP}
        )
        with pytest.raises(ValueError):
            synthesize(battery["a1"], TAU, [bad])

    def test_flow_reads_back_the_signatures(self, battery):
        regions = self.a1_witnesses(battery)
        net = synthesize(battery["a1"], TAU, regions)
        by_key = {r.key(): r for r in regions}
        # each place corresponds to one region; flow row = its signature
        assert len(net.places) == len(by_key)
        for place in net.places:
            row = {t: net.flow[(place, t)] for t in net.transitions}
            assert any(
                all(row[e] == r.signature[e] for e in row) for r in by_key.values()
            )


class TestRegionOrder:
    """``synthesize`` deduplicates and sorts its witnesses by a bytes key
    that must order and identify them exactly as ``Region.key()``."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_orders_any_pool_as_region_key(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=6, max_events=4)
        distinct = []
        for _ in range(rng.randint(1, 8)):
            # Keys inserted in a random order: the key must not depend on it.
            states = rng.sample(ts.states, len(ts.states))
            events = rng.sample(ts.events, len(ts.events))
            support = {s: rng.randint(0, 1) for s in states}
            signature = {e: rng.choice(list(Interaction)) for e in events}
            distinct.append(Region(support, signature))
        pool = [rng.choice(distinct) for _ in range(rng.randint(1, 12))]
        key = _region_order(ts)
        assert [r.key() for r in sorted(pool, key=key)] == [
            r.key() for r in sorted(pool, key=Region.key)
        ]
        for first in pool:
            for second in pool:
                assert (key(first) == key(second)) == (first.key() == second.key())


class TestRoundTripUnderBothTwins:
    @pytest.mark.parametrize("type_", [TAU, TAU_TILDE], ids=["tau", "twin"])
    def test_two_cycle(self, battery, type_):
        ts = battery["a1"]
        result = check_feasibility(ts, type_)
        net = synthesize(ts, type_, result.regions)
        assert is_isomorphic(reachability_graph(net), ts) is not None

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_random_feasible_systems_round_trip(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=4, max_events=3)
        type_ = rng.choice([TAU, TAU_TILDE, FULL])
        result = check_feasibility(ts, type_)
        if not result.holds:
            return
        net = synthesize(ts, type_, result.regions)
        for region in result.regions:
            assert validate_region(ts, type_, region)
        assert is_isomorphic(reachability_graph(net), ts) is not None


def assert_irredundant_places(ts, type_, witnesses):
    """``synthesize`` builds one place per region ``irredundant`` keeps of the
    distinct witnesses in key order; the kept regions settle everything,
    none can go, and the net round-trips."""
    distinct = {region.key(): region for region in witnesses}
    kept = irredundant(ts, type_, [distinct[key] for key in sorted(distinct)])
    keys = [region.key() for region in kept]
    assert keys == sorted(set(keys)) and set(keys) <= set(distinct)
    assert all(validate_region(ts, type_, region) for region in kept)
    assert first_unsettled(ts, type_, kept) is None
    for k in range(len(kept)):
        assert first_unsettled(ts, type_, kept[:k] + kept[k + 1 :]) is not None
    net = synthesize(ts, type_, witnesses)
    assert len(net.places) == len(kept)
    for place, region in zip(net.places, kept):
        assert {t: net.flow[place, t] for t in net.transitions} == region.signature
        assert net.initial_marking[place] == region.support[ts.initial]
    assert is_isomorphic(reachability_graph(net), ts) is not None


class TestIrredundantPlaces:
    @pytest.mark.parametrize("name", sorted(build_battery()))
    @pytest.mark.parametrize(
        "type_", [TAU, TAU_TILDE, FULL], ids=["tau", "twin", "full"]
    )
    def test_battery(self, battery, name, type_):
        ts = battery[name]
        result = check_feasibility(ts, type_)
        if result.holds:
            assert_irredundant_places(ts, type_, result.regions)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_random_feasible_systems(self, seed):
        rng = random.Random(seed)
        ts = random_ts(rng, max_states=5, max_events=3)
        type_ = rng.choice([TAU, TAU_TILDE, FULL])
        result = check_feasibility(ts, type_, engine="exhaustive")
        if result.holds:
            # Both engines' pools together: each settles everything alone.
            other = check_feasibility(ts, type_, engine="sat")
            witnesses = [*result.regions, *other.regions]
            rng.shuffle(witnesses)
            assert_irredundant_places(ts, type_, witnesses)


class TestIsomorphism:
    def test_identity(self, battery):
        for ts in battery.values():
            mapping = is_isomorphic(ts, ts)
            assert mapping == {s: s for s in ts.states}

    def test_renamed_states_match(self, battery):
        ts = battery["a1"]
        renamed = TransitionSystem.build(
            "t0", [("t0", "a", "t1"), ("t1", "a", "t2"), ("t2", "a", "t1")]
        )
        assert is_isomorphic(ts, renamed) == {"s0": "t0", "s1": "t1", "s2": "t2"}

    def test_event_names_must_match_exactly(self, battery):
        relabeled = TransitionSystem.build(
            "t0", [("t0", "b", "t1"), ("t1", "b", "t2"), ("t2", "b", "t1")]
        )
        assert is_isomorphic(battery["a1"], relabeled) is None

    def test_size_mismatch(self, battery):
        assert is_isomorphic(battery["a1"], battery["a4"]) is None

    def test_structural_mismatch(self, battery):
        # same sizes and event set, different shape
        assert is_isomorphic(battery["a2"], battery["a3"]) is None

    def test_fold_would_need_non_injective_map(self):
        # both have 4 states, but the second repeats a diamond differently
        first = TransitionSystem.build(
            "x0",
            [("x0", "a", "x1"), ("x0", "b", "x2"), ("x1", "b", "x3"), ("x2", "a", "x3")],
        )
        second = TransitionSystem.build(
            "y0",
            [("y0", "a", "y1"), ("y0", "b", "y1"), ("y1", "b", "y2"), ("y1", "a", "y2"), ("y2", "a", "y3")],
        )
        assert is_isomorphic(first, second) is None

    def test_a_target_already_mapped_elsewhere_breaks_isomorphism(self):
        # x1 leads back to x0, but its image y1 loops on itself
        cycle = TransitionSystem.build("x0", [("x0", "a", "x1"), ("x1", "a", "x0")])
        lasso = TransitionSystem.build("y0", [("y0", "a", "y1"), ("y1", "a", "y1")])
        assert is_isomorphic(cycle, lasso) is None

    def test_unreachable_states_of_equal_count_break_isomorphism(self):
        arcs = [("t0", "a", "t1"), ("t1", "a", "t0")]
        padded = TransitionSystem.build("t0", arcs, states=["t0", "t1", "island"])
        assert is_isomorphic(padded, padded) is None

    def test_unreachable_states_break_isomorphism(self, battery):
        padded = TransitionSystem.build(
            "t0",
            [("t0", "a", "t1"), ("t1", "a", "t2"), ("t2", "a", "t1")],
            states=["t0", "t1", "t2", "island"],
        )
        assert is_isomorphic(battery["a1"], padded) is None
