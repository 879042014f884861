"""Transition systems, unions, their conventions, the grading metric, and
gluing."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    Arc,
    NetType,
    TransitionSystem,
    TsUnion,
    check_join_preconditions,
    check_ssp,
    grade,
    join,
)
from boolsynth.ts import _build_index
from conftest import random_ts

PROPERTY_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def two_cycle(initial: str, other: str, event: str) -> TransitionSystem:
    """initial <-event-> other; the smallest glue-compatible member."""
    return TransitionSystem.build(
        initial, [(initial, event, other), (other, event, initial)]
    )


class TestConstruction:
    def test_build_infers_states_and_events_in_first_seen_order(self):
        ts = TransitionSystem.build(
            "p", [("p", "b", "q"), ("q", "a", "p"), ("q", "b", "q")]
        )
        assert ts.states == ("p", "q")
        assert ts.events == ("b", "a")
        assert ts.initial == "p"

    def test_explicit_state_order_wins(self):
        ts = TransitionSystem.build(
            "p", [("p", "a", "q")], states=["q", "p"], events=["a"]
        )
        assert ts.states == ("q", "p")

    def test_initial_must_be_declared(self):
        with pytest.raises(ValueError, match="initial"):
            TransitionSystem.build("zz", [("p", "a", "q")], states=["p", "q"])

    def test_arc_with_undeclared_state_rejected(self):
        with pytest.raises(ValueError, match="undeclared state"):
            TransitionSystem(
                initial="p",
                arcs=(Arc("p", "a", "q"),),
                states=("p",),
                events=("a",),
            )

    def test_arc_with_undeclared_event_rejected(self):
        with pytest.raises(ValueError, match="undeclared event"):
            TransitionSystem(
                initial="p",
                arcs=(Arc("p", "a", "q"),),
                states=("p", "q"),
                events=(),
            )

    def test_nondeterminism_rejected(self):
        with pytest.raises(ValueError, match="nondeterministic"):
            TransitionSystem.build(
                "p", [("p", "a", "q"), ("p", "a", "r")]
            )

    def test_step_enabled_and_indexes(self):
        ts = TransitionSystem.build("p", [("p", "a", "q"), ("q", "b", "p")])
        assert ts.step("p", "a") == "q"
        assert ts.step("q", "a") is None
        assert ts.enabled("q", "b") and not ts.enabled("p", "b")
        assert ts.index.state_pos == {"p": 0, "q": 1}
        assert ts.index.event_pos == {"a": 0, "b": 1}

    def test_build_takes_arcs_tuples_and_lists_alike(self):
        items = [("p", "a", "q"), ("q", "b", "p")]
        systems = [
            TransitionSystem.build("p", [Arc(*item) for item in items]),
            TransitionSystem.build("p", items),
            TransitionSystem.build("p", [list(item) for item in items]),
        ]
        assert systems[0] == systems[1] == systems[2]
        assert all(type(arc) is Arc for ts in systems for arc in ts.arcs)

    @pytest.mark.parametrize(
        "item", [("p", "a"), ("p", "a", "q", "r")], ids=["two", "four"]
    )
    def test_an_arc_of_the_wrong_length_is_a_value_error(self, item):
        with pytest.raises(ValueError):
            TransitionSystem.build("p", [item])


def successors_from_arcs(subject) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {state: {} for state in subject.states}
    for source, event, target in subject.arcs:
        out[source][event] = target
    return out


class TestSuccessors:
    def test_a_system_indexes_its_arcs(self, battery):
        for ts in battery.values():
            assert ts.successors == successors_from_arcs(ts)
            for state, out in ts.successors.items():
                for event in ts.events:
                    assert ts.step(state, event) == out.get(event)
                    assert ts.enabled(state, event) == (event in out)

    def test_a_union_merges_its_members(self, battery):
        union = TsUnion.of(battery["a1"], two_cycle("u0", "u1", "e"))
        assert union.successors == successors_from_arcs(union)
        assert list(union.successors) == list(union.states)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_random_systems(self, seed):
        ts = random_ts(random.Random(seed))
        assert ts.successors == successors_from_arcs(ts)


class TestSubjectIndex:
    def test_positions_follow_the_given_states_and_events(self):
        ts = TransitionSystem.build(
            "p",
            [("p", "a", "q"), ("q", "b", "r"), ("r", "a", "p")],
            states=["r", "p", "q"],
            events=["b", "a"],
        )
        assert ts.index.state_pos == {"r": 0, "p": 1, "q": 2}
        assert ts.index.event_pos == {"b": 0, "a": 1}
        # bit n - 1 - p of a support integer is the state at position p
        assert ts.index.enabled_mask == (0b001, 0b110)

    def test_each_event_keeps_its_arcs_in_arc_order(self):
        ts = TransitionSystem.build(
            "s0", [("s2", "a", "s0"), ("s0", "b", "s1"), ("s0", "a", "s1")]
        )
        assert ts.states == ("s0", "s2", "s1")
        assert ts.index.arcs_by_event == (((1, 0), (0, 2)), ((0, 2),))

    def test_arc_values_gather_a_support_event_by_event(self):
        # Arcs in slot order: s2 -a-> s0, s0 -a-> s1, then s0 -b-> s1.
        ts = TransitionSystem.build(
            "s0", [("s2", "a", "s0"), ("s0", "b", "s1"), ("s0", "a", "s1")]
        )
        assert ts.index.arc_count == 3
        assert ts.index.arc_slots == (0b110, 0b001)
        # s0, s2, s1 hold 1, 0, 1 (any nonzero byte reads as 1)
        assert ts.index.arc_values(bytes((1, 0, 7))) == (0b011, 0b111)

    def test_arc_values_of_one_arc_and_of_none(self):
        one = TransitionSystem.build("p", [("p", "a", "q")])
        assert one.index.arc_values(bytes((1, 0))) == (1, 0)
        none = TransitionSystem.build("p", [], states=["p"], events=["a"])
        assert none.index.arc_slots == (0,)
        assert none.index.arc_values(bytes((1,))) == (0, 0)

    def test_a_union_indexes_its_own_states_events_and_arcs(self, battery):
        union = TsUnion.of(battery["a1"], two_cycle("u0", "u1", "a"))
        assert union.index == _build_index(union.states, union.events, union.arcs)
        assert union.index.state_pos["u0"] == len(battery["a1"].states)

    def test_the_index_is_built_on_first_use(self):
        ts = TransitionSystem.build("p", [("p", "a", "q"), ("q", "a", "p")])
        union = TsUnion.of(two_cycle("u0", "u1", "a"))
        for subject in (ts, union):
            assert "index" not in vars(subject)
            check_ssp(subject, NetType.from_spec("nop,swap"))
            assert "index" in vars(subject)


def strays(ts: TransitionSystem) -> tuple[set[str], set[str]]:
    """The states unreachable from the initial one, and the events on no arc."""
    return set(ts.states) - ts.reachable_states(), set(ts.events) - {
        arc.event for arc in ts.arcs
    }


class TestValidation:
    def test_clean_system_passes(self, battery):
        for ts in battery.values():
            assert strays(ts) == (set(), set())

    def test_unreachable_state_reported_not_rejected(self):
        ts = TransitionSystem.build(
            "p", [("p", "a", "q")], states=["p", "q", "island"]
        )
        assert strays(ts) == ({"island"}, set())

    def test_unused_event_reported(self):
        ts = TransitionSystem.build("p", [("p", "a", "q")], events=["a", "ghost"])
        assert strays(ts) == (set(), {"ghost"})

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_random_systems_validate(self, seed):
        ts = random_ts(random.Random(seed))
        assert strays(ts) == (set(), set())


class TestGrade:
    def test_chain_has_grade_one(self, battery):
        assert grade(battery["a4"]) == 1

    def test_cycle_entry_has_grade_two(self, battery):
        # s1 is entered from both s0 and s2
        assert grade(battery["a1"]) == 2

    def test_empty_system(self):
        assert grade(TransitionSystem.build("p", [])) == 0

    def test_out_degree_counts_too(self):
        ts = TransitionSystem.build(
            "p", [("p", "a", "q"), ("p", "b", "q"), ("p", "c", "q")]
        )
        assert grade(ts) == 3

    def test_union_grade_is_member_max(self, battery):
        chain = TransitionSystem.build(
            "t0", [("t0", "b", "t1"), ("t1", "b", "t2"), ("t2", "b", "t3")]
        )
        assert grade(TsUnion.of(chain, battery["a1"])) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_union_grade_is_the_max_over_random_members(self, seed):
        # grade reads a union's merged arcs and successors as it reads one
        # system's: each state keeps the degrees it has in its own member.
        rng = random.Random(seed)
        members = []
        for k in range(rng.randint(1, 4)):
            ts = random_ts(rng, max_states=5, max_events=3)
            members.append(
                TransitionSystem.build(
                    f"m{k}:{ts.initial}",
                    [(f"m{k}:{s}", e, f"m{k}:{t}") for s, e, t in ts.arcs],
                    states=[f"m{k}:{s}" for s in ts.states],
                )
            )
        union = TsUnion(tuple(members))
        assert grade(union) == max(grade(member) for member in members)


class TestUnion:
    def test_members_must_be_state_disjoint(self, battery):
        with pytest.raises(ValueError, match="state-disjoint"):
            TsUnion.of(battery["a1"], battery["a2"])

    def test_union_concatenates_in_member_order(self):
        m0 = two_cycle("i0", "x0", "h0")
        m1 = two_cycle("i1", "x1", "h1")
        union = TsUnion.of(m0, m1)
        assert union.states == ("i0", "x0", "i1", "x1")
        assert union.events == ("h0", "h1")
        assert len(union.arcs) == 4

    def test_events_shared_across_members_deduplicated(self):
        m0 = two_cycle("i0", "x0", "h")
        m1 = two_cycle("i1", "x1", "h")
        union = TsUnion.of(m0, m1)
        assert union.events == ("h",)

    def test_a_system_is_the_one_member_of_itself(self, battery):
        ts = battery["a1"]
        assert ts.members == (ts,)
        assert ts.members[0] is ts

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            TsUnion(())


class TestJoinPreconditions:
    def good_union(self) -> TsUnion:
        return TsUnion.of(two_cycle("i0", "x0", "h0"), two_cycle("i1", "x1", "h1"))

    def test_good_union_passes(self):
        assert check_join_preconditions(self.good_union()).ok

    def test_event_enabled_everywhere_flagged(self):
        union = TsUnion.of(two_cycle("i0", "x0", "h0"))
        codes = {v.code for v in check_join_preconditions(union).violations}
        assert "event-misses-no-state" in codes

    def test_initial_degree_flagged(self):
        branchy = TransitionSystem.build(
            "i0", [("i0", "h0", "x0"), ("x0", "h0", "i0"), ("i0", "g0", "x0")]
        )
        union = TsUnion.of(branchy, two_cycle("i1", "x1", "h1"))
        codes = {v.code for v in check_join_preconditions(union).violations}
        assert "initial-degree" in codes

    def test_initial_label_mismatch_flagged(self):
        # in via g0, out via h0
        lopsided = TransitionSystem.build(
            "i0", [("i0", "h0", "x0"), ("x0", "g0", "i0"), ("x0", "h0", "x0")]
        )
        union = TsUnion.of(lopsided, two_cycle("i1", "x1", "h1"))
        codes = {v.code for v in check_join_preconditions(union).violations}
        assert "initial-label" in codes

    def test_shared_handle_event_flagged(self):
        union = TsUnion.of(
            two_cycle("i0", "x0", "h"),
            two_cycle("i1", "x1", "h"),
            two_cycle("i2", "x2", "g"),
        )
        codes = {v.code for v in check_join_preconditions(union).violations}
        assert codes == {"handle-not-private"}


class TestJoin:
    def good_union(self) -> TsUnion:
        return TsUnion.of(two_cycle("i0", "x0", "h0"), two_cycle("i1", "x1", "h1"))

    def test_shape(self):
        union = self.good_union()
        ts = join(union, name="glued")
        n = len(union.members)
        # 4n+1 rail states, 3 branch states per member, plus member states
        rail = [s for s in ts.states if s.startswith("rail_")]
        assert len(rail) == 4 * n + 1
        assert len(ts.states) == (4 * n + 1) + 3 * n + len(union.states)
        # 14 fresh arcs per member plus the member's own
        assert len(ts.arcs) == 14 * n + len(union.arcs)
        assert ts.initial == "rail_0"
        assert ts.name == "glued"
        # every member event survives, plus four fresh events per member
        assert set(union.events) <= set(ts.events)
        assert len(set(ts.events) - set(union.events)) == 4 * n

    def test_joined_system_is_deterministic_and_reachable(self):
        assert strays(join(self.good_union())) == (set(), set())

    def test_single_member_three_state_example(self, battery):
        # one member with 3 states: 5 rail + 3 branch + 3 member = 11 states
        assert len(join(TsUnion.of(battery["a1"])).states) == 11

    def test_name_collision_rejected(self):
        clashing = two_cycle("rail_0", "x0", "h0")
        with pytest.raises(ValueError, match="collide"):
            join(TsUnion.of(clashing, two_cycle("i1", "x1", "h1")))

    def test_event_collision_rejected(self):
        clashing = two_cycle("i0", "x0", "seal_0")
        with pytest.raises(ValueError, match="collide"):
            join(TsUnion.of(clashing, two_cycle("i1", "x1", "h1")))

    def test_join_preserves_member_arcs_verbatim(self):
        union = self.good_union()
        joined_arcs = set(map(tuple, join(union).arcs))
        for arc in union.arcs:
            assert tuple(arc) in joined_arcs
