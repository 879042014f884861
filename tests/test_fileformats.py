"""Text formats: round trips, line-numbered diagnostics, union namespacing,
and the tamper check on regenerated instance files."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    PHI_SAT,
    CubicCnf,
    EventStateAtom,
    Family,
    Interaction,
    NetType,
    Region,
    StatePairAtom,
    TransitionSystem,
    TsUnion,
    build_instance,
    check_feasibility,
    synthesize,
)
from boolsynth import fileformats
from boolsynth.fileformats import (
    FormatError,
    WitnessRecord,
    format_cnf,
    format_instance,
    format_net,
    format_ts,
    format_union,
    format_witnesses,
    parse_cnf,
    parse_instance,
    parse_net,
    parse_subject,
    parse_ts,
    parse_union,
    parse_witnesses,
)
from conftest import TAU, line_by_line, random_ts

PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTransitionSystemText:
    def test_round_trip_preserves_everything(self, battery):
        for ts in battery.values():
            again = parse_ts(format_ts(ts))
            assert again.name == ts.name
            assert again.initial == ts.initial
            assert tuple(map(tuple, again.arcs)) == tuple(map(tuple, ts.arcs))
            assert again.states == ts.states
            assert again.events == ts.events

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**9))
    def test_round_trip_random(self, seed):
        ts = random_ts(random.Random(seed))
        again = parse_ts(format_ts(ts))
        assert again.initial == ts.initial
        assert set(map(tuple, again.arcs)) == set(map(tuple, ts.arcs))

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nts demo\ninit s0\n# another\narc s0 a s1\n"
        ts = parse_ts(text)
        assert ts.name == "demo" and ts.states == ("s0", "s1")

    def test_error_carries_the_line_number(self):
        text = "ts\ninit s0\narc s0 a\n"
        with pytest.raises(FormatError, match="line 3"):
            parse_ts(text)

    def test_duplicate_init_rejected(self):
        with pytest.raises(FormatError, match="duplicate 'init'"):
            parse_ts("ts\ninit s0\ninit s1\narc s0 a s1\n")

    def test_missing_init_rejected(self):
        with pytest.raises(FormatError, match="lacks an 'init'"):
            parse_ts("ts\narc s0 a s1\n")

    def test_unknown_item_rejected(self):
        with pytest.raises(FormatError, match="unknown item 'edge'"):
            parse_ts("ts\ninit s0\nedge s0 a s1\n")

    def test_nondeterminism_reported_with_location(self):
        text = "ts bad\ninit s0\narc s0 a s1\narc s0 a s2\n"
        with pytest.raises(FormatError, match="nondeterministic"):
            parse_ts(text)

    def test_content_before_header_rejected(self):
        with pytest.raises(FormatError, match="expected a 'ts' header"):
            parse_ts("init s0\nts\narc s0 a s1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nothing but a comment\n\n", "no 'ts' block found"),
            ("init p\nts\narc p a q\n", "line 1: expected a 'ts' header before 'init p'"),
            ("ts a b\ninit p\n", "line 1: 'ts' takes at most a name"),
            ("ts\ninit p q\n", "line 2: 'init' takes exactly one state"),
            ("ts\ninit p\ninit q\n", "line 3: duplicate 'init' line"),
            ("ts\ninit p\narc p a\n", "line 3: 'arc' takes source, event, target"),
            ("ts\ninit p\nedge p a q\n", "line 3: unknown item 'edge'"),
            # the open block is closed before the next header is checked
            (
                "ts\narc p a q\nts x y z\n",
                "line 1: transition system lacks an 'init' line",
            ),
            (
                "ts\ninit p\narc p a q\nts\ninit r\narc r a s\narc r a t\n",
                "line 4: nondeterministic: 'r' has two arcs for event 'a'",
            ),
        ],
        ids=[
            "empty",
            "before-header",
            "header-tokens",
            "init-tokens",
            "duplicate-init",
            "arc-tokens",
            "unknown-item",
            "missing-init-wins",
            "second-block",
        ],
    )
    def test_malformed_text_gets_its_exact_message(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_subject(text)
        assert str(caught.value) == message


class TestUnionText:
    def test_two_blocks_parse_to_a_union(self):
        text = "ts m0\ninit p0\narc p0 e p1\nts m1\ninit q0\narc q0 e q1\n"
        union = parse_subject(text)
        assert isinstance(union, TsUnion)
        assert union.states == ("p0", "p1", "q0", "q1")

    def test_single_block_parses_to_a_plain_system(self):
        assert isinstance(parse_subject("ts\ninit s0\narc s0 a s1\n"), TransitionSystem)

    def test_parse_union_wraps_a_single_system(self):
        union = parse_union("ts\ninit s0\narc s0 a s1\n")
        assert isinstance(union, TsUnion) and len(union.members) == 1

    def test_parse_ts_refuses_a_union(self):
        text = "ts m0\ninit p0\narc p0 e p1\nts m1\ninit q0\narc q0 e q1\n"
        with pytest.raises(FormatError, match="found a union"):
            parse_ts(text)

    def test_colliding_member_states_get_namespaced(self):
        text = "ts\ninit s0\narc s0 e s1\nts\ninit s0\narc s0 e s1\n"
        union = parse_subject(text)
        assert union.states == ("0:s0", "0:s1", "1:s0", "1:s1")
        assert union.members[1].initial == "1:s0"

    def test_disjoint_member_states_stay_verbatim(self):
        text = "ts\ninit p0\narc p0 e p1\nts\ninit q0\narc q0 e q1\n"
        union = parse_subject(text)
        assert union.states == ("p0", "p1", "q0", "q1")

    def test_union_round_trip(self, battery):
        renamed = TransitionSystem.build(
            "t0", [("t0", "a", "t1")], name="other"
        )
        union = TsUnion.of(battery["a2"], renamed)
        again = parse_union(format_union(union))
        assert again.states == union.states
        assert again.events == union.events
        assert set(map(tuple, again.arcs)) == set(map(tuple, union.arcs))


class TestNetText:
    def make_net(self, battery):
        result = check_feasibility(battery["a1"], TAU)
        return synthesize(battery["a1"], TAU, result.regions)

    def test_round_trip(self, battery):
        net = self.make_net(battery)
        again = parse_net(format_net(net))
        assert again.net_type == net.net_type
        assert again.places == net.places
        assert again.transitions == net.transitions
        assert again.flow == net.flow
        assert dict(again.initial_marking) == dict(net.initial_marking)

    def test_missing_type_rejected(self):
        with pytest.raises(FormatError, match="lacks a 'type'"):
            parse_net("net\nplace p 0\ntransition t\nflow p t nop\n")

    def test_place_needs_a_bit(self):
        with pytest.raises(FormatError, match="0/1 bit"):
            parse_net("net\ntype nop\nplace p\ntransition t\nflow p t nop\n")

    def test_partial_flow_rejected(self):
        text = "net\ntype nop\nplace p 0\ntransition t\n"
        with pytest.raises(FormatError, match="not total"):
            parse_net(text)

    def test_flow_outside_type_rejected(self):
        text = "net\ntype nop\nplace p 0\ntransition t\nflow p t swap\n"
        with pytest.raises(FormatError, match="outside the net type"):
            parse_net(text)

    def test_unknown_interaction_located(self):
        text = "net\ntype nop\nplace p 0\ntransition t\nflow p t zzz\n"
        with pytest.raises(FormatError, match="line 5"):
            parse_net(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no 'net' header found"),
            ("type nop\n", "line 1: expected a 'net' header before 'type nop'"),
            ("# a net\n\nnet x y\n", "line 3: 'net' takes at most a name"),
            ("net\ntype nop\ntype nop\n", "line 3: duplicate 'type' line"),
            ("net\ntype nop,bogus\n", "line 2: unknown interaction 'bogus'"),
            (
                "net\ntype nop\nplace p 2\n",
                "line 3: 'place' takes a name and a 0/1 bit",
            ),
            ("net\ntype nop\nplace p 0\nplace p 1\n", "line 4: duplicate place 'p'"),
            (
                "net\ntype nop\ntransition\n",
                "line 3: 'transition' takes exactly one name",
            ),
            (
                "net\ntype nop\ntransition t\ntransition t\n",
                "line 4: duplicate transition 't'",
            ),
            (
                "net\ntype nop\nflow p t\n",
                "line 3: 'flow' takes place, transition, interaction",
            ),
            (
                "net\ntype nop\nflow p t nop\n\nflow p t nop\n",
                "line 5: duplicate flow entry ('p', 't')",
            ),
            ("net\ntype nop\nflow p t zzz\n", "line 3: unknown interaction 'zzz'"),
            ("net\ntype nop\nedge p t\n", "line 3: unknown item 'edge'"),
            ("# a net\nnet\nplace p 0\n", "line 2: net lacks a 'type' line"),
            (
                "net\ntype nop\nplace p 0\ntransition t\n",
                "line 1: flow is not total: missing ('p', 't')",
            ),
            (
                "net\ntype nop\nplace p 0\ntransition t\nflow p t nop\nflow q t nop\n",
                "line 6: flow names undeclared place 'q'",
            ),
            (
                "net\ntype nop\nflow p u nop\nplace p 0\ntransition t\n",
                "line 3: flow names undeclared transition 'u'",
            ),
        ],
        ids=[
            "empty",
            "no-header",
            "header-tokens",
            "duplicate-type",
            "bad-type",
            "place-bit",
            "duplicate-place",
            "transition-tokens",
            "duplicate-transition",
            "flow-tokens",
            "duplicate-flow",
            "flow-interaction",
            "unknown-item",
            "no-type",
            "partial-flow",
            "undeclared-place",
            "undeclared-transition",
        ],
    )
    def test_malformed_text_gets_its_exact_message(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_net(text)
        assert str(caught.value) == message


class TestWitnessText:
    def records(self, battery):
        region_a = Region(
            {"s0": 1, "s1": 0, "s2": 1}, {"a": Interaction.SWAP}
        )
        region_b = Region(
            {"s0": 0, "s1": 0, "s2": 0}, {"a": Interaction.FREE}
        )
        return [
            WitnessRecord(region_a, (StatePairAtom("s0", "s1"),)),
            WitnessRecord(region_b, (EventStateAtom("a", "s2"),)),
        ]

    def test_round_trip(self, battery):
        records = self.records(battery)
        again = parse_witnesses(line_by_line(records))
        assert len(again) == 2
        assert again[0].region == records[0].region
        assert again[0].atoms == records[0].atoms
        assert again[1].atoms == records[1].atoms

    def test_writer_renders_rows_as_the_reference(self, battery):
        # Over a1 (states s0, s1, s2; event a), bit n - 1 - k of a mask is
        # state position k: s1 is 0b010 and s2 is 0b001.
        records = self.records(battery)
        rows = [
            (records[0].region, [(0, 0b010)], []),
            (records[1].region, [], [(0, 0b001)]),
        ]
        assert format_witnesses(battery["a1"], rows) == line_by_line(records)

    def test_empty_input_gives_no_records(self, battery):
        assert parse_witnesses("") == []
        assert format_witnesses(battery["a1"], []) == ""
        assert line_by_line([]) == ""

    def test_atom_lines_parse_both_kinds(self):
        text = (
            "region\nsup s0 1\nsig a swap\n"
            "atom sp s0 s1\natom essp a s0\n"
        )
        records = parse_witnesses(text)
        assert records[0].atoms == (
            StatePairAtom("s0", "s1"),
            EventStateAtom("a", "s0"),
        )

    def test_comments_and_blank_lines_ignored(self, battery):
        records = self.records(battery)
        text = line_by_line(records)
        noisy = "# witnesses\n\n" + text.replace("\n", "  # note\n\n", 2)
        assert parse_witnesses(noisy) == parse_witnesses(text) == records

    @pytest.mark.parametrize(
        "text, message",
        [
            ("region x\n", "line 1: 'region' takes no arguments"),
            ("sup s0 1\n", "line 1: expected a 'region' header before 'sup'"),
            ("region\nsup s0 2\n", "line 2: 'sup' takes a state and a 0/1 bit"),
            ("region\nsup s0 1\nsup s0 0\n", "line 3: duplicate support entry 's0'"),
            (
                "region\natom sp s0\n",
                "line 2: 'atom' takes 'sp <s> <s'>' or 'essp <e> <s>'",
            ),
            ("region\nsig a\n", "line 2: 'sig' takes an event and an interaction"),
            (
                "region\nsig a nop\nsig a swap\n",
                "line 3: duplicate signature entry 'a'",
            ),
            ("region\nsig a bogus\n", "line 2: unknown interaction 'bogus'"),
            ("region\nedge a\n", "line 2: unknown item 'edge'"),
            (
                "# witnesses\n\nregion # one\nsup s0 9\n",
                "line 4: 'sup' takes a state and a 0/1 bit",
            ),
        ],
        ids=[
            "region-tokens",
            "before-header",
            "sup-bit",
            "duplicate-sup",
            "atom-tokens",
            "sig-tokens",
            "duplicate-sig",
            "sig-interaction",
            "unknown-item",
            "after-comments",
        ],
    )
    def test_malformed_text_gets_its_exact_message(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_witnesses(text)
        assert str(caught.value) == message

    def test_parsing_runs_with_the_collector_paused(self, monkeypatch):
        # Its atom records hold no reference cycle; the collector comes back
        # on after a parse, and after a malformed text too.
        seen = []

        def spy(first, second):
            seen.append(gc.isenabled())
            return StatePairAtom(first, second)

        monkeypatch.setattr(fileformats, "StatePairAtom", spy)
        assert gc.isenabled()
        records = parse_witnesses("region\nsup s0 1\natom sp s0 s1\n")
        assert records[0].atoms == (StatePairAtom("s0", "s1"),)
        assert seen == [False]
        assert gc.isenabled()
        with pytest.raises(FormatError):
            parse_witnesses("region\natom sp s0 s1\nedge a\n")
        assert seen == [False, False]
        assert gc.isenabled()


class TestCnfText:
    def test_round_trip(self):
        assert parse_cnf(format_cnf(PHI_SAT)) == PHI_SAT

    def test_header_required(self):
        with pytest.raises(FormatError, match="header"):
            parse_cnf("x0 x1 x2\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(FormatError, match="announced 2"):
            parse_cnf("p cnf13 2\nx0 x1 x2\n")

    def test_comment_lines_skipped(self):
        text = "c header comment\np cnf13 3\nx0 x1 x2\nx0 x1 x2\nx0 x1 x2\n"
        assert parse_cnf(text) == PHI_SAT

    def test_variables_named_c_lead_clauses(self):
        # After the header a line starting with "c" is a clause.
        cnf = CubicCnf((("c", "cx", "b"), ("cx", "c", "b"), ("b", "c", "cx")))
        assert parse_cnf(format_cnf(cnf)) == cnf

    def test_variables_named_p_lead_clauses(self):
        # After the header a line starting with "p" is a clause.
        cnf = CubicCnf((("p", "q", "b"), ("q", "p", "b"), ("b", "p", "q")))
        assert parse_cnf(format_cnf(cnf)) == cnf

    def test_hash_comments_skipped(self):
        text = (
            "# a formula\np cnf13 3  # three clauses\nx0 x1 x2\n"
            "  # between clauses\nx0 x1 x2 # trailing\nx0 x1 x2\n"
        )
        assert parse_cnf(text) == PHI_SAT

    def test_occurrence_rule_enforced_at_parse_time(self):
        text = "p cnf13 1\nx0 x1 x2\n"
        with pytest.raises(FormatError, match="exactly three times"):
            parse_cnf(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3\n", "line 1: header must read 'p cnf13 <clauses>'"),
            ("p cnf13 three\n", "line 1: clause count must be an integer"),
            ("p cnf13 1\nx0 x1\n", "line 2: each clause names exactly three variables"),
            ("c a comment only\n", "missing 'p cnf13' header"),
        ],
        ids=["header-tokens", "count-not-an-integer", "clause-arity", "no-header"],
    )
    def test_malformed_text_gets_its_exact_message(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_cnf(text)
        assert str(caught.value) == message


@pytest.fixture(scope="module")
def instance():
    return build_instance(PHI_SAT, Family.FREE)


class TestInstanceText:
    def test_round_trip_regenerates_the_same_instance(self, instance):
        text = format_instance(instance)
        again = parse_instance(text)
        assert again.family is instance.family
        assert again.cnf == instance.cnf
        assert again.ts.states == instance.ts.states
        assert tuple(map(tuple, again.ts.arcs)) == tuple(map(tuple, instance.ts.arcs))
        assert again.roles == instance.roles

    def test_tampered_arc_rejected(self, instance):
        text = format_instance(instance)
        lines = text.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("arc "):
                tokens = line.split()
                tokens[3] = instance.ts.initial  # reroute one arc
                lines[k] = " ".join(tokens)
                break
        with pytest.raises(FormatError, match="does not match"):
            parse_instance("\n".join(lines) + "\n")

    def test_missing_family_role_rejected(self, instance):
        text = "\n".join(
            line
            for line in format_instance(instance).splitlines()
            if not line.startswith("# role family")
        )
        with pytest.raises(FormatError, match="family"):
            parse_instance(text + "\n")

    def test_missing_clauses_rejected(self, instance):
        text = "\n".join(
            line
            for line in format_instance(instance).splitlines()
            if not line.startswith("# role clause_")
        )
        with pytest.raises(FormatError, match="clause"):
            parse_instance(text + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# role family free\n", "line 1: role lines read '# role <name> = <values>'"),
            (
                "# role family = free\n# role clause_0 = a b\n",
                "role clause_0 must name three variables",
            ),
            (
                "# role family = free\n# role clause_0 = a b c\n",
                "variables must occur exactly three times; violated by ['a', 'b', 'c']",
            ),
        ],
        ids=["role-line", "clause-arity", "invalid-formula"],
    )
    def test_malformed_roles_get_their_exact_message(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_instance(text)
        assert str(caught.value) == message

    def test_role_lines_survive_the_comment_stripper(self, instance):
        # role lines are comments to every other parser
        text = format_instance(instance)
        ts = parse_ts(text)
        assert ts.states == instance.ts.states
