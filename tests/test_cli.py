"""The command-line front end, exercised in process through ``main``."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolsynth import (
    PHI_SAT,
    PHI_UNSAT,
    CheckResult,
    CubicCnf,
    Family,
    Interaction,
    NetType,
    Region,
    SatSolver,
    TransitionSystem,
    TsUnion,
    assign_witnesses,
    build_instance,
    build_union,
    check_essp,
    check_feasibility,
    check_ssp,
    is_isomorphic,
    solve_atom,
)
from boolsynth import fileformats, solving
from boolsynth.cli import _build_parser, _emit_witnesses, main
from boolsynth.fileformats import (
    WitnessRecord,
    format_cnf,
    format_instance,
    format_ts,
    format_union,
    format_witnesses,
    parse_instance,
    parse_net,
    parse_subject,
    parse_ts,
    parse_witnesses,
)
from conftest import (
    build_battery,
    line_by_line,
    line_ts,
    subjects,
    witness_atoms,
)
from test_solving import (
    FULL,
    futile_resign,
    lax_allowed_at,
    mixed_ts,
    unsettling_decode,
)

TAU_SPEC = "nop,set,swap,free"


@pytest.fixture()
def battery_files(tmp_path):
    paths = {}
    for name, ts in build_battery().items():
        path = tmp_path / f"{name}.ts"
        path.write_text(format_ts(ts))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_feasible_yes(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "check", "feasible", battery_files["a1"], "--type", TAU_SPEC
        )
        assert code == 0
        assert out.strip() == "feasible: yes"

    def test_ssp_counterexample(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "check", "ssp", battery_files["a3"], "--type", TAU_SPEC
        )
        assert code == 1
        assert "ssp: no" in out
        assert "counterexample: sp s1 s2" in out

    def test_essp_counterexample(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "check", "essp", battery_files["a2"], "--type", TAU_SPEC
        )
        assert code == 1
        assert "counterexample: essp a s2" in out

    def test_twin_type_gives_identical_verdicts(self, capsys, battery_files):
        for prop, name, expected in (
            ("feasible", "a1", 0),
            ("ssp", "a3", 1),
            ("essp", "a2", 1),
            ("feasible", "a4", 1),
        ):
            code, _, _ = run(
                capsys, "check", prop, battery_files[name],
                "--type", "nop,res,swap,used",
            )
            assert code == expected

    def test_budget_inconclusive(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "check", "feasible", battery_files["a1"],
            "--type", TAU_SPEC, "--engine", "sat", "--budget", "0",
        )
        assert code == 3
        assert "inconclusive" in out

    @pytest.mark.parametrize(
        "engine, owner, attr, tampered",
        [
            ("exhaustive", solving._Coverage, "resign", futile_resign),
            ("sat", solving._SatContext, "decode", unsettling_decode),
        ],
    )
    def test_an_engine_loop_that_settles_nothing_is_an_internal_error(
        self, capsys, tmp_path, monkeypatch, engine, owner, attr, tampered
    ):
        path = tmp_path / "mixed.ts"
        path.write_text(format_ts(mixed_ts()))
        argv = [
            "check", "feasible", str(path), "--type", FULL.spec(), "--engine", engine,
        ]
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(owner, attr, tampered)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "internal error" in err

    def test_an_inadmissible_engine_region_is_an_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "mixed.ts"
        path.write_text(format_ts(mixed_ts()))
        argv = ["check", "ssp", str(path), "--type", FULL.spec(), "--engine", "sat"]
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(solving._Problem, "allowed_at", lax_allowed_at)
        assert run(capsys, *argv) == (
            4, "", "internal error: engine produced an inadmissible region\n"
        )

    def test_nan_budget_is_a_usage_error(self, capsys, battery_files):
        code, out, err = run(
            capsys, "check", "feasible", battery_files["a1"],
            "--type", TAU_SPEC, "--budget", "nan",
        )
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_exhaustive_budget_bounds_a_forty_state_sweep(self, capsys, tmp_path):
        path = tmp_path / "line.ts"
        path.write_text(format_ts(line_ts(40)))
        start = time.monotonic()
        code, out, _ = run(
            capsys, "check", "feasible", str(path),
            "--type", TAU_SPEC, "--engine", "exhaustive", "--budget", "0.5",
        )
        assert code == 3
        assert "inconclusive" in out
        assert time.monotonic() - start < 5.0

    def test_witness_file_settles_every_requirement(
        self, capsys, battery_files, tmp_path
    ):
        witness_path = tmp_path / "a1.wit"
        code, _, _ = run(
            capsys, "check", "feasible", battery_files["a1"],
            "--type", TAU_SPEC, "--witness", str(witness_path),
        )
        assert code == 0
        records = parse_witnesses(witness_path.read_text())
        # a1 has three state pairs and no inhibition requirements; records
        # group requirements by the region settling them, each exactly once
        rendered = [str(atom) for r in records for atom in r.atoms]
        assert sorted(rendered) == ["ssp s0 s1", "ssp s0 s2", "ssp s1 s2"]
        key_set = {r.region.key() for r in records}
        assert len(key_set) == len(records)
        for record in records:
            for atom in record.atoms:
                assert record.region.separates(atom.first, atom.second)

    def test_witness_file_of_a_union_part_is_pinned(self, capsys, tmp_path):
        # Golden sha256 of the witness file for the 20-state PHI_SAT union
        # part H0+G0+T0_1: it pins the pool, the record grouping and the
        # atom order. Re-recorded when the sat engine began to hint each
        # query toward the pending requirements and to re-sign decoded
        # regions, which shrank this pool from 43 regions to 23. Re-recorded
        # again when an inhibition of an event pending at two or more states
        # began with one query for a region inhibiting all of them, which
        # shrank the pool to 20 regions; the sha256 was
        # 733830d9849701f818cf3f2c39b3523c4d274198ae76d4ebb68d9a4abf4780d7.
        # Re-recorded when decode began to sign regions by the exhaustive
        # engine's rule instead of taking the model's first true selector
        # (same supports, other signatures); the sha256 was
        # fd77314b3c8986d1093db1e248685c4f52f465517041bd4a30c692d7b3cc6255.
        # Re-recorded when the solver began to decide support bits only and
        # the CNF began to give an interaction of constant image one binary
        # clause per arc (still 20 regions, three of them other); the sha256
        # was a01d64aba67b1cb5f7431a91fb73aace8f8701d0ffdfe03122f8bc58295bdfe7.
        union, _ = build_union(PHI_SAT, Family.FREE)
        part = TsUnion(
            tuple(m for m in union.members if m.name in ("H0", "T0_1", "G0"))
        )
        ts_path = tmp_path / "part.ts"
        ts_path.write_text(format_union(part))
        witness_path = tmp_path / "part.wit"
        code, out, _ = run(
            capsys, "check", "feasible", str(ts_path), "--type", TAU_SPEC,
            "--engine", "sat", "--witness", str(witness_path),
        )
        assert (code, out.strip()) == (0, "feasible: yes")
        assert hashlib.sha256(witness_path.read_bytes()).hexdigest() == (
            "ebe1f41d1fccb421e9074ad39a042da25236fb7e0b922835bab0d2aafd0800e3"
        )

    def test_bad_type_spec_is_a_usage_error(self, capsys, battery_files):
        code, _, err = run(
            capsys, "check", "feasible", battery_files["a1"], "--type", "bogus"
        )
        assert code == 2
        assert "error" in err

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check", "feasible", "/nonexistent.ts", "--type", TAU_SPEC
        )
        assert code == 2
        assert "cannot read" in err


def reference_records(subject, rows):
    """The witness records of ``assign_witnesses``' rows, one per region in
    the order of its first requirement, each with its atoms in canonical
    order."""
    grouped: dict[int, tuple] = {}
    for atom, region in witness_atoms(subject, rows):
        grouped.setdefault(id(region), (region, []))[1].append(atom)
    return [WitnessRecord(region, tuple(atoms)) for region, atoms in grouped.values()]


def witness_rows_of(subject, tau, regions, property_name):
    """``assign_witnesses`` over a pool, for the requirements of a check."""
    return assign_witnesses(
        subject, tau, regions,
        want_ssp=property_name in ("ssp", "feasible"),
        want_essp=property_name in ("essp", "feasible"),
    )


CHECKERS = {"ssp": check_ssp, "essp": check_essp, "feasible": check_feasibility}


class TestWitnessWriter:
    """``check --witness`` writes its file from the coverage tracker's masks;
    it must equal the reference rendering: ``line_by_line`` over the atoms
    of ``assign_witnesses``' rows, grouped by region in first-requirement
    order."""

    def assert_file_is_the_reference(self, path, subject, tau, result):
        _emit_witnesses(str(path), subject, tau, result)
        rows = witness_rows_of(
            subject, tau, result.regions, result.property_name
        )
        expected = line_by_line(reference_records(subject, rows))
        assert format_witnesses(subject, rows) == expected
        assert path.read_bytes() == expected.encode()

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_file_equals_the_reference_rendering(self, data, tmp_path_factory):
        subject = data.draw(subjects())
        interactions = st.sets(st.sampled_from(list(Interaction)), min_size=1)
        tau = NetType(frozenset(data.draw(interactions)))
        property_name = data.draw(st.sampled_from(sorted(CHECKERS)))
        engine = data.draw(st.sampled_from(["exhaustive", "sat"]))
        result = CHECKERS[property_name](subject, tau, engine=engine)
        # A spent budget leaves a prefix of the pool, the empty one included.
        kept = data.draw(st.integers(0, len(result.regions)))
        if kept < len(result.regions):
            result = CheckResult(
                property_name, "inconclusive", engine, None,
                result.regions[:kept], "budget exhausted before a verdict",
            )
        path = tmp_path_factory.getbasetemp() / "writer.wit"
        self.assert_file_is_the_reference(path, subject, tau, result)

    def test_a_partial_interaction_that_inhibits_nothing_new(self, tmp_path):
        # The second region signs e1 with inp, its first allowed interaction,
        # though e1 is pending only at s0, which holds 1 there: settling it
        # credits e1 with no state, and its record lists no atom for e1.
        ts = TransitionSystem.build(
            "s0",
            [("s0", "e2", "s1"), ("s1", "e1", "s2"), ("s1", "e0", "s3"),
             ("s1", "e2", "s1"), ("s3", "e2", "s0")],
            events=["e0", "e1", "e2"],
        )
        tau = NetType.from_spec("inp,set")
        result = check_feasibility(ts, tau, engine="exhaustive")
        self.assert_file_is_the_reference(tmp_path / "w.wit", ts, tau, result)

    def test_glued_unsat_instance_file(self, capsys, tmp_path):
        instance = build_instance(PHI_UNSAT, Family.FREE)
        ts_path = tmp_path / "unsat.ts"
        ts_path.write_text(format_instance(instance))
        witness_path = tmp_path / "unsat.wit"
        code, out, _ = run(
            capsys, "check", "feasible", str(ts_path), "--type", TAU_SPEC,
            "--engine", "sat", "--witness", str(witness_path),
        )
        assert (code, out) == (1, "feasible: no\ncounterexample: essp k h_0_2\n")
        subject = parse_subject(ts_path.read_text())
        tau = NetType.from_spec(TAU_SPEC)
        regions = check_feasibility(subject, tau, engine="sat").regions
        text = witness_path.read_text()
        rows = witness_rows_of(subject, tau, regions, "feasible")
        assert text == line_by_line(reference_records(subject, rows))
        assert line_by_line(parse_witnesses(text)) == text


def spy_everywhere(monkeypatch, module, attr: str, calls: list) -> None:
    """Replace ``module.attr`` with a spy that logs ``attr`` to ``calls``,
    under every ``boolsynth`` module attribute bound to it, as a tracer
    would."""
    original = getattr(module, attr)

    def spy(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    for name, owner in list(sys.modules.items()):
        if name == "boolsynth" or name.startswith("boolsynth."):
            for key, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, key, spy)


class TestWitnessWiring:
    """``check --witness`` has one path, under the names that
    ``perfbench/tracer.py`` wraps to time it."""

    def test_check_witness_calls_assign_then_format(
        self, capsys, battery_files, tmp_path, monkeypatch
    ):
        calls: list[str] = []
        spy_everywhere(monkeypatch, solving, "assign_witnesses", calls)
        spy_everywhere(monkeypatch, fileformats, "format_witnesses", calls)
        witness_path = tmp_path / "a1.wit"
        code, _, _ = run(
            capsys, "check", "feasible", battery_files["a1"],
            "--type", TAU_SPEC, "--witness", str(witness_path),
        )
        assert code == 0
        assert calls == ["assign_witnesses", "format_witnesses"]
        assert len(parse_witnesses(witness_path.read_text())) > 0

    def test_every_traced_name_resolves(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("traced_names", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer._FUNCTIONS
        for module_name, attr, _ in tracer._FUNCTIONS:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), (module_name, attr)
        for attr in ("solve", "add_clause"):
            assert callable(SatSolver.__dict__.get(attr)), attr


class TestSynthRgIso:
    def test_synth_round_trip_through_files(self, capsys, battery_files, tmp_path):
        net_path = tmp_path / "a1.net"
        code, _, _ = run(
            capsys, "synth", battery_files["a1"], "--type", TAU_SPEC,
            "-o", str(net_path),
        )
        assert code == 0
        net = parse_net(net_path.read_text())
        assert net.net_type.spec() == TAU_SPEC

        rg_path = tmp_path / "a1rg.ts"
        code, _, _ = run(capsys, "rg", str(net_path), "-o", str(rg_path))
        assert code == 0
        graph = parse_ts(rg_path.read_text())
        original = parse_ts(open(battery_files["a1"]).read())
        assert is_isomorphic(graph, original) is not None

        code, out, _ = run(capsys, "iso", str(rg_path), battery_files["a1"])
        assert code == 0 and out.strip() == "isomorphic"

    def test_synth_writes_to_stdout_by_default(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "synth", battery_files["a1"], "--type", TAU_SPEC
        )
        assert code == 0
        assert out.startswith("net")
        assert "type nop,set,swap,free" in out

    def test_synth_refuses_infeasible_input(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "synth", battery_files["a3"], "--type", TAU_SPEC
        )
        assert code == 1
        assert "feasible: no" in out
        assert "counterexample: sp s1 s2" in out

    def test_synth_reports_an_exhausted_budget(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "synth", battery_files["a1"], "--type", TAU_SPEC,
            "--engine", "sat", "--budget", "0",
        )
        assert (code, out) == (
            3, "feasible: inconclusive (budget exhausted before a verdict)\n"
        )

    def test_synth_names_the_first_unreachable_state(self, capsys, tmp_path):
        # Feasible under the full type, but s3 and s2 (states in that order)
        # have no path from s0, so no net's reachability graph can match.
        path = tmp_path / "islands.ts"
        path.write_text("ts\ninit s0\narc s0 a s1\narc s3 b s0\narc s2 b s1\n")
        code, out, err = run(
            capsys, "synth", str(path), "--type", "nop,inp,out,set,res,swap,used,free"
        )
        assert (code, out) == (4, "")
        assert err == (
            "internal error: synthesized net's reachability graph is not "
            "isomorphic to the input: input state 's3' is unreachable from its "
            "initial state\n"
        )

    def test_iso_negative(self, capsys, battery_files):
        code, out, _ = run(
            capsys, "iso", battery_files["a1"], battery_files["a4"]
        )
        assert code == 1
        assert out.strip() == "not isomorphic"


class TestReduceSolveExtract:
    @pytest.fixture()
    def cnf_files(self, tmp_path):
        sat_path = tmp_path / "phi3.cnf"
        sat_path.write_text(format_cnf(PHI_SAT))
        unsat_path = tmp_path / "phi4.cnf"
        unsat_path.write_text(format_cnf(PHI_UNSAT))
        return {"sat": str(sat_path), "unsat": str(unsat_path)}

    def test_solve13(self, capsys, cnf_files):
        code, out, _ = run(capsys, "solve13", cnf_files["sat"])
        assert code == 0 and out.strip() == "x0"
        code, out, _ = run(capsys, "solve13", cnf_files["unsat"])
        assert code == 1 and out.strip() == "UNSAT"

    def test_reduce_writes_a_reloadable_instance(self, capsys, cnf_files, tmp_path):
        out_path = tmp_path / "inst.ts"
        code, _, _ = run(
            capsys, "reduce", cnf_files["sat"], "--family", "free",
            "-o", str(out_path),
        )
        assert code == 0
        instance = parse_instance(out_path.read_text())
        assert instance.family is Family.FREE
        assert instance.cnf == PHI_SAT

    def test_reduce_sigma_flags_select_the_family(self, capsys, cnf_files, tmp_path):
        for sigma, family in (("1", Family.FREE), ("2", Family.USED)):
            out_path = tmp_path / f"inst{sigma}.ts"
            code, _, _ = run(
                capsys, "reduce", cnf_files["sat"], "--sigma", sigma,
                "-o", str(out_path),
            )
            assert code == 0
            assert parse_instance(out_path.read_text()).family is family

    def test_sat_engine_counterexample_on_the_largest_union(
        self, capsys, cnf_files, tmp_path
    ):
        # The full PHI_UNSAT gadget union (397 states): the steered sat
        # engine must still name the canonically first unsettled atom.
        union_path = tmp_path / "phi4_free.ts"
        code, _, _ = run(
            capsys, "reduce", cnf_files["unsat"], "--family", "free", "--union",
            "-o", str(union_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "check", "feasible", str(union_path), "--type", TAU_SPEC,
            "--engine", "sat",
        )
        assert code == 1
        assert out.splitlines() == ["feasible: no", "counterexample: essp k h_0_2"]

    def test_unbudgeted_exhaustive_engine_refuses_the_largest_union(
        self, capsys, cnf_files, tmp_path
    ):
        # Sweeping 2^397 supports would never end: without a budget the
        # exhaustive engine is a usage error, with one it is inconclusive.
        union_path = tmp_path / "phi4_free.ts"
        run(
            capsys, "reduce", cnf_files["unsat"], "--family", "free", "--union",
            "-o", str(union_path),
        )
        argv = ("check", "ssp", str(union_path), "--type",
                "nop,set,res,swap,used,free", "--engine", "exhaustive")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "2^397 supports" in err and "at most 32 states" in err
        code, out, _ = run(capsys, *argv, "--budget", "0.2")
        assert code == 3
        assert out == "ssp: inconclusive (budget exhausted before a verdict)\n"

    def test_reduce_union_lists_every_member(self, capsys, cnf_files):
        code, out, _ = run(
            capsys, "reduce", cnf_files["sat"], "--family", "used", "--union"
        )
        assert code == 0
        assert out.count("\nts ") + out.startswith("ts ") == 39
        assert "# role family = used" in out

    @pytest.mark.parametrize(
        "formula, family, digest, size",
        [
            ("sat", "used",
             "8af6a080f117627a7450b9070e0081e2594382cd33758f37aedca5ba9c920fce",
             11900),
            ("unsat", "free",
             "05441bdf7d8396408d5a911b0de2d8256a3fb8b5bb259b9f3c034228fcdaf6f5",
             15594),
        ],
    )
    def test_reduce_union_files_are_pinned(
        self, capsys, cnf_files, tmp_path, formula, family, digest, size
    ):
        # The gadget members, then the instance's role block.
        out_path = tmp_path / "union.ts"
        code, _, _ = run(
            capsys, "reduce", cnf_files[formula], "--family", family, "--union",
            "-o", str(out_path),
        )
        assert code == 0
        data = out_path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)

    def test_reduce_asks_to_rename_a_clashing_variable(self, capsys, tmp_path):
        path = tmp_path / "clash.cnf"
        path.write_text(format_cnf(CubicCnf((("u_38", "b", "c"),) * 3)))
        code, out, err = run(capsys, "reduce", str(path), "--family", "free")
        assert (code, out) == (2, "")
        assert "rename the variables" in err

    def test_reduce_requires_exactly_one_family_flag(self, capsys, cnf_files):
        code, _, _ = run(capsys, "reduce", cnf_files["sat"])
        assert code == 2
        code, _, _ = run(
            capsys, "reduce", cnf_files["sat"], "--sigma", "1", "--family", "used"
        )
        assert code == 2

    def test_bad_cnf_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf13 1\nx0 x1 x2\n")
        code, _, err = run(capsys, "reduce", str(bad), "--family", "free")
        assert code == 2
        assert "error" in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("extract")
    instance = build_instance(PHI_SAT, Family.FREE)
    tau = Family.FREE.types()[0]
    region = solve_atom(instance.ts, tau, instance.target_atom, engine="sat")
    assert region is not None
    instance_path = tmp / "inst.ts"
    instance_path.write_text(format_instance(instance))
    witness_path = tmp / "inst.wit"
    witness_path.write_text(
        line_by_line([WitnessRecord(region, (instance.target_atom,))])
    )
    return {
        "instance": str(instance_path),
        "witness": str(witness_path),
        "region": region,
        "tmp": tmp,
    }


class TestExtract:
    def test_extracts_a_certified_model(self, capsys, pipeline):
        code, out, _ = run(
            capsys, "extract", pipeline["witness"], pipeline["instance"]
        )
        assert code == 0
        model = frozenset(out.strip().split())
        assert PHI_SAT.is_model(model)

    def test_type_override_accepted(self, capsys, pipeline):
        code, out, _ = run(
            capsys, "extract", pipeline["witness"], pipeline["instance"],
            "--type", TAU_SPEC,
        )
        assert code == 0
        assert PHI_SAT.is_model(frozenset(out.strip().split()))

    def test_irrelevant_witnesses_are_a_usage_error(self, capsys, pipeline):
        empty = pipeline["tmp"] / "empty.wit"
        empty.write_text("")
        code, _, err = run(
            capsys, "extract", str(empty), pipeline["instance"]
        )
        assert code == 2
        assert "no witness record" in err

    def test_tampered_witness_is_an_internal_error(self, capsys, pipeline):
        region = pipeline["region"]
        # claim the target atom but break a forced signature
        from boolsynth import Interaction, Region

        flip = parse_instance(
            open(pipeline["instance"]).read()
        ).roles.flip_events[0]
        broken = Region(
            dict(region.support), {**region.signature, flip: Interaction.NOP}
        )
        bad_path = pipeline["tmp"] / "bad.wit"
        instance = parse_instance(open(pipeline["instance"]).read())
        bad_path.write_text(
            line_by_line([WitnessRecord(broken, (instance.target_atom,))])
        )
        code, _, err = run(
            capsys, "extract", str(bad_path), pipeline["instance"]
        )
        assert code == 4
        assert "forced-shape" in err

    def test_tampered_instance_file_rejected(self, capsys, pipeline):
        text = open(pipeline["instance"]).read()
        lines = text.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("arc "):
                lines[k] = line + "x"  # rename the target of one arc
                break
        hacked = pipeline["tmp"] / "hacked.ts"
        hacked.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "extract", pipeline["witness"], str(hacked)
        )
        assert code == 2
        assert "does not match" in err

    def test_records_without_atoms_are_read_by_their_regions(self, capsys, pipeline):
        # A record with no atom lines is relevant when its region inhibits
        # the target; one over another system lacks the target's names.
        instance = parse_instance(Path(pipeline["instance"]).read_text())
        k = instance.roles.target_event
        region = pipeline["region"]
        relaxed = Region(
            dict(region.support), {**region.signature, k: Interaction.NOP}
        )
        foreign = Region({"s0": 1, "s1": 0, "s2": 1}, {"a": Interaction.SWAP})
        cases = [
            ([foreign, region], 0, "x1\n", ""),
            (
                [foreign, relaxed],
                2,
                "",
                f"no witness record inhibits {k} at {instance.roles.target_state}\n",
            ),
        ]
        for regions, want_code, want_out, want_err in cases:
            path = pipeline["tmp"] / "bare.wit"
            path.write_text(
                format_witnesses(instance.ts, [(r, [], []) for r in regions])
            )
            assert "atom" not in path.read_text()
            got = run(capsys, "extract", str(path), pipeline["instance"])
            assert got == (want_code, want_out, want_err)


class TestUsage:
    def test_consecutive_calls_keep_their_own_results(self, capsys, battery_files):
        # main builds its parser once per process: no call may see the
        # arguments, options or output of an earlier one.
        a1, a4 = battery_files["a1"], battery_files["a4"]
        calls = [
            (("check", "liveness", a1, "--type", TAU_SPEC), 2, ""),
            (("check", "feasible", a1, "--type", TAU_SPEC), 0, "feasible: yes"),
            (
                ("check", "ssp", a4, "--type", TAU_SPEC,
                 "--engine", "exhaustive", "--budget", "0"),
                3,
                "ssp: inconclusive (budget exhausted before a verdict)",
            ),
            (("check", "ssp", a4, "--type", TAU_SPEC), 1,
             "ssp: no\ncounterexample: sp s1 s3"),
            (("check", "liveness", a1, "--type", TAU_SPEC), 2, ""),
            (("check", "feasible", a1, "--type", TAU_SPEC), 0, "feasible: yes"),
        ]
        for argv, want_code, want_out in calls:
            code, out, err = run(capsys, *argv)
            assert (code, out.strip()) == (want_code, want_out), argv
            assert ("invalid choice" in err) == (want_code == 2)
        assert _build_parser() is _build_parser()

    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_property_choice(self, capsys, battery_files):
        code, _, _ = run(
            capsys, "check", "liveness", battery_files["a1"], "--type", TAU_SPEC
        )
        assert code == 2

    def test_unknown_engine_choice(self, capsys, battery_files):
        code, _, _ = run(
            capsys, "check", "ssp", battery_files["a1"],
            "--type", TAU_SPEC, "--engine", "bdd",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "synth", "extract"])
    def test_bad_type_names_the_unknown_interaction(
        self, capsys, battery_files, pipeline, command
    ):
        operands = {
            "check": ["feasible", battery_files["a1"]],
            "synth": [battery_files["a1"]],
            "extract": [pipeline["witness"], pipeline["instance"]],
        }[command]
        assert run(capsys, command, *operands, "--type", "nop,bogus") == (
            2, "", "error: unknown interaction 'bogus'\n"
        )
