"""The experiment scripts run from a plain checkout: no install and no
``PYTHONPATH``, started from outside the repository. The benchmark's
tracer still finds every function it patches, and its oracle loader still
finds the separation oracles."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import boolsynth
from boolsynth import PHI_SAT, Family, NetType, build_union
from oracles import build_battery, oracle_essp, oracle_ssp

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_battery_report_tallies_all_types(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "battery_report.py"), "--all-types"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    summary = completed.stdout.splitlines()[-1]
    assert summary.startswith("255 types x 4 examples in ")
    assert summary.endswith(
        "verdict counts (ssp, essp): ('yes', 'yes')=96, ('yes', 'no')=96, "
        "('no', 'yes')=414, ('no', 'no')=414"
    )


#: What ``perfbench/workloads.py``'s ``_oracle`` does: execute
#: ``tests/conftest.py`` by path, with ``tests/`` not on ``sys.path``, and
#: read ``oracle_ssp`` and ``oracle_essp`` from the module.
LOAD_CONFTEST_BY_PATH = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("conftest_by_path", sys.argv[1])
conftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(conftest)
from boolsynth import NetType, TransitionSystem
tau = NetType.from_spec(sys.argv[2])
for arcs in sys.argv[3:]:
    ts = TransitionSystem.build("s0", [arc.split(",") for arc in arcs.split()])
    print(conftest.oracle_ssp(ts, tau), conftest.oracle_essp(ts, tau))
"""


def test_the_bench_oracle_loader_finds_the_separation_oracles(tmp_path):
    spec = "nop,set,swap,free"
    tau = NetType.from_spec(spec)
    battery = build_battery().values()
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            LOAD_CONFTEST_BY_PATH,
            str(ROOT / "tests" / "conftest.py"),
            spec,
            *(" ".join(",".join(arc) for arc in ts.arcs) for ts in battery),
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    expected = [f"{oracle_ssp(ts, tau)} {oracle_essp(ts, tau)}" for ts in battery]
    assert completed.stdout.splitlines() == expected
    assert len(set(expected)) == 4  # the battery shows all four verdict pairs


def test_untested_lines_lists_source_lines(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "untested_lines.py"), "tests/test_interactions.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines  # that one file leaves most of the package unrun
    assert all(re.fullmatch(r"src/boolsynth/\w+\.py:[1-9]\d*", line) for line in lines)


def test_bench_tracer_sees_a_sat_check(monkeypatch):
    # A renamed or deleted traced function breaks ``perfbench/run.py
    # --trace 1``; this fails first. Every region an engine returns, and
    # every witness ``synthesize`` reads, passes ``validate_region``.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    member = build_union(PHI_SAT, Family.FREE)[0].members[0]
    tau = Family.FREE.base_type
    tracer = Tracer()
    tracer.install()
    try:
        results = [
            boolsynth.check_feasibility(member, tau, engine=engine)
            for engine in ("sat", "exhaustive")
        ]
        graph = boolsynth.reachability_graph(
            boolsynth.synthesize(member, tau, results[0].regions)
        )
    finally:
        tracer.uninstall()
    assert [result.outcome for result in results] == ["yes", "yes"]
    assert boolsynth.is_isomorphic(graph, member) is not None
    assert tracer.unvalidated == []
    metrics = tracer.layer_metrics()
    assert metrics["sat.sat"] > 0
    assert metrics["solving.engine_sat"] == metrics["solving.engine_exhaustive"] == 1
    spans = tracer.spans
    synth = next(k for k, span in enumerate(spans) if span[0] == "nets.synthesize")
    in_synth = [span for span in spans if span[3] == synth]
    assert sum(span[0] == "regions.validate" for span in in_synth) == len(
        results[0].regions
    )
    assert metrics["regions.validate_calls"] >= 2 * len(results[0].regions) + len(
        results[1].regions
    )
