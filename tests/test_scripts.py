"""The experiment scripts run from a plain checkout: no install and no
``PYTHONPATH``, started from outside the repository. The benchmark's
tracer still finds every function it patches."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import boolsynth
from boolsynth import PHI_SAT, Family, build_union

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
