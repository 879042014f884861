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
    # --trace 1``; this fails first.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    member = build_union(PHI_SAT, Family.FREE)[0].members[0]
    tracer = Tracer()
    tracer.install()
    try:
        result = boolsynth.check_feasibility(
            member, Family.FREE.base_type, engine="sat"
        )
    finally:
        tracer.uninstall()
    assert result.outcome == "yes"
    assert tracer.unvalidated == []
    metrics = tracer.layer_metrics()
    assert metrics["sat.sat"] > 0
    assert metrics["regions.validate_calls"] >= len(result.regions) > 0
