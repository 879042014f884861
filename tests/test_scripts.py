"""The experiment scripts run from a plain checkout: no install and no
``PYTHONPATH``, started from outside the repository."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
