"""The experiment scripts run from a plain checkout: no install and no
``PYTHONPATH``, started from outside the repository."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_engine_benchmark_reports_no_disagreements(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "engine_benchmark.py"),
            "--sizes", "12,18",
            "--trials", "2",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    header, *rows = completed.stdout.splitlines()
    assert header.split()[-1] == "disagreements"
    assert [row.split()[0] for row in rows] == ["12", "18"]
    assert [row.split()[-1] for row in rows] == ["0", "0"]
