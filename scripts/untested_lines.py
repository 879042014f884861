#!/usr/bin/env python3
"""Print every executable line of ``src/boolsynth`` that a pytest run never
runs, one ``src/boolsynth/<file>:<line>`` per line.

Usage:
    python scripts/untested_lines.py                      # the whole suite
    python scripts/untested_lines.py tests/test_ts.py -k Report

Arguments go to pytest, with test paths relative to the repository root.
The run is traced with ``sys.settrace`` (the ``coverage`` package is not
needed), which makes it several times slower than a plain run. A line is
executable if the compiled module maps some instruction to it. The exit
code is pytest's, whose own report goes to stderr.
"""

from __future__ import annotations

import collections
import contextlib
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boolsynth"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that some instruction of it maps to."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineSet(set):
    """The lines of one source file that ran, and the local trace function
    of its frames. One per file, so tracing a call makes no object: a
    closure per call that returns itself would be a reference cycle, and the
    library runs its engine with the cyclic garbage collector paused."""

    def __call__(self, frame, event, arg):
        if event == "line":
            self.add(frame.f_lineno)
        return self


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process; returns its exit code and, per source
    file of the package, the lines that ran."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = collections.defaultdict(LineSet)

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None  # no line events outside the package
        lines = ran[frame.f_code.co_filename]
        lines.add(frame.f_lineno)
        return lines

    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout lists lines only
            code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pytest reads the repository's configuration there
    code, ran = traced_run(argv)
    by_path: dict[Path, set[int]] = {}
    for filename, lines in ran.items():
        by_path.setdefault(Path(filename).resolve(), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - by_path.get(path.resolve(), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT).as_posix()}:{line}")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
