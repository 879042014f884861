"""Every ``python`` block of the README runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
#: (line of the opening fence, code) per python block.
BLOCKS = [
    (TEXT.count("\n", 0, match.start()) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize(
    "line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS]
)
def test_readme_block_runs(line, code):
    exec(compile("\n" * line + code, str(README), "exec"), {})
