"""No tracked Python line is longer than ruff's ``line-length``.

CI runs ``ruff format --check``, which rewraps code to the
``[tool.ruff] line-length`` of ``pyproject.toml``; this test holds the
line where ruff is not installed.  It reads the limit from
``pyproject.toml`` and scans the files ``tests/test_unused_imports.py``
scans, package ``__init__.py`` files included, counting characters (not
bytes) per line.  It is stricter than the formatter, which leaves a long
string or comment it cannot split alone: such a line fails here.

``python -m tests.test_line_length`` prints every long line.
"""

from __future__ import annotations

import re
from pathlib import Path

from tests.test_unused_imports import ROOT, python_files


def line_length() -> int:
    """``[tool.ruff] line-length`` of the repository's ``pyproject.toml``.

    Read with a pattern rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return int(re.search(r"^line-length\s*=\s*(\d+)", text, re.M).group(1))


def long_lines(path: Path, limit: int) -> list[tuple[int, int]]:
    """``(line number, length)`` of every line of *path* over *limit*."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > limit]


def test_no_line_is_longer_than_the_ruff_limit():
    limit = line_length()
    files = python_files()
    assert len(files) > 100  # the scan found the repository
    found = [
        f"{path.relative_to(ROOT)}:{number}: {length} > {limit}"
        for path in files
        for number, length in long_lines(path, limit)
    ]
    assert not found, "lines longer than ruff's line-length:\n" + "\n".join(found)


def test_the_scan_counts_characters(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("x = 1\n" + "#" * 10 + "\n" + "é" * 10 + "\n" + "y" * 11 + "\n")
    assert long_lines(planted, 10) == [(4, 11)]


if __name__ == "__main__":
    limit = line_length()
    for path in python_files():
        for number, length in long_lines(path, limit):
            print(f"{path.relative_to(ROOT)}:{number}: {length} > {limit}")
