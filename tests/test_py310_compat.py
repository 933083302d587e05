"""Every tracked Python file is Python 3.10 code.

``pyproject.toml`` declares ``requires-python = ">=3.10"`` and CI's test
matrix runs 3.10, so a file that only a newer interpreter accepts breaks
that leg, possibly at collection.  This test holds what can be checked
without a 3.10 interpreter, on the files ``tests/test_unused_imports.py``
scans:

* every file parses with ``ast.parse(source, feature_version=(3, 10))``,
  which refuses later syntax such as ``except*``;
* no import, attribute, name or keyword argument names something that
  only 3.11 or later has: the module ``tomllib``, ``asyncio.timeout``,
  ``asyncio.TaskGroup``, ``typing.Self``, the ``eager_start`` argument
  and ``ExceptionGroup``.  A mention in a string or comment is fine.

Run this file as a script to print every finding.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.test_unused_imports import ROOT, python_files

#: ``module.name`` entries are refused as an attribute of that module or a
#: name imported from it; a bare entry is refused as a module anywhere in an
#: import and as any identifier.
NEWER_THAN_310 = (
    "tomllib",
    "asyncio.timeout",
    "asyncio.TaskGroup",
    "typing.Self",
    "eager_start",
    "ExceptionGroup",
)


def _qualified(tree: ast.AST):
    """``(line, name)`` for every module, ``module.name`` and identifier
    *tree* uses, in the forms the deny-list entries take."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module.partition(".")[0]
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
            if isinstance(node.value, ast.Name):
                yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.lineno, node.arg


def newer_than_310(path: Path) -> list[tuple[int, str]]:
    """``(line, what)`` of everything in *path* that Python 3.10 lacks."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path), feature_version=(3, 10))
    except SyntaxError as error:
        return [(error.lineno or 0, f"not 3.10 syntax: {error.msg}")]
    denied = set(NEWER_THAN_310)
    return sorted({(line, name) for line, name in _qualified(tree) if name in denied})


def test_every_file_is_python_310():
    files = python_files()
    assert len(files) > 100  # the scan found the repository
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in files
        for line, what in newer_than_310(path)
    ]
    assert not found, "3.11+ syntax or names:\n" + "\n".join(found)


def test_the_scan_reports_what_it_should(tmp_path):
    """A planted module: each 3.11+ use is reported, mentions and look-alikes are not."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import asyncio\n"
        "import tomllib\n"
        "from typing import Self, Any\n"
        "from asyncio import TaskGroup\n"
        "async def main(loop, coro) -> None:\n"
        "    async with asyncio.timeout(1):\n"
        "        loop.create_task(coro, eager_start=True)\n"
        "    raise ExceptionGroup('x', [])\n"
        "def fine(timeout=1) -> Any:\n"
        "    '''tomllib, asyncio.timeout and ExceptionGroup in a string'''\n"
        "    return asyncio.wait_for(asyncio.sleep(timeout), timeout)  # asyncio.TaskGroup\n"
    )
    assert newer_than_310(planted) == [
        (2, "tomllib"),
        (3, "typing.Self"),
        (4, "asyncio.TaskGroup"),
        (6, "asyncio.timeout"),
        (7, "eager_start"),
        (8, "ExceptionGroup"),
    ]
    later = tmp_path / "later.py"
    later.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    [(line, what)] = newer_than_310(later)
    assert what.startswith("not 3.10 syntax")


if __name__ == "__main__":
    for path in python_files():
        for line, what in newer_than_310(path):
            print(f"{path.relative_to(ROOT)}:{line}: {what}")
