"""No tracked Python file imports a name it never uses.

CI runs ``ruff check .``, whose rule F401 (unused import) is the one a
refactor breaks most often; this test holds the same line where ruff is
not installed.  Every tracked ``.py`` file (``git ls-files '*.py'``; all
``.py`` files under the repository root when it is not a git checkout)
is parsed with :mod:`ast`, and an import fails the test when the name it
binds appears nowhere else in the file: not as a name, not as the root
of an attribute chain (``np`` in ``np.inf``), and not inside a string
that parses as an expression (a quoted annotation such as
``"PartitionedCostTables"``, an ``__all__`` entry, a dotted
``monkeypatch`` target).  Like the repository's ruff settings, package
``__init__.py`` files (which re-export on purpose) are skipped, and so is
an import whose lines carry ``# noqa`` (bare or naming F401), a
``from __future__`` import, a star import and an explicit re-export
(``import x as x``).  The scan is per file, not per scope, so it is
more lenient than ruff: an import whose name is used only in another
scope passes here.

Run this file as a script to print every unused import.
"""

from __future__ import annotations

import ast
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A string worth parsing as an expression: identifiers, dots, brackets,
#: commas and ``|`` only, so prose and docstrings are never parsed.
_EXPRESSION = re.compile(r"[\w.\[\], |]+")
_NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")


def python_files() -> list[Path]:
    """Every tracked ``.py`` file, or every ``.py`` file outside hidden
    directories when the root is not a git checkout."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.py"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        paths = [ROOT / name for name in listed]
    except (OSError, subprocess.CalledProcessError):
        paths = [
            path
            for path in ROOT.rglob("*.py")
            if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
        ]
    return sorted(path for path in paths if path.is_file())


def tracked_files() -> list[Path]:
    """Every tracked ``.py`` file except package ``__init__.py`` files."""
    return [path for path in python_files() if path.name != "__init__.py"]


def _used_names(tree: ast.AST) -> set[str]:
    """Names read, written or deleted anywhere in *tree*, plus the names
    of every string constant that parses as an expression."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _EXPRESSION.fullmatch(node.value)
        ):
            try:
                inner = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(inner) if isinstance(name, ast.Name))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, bound name)`` of every import in *path* nothing uses."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(_NOQA.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name:
                continue
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                found.append((node.lineno, bound))
    return found


def test_every_import_is_used():
    files = tracked_files()
    assert len(files) > 100  # the scan found the repository
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path)
    ]
    assert not unused, "imports nothing uses:\n" + "\n".join(unused)


def test_the_scan_reports_what_it_should(tmp_path):
    """A planted module: only the three imports nothing uses are reported."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy as np\n"
        "import json  # noqa: F401\n"
        "import re  # noqa: E501\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from collections import OrderedDict as OrderedDict\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['helper']\n"
        "def helper(x: 'Path') -> None:\n"
        "    return np.zeros(1), os.sep\n"
    )
    assert unused_imports(planted) == [(3, "osp"), (6, "re"), (7, "Any")]


if __name__ == "__main__":
    for path in tracked_files():
        for line, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{line}: {name}")
