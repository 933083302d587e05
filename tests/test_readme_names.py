"""Every name the README puts in backticks still names something.

A backticked span of the root ``README.md`` whose head is an identifier
that is dotted, contains ``_`` or is CamelCase (``ProcessBackend``,
``repro.service.backends``, ``RoutedService._integrate``, ``p50_ms``) must
resolve to one of:

* text in a ``.py`` file under ``src/``, ``tests/`` or ``benchmarks/``
  (each dotted part as a word there);
* a metric or workload name in ``BENCHMARK.json``;
* a path in the repository, whole or as its tail, a file name or a
  module stem (``benchmarks/e2e/run.py``, ``prep/partition.py``,
  ``tests/core/test_searchbase.py::TestExpand``, ``test_chaos``).

There is no allow-list: a name the code no longer has is narration of a
retirement, and that history lives in ``CHANGES.md``.  Run this file as a
script to print every span that does not resolve.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: An inline code span (fenced blocks are cut out first).
_SPAN = re.compile(r"`([^`\n]+)`")
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
#: A span's head: a possibly dotted identifier, then a call, an index or
#: nothing.
_HEAD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\(.*\)|\[.*\])?")
_CAMEL = re.compile(r"[A-Z].*[a-z]|[a-z].*[A-Z]")
#: A span that names a file or directory: slashed or with a file suffix,
#: optionally followed by ``::`` test ids.
_PATH = re.compile(r"([\w.*-]+(?:/[\w.*-]+)*/?)((?:::[\w\[\]-]+)*)")
_SUFFIXES = (".py", ".md", ".json", ".toml", ".yml", ".txt")


def is_checked(name: str) -> bool:
    """Whether *name* is dotted, underscored or CamelCase."""
    return "." in name or "_" in name or bool(_CAMEL.search(name))


def readme_names() -> list[tuple[int, str]]:
    """``(line, name)`` for every checked name in ``README.md``, in order:
    spans that are whole identifiers (with an optional call or index) or
    repository paths."""
    text = (ROOT / "README.md").read_text()
    # Blank a fenced block out, keeping its lines so line numbers hold.
    text = _FENCE.sub(lambda block: "\n" * block.group(0).count("\n"), text)
    names = []
    for number, line in enumerate(text.splitlines(), start=1):
        for span in _SPAN.findall(line):
            span = span.strip()
            path = _PATH.fullmatch(span)
            if path is not None and is_path(path.group(1)):
                names.append((number, span))
                continue
            head = _HEAD.fullmatch(span)
            if head is not None and is_checked(head.group(1)):
                names.append((number, head.group(1)))
    return names


def is_path(text: str) -> bool:
    """Whether *text* is shaped like a repository path: a directory
    (trailing ``/``) or a file with a known suffix."""
    return text.endswith("/") or text.endswith(_SUFFIXES)


@lru_cache(maxsize=1)
def repo_paths() -> tuple[frozenset[str], frozenset[str]]:
    """Every file and directory of the checkout as a ``/``-joined path
    relative to the root, and every ``.py`` file's stem."""
    paths, stems = set(), set()
    for path in ROOT.rglob("*"):
        relative = path.relative_to(ROOT)
        if relative.parts[0] == ".git" or "__pycache__" in relative.parts:
            continue
        paths.add(relative.as_posix())
        if path.suffix == ".py":
            stems.add(path.stem)
    return frozenset(paths), frozenset(stems)


def path_resolves(text: str) -> bool:
    """Whether a file or directory's path ends with *text*."""
    paths, _stems = repo_paths()
    tail = text.rstrip("/")
    pattern = re.compile(r"(?:.*/)?" + re.escape(tail).replace(r"\*", "[^/]*"))
    return any(pattern.fullmatch(path) for path in paths)


@lru_cache(maxsize=1)
def code_words() -> frozenset[str]:
    """Every identifier-shaped word in the ``.py`` files of ``src/``,
    ``tests/`` and ``benchmarks/`` but this one (it spells retired names
    out), plus every dotted run of them."""
    words: set[str] = set()
    dotted = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")
    for top in ("src", "tests", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            if path == Path(__file__).resolve():
                continue
            for run in dotted.findall(path.read_text()):
                words.add(run)
                words.update(run.split("."))
    return frozenset(words)


@lru_cache(maxsize=1)
def benchmark_names() -> frozenset[str]:
    """Metric and workload names declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return frozenset(
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec.get(key, ())
    )


def resolves(name: str) -> bool:
    """Whether *name* is code text, a benchmark name or a repo path."""
    if name in benchmark_names():
        return True
    path = _PATH.fullmatch(name)
    if path is not None and is_path(path.group(1)):
        ids = [part.split("[")[0] for part in path.group(2).split("::") if part]
        return path_resolves(path.group(1)) and all(part in code_words() for part in ids)
    words = code_words()
    if name in words or name in repo_paths()[1]:
        return True
    return all(part in words for part in name.split("."))


def unresolved() -> list[tuple[int, str]]:
    """The README's checked names that resolve to nothing."""
    return [(line, name) for line, name in readme_names() if not resolves(name)]


def test_the_scan_sees_the_readme():
    names = {name for _line, name in readme_names()}
    assert {"ProcessBackend", "RoutedService", "p50_ms"} <= names


def test_every_readme_name_resolves():
    missing = unresolved()
    assert not missing, "README names that resolve to nothing (line, name): " + ", ".join(
        f"{line}: {name}" for line, name in missing
    )


def test_a_retired_name_does_not_resolve():
    assert not resolves("WaveSizeController")
    assert not resolves("ProcessBackend.max_worker_engine_bytes")
    assert not resolves("src/repro/service/no_such_module.py")


if __name__ == "__main__":
    for line, name in unresolved():
        print(f"README.md:{line}: {name}")
