"""Tier-1 smoke of the end-to-end benchmark (``--smoke``: every stream cut
25x, one build, one timed pass — the same code path otherwise)."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\w+)/(\S+) (\S+) (\S+) \(n=\d+")

#: Runs the child entry point with the oracle lying about every OS.
INJECTED = f"""
import runpy, sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
import e2e_oracle

honest = e2e_oracle.direct_answer

def lying(engine, query, algorithm):
    feasible, objective, budget, nodes = honest(engine, query, algorithm)
    return feasible, (objective or 0.0) + 1.0, budget, nodes

e2e_oracle.direct_answer = lying
sys.argv = [{str(RUN)!r}, "--child", "--workload", "edge_hot", "--smoke"]
runpy.run_path({str(RUN)!r}, run_name="__main__")
"""


@pytest.fixture(scope="module")
def suite():
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=120
    )


def test_prints_exactly_the_contract_metrics(suite):
    assert suite.returncode == 0, suite.stderr
    printed: dict[str, dict[str, float]] = {}
    for line in suite.stdout.splitlines():
        match = LINE.match(line)
        if match:
            workload, metric, value, _unit = match.groups()
            printed.setdefault(workload, {})[metric] = float(value)
    assert list(printed) == [w["name"] for w in CONTRACT["workloads"]]
    expected = {m["name"] for m in CONTRACT["end_to_end"]} | {"fail_share"}
    for workload, metrics in printed.items():
        assert set(metrics) == expected, workload
        assert all(math.isfinite(value) for value in metrics.values()), workload
        assert metrics.pop("fail_share") == 0, workload
        assert all(value > 0 for value in metrics.values()), workload


def test_a_wrong_answer_fails_the_command():
    done = subprocess.run(
        [sys.executable, "-c", INJECTED],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
