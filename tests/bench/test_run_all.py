"""``benchmarks/run_all.py`` refuses an ``--only`` that names no figure."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_RUN_ALL_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"
_spec = importlib.util.spec_from_file_location("kor_run_all", _RUN_ALL_PATH)
run_all = importlib.util.module_from_spec(_spec)
sys.modules["kor_run_all"] = run_all
_spec.loader.exec_module(run_all)


@pytest.mark.parametrize("only", ["nope", "fig04,nope"])
def test_unknown_only_prefix_fails_and_lists_the_figures(only, tmp_path, capsys):
    results = tmp_path / "out"
    assert run_all.main(["--only", only, "--results", str(results)]) != 0
    assert not results.exists()
    err = capsys.readouterr().err
    assert "nope" in err
    assert "fig04_runtime_vs_keywords" in err
    assert "ablation_partition" in err
