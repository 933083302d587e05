"""The shipped examples must run end to end (fast ones only)."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "most popular route" in output
        assert "hotel" in output

    def test_custom_graph(self):
        output = run_example("custom_graph.py")
        assert "persisted and reloaded" in output
        assert "round trip from the station" in output

    def test_topk_route_search(self):
        output = run_example("topk_route_search.py")
        assert "#1: OS=4.00" in output  # Figure-1 optimum leads the list
        assert "bucketbound top-3" in output

    def test_async_demo(self):
        output = run_example("async_demo.py")
        assert "async front-end" in output
        assert "execute wave(s)" in output
        assert "coalesced" in output
        assert "impatient client timed out" in output
        assert "sharded async burst" in output

    def test_sharded_demo(self):
        output = run_example("sharded_demo.py")
        assert "serial  backend:" in output
        assert "process backend:" in output
        assert "search outcomes" in output
