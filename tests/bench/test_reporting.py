"""Tests for the result table emitters (repro.bench.reporting)."""

import json

from repro.bench.reporting import format_value, render_table, save_json


class TestFormatValue:
    def test_nan_renders_dash(self):
        assert format_value(float("nan")) == "-"

    def test_magnitude_dependent_precision(self):
        assert format_value(1234.5) == "1234"
        assert format_value(42.31) == "42.3"
        assert format_value(1.2345) == "1.234"
        assert format_value(0.00001) == "1.00e-05"

    def test_strings_pass_through(self):
        assert format_value("OSScaling") == "OSScaling"

    def test_zero(self):
        assert format_value(0.0) == "0"


class TestRenderTable:
    def test_contains_series_and_notes(self):
        text = render_table(
            title="fig: demo",
            x_name="k",
            xs=[1, 2],
            series={"A": [1.0, 2.0], "B": [3.0, 4.0]},
            y_name="ms",
            notes="hello",
        )
        assert "fig: demo" in text
        assert "A" in text and "B" in text
        assert "note: hello" in text
        assert len(text.splitlines()) == 7  # title, unit, header, rule, 2 rows, note

    def test_column_alignment(self):
        text = render_table("t", "x", [10], {"verylongname": [1.0]})
        header, rule = text.splitlines()[2:4]
        assert len(header) == len(rule)


class TestSaveJson:
    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "out.json"
        save_json(path, {"series": [1.0, float("nan")], "nested": {"x": float("nan")}})
        loaded = json.loads(path.read_text())
        assert loaded["series"] == [1.0, None]
        assert loaded["nested"]["x"] is None
