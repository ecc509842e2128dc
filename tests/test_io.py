"""Tests for checkpoints and report formatting."""

import numpy as np
import pytest

from repro.errors import BenchmarkError, SerializationError
from repro.io.report import csv_table, format_float, markdown_table, \
    series_block
from repro.io.serialization import (load_checkpoint, restore_into,
                                    save_checkpoint)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.npz")
        params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_checkpoint(path, params, meta={"epoch": 3})
        loaded, meta = load_checkpoint(path)
        assert meta["epoch"] == 3
        assert np.array_equal(loaded["w"], params["w"])

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_checkpoint(str(tmp_path / "e.npz"), {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_checkpoint(str(tmp_path / "nope.npz"))

    def test_restore_into_atomic(self):
        target = {"w": np.zeros(3, dtype=np.float32)}
        with pytest.raises(SerializationError):
            restore_into(target, {"w": np.ones(4, dtype=np.float32)})
        assert np.array_equal(target["w"], np.zeros(3))  # untouched

    def test_restore_key_mismatch(self):
        with pytest.raises(SerializationError):
            restore_into({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_non_array_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_checkpoint(str(tmp_path / "x.npz"), {"w": [1, 2]})


class TestReport:
    def test_markdown_alignment(self):
        table = markdown_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") for line in lines)

    def test_row_length_mismatch(self):
        with pytest.raises(BenchmarkError):
            markdown_table(["a", "b"], [[1]])

    def test_none_rendered_as_dash(self):
        table = markdown_table(["a"], [[None]])
        assert "-" in table.splitlines()[2]

    def test_csv_escaping(self):
        out = csv_table(["a"], [["x,y"]])
        assert '"x,y"' in out

    def test_format_float(self):
        assert format_float(1.23456, 2) == "1.23"
        assert format_float(7) == "7"

    def test_series_block(self):
        out = series_block("Latency", ["v8n", "v8x"], [2.1, 19.7],
                           unit=" ms")
        assert "v8n" in out and "19.70 ms" in out

    def test_series_length_mismatch(self):
        with pytest.raises(BenchmarkError):
            series_block("t", ["a"], [1.0, 2.0])
