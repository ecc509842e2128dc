"""Tests for the benchmark harness: runner, parallel fan-out."""

import pytest

from repro.bench.parallel import default_workers, parallel_map
from repro.bench.runner import ExperimentResult, ExperimentRunner
from repro.errors import BenchmarkError, ConfigError


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelMap:
    def test_order_preserved(self):
        out = parallel_map(_square, list(range(20)), workers=2)
        assert out == [i * i for i in range(20)]

    def test_serial_fallback_small_input(self):
        assert parallel_map(_square, [1, 2], workers=4) == [1, 4]

    def test_force_serial(self):
        out = parallel_map(_square, list(range(10)), force_serial=True)
        assert out == [i * i for i in range(10)]

    def test_empty(self):
        assert parallel_map(_square, []) == []

    def test_worker_exception_propagates(self):
        with pytest.raises((BenchmarkError, ValueError)):
            parallel_map(_fail_on_three, list(range(8)), workers=2)

    def test_workers_validation(self):
        with pytest.raises(ConfigError):
            parallel_map(_square, [1], workers=0)

    def test_workers_validated_even_for_empty_input(self):
        # A bad worker count is a config bug whether or not there is
        # work; it must not be masked by the empty-input early return.
        with pytest.raises(ConfigError):
            parallel_map(_square, [], workers=0)
        with pytest.raises(ConfigError):
            parallel_map(_square, [1], workers=2.5)

    def test_default_workers_positive(self):
        assert default_workers() >= 1



def _ok_experiment():
    return ExperimentResult(
        experiment_id="x", title="X", headers=["a"], rows=[[1]],
        claims={"holds": True},
        paper_reference={"v": 1.0}, measured={"v": 1.01})


def _failing_experiment():
    return ExperimentResult(
        experiment_id="y", title="Y", headers=["a"], rows=[[1]],
        claims={"fails": False})


class TestRunner:
    def test_run_by_id(self):
        runner = ExperimentRunner({"x": _ok_experiment})
        result = runner.run("x")
        assert result.all_claims_hold
        assert result.elapsed_s >= 0

    def test_unknown_id(self):
        runner = ExperimentRunner({"x": _ok_experiment})
        with pytest.raises(BenchmarkError):
            runner.run("z")

    def test_claim_enforcement(self):
        runner = ExperimentRunner({"y": _failing_experiment})
        with pytest.raises(BenchmarkError):
            runner.run("y")
        result = runner.run("y", enforce_claims=False)
        assert result.failed_claims() == ["fails"]

    def test_run_all(self):
        runner = ExperimentRunner({"x": _ok_experiment})
        results = runner.run_all()
        assert len(results) == 1

    def test_markdown_rendering(self):
        md = _ok_experiment().to_markdown()
        assert "### X" in md
        assert "[x] holds" in md
        assert "| v | 1.00 | 1.01 |" in md

    def test_empty_registry_rejected(self):
        with pytest.raises(BenchmarkError):
            ExperimentRunner({})
