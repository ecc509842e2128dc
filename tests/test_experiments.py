"""Integration tests: every registered experiment reproduces its
table/figure with all paper claims holding."""

import pytest

from repro.bench.experiments.registry import (FAST_EXPERIMENTS,
                                              experiment_ids,
                                              run_experiment)
from repro.errors import BenchmarkError


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        # Every table and figure in the paper's evaluation:
        assert {"table1", "table2", "table3",
                "fig1", "fig2", "fig3", "fig4", "fig5",
                "fig6"} <= ids

    def test_ablations_registered(self):
        ids = set(experiment_ids())
        assert {"ablation_sampling", "ablation_calibration",
                "ablation_deployment", "ablation_pipeline",
                "ablation_severity", "ablation_adaptive",
                "ablation_efficiency", "ablation_multimodal",
                "ablation_precision", "ablation_fleet",
                "ablation_strata", "ablation_percategory"} <= ids

    def test_fast_subset(self):
        assert set(experiment_ids(include_slow=False)) == \
            set(FAST_EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(BenchmarkError):
            run_experiment("fig99")


@pytest.mark.parametrize("eid", sorted(FAST_EXPERIMENTS))
def test_fast_experiment_claims_hold(eid):
    kwargs = {}
    if eid in ("fig5", "fig6"):
        kwargs["n_frames"] = 300       # keep CI fast; same medians
    if eid == "ablation_pipeline":
        kwargs["n_frames"] = 80
    result = run_experiment(eid, **kwargs)
    assert result.all_claims_hold, result.failed_claims()
    assert result.rows
    assert result.to_markdown()


class TestSpecificNumbers:
    def test_fig1_numbers(self):
        r = run_experiment("fig1")
        assert r.measured["random_1k_pct"] == pytest.approx(93.0,
                                                            abs=1.5)
        assert r.measured["curated_3866_pct"] == pytest.approx(99.5,
                                                               abs=0.5)

    def test_fig3_numbers(self):
        r = run_experiment("fig3")
        assert r.measured["yolov11-m_pct"] == pytest.approx(99.49,
                                                            abs=0.3)
        assert r.measured["min_accuracy_pct"] >= 98.4

    def test_fig4_numbers(self):
        r = run_experiment("fig4")
        assert r.measured["yolov11-x_pct"] == pytest.approx(99.11,
                                                            abs=0.5)
        assert r.measured["yolov8-x_pct"] == pytest.approx(98.11,
                                                           abs=0.5)

    def test_fig5_numbers(self):
        r = run_experiment("fig5", n_frames=300)
        assert r.measured["nx_yolov8x_max_ms"] == pytest.approx(
            989.0, abs=25.0)

    def test_fig6_numbers(self):
        r = run_experiment("fig6", n_frames=300)
        assert r.measured["all_models_bound_ms"] <= 25.0
        assert r.measured["nx_speedup"] == pytest.approx(50.0, abs=8.0)

    def test_table1_total(self):
        r = run_experiment("table1")
        assert r.measured["total_images"] == 30711


@pytest.mark.slow
def test_severity_ablation_trains_and_holds():
    result = run_experiment("ablation_severity", train_images=120,
                            eval_images=48, epochs=15)
    assert result.all_claims_hold, result.failed_claims()


@pytest.mark.slow
def test_multimodal_ablation_trains_and_holds():
    result = run_experiment("ablation_multimodal", train_images=140,
                            eval_images=56, epochs=20)
    assert result.all_claims_hold, result.failed_claims()


@pytest.mark.slow
def test_percategory_ablation_trains_and_holds():
    result = run_experiment("ablation_percategory", epochs=25,
                            eval_per_stratum=12)
    assert result.all_claims_hold, result.failed_claims()
