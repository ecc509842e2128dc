"""Tests for dataset QC tooling and the CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.dataset.quality import (hamming_distance, perceptual_hash,
                                   stratum_statistics)
from repro.errors import DatasetError


@pytest.fixture(scope="module")
def named_frames(builder, small_index):
    recs = small_index.records[:16]
    return [(r.image_id, r.render(builder.renderer)) for r in recs]


class TestPerceptualHash:
    def test_deterministic(self, named_frames):
        _, frame = named_frames[0]
        assert perceptual_hash(frame.image) == \
            perceptual_hash(frame.image)

    def test_noise_invariant(self, named_frames):
        _, frame = named_frames[0]
        noisy = np.clip(frame.image + np.random.default_rng(0).normal(
            0, 0.01, frame.image.shape).astype(np.float32), 0, 1)
        d = hamming_distance(perceptual_hash(frame.image),
                             perceptual_hash(noisy))
        assert d <= 6

    def test_distinct_scenes_distant(self, named_frames):
        ha = perceptual_hash(named_frames[0][1].image)
        hs = [perceptual_hash(f.image) for _, f in named_frames[1:8]]
        assert np.mean([hamming_distance(ha, h) for h in hs]) > 4

    def test_shape_validation(self):
        with pytest.raises(DatasetError):
            perceptual_hash(np.zeros((8, 8)))


class TestStratumStatistics:
    def test_covers_all_strata(self, builder, small_index):
        stats = stratum_statistics(small_index, builder.renderer,
                                   per_stratum=2)
        assert len(stats) == 12
        for key, s in stats.items():
            assert 0.0 <= s["mean_brightness"] <= 1.0
            assert 0.0 <= s["vest_presence"] <= 1.0

    def test_adversarial_stratum_darker_or_similar(self, builder,
                                                   small_index):
        stats = stratum_statistics(small_index, builder.renderer,
                                   per_stratum=4)
        adv = stats["adversarial/all"]["mean_brightness"]
        clean = stats["footpath/no_pedestrians"]["mean_brightness"]
        assert adv <= clean + 0.1

    def test_validation(self, builder, small_index):
        with pytest.raises(DatasetError):
            stratum_statistics(small_index, builder.renderer,
                               per_stratum=0)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "ablation_fleet" in out

    def test_latency(self, capsys):
        assert main(["latency", "yolov8-x", "xavier-nx"]) == 0
        out = capsys.readouterr().out
        assert "988" in out or "989" in out

    def test_latency_unknown_model(self, capsys):
        assert main(["latency", "resnet152", "xavier-nx"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def _install_fake_experiment(self, monkeypatch, calls):
        """Route ``run`` through a fake experiment that records the
        ``enforce_claims`` flag and fails its claim when enforced."""
        from repro.bench.runner import ExperimentResult
        from repro.errors import BenchmarkError

        def fake_run(eid, enforce_claims=True, **kwargs):
            calls.append(enforce_claims)
            if enforce_claims:
                raise BenchmarkError(f"claims failed in {eid}")
            return ExperimentResult(
                experiment_id=eid, title="Fake", headers=["x"],
                rows=[[1]], claims={"bound_holds": False})

        import repro.bench.experiments.registry as registry
        monkeypatch.setattr(registry, "run_experiment", fake_run)

    def test_run_enforces_claims_by_default(self, monkeypatch,
                                            capsys):
        calls = []
        self._install_fake_experiment(monkeypatch, calls)
        assert main(["run", "table2"]) == 1
        assert calls == [True]
        assert "FAILED" in capsys.readouterr().err

    def test_run_no_enforce_reports_but_passes(self, monkeypatch,
                                               capsys):
        calls = []
        self._install_fake_experiment(monkeypatch, calls)
        assert main(["run", "table2", "--no-enforce"]) == 0
        assert calls == [False]
        captured = capsys.readouterr()
        assert "Fake" in captured.out
        # Violations are still surfaced, they just don't fail the run.
        assert "FAILED CLAIMS" in captured.err

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json
        out = tmp_path / "trace.json"
        assert main(["trace", "table2", "--out", str(out),
                     "--no-enforce"]) == 0
        printed = capsys.readouterr().out
        assert "experiment:table2" in printed
        assert "% closure" in printed
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_dataset(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "30711" in out
