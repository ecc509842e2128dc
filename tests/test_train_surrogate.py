"""Tests for the calibrated accuracy surrogate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CalibrationError
from repro.train.surrogate import (N_REF, PAPER_ACCURACY_ANCHORS,
                                   AccuracySurrogate, SurrogateQuery)


@pytest.fixture(scope="module")
def surrogate():
    return AccuracySurrogate()


class TestAnchors:
    def test_fig1_anchors_reproduced(self, surrogate):
        assert surrogate.verify_fig1_anchors()

    @pytest.mark.parametrize("model", sorted(PAPER_ACCURACY_ANCHORS))
    @pytest.mark.parametrize("dataset", ["diverse", "adversarial"])
    def test_protocol_point_equals_anchor(self, surrogate, model,
                                          dataset):
        q = SurrogateQuery(model, dataset)
        expected = PAPER_ACCURACY_ANCHORS[model][dataset]
        assert surrogate.expected_precision_pct(q) == \
            pytest.approx(expected, abs=1e-9)

    def test_fig3_claims(self, surrogate):
        acc = {m: surrogate.expected_precision_pct(
            SurrogateQuery(m, "diverse"))
            for m in PAPER_ACCURACY_ANCHORS}
        assert all(v >= 98.6 for v in acc.values())
        assert acc["yolov11-m"] == max(acc.values())

    def test_fig4_claims(self, surrogate):
        acc = {m: surrogate.expected_precision_pct(
            SurrogateQuery(m, "adversarial"))
            for m in PAPER_ACCURACY_ANCHORS}
        for fam in ("yolov8", "yolov11"):
            assert acc[f"{fam}-n"] < acc[f"{fam}-m"] < acc[f"{fam}-x"]

    def test_baselines(self, surrogate):
        assert surrogate.baseline_precision_pct(
            "generic-yolov9-e") == 81.0
        assert surrogate.baseline_precision_pct("yolov8-s@795") == 85.7
        with pytest.raises(CalibrationError):
            surrogate.baseline_precision_pct("nope")


class TestScalingLaws:
    @given(st.integers(100, 20000))
    @settings(max_examples=40, deadline=None)
    def test_more_data_never_hurts(self, n):
        s = AccuracySurrogate()
        a = s.expected_accuracy(SurrogateQuery("yolov11-m", "diverse",
                                               train_size=n))
        b = s.expected_accuracy(SurrogateQuery("yolov11-m", "diverse",
                                               train_size=n + 500))
        assert b >= a

    @given(st.integers(100, 20000))
    @settings(max_examples=40, deadline=None)
    def test_curation_never_hurts(self, n):
        s = AccuracySurrogate()
        cur = s.expected_accuracy(SurrogateQuery(
            "yolov8-m", "diverse", train_size=n, curated=True))
        rnd = s.expected_accuracy(SurrogateQuery(
            "yolov8-m", "diverse", train_size=n, curated=False))
        assert cur >= rnd

    def test_error_floor(self, surrogate):
        q = SurrogateQuery("yolov8-n", "adversarial", train_size=10,
                           curated=False)
        assert surrogate.expected_accuracy(q) >= 0.05

    def test_adversarial_harder_than_diverse(self, surrogate):
        for m in PAPER_ACCURACY_ANCHORS:
            d = surrogate.expected_accuracy(SurrogateQuery(m, "diverse"))
            a = surrogate.expected_accuracy(
                SurrogateQuery(m, "adversarial"))
            assert a < d


class TestMeasurement:
    def test_deterministic_given_seed(self, surrogate):
        q = SurrogateQuery("yolov8-m", "diverse")
        a = surrogate.measure(q, rng=11)
        b = surrogate.measure(q, rng=11)
        assert a == b

    def test_distinct_across_models(self, surrogate):
        a = surrogate.measure(SurrogateQuery("yolov8-m", "diverse"),
                              rng=11)
        b = surrogate.measure(SurrogateQuery("yolov8-x", "diverse"),
                              rng=11)
        assert a != b

    def test_measured_near_expected(self, surrogate):
        q = SurrogateQuery("yolov11-m", "diverse")
        pct, correct, n = surrogate.measure(q, rng=1)
        assert n == 23543  # paper's diverse test-set size
        assert pct == pytest.approx(
            surrogate.expected_precision_pct(q), abs=0.3)

    def test_custom_test_size(self, surrogate):
        _, correct, n = surrogate.measure(
            SurrogateQuery("yolov8-n", "adversarial"), n_test=100,
            rng=2)
        assert n == 100 and 0 <= correct <= 100

    def test_bad_test_size(self, surrogate):
        with pytest.raises(CalibrationError):
            surrogate.measure(SurrogateQuery("yolov8-n", "diverse"),
                              n_test=0)


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(CalibrationError):
            SurrogateQuery("yolov5-s", "diverse")

    def test_unknown_dataset(self):
        with pytest.raises(CalibrationError):
            SurrogateQuery("yolov8-n", "rainy")

    def test_tiny_train_size(self):
        with pytest.raises(CalibrationError):
            SurrogateQuery("yolov8-n", "diverse", train_size=5)

    def test_constructor_validation(self):
        with pytest.raises(CalibrationError):
            AccuracySurrogate(scaling_exponent=0.0)
        with pytest.raises(CalibrationError):
            AccuracySurrogate(curation_penalty=0.5)

    def test_nref_matches_paper(self):
        assert N_REF == 3866
