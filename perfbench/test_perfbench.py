"""The benchmark's own tests: tiny runs, metric names, and tamper checks.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import compare  # noqa: E402
import workloads as wl  # noqa: E402
from repro.models.yolo.postprocess import Detection  # noqa: E402
from repro.serving import ClusterSimulator, FleetSimulator  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


# -- tiny runs and metric names ----------------------------------------------


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, details = wl.run_workload(workload, 3, 0.3, False, wl.TINY)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"]
                             for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(json.loads(json.dumps(result))) == {
        "correct", "attempted", "failed", "metrics"}
    assert set(details["wall_clock"]) == set(units(result)) - {"peak_rss_mb"}


@pytest.fixture(scope="module")
def traced_run():
    return wl.run_workload("drone_frame", 3, 0.3, True, wl.TINY)


def test_traced_run_prints_every_per_layer_metric(traced_run):
    result, details = traced_run
    assert result["correct"], details["problems"]
    assert units(result) == {m["name"]: m["unit"]
                             for m in BENCH["per_layer"]}


def test_frame_stage_spans_cover_the_frame(traced_run):
    metrics = traced_run[0]["metrics"]
    assert metrics["frame.span_coverage"]["value"] >= 0.9
    assert metrics["nn.block_coverage"]["value"] >= 0.9


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == wl.END_TO_END_UNITS
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


# -- tamper checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def checked_frames():
    stream = wl.DroneStream(5, wl.TINY)
    trace = wl.FrameTrace()
    stream.run_frames(0.0, 12, trace)
    return stream, trace


def test_untampered_frames_pass(checked_frames):
    stream, trace = checked_frames
    assert stream.check(trace) == []


def test_perturbed_head_output_fails_the_check(checked_frames):
    stream, trace = checked_frames
    x, raw, dets = trace.samples[0]
    tampered = raw.copy()
    tampered[0, 0, 0, 0] += 1e-3
    tampered_trace = wl.FrameTrace(vest_frames=1, track_hits=1,
                                   samples=[(x, tampered, dets)])
    assert stream.check(tampered_trace)


def test_small_error_at_a_small_cell_fails_the_check(checked_frames):
    stream, trace = checked_frames
    x, raw, dets = trace.samples[0]
    tampered = raw.copy()
    tampered.flat[np.argmin(np.abs(raw))] += 1e-4
    assert wl.check_detections(raw, raw, dets, dets) is None
    assert wl.check_detections(tampered, raw, dets, dets)


def test_perturbed_detection_fails_the_check(checked_frames):
    _, trace = checked_frames
    x, raw, dets = next(s for s in trace.samples if s[2])
    moved = Detection(dets[0].box.shifted(0.5, 0.0), dets[0].score)
    assert wl.check_detections(raw, raw, dets, dets) is None
    assert wl.check_detections(raw, raw, [moved] + dets[1:], dets)
    assert wl.check_detections(raw, raw, dets[1:], dets)


def test_lost_track_fails_the_check(checked_frames):
    stream, _ = checked_frames
    assert stream.check(wl.FrameTrace(vest_frames=10, track_hits=1))


def test_broken_loss_history_fails_the_check():
    good = [1.0, 0.5]
    assert wl.check_losses([good, list(good)]) is None
    assert wl.check_losses([[1.0, float("nan")]])
    assert wl.check_losses([[0.5, 1.0]])
    assert wl.check_losses([good, [1.0, 0.5 + 1e-12]])


def test_lost_request_fails_the_check():
    report = ClusterSimulator(wl.cluster_config(3, wl.TINY)).run()
    assert wl.check_conservation(report) is None
    report.completed -= 1
    assert wl.check_conservation(report)
    fleet = FleetSimulator(wl.fleet_config(3, wl.TINY, 1)).run()
    assert wl.check_conservation(fleet) is None
    fleet.shed["deadline"] -= 1
    assert wl.check_conservation(fleet)


def test_failed_check_marks_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(wl, "check_losses", lambda _h: "broken")
    result, details = wl.run_workload("detector_train", 3, 0.1, False,
                                      wl.TINY)
    assert not result["correct"]
    assert "broken" in details["problems"]


def test_exception_counts_as_failed_operations(monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("simulator crashed")
    monkeypatch.setattr(wl, "ClusterSimulator", boom)
    result, _ = wl.run_workload("cluster_chaos", 3, 0.1, False, wl.TINY)
    assert not result["correct"]
    assert result["failed"] > 0


# -- command line -------------------------------------------------------------


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drone_frame",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- paired comparison --------------------------------------------------------


def test_compare_calls_a_clear_gain():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [v * 0.8 for v in parent]
    v = compare.verdict(parent, change, bound=0.1, better="lower")
    assert v["verdict"] == "gain" and v["win_fraction"] == 1.0


def test_compare_calls_a_regression_beyond_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    change = [v * 0.8 for v in parent]
    v = compare.verdict(parent, change, bound=0.1, better="higher")
    assert v["verdict"] == "regression"


def test_compare_reports_a_wide_spread_as_unresolved():
    parent = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 12.0]
    change = [v * 1.05 for v in parent]
    v = compare.verdict(parent, change, bound=0.1, better="lower")
    assert v["verdict"] == "unresolved"
    faster = [5.0] * 10
    assert compare.verdict(parent, faster, bound=0.1,
                           better="lower")["verdict"] == "gain"


def test_compare_within_the_bound_is_no_change():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    change = list(reversed(parent))
    v = compare.verdict(parent, change, bound=0.1, better="lower")
    assert v["verdict"] == "no change"


def test_compare_judges_wall_clock_twins(monkeypatch):
    calls = []

    def fake_run(checkout, _command, _workload, seed, _seconds):
        calls.append((checkout, seed))
        slow = 2.0 if checkout == ROOT else 1.0
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m["name"]: {"value": 10.0 + seed % 3,
                                          "unit": m["unit"]}
                              for m in BENCH["end_to_end"]}}
        details = {"wall_clock": {"frame_ms_p50": slow * (10.0 + seed % 3)}}
        return result, details

    monkeypatch.setattr(compare, "run_once", fake_run)
    report = compare.compare("parent", ROOT, "drone_frame", 10)
    assert calls[:4] == [("parent", 301), (ROOT, 301), (ROOT, 302),
                         ("parent", 302)]
    rows = report["metrics"]
    assert set(rows) == {m["name"] for m in BENCH["end_to_end"]} \
        | {"wall:frame_ms_p50"}
    assert rows["frame_ms_p50"]["verdict"] == "no change"
    assert rows["wall:frame_ms_p50"]["verdict"] == "regression"
