"""Profile capture: run targets under the tick clock, emit profiles.

``repro profile`` needs something to attribute, so a *target* is either
a registered fast experiment id (run through the normal
:class:`~repro.bench.runner.ExperimentRunner` span root) or one of two
dedicated probes covering hot paths no fast experiment reaches:

* ``nn_forward`` — a small conv stack forward pass, exercising the
  ``nn.conv2d`` / ``nn.im2col`` / ``nn.gemm`` span chain;
* ``nn_forward_e2e`` — the mini-YOLO end-to-end eval forward, once
  unfused and once through the folded pipeline, for side-by-side
  attribution of the two span trees;
* ``nn_layers`` — one forward per core layer type (conv, batchnorm,
  SiLU, maxpool) plus the fused Conv-BN-SiLU equivalent, each under
  its own ``layer.*`` span;
* ``fleet_cells`` — a small sharded fleet simulation, exercising the
  cluster event loop, ``fleet.cell`` worker bodies and the canonical
  ``fleet.merge``.

Captures run on the deterministic :class:`~repro.obs.profile.
TickClock` (span duration = instrumented clock reads), which is what
makes the committed ``profile_baseline/PROFILE_baseline.json`` a
byte-stable, CI-gateable artifact.  Wall-clock speed is measured by
``perfbench/``, never here.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import BenchmarkError
from ..io.jsonio import dump_json
from ..obs import (Profile, TickClock, Tracer, build_profile,
                   load_profile_document, profile_document, use_tracer)
from ..rng import make_rng

#: Where the pinned CI reference profile lives.
DEFAULT_BASELINE_DIR = "profile_baseline"
DEFAULT_BASELINE_PATH = os.path.join(DEFAULT_BASELINE_DIR,
                                     "PROFILE_baseline.json")

#: Default output location for captured profiles.
DEFAULT_OUT_DIR = "profiles"


def _probe_nn_forward(shards: int) -> None:
    """Forward a small conv stack (blocked im2col + GEMM hot path)."""
    del shards  # single-process by nature
    from ..nn.layers import Conv2d
    conv1 = Conv2d(3, 8, 3, rng=make_rng(7, "profile-nn", "conv1"))
    conv2 = Conv2d(8, 16, 3, stride=2,
                   rng=make_rng(7, "profile-nn", "conv2"))
    x = make_rng(7, "profile-nn", "input").standard_normal(
        (2, 3, 16, 16)).astype(np.float32)
    for _ in range(3):
        h = conv1.forward(x, training=False)
        conv2.forward(h, training=False)


def _probe_nn_forward_e2e(shards: int) -> None:
    """Mini-YOLO eval forward, unfused and folded side by side under
    ``nn_e2e.unfused`` / ``nn_e2e.fused`` roots."""
    del shards  # single-process by nature
    from ..models.yolo.mini import build_mini_yolo
    from ..obs import current_tracer
    tracer = current_tracer()
    x = make_rng(7, "profile-nn-e2e", "input").standard_normal(
        (1, 3, 64, 64)).astype(np.float32)
    for mode in ("unfused", "fused"):
        model = build_mini_yolo("yolov8", "n")
        if mode == "fused":
            model.fuse()
        with tracer.span(f"nn_e2e.{mode}"):
            for _ in range(2):
                model.forward(x, training=False)


def _probe_nn_layers(shards: int) -> None:
    """One eval forward per core layer type, each under its own span."""
    del shards  # single-process by nature
    from ..nn.fuse import FusedConvBNAct, fold_conv_bn
    from ..nn.layers import BatchNorm2d, Conv2d, MaxPool2d, SiLU
    from ..nn.workspace import Workspace
    from ..obs import current_tracer
    tracer = current_tracer()
    conv = Conv2d(8, 8, 3, bias=False,
                  rng=make_rng(7, "profile-nn-layers", "conv"))
    bn = BatchNorm2d(8)
    act = SiLU()
    pool = MaxPool2d(2)
    x = make_rng(7, "profile-nn-layers", "input").standard_normal(
        (2, 8, 16, 16)).astype(np.float32)
    with tracer.span("layer.conv2d"):
        y = conv.forward(x, training=False)
    with tracer.span("layer.batchnorm"):
        y = bn.forward(y, training=False)
    with tracer.span("layer.silu"):
        y = act.forward(y, training=False)
    with tracer.span("layer.maxpool"):
        pool.forward(y, training=False)
    weight, bias = fold_conv_bn(conv, bn)
    fused = FusedConvBNAct(weight, bias, conv.stride, conv.padding,
                           silu=True, workspace=Workspace())
    with tracer.span("layer.fused_convbnact"):
        fused.forward(x, training=False)


def _fleet_sim_config(shards: int = 1):
    """A small cell-sharded fleet: 8 streams over 4 one-replica cells.

    The merged report is byte-identical for any shard count, so the
    same config serves the ``fleet_cells`` probe and the fleet snapshot
    pinned in ``tests/golden/bench_probes.json``.
    """
    from ..serving import FleetSimConfig, ReplicaSpec
    return FleetSimConfig(
        num_streams=8, num_cells=4,
        replicas_per_cell=(ReplicaSpec("yolov8-n", "orin-nano"),),
        frame_rate=5.0, duration_s=3.0, deadline_ms=100.0,
        seed=7, shards=shards)


def _probe_fleet_cells(shards: int) -> None:
    """The small sharded fleet, shard-fanned when asked."""
    from ..serving import FleetSimulator
    FleetSimulator(_fleet_sim_config(shards=shards)).run()


#: Probe targets: name → callable(shards).  Experiments ignore shards;
#: probes that are single-process by nature ignore it too.
PROBES: Dict[str, Callable[[int], None]] = {
    "nn_forward": _probe_nn_forward,
    "nn_forward_e2e": _probe_nn_forward_e2e,
    "nn_layers": _probe_nn_layers,
    "fleet_cells": _probe_fleet_cells,
}

#: The committed-baseline target set: serving event loop, fleet
#: merge/event loop, renderer rasterization (via ablation_pipeline's
#: dataset build), the im2col/GEMM conv path, and the fused-vs-unfused
#: mini-YOLO eval forward with its per-layer attribution probes.
BASELINE_TARGETS: Tuple[str, ...] = (
    "ablation_pipeline", "exp_serving", "fleet_cells", "nn_forward",
    "nn_forward_e2e", "nn_layers")


def resolve_targets(targets: Sequence[str]) -> List[str]:
    """Validate target names (experiments or probes); keeps order."""
    from .experiments.registry import EXPERIMENTS
    out = list(targets) if targets else list(BASELINE_TARGETS)
    unknown = [t for t in out
               if t not in PROBES and t not in EXPERIMENTS]
    if unknown:
        raise BenchmarkError(
            f"unknown profile target(s): {unknown}; targets are "
            f"experiment ids (see `repro list`) or probes "
            f"{sorted(PROBES)}")
    return out


def capture_profile(targets: Sequence[str], shards: int = 1) -> Profile:
    """Run every target under one tracer; aggregate the spans.

    Probes run inside a ``probe:<name>`` root span; experiments run
    through :func:`run_experiment`, which roots them at
    ``experiment:<id>``.  On the tick clock the resulting profile is
    byte-identical across reruns and shard counts.
    """
    from .experiments.registry import run_experiment
    names = resolve_targets(targets)
    if shards < 1:
        raise BenchmarkError(f"need >= 1 shard, got {shards}")
    tracer = Tracer(clock=TickClock())
    with use_tracer(tracer):
        for name in names:
            probe = PROBES.get(name)
            if probe is not None:
                with tracer.span(f"probe:{name}"):
                    probe(shards)
            else:
                run_experiment(name, enforce_claims=False)
    return build_profile(tracer.finished_spans())


def capture_document(targets: Sequence[str], shards: int = 1) -> dict:
    """Capture and wrap as the machine-readable profile document."""
    profile = capture_profile(targets, shards=shards)
    return profile_document(profile, targets=resolve_targets(targets))


def write_profile(path: str, doc: dict) -> str:
    """Write a profile document (sorted-keys strict JSON); returns
    the path.  Byte-stable: same document, same bytes."""
    return dump_json(path, doc)


def load_profile(path: str) -> dict:
    """Load and validate a profile document from disk."""
    if not os.path.exists(path):
        raise BenchmarkError(f"no profile at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise BenchmarkError(
                f"malformed profile JSON at {path}: {exc}") from exc
    return load_profile_document(doc)
