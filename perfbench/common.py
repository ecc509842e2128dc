"""Inputs and model state shared by the benchmark and the weight trainer.

Both sides must agree on how a drone stream is cut into clips and on how
a set of weights is fingerprinted, so those two decisions live here.
"""

from __future__ import annotations

import hashlib
import os

from repro.config import CAMERA_FPS, EXTRACTION_FPS
from repro.dataset.renderer import SceneRenderer
from repro.dataset.taxonomy import TAXONOMY
from repro.dataset.video import VideoClip

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS_PATH = os.path.join(HERE, "weights", "mini-yolov8-n.npz")
DIGEST_PATH = os.path.join(HERE, "weights", "mini-yolov8-n.sha256")

#: Detector the drone_frame workload runs (the paper's on-board pick).
DETECTOR = ("yolov8", "n")
#: Seed of the stored detector weights and of every model's init.
MODEL_SEED = 7
IMAGE_SIZE = 64
#: Every third camera frame: 30 FPS capture extracted at 10 FPS (§2).
FRAME_STEP = CAMERA_FPS // EXTRACTION_FPS
#: Clip ids at or above this are reserved for the stored detector's
#: training set, so no benchmark stream replays a frame it was trained on.
WEIGHTS_CLIP_BASE = 10_000


def make_clip(seed: int, clip_id: int, clip_s: float,
              renderer: SceneRenderer) -> VideoClip:
    """One seeded drone clip; subcategories cycle with ``clip_id``.

    The subcategory order is fixed and only the scene inside a clip
    depends on ``seed``, so every seed gives the same category mix and
    per-frame cost varies with the scenes, not with a draw of
    categories.
    """
    subs = list(TAXONOMY)
    return VideoClip(clip_id=clip_id, subcategory=subs[clip_id % len(subs)],
                     duration_s=clip_s, fps=CAMERA_FPS, renderer=renderer,
                     seed=seed)


def weights_digest(net) -> str:
    """SHA-256 over a network's parameters and buffers, by sorted name.

    Hashes array contents rather than the ``.npz`` bytes, which embed
    zip timestamps and so differ between identical saves.
    """
    h = hashlib.sha256()
    state = dict(net.params())
    state.update({"buffer::" + k: v for k, v in net.buffers().items()})
    for name in sorted(state):
        arr = state[name]
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()
