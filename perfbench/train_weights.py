"""Regenerate the drone_frame detector weights and their digest.

Trains mini-yolov8-n with the repository's ``DetectorTrainer`` on drone
clips rendered from a fixed seed, then writes ``weights/*.npz`` and the
SHA-256 digest that ``run.py`` verifies before timing anything.  The
run is deterministic: the same code and NumPy build reproduce the same
digest.

Run from the repository root (takes a few minutes on 2 cores):

    python3 perfbench/train_weights.py
"""

from __future__ import annotations

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.models.yolo.mini import build_mini_yolo  # noqa: E402
from repro.models.yolo.train import (  # noqa: E402
    DetectorTrainer, frames_to_arrays)

from repro.dataset.renderer import SceneRenderer  # noqa: E402

from common import (DETECTOR, DIGEST_PATH, FRAME_STEP,  # noqa: E402
                    IMAGE_SIZE, MODEL_SEED, WEIGHTS_CLIP_BASE, WEIGHTS_PATH,
                    make_clip, weights_digest)

NUM_CLIPS = 24
CLIP_S = 3.0
EPOCHS = 25


def main() -> int:
    renderer = SceneRenderer(IMAGE_SIZE)
    frames = [f for i in range(NUM_CLIPS)
              for f in make_clip(MODEL_SEED, WEIGHTS_CLIP_BASE + i, CLIP_S,
                                 renderer).frames(step=FRAME_STEP)]
    images, boxes = frames_to_arrays(frames)
    model = build_mini_yolo(*DETECTOR, seed=MODEL_SEED)
    history = DetectorTrainer(model, epochs=EPOCHS, batch_size=16,
                              seed=MODEL_SEED).fit(images, boxes)
    print(f"trained on {len(frames)} frames: loss "
          f"{history.losses[0]:.4f} -> {history.final_loss:.4f}")
    model.save(WEIGHTS_PATH)
    digest = weights_digest(model.net)
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    print(f"wrote {WEIGHTS_PATH}\nsha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
