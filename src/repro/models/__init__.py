"""Model zoo: full-scale descriptors + executable NumPy mini models.

Two parallel representations of every DNN the paper benchmarks:

* :class:`~repro.models.spec.ModelSpec` — the *full-scale* model as the
  paper ran it (YOLOv8/v11 n/m/x, trt_pose, Monodepth2): parameter count,
  model size, GFLOPs, input resolution and runtime characteristics.
  These drive Table 2 and the latency model; no weights exist.
* ``mini`` modules — *executable* scaled-down instantiations of the same
  architecture families, trainable end-to-end with :mod:`repro.nn` on
  the synthetic dataset.  These reproduce the paper's accuracy trends
  live (more data → higher precision; bigger model → more adversarial
  robustness).
"""

from .spec import (
    ModelSpec,
    ModelTask,
    PAPER_MODELS,
    model_spec,
    yolo_variants,
    table2_rows,
)
from .registry import MODEL_REGISTRY, build_mini_model

__all__ = [
    "ModelSpec", "ModelTask", "PAPER_MODELS", "model_spec",
    "yolo_variants", "table2_rows",
    "MODEL_REGISTRY", "build_mini_model",
]
