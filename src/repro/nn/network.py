"""Sequential network container with checkpointing and parameter access.

The mini models are straight pipelines (backbone → head), so a flat
``Sequential`` over layers/blocks is the whole graph machinery needed;
skip connections live *inside* composite blocks.  Parameters are exposed
as one flat ``{layer_index.layer_name.param}`` dict consumed by the
optimisers and the checkpoint code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import ModelError
from ..io.serialization import load_checkpoint, restore_into, save_checkpoint
from .layers import Layer
from .sanitizer import frozen_params, sanitizer_active


class Sequential(Layer):
    """Ordered layer pipeline with end-to-end forward/backward."""

    def __init__(self, layers: Iterable[Layer], name: str = "net") -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ModelError("Sequential needs at least one layer")
        self.name = name

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training and sanitizer_active():
            # Eval forwards never legitimately write a parameter or a
            # running statistic; under the sanitizer the whole pass
            # runs against write-protected weights so an in-place
            # epilogue touching one raises at the write site.
            with frozen_params(self):
                for layer in self.layers:
                    x = layer.forward(x, training=False)
                return x
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for pname, arr in layer.params().items():
                out[f"{i}.{layer.name}.{pname}"] = arr
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for pname, arr in layer.grads().items():
                out[f"{i}.{layer.name}.{pname}"] = arr
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for bname, arr in layer.buffers().items():
                out[f"{i}.{layer.name}.{bname}"] = arr
        return out

    # -- persistence -------------------------------------------------------

    #: Prefix separating non-trainable buffers from parameters in files.
    _BUFFER_PREFIX = "buffer::"

    def _state(self) -> Dict[str, np.ndarray]:
        state = dict(self.params())
        for name, arr in self.buffers().items():
            state[self._BUFFER_PREFIX + name] = arr
        return state

    def save(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write parameters *and* buffers (plus metadata) to ``.npz``.

        Buffers (BatchNorm running stats) must round-trip or eval-mode
        inference would differ after a load.
        """
        save_checkpoint(path, self._state(), meta=dict(meta or {},
                                                       name=self.name))

    def load(self, path: str) -> Dict:
        """Restore parameters+buffers in place; returns metadata."""
        loaded, meta = load_checkpoint(path)
        restore_into(self._state(), loaded)
        return meta

    # -- eval-time folding -------------------------------------------------

    def fuse(self, workspace=None):
        """Eval-only folded copy of this network (Conv→BN, SiLU epilogues).

        Thin wrapper over :func:`repro.nn.fuse.fuse_eval`; the source
        network is left untouched and stays trainable.
        """
        from .fuse import fuse_eval
        return fuse_eval(self, workspace=workspace)


def count_parameters(net: Layer) -> int:
    """Total trainable scalar count of a layer/network."""
    return int(sum(arr.size for arr in net.params().values()))


def l2_norm_of_grads(net: Layer) -> float:
    """Global L2 norm of all gradients (training diagnostics / clipping)."""
    total = 0.0
    for arr in net.grads().values():
        total += float(np.sum(arr.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grads_(net: Layer, max_norm: float) -> float:
    """Scale all gradients in place so the global norm ≤ ``max_norm``.

    Returns the pre-clip norm.  Detection losses occasionally spike on
    hard batches; clipping keeps Adam stable at mini scale.
    """
    if max_norm <= 0:
        raise ModelError(f"max_norm must be positive, got {max_norm}")
    norm = l2_norm_of_grads(net)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for arr in net.grads().values():
            arr *= scale
    return norm
