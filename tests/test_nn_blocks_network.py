"""Tests for composite blocks, Sequential, optimisers and losses."""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError, TrainingError
from repro.nn.blocks import ConvBNAct, CSPBlock, ResidualBlock, SPPFBlock
from repro.nn.layers import Flatten, Linear, MaxPool2d
from repro.nn.losses import bce_with_logits, heatmap_loss
from repro.nn.network import (Sequential, clip_grads_, count_parameters,
                              l2_norm_of_grads)
from repro.nn.optim import SGD, Adam, CosineWarmupSchedule

RNG = np.random.default_rng(1)


def x4(c=4, h=8, w=8, n=2):
    return RNG.normal(size=(n, c, h, w)).astype(np.float32)


class TestBlocks:
    def test_convbnact_shape(self):
        blk = ConvBNAct(4, 8, 3, stride=2, rng=RNG)
        assert blk.forward(x4()).shape == (2, 8, 4, 4)

    def test_residual_preserves_shape(self):
        blk = ResidualBlock(4, rng=RNG)
        out = blk.forward(x4())
        assert out.shape == (2, 4, 8, 8)
        grad = blk.backward(np.ones_like(out))
        assert grad.shape == (2, 4, 8, 8)

    def test_csp_shape_and_backward(self):
        blk = CSPBlock(4, 8, n=2, rng=RNG)
        out = blk.forward(x4())
        assert out.shape == (2, 8, 8, 8)
        assert blk.backward(np.ones_like(out)).shape == (2, 4, 8, 8)

    def test_csp_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            CSPBlock(4, 7, rng=RNG)

    def test_sppf_shape(self):
        blk = SPPFBlock(4, rng=RNG)
        out = blk.forward(x4())
        assert out.shape == (2, 4, 8, 8)
        assert blk.backward(np.ones_like(out)).shape == (2, 4, 8, 8)

    def test_composite_param_namespacing(self):
        blk = CSPBlock(4, 8, n=1, rng=RNG)
        names = set(blk.params())
        assert any(n.startswith("proj.") for n in names)
        assert any(n.startswith("b0.") for n in names)
        assert any(n.startswith("fuse.") for n in names)

    def test_sppf_pool_grad_matches_numeric(self):
        """Stride-1 3x3 pool backward: numeric spot check."""
        blk = SPPFBlock(4, rng=RNG)
        x = x4()
        out = blk.forward(x, training=True)
        g_out = RNG.normal(size=out.shape).astype(np.float32)
        gin = blk.backward(g_out)
        eps = 1e-3
        for _ in range(3):
            ix = tuple(int(RNG.integers(0, s)) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[ix] += eps
            xm[ix] -= eps
            # Probe in training mode: the block contains BatchNorm, so
            # eval mode (running stats) computes a different function
            # than the one backward() differentiates.
            fp = float(np.sum(blk.forward(xp, training=True) * g_out))
            fm = float(np.sum(blk.forward(xm, training=True) * g_out))
            num = (fp - fm) / (2 * eps)
            assert abs(num - float(gin[ix])) <= 5e-2 * (1 + abs(num))


class TestSequential:
    def _net(self):
        return Sequential([
            ConvBNAct(3, 8, 3, rng=RNG), MaxPool2d(2),
            Flatten(), Linear(8 * 4 * 4, 2, rng=RNG)], name="t")

    def test_forward_shape(self):
        net = self._net()
        assert net.forward(x4(c=3)).shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Sequential([])

    def test_param_count_positive(self):
        assert count_parameters(self._net()) > 0

    def test_save_load_roundtrip(self, tmp_path):
        net = self._net()
        x = x4(c=3)
        before = net.forward(x, training=False)
        path = str(tmp_path / "ckpt.npz")
        net.save(path, meta={"k": 1})
        # Perturb, then restore.
        for p in net.params().values():
            p += 1.0
        meta = net.load(path)
        assert meta["k"] == 1
        after = net.forward(x, training=False)
        assert np.allclose(before, after)

    def test_clip_grads(self):
        net = self._net()
        out = net.forward(x4(c=3))
        net.backward(np.ones_like(out) * 100)
        norm_before = l2_norm_of_grads(net)
        clip_grads_(net, 1.0)
        assert l2_norm_of_grads(net) <= 1.0 + 1e-6
        assert norm_before > 1.0

    def test_clip_validation(self):
        with pytest.raises(ModelError):
            clip_grads_(self._net(), 0.0)


class TestOptimizers:
    def _quadratic(self):
        """Minimise ||w||^2 via the optimiser interface."""
        w = np.array([3.0, -4.0], dtype=np.float32)
        g = np.zeros_like(w)
        return {"layer.weight": w}, {"layer.weight": g}

    def test_sgd_converges(self):
        params, grads = self._quadratic()
        opt = SGD(params, grads, lr=0.1, momentum=0.5)
        for _ in range(100):
            grads["layer.weight"][...] = 2 * params["layer.weight"]
            opt.step()
        assert np.linalg.norm(params["layer.weight"]) < 1e-2

    def test_adam_converges(self):
        params, grads = self._quadratic()
        opt = Adam(params, grads, lr=0.2)
        for _ in range(200):
            grads["layer.weight"][...] = 2 * params["layer.weight"]
            opt.step()
        assert np.linalg.norm(params["layer.weight"]) < 1e-2

    def test_nonfinite_grad_rejected(self):
        params, grads = self._quadratic()
        opt = Adam(params, grads, lr=0.1)
        grads["layer.weight"][0] = np.nan
        with pytest.raises(TrainingError):
            opt.step()

    def test_key_mismatch(self):
        with pytest.raises(TrainingError):
            SGD({"a": np.zeros(1)}, {"b": np.zeros(1)}, lr=0.1)

    def test_weight_decay_only_on_weights(self):
        w = np.array([1.0], dtype=np.float32)
        b = np.array([1.0], dtype=np.float32)
        params = {"l.weight": w, "l.bias": b}
        grads = {"l.weight": np.zeros(1, np.float32),
                 "l.bias": np.zeros(1, np.float32)}
        opt = SGD(params, grads, lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step()
        assert w[0] < 1.0   # decayed
        assert b[0] == 1.0  # untouched

    def test_bad_lr(self):
        with pytest.raises(TrainingError):
            SGD({"a": np.zeros(1)}, {"a": np.zeros(1)}, lr=0.0)


class TestSchedule:
    def test_warmup_ramps(self):
        sched = CosineWarmupSchedule(10, warmup_epochs=2)
        assert sched(0) == pytest.approx(0.5)
        assert sched(1) == pytest.approx(1.0)

    def test_cosine_decays(self):
        sched = CosineWarmupSchedule(10, warmup_epochs=0,
                                     final_fraction=0.0)
        assert sched(0) == pytest.approx(1.0)
        assert sched(9) < sched(5) < sched(1)

    def test_final_fraction(self):
        sched = CosineWarmupSchedule(10, warmup_epochs=0,
                                     final_fraction=0.1)
        assert sched(10) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(TrainingError):
            CosineWarmupSchedule(0)
        with pytest.raises(TrainingError):
            CosineWarmupSchedule(5, warmup_epochs=5)


class TestLosses:
    def test_bce_matches_manual(self):
        logits = np.array([0.0, 2.0], dtype=np.float32)
        targets = np.array([1.0, 0.0], dtype=np.float32)
        expected = np.mean([np.log(2.0), 2.0 + np.log1p(np.exp(-2.0))])
        assert bce_with_logits(logits, targets) == pytest.approx(
            expected, rel=1e-5)

    def test_bce_shape_mismatch(self):
        with pytest.raises(TrainingError):
            bce_with_logits(np.zeros(3), np.zeros(4))

    def test_heatmap_loss_upweights_peaks(self):
        pred = np.zeros((1, 1, 4, 4), dtype=np.float32)
        target = np.zeros_like(pred)
        target[0, 0, 1, 1] = 1.0
        v, g = heatmap_loss(pred, target, pos_weight=10.0)
        assert abs(g[0, 0, 1, 1]) > abs(g[0, 0, 0, 0])
        assert v > 0
