"""Gradient checks and behavioural tests for the NN layers."""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError
from repro.nn.fuse import FusedConvBNAct, fold_conv_bn
from repro.nn.layers import (BatchNorm2d, Conv2d, Flatten, Linear,
                             MaxPool2d, SiLU, Upsample2x, conv2d_eval,
                             sigmoid)
from repro.nn.workspace import Workspace

RNG = np.random.default_rng(0)


def numeric_input_grad_check(layer, x, n_probes=4, eps=1e-3, rtol=2e-2):
    """Central-difference check of backward() against forward()."""
    out = layer.forward(x.copy(), training=True)
    g_out = RNG.normal(size=out.shape).astype(np.float32)
    gin = layer.backward(g_out)
    assert gin.shape == x.shape
    for _ in range(n_probes):
        ix = tuple(int(RNG.integers(0, s)) for s in x.shape)
        xp, xm = x.copy(), x.copy()
        xp[ix] += eps
        xm[ix] -= eps
        fp = float(np.sum(layer.forward(xp, training=False) * g_out))
        fm = float(np.sum(layer.forward(xm, training=False) * g_out))
        num = (fp - fm) / (2 * eps)
        assert abs(num - float(gin[ix])) <= rtol * (1 + abs(num)), \
            f"{layer.name} at {ix}: numeric {num} vs analytic {gin[ix]}"


def numeric_param_grad_check(layer, x, pname, eps=1e-3, rtol=2e-2):
    out = layer.forward(x, training=True)
    g_out = RNG.normal(size=out.shape).astype(np.float32)
    layer.backward(g_out)
    p = layer.params()[pname]
    g = layer.grads()[pname].copy()
    ix = tuple(int(RNG.integers(0, s)) for s in p.shape)
    p[ix] += eps
    fp = float(np.sum(layer.forward(x, training=False) * g_out))
    p[ix] -= 2 * eps
    fm = float(np.sum(layer.forward(x, training=False) * g_out))
    p[ix] += eps
    num = (fp - fm) / (2 * eps)
    assert abs(num - float(g[ix])) <= rtol * (1 + abs(num)), \
        f"{layer.name}.{pname} at {ix}: numeric {num} vs {g[ix]}"


def x4(c=3, h=8, w=8, n=2):
    return RNG.normal(size=(n, c, h, w)).astype(np.float32)


class TestSigmoid:
    def test_range(self):
        x = np.array([-100.0, 0.0, 100.0], dtype=np.float32)
        s = sigmoid(x)
        assert s[0] == pytest.approx(0.0, abs=1e-6)
        assert s[1] == pytest.approx(0.5)
        assert s[2] == pytest.approx(1.0, abs=1e-6)

    def test_no_overflow_warning(self):
        x = np.array([-1000.0, 1000.0], dtype=np.float32)
        s = sigmoid(x)
        assert np.all(np.isfinite(s))

    @staticmethod
    def _mask_form(x):
        """The earlier gather/scatter sigmoid, kept as the reference."""
        out = np.empty_like(x, dtype=np.float32)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45,
             1e-40, -1e-40, 1.1754944e-38, -1.1754944e-38, 88.7, -88.7,
             104.0, -104.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @np.errstate(invalid="ignore", over="ignore")
    def test_bitwise_equal_to_mask_form(self, dtype):
        gen = np.random.default_rng(17)
        bits = gen.integers(0, 2 ** 32, size=1 << 20, dtype=np.uint64)
        x = np.concatenate([
            bits.astype(np.uint32).view(np.float32),
            np.array(self.EDGES, dtype=np.float32),
            gen.normal(scale=40.0, size=4096).astype(np.float32),
        ]).astype(dtype)
        if dtype is np.float64:
            wide = gen.integers(0, 2 ** 63, size=1 << 18, dtype=np.uint64)
            x = np.concatenate([x, wide.view(np.float64)])
        ref = self._mask_form(x)
        got = sigmoid(x)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32),
                                      ref.view(np.uint32))


class TestConv2d:
    def test_output_shape_same_pad(self):
        conv = Conv2d(3, 8, 3, rng=RNG)
        assert conv.forward(x4()).shape == (2, 8, 8, 8)

    def test_output_shape_stride2(self):
        conv = Conv2d(3, 8, 3, stride=2, rng=RNG)
        assert conv.forward(x4()).shape == (2, 8, 4, 4)

    def test_input_grad(self):
        numeric_input_grad_check(Conv2d(3, 5, 3, rng=RNG), x4())

    def test_input_grad_stride2(self):
        numeric_input_grad_check(Conv2d(3, 4, 3, stride=2, rng=RNG),
                                 x4())

    def test_weight_grad(self):
        numeric_param_grad_check(Conv2d(3, 4, 3, rng=RNG), x4(),
                                 "weight")

    def test_bias_grad(self):
        numeric_param_grad_check(Conv2d(3, 4, 3, rng=RNG), x4(), "bias")

    def test_1x1_conv(self):
        numeric_input_grad_check(Conv2d(4, 6, 1, rng=RNG), x4(c=4))

    def test_wrong_channels_rejected(self):
        conv = Conv2d(3, 4, 3, rng=RNG)
        with pytest.raises(ShapeError):
            conv.forward(x4(c=5))

    def test_backward_before_forward(self):
        with pytest.raises(ShapeError):
            Conv2d(3, 4, 3, rng=RNG).backward(np.zeros((1, 4, 8, 8),
                                                       np.float32))

    def test_no_bias_variant(self):
        conv = Conv2d(3, 4, 3, bias=False, rng=RNG)
        assert "bias" not in conv.params()


class TestBatchNorm:
    def test_normalises_in_training(self):
        bn = BatchNorm2d(3)
        out = bn.forward(x4() * 5 + 2, training=True)
        assert abs(out.mean()) < 0.1
        assert out.std() == pytest.approx(1.0, abs=0.1)

    def test_running_stats_used_in_eval(self):
        bn = BatchNorm2d(3)
        x = x4(n=8)
        for _ in range(60):
            bn.forward(x, training=True)
        train_out = bn.forward(x, training=True)
        eval_out = bn.forward(x, training=False)
        assert np.allclose(train_out, eval_out, atol=0.15)

    def test_input_grad(self):
        # BatchNorm's eval path uses running stats, so compare against a
        # numeric derivative of the *training* forward with frozen stats.
        bn = BatchNorm2d(3)
        x = x4()
        out = bn.forward(x, training=True)
        g_out = RNG.normal(size=out.shape).astype(np.float32)
        gin = bn.backward(g_out)
        eps = 1e-3
        for _ in range(3):
            ix = tuple(int(RNG.integers(0, s)) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[ix] += eps
            xm[ix] -= eps
            bn_p = BatchNorm2d(3)
            fp = float(np.sum(bn_p.forward(xp, training=True) * g_out))
            fm = float(np.sum(bn_p.forward(xm, training=True) * g_out))
            num = (fp - fm) / (2 * eps)
            assert abs(num - float(gin[ix])) <= 3e-2 * (1 + abs(num))

    def test_param_grads_shapes(self):
        bn = BatchNorm2d(4)
        x = x4(c=4)
        bn.forward(x, training=True)
        bn.backward(np.ones((2, 4, 8, 8), np.float32))
        assert bn.grads()["gamma"].shape == (4,)
        assert bn.grads()["beta"].shape == (4,)

    def test_wrong_channels(self):
        with pytest.raises(ShapeError):
            BatchNorm2d(3).forward(x4(c=4))


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [SiLU])
    def test_input_grad(self, layer_cls):
        numeric_input_grad_check(layer_cls(), x4())

    def test_silu_bitwise_equal_to_reference_formulas(self):
        # The earlier SiLU cached sigmoid(x) from the mask form and
        # evaluated these two expressions; the layer must reproduce
        # them bit for bit (training loss histories depend on it).
        gen = np.random.default_rng(23)
        x = gen.normal(scale=6.0, size=(2, 5, 9, 9)).astype(np.float32)
        x.flat[:8] = [0.0, -0.0, 1e-45, -1e-40, 88.7, -88.7, 104.0, -104.0]
        g = gen.normal(size=x.shape).astype(np.float32)
        s = TestSigmoid._mask_form(x)
        fwd_ref = (x * s).astype(np.float32)
        bwd_ref = (g * (s * (1.0 + x * (1.0 - s)))).astype(np.float32)
        act = SiLU()
        fwd = act.forward(x, training=True)
        bwd = act.backward(g)
        assert fwd.dtype == bwd.dtype == np.float32
        np.testing.assert_array_equal(fwd.view(np.uint32),
                                      fwd_ref.view(np.uint32))
        np.testing.assert_array_equal(bwd.view(np.uint32),
                                      bwd_ref.view(np.uint32))
        np.testing.assert_array_equal(
            SiLU().forward(x, training=False).view(np.uint32),
            fwd_ref.view(np.uint32))

    def test_silu_matches_definition(self):
        x = x4()
        out = SiLU().forward(x, training=False)
        assert np.allclose(out, x * sigmoid(x), atol=1e-6)


class TestPoolingAndShape:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert out.flatten().tolist() == [5, 7, 13, 15]

    def test_maxpool_grad(self):
        numeric_input_grad_check(MaxPool2d(2), x4())

    def test_maxpool_divisibility(self):
        with pytest.raises(ShapeError):
            MaxPool2d(3).forward(x4(h=8, w=8))

    def test_upsample_shape_and_grad(self):
        up = Upsample2x()
        assert up.forward(x4()).shape == (2, 3, 16, 16)
        numeric_input_grad_check(Upsample2x(), x4())

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = x4()
        out = f.forward(x)
        assert out.shape == (2, 3 * 8 * 8)
        back = f.backward(out)
        assert back.shape == x.shape


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(10, 4, rng=RNG)
        out = lin.forward(RNG.normal(size=(3, 10)).astype(np.float32))
        assert out.shape == (3, 4)

    def test_input_grad(self):
        lin = Linear(6, 3, rng=RNG)
        x = RNG.normal(size=(4, 6)).astype(np.float32)
        numeric_input_grad_check(lin, x)

    def test_weight_grad(self):
        lin = Linear(6, 3, rng=RNG)
        x = RNG.normal(size=(4, 6)).astype(np.float32)
        numeric_param_grad_check(lin, x, "weight")

    def test_wrong_features(self):
        with pytest.raises(ShapeError):
            Linear(6, 3, rng=RNG).forward(
                RNG.normal(size=(2, 5)).astype(np.float32))


class TestEvalCacheInvalidation:
    """train-forward → eval-forward → backward must raise, per layer.

    A stale training cache surviving an eval forward silently computes
    gradients against a *previous* batch's activations; every stateful
    layer must clear its cache on ``training=False``.
    """

    CASES = [
        (lambda: Conv2d(3, 4, 3, rng=RNG), lambda: x4()),
        (lambda: BatchNorm2d(3), lambda: x4()),
        (lambda: SiLU(), lambda: x4()),
        (lambda: MaxPool2d(2), lambda: x4()),
        (lambda: Upsample2x(), lambda: x4()),
        (lambda: Flatten(), lambda: x4()),
        (lambda: Linear(6, 3, rng=RNG),
         lambda: RNG.normal(size=(2, 6)).astype(np.float32)),
    ]

    @pytest.mark.parametrize("make_layer,make_x", CASES,
                             ids=[m().name for m, _ in CASES])
    def test_backward_after_eval_raises(self, make_layer, make_x):
        layer = make_layer()
        x = make_x()
        out = layer.forward(x, training=True)
        layer.forward(x, training=False)
        with pytest.raises(ShapeError):
            layer.backward(np.ones_like(out))

    def test_sppf_backward_after_eval_raises(self):
        from repro.nn.blocks import SPPFBlock
        blk = SPPFBlock(4, rng=RNG)
        x = x4(c=4)
        out = blk.forward(x, training=True)
        blk.forward(x, training=False)
        with pytest.raises(ShapeError):
            blk.backward(np.ones_like(out))

    def test_train_forward_backward_still_works(self):
        conv = Conv2d(3, 4, 3, rng=RNG)
        x = x4()
        out = conv.forward(x, training=True)
        assert conv.backward(np.ones_like(out)).shape == x.shape


class TestLinearInputAliasing:
    def test_caller_mutation_does_not_corrupt_dweight(self):
        lin = Linear(6, 3, rng=RNG)
        x = RNG.normal(size=(4, 6)).astype(np.float32)
        x_snapshot = x.copy()
        out = lin.forward(x, training=True)
        x *= 0.0  # caller reuses its buffer between forward and backward
        g = np.ones_like(out)
        lin.backward(g)
        expected = g.T @ x_snapshot
        np.testing.assert_allclose(lin.dweight, expected, rtol=1e-5)

    def test_cached_copy_is_read_only(self):
        lin = Linear(6, 3, rng=RNG)
        x = RNG.normal(size=(2, 6)).astype(np.float32)
        lin.forward(x, training=True)
        assert lin._x is not x
        assert not lin._x.flags.writeable


def _fused(conv, ws=None, silu=True):
    """Identity-folded FusedConvBNAct over ``conv``'s weights."""
    weight, bias = fold_conv_bn(conv, None)
    return FusedConvBNAct(weight, bias, conv.stride, conv.padding,
                          silu=silu, workspace=ws)


class TestConvWorkspacePath:
    """conv2d_eval over a Workspace arena is bitwise the fresh-buffer
    path; the arena is reused across frames and untouched by training."""

    def test_workspace_eval_matches_default(self):
        conv = Conv2d(3, 6, 3, stride=2, rng=np.random.default_rng(3))
        x = x4(h=16, w=16)
        np.testing.assert_array_equal(
            _fused(conv, Workspace()).forward(x, training=False),
            _fused(conv).forward(x, training=False))

    @pytest.mark.parametrize("n,cin,cout,k,stride,pad,hw", [
        (1, 16, 1, 1, 1, 0, 5),    # depth-head shape: 1x1, one output
        (1, 32, 1, 1, 1, 0, 16),
        (2, 16, 1, 1, 1, 0, 8),
        (1, 8, 4, 3, 1, 1, 1),     # 1x1 spatial output
    ])
    def test_workspace_eval_matches_default_across_shapes(
            self, n, cin, cout, k, stride, pad, hw):
        ws = Workspace()
        conv = Conv2d(cin, cout, k, stride=stride, padding=pad,
                      rng=np.random.default_rng(3))
        x = RNG.normal(size=(n, cin, hw, hw)).astype(np.float32)
        ref = conv.forward(x, training=False)
        w2d = conv.weight.reshape(cout, -1)
        for _ in range(2):  # second frame runs over the reused arena
            out = conv2d_eval(x, w2d, conv.bias, k, stride, pad, ws=ws,
                              owner=conv)
            np.testing.assert_array_equal(out, ref)
        for silu in (False, True):
            np.testing.assert_array_equal(
                _fused(conv, ws, silu).forward(x, training=False),
                _fused(conv, None, silu).forward(x, training=False))

    def test_workspace_buffers_reused_across_frames(self):
        ws = Workspace()
        fused = _fused(Conv2d(3, 6, 3, rng=RNG), ws)
        fused.forward(x4(), training=False)
        misses = ws.misses
        fused.forward(x4(), training=False)
        assert ws.misses == misses  # second frame: all hits
        assert ws.hits > 0

    def test_workspace_ignored_during_training(self):
        ws = Workspace()
        conv = Conv2d(3, 6, 3, rng=RNG)
        fused = _fused(conv, ws)
        x = x4()
        with pytest.raises(ModelError):
            fused.forward(x, training=True)
        assert ws.num_buffers == 0  # the refused forward allocates nothing
        ref = fused.forward(x, training=False)
        held, misses = ws.num_buffers, ws.misses
        # A training step and a second refused forward between two eval
        # frames leave the arena as the first frame left it.
        out = conv.forward(x, training=True)
        assert conv.backward(np.ones_like(out)).shape == x.shape
        with pytest.raises(ModelError):
            fused.forward(x, training=True)
        assert (ws.num_buffers, ws.misses) == (held, misses)
        np.testing.assert_array_equal(fused.forward(x, training=False), ref)
        assert (ws.num_buffers, ws.misses) == (held, misses)
