"""Autodiff substrate: forward values vs loop oracles, gradients vs FD."""

import tracemalloc
import weakref

import numpy as np
import pytest

import styleinpaint.nn as nn
import styleinpaint.nn.functional as F
from styleinpaint.nn import Tensor
from styleinpaint.nn import tensor as T

import oracles
from measures import gradcheck


def randn64(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# conv2d shapes that tell B from Cin and Ho from Wo: a swapped axis in the
# column layout or its reshapes gives wrong values on at least one of them.
# Stride-1 rows with Cout < Cin take the output-side (narrow) lowering, the
# others the im2col one; the narrow_* rows also tell Cout from B and H from
# W, so swapped tap offsets or axes of Y and Gs show too. The batch_last_*
# rows have a batch longer than an output row (B > Wo), so where x needs a
# gradient their im2col columns and dX scatter run batch innermost.
# Fields: B, Cin, Cout, H, W, kernel, stride, padding, pad_mode.
CONV_LAYOUTS = {
    "non_square": (2, 2, 3, 7, 10, 3, 1, 1, "zeros"),
    "non_square_edge": (1, 3, 2, 10, 7, 3, 1, 1, "edge"),
    "stride2_odd": (2, 3, 2, 7, 9, 3, 2, 1, "zeros"),
    "stride2_odd_edge": (1, 2, 3, 9, 7, 3, 2, 1, "edge"),
    "one_by_one_unpadded": (2, 4, 3, 5, 6, 1, 1, 0, "zeros"),
    "batch3_cin_ne_cout": (3, 2, 5, 6, 5, 3, 1, 1, "edge"),
    "narrow_k3_zeros": (3, 5, 2, 6, 9, 3, 1, 1, "zeros"),
    "narrow_k3_edge": (2, 6, 3, 9, 5, 3, 1, 1, "edge"),
    "narrow_one_by_one": (3, 7, 4, 5, 8, 1, 1, 0, "zeros"),
    "batch_last_zeros": (6, 2, 3, 4, 5, 3, 1, 1, "zeros"),
    "batch_last_edge": (7, 3, 4, 6, 4, 3, 1, 1, "edge"),
    "batch_last_stride2_zeros": (5, 2, 3, 7, 6, 3, 2, 1, "zeros"),
    "batch_last_stride2_edge": (4, 3, 2, 8, 5, 3, 2, 1, "edge"),
    "batch_last_unpadded": (5, 2, 3, 6, 5, 3, 1, 0, "zeros"),
}

# the style encoder's four convs at a PSRL batch of 128 patches and at 17,
# above the 16 pixels of the widest output row, so every conv lowers batch
# innermost. Fields: Cin, Cout, H (= W), stride.
ENCODER_CONVS = [(3, 16, 16, 1), (16, 32, 16, 2), (32, 64, 8, 1), (64, 64, 8, 2)]


# attention shapes of the model at width 64: B=4 self-attention at 1024 and
# 256 tokens (denoiser and reference-net blocks), 1024 queries over k+1 = 5
# style tokens and the batch-1 sampler case. 1/sqrt(64) is a power of two,
# which makes the order of the scale multiply invisible, so the float64 and
# width-24 cases use widths whose scale rounds.
# Fields: B, Lq, Lk, d, dtype.
ATTENTION_SHAPES = {
    "self_1024": (4, 1024, 1024, 64, np.float32),
    "self_256": (4, 256, 256, 64, np.float32),
    "style_tokens": (4, 1024, 5, 64, np.float32),
    "batch1_1024": (1, 1024, 1024, 64, np.float32),
    "width24": (2, 128, 96, 24, np.float32),
    "float64": (2, 96, 40, 20, np.float64),
}


def attention_and_grads(attend, q, k, v, g, frozen=()):
    """Output and (dq, dk, dv) of attend(q, k, v) under the upstream
    gradient g; operands named in `frozen` do not require grad."""
    ts = {name: Tensor(a.copy(), requires_grad=name not in frozen)
          for name, a in (("q", q), ("k", k), ("v", v))}
    out = attend(ts["q"], ts["k"], ts["v"])
    nn.tsum(out * Tensor(g)).backward()
    return out.data, [ts[name].grad for name in "qkv"]


def conv_case(rng, name):
    B, Cin, Cout, H, W, k, stride, padding, pad_mode = CONV_LAYOUTS[name]
    x = rng.standard_normal((B, Cin, H, W))
    w = rng.standard_normal((Cout, Cin, k, k))
    b = rng.standard_normal(Cout)
    return x, w, b, dict(stride=stride, padding=padding, pad_mode=pad_mode)


class TestForwardVsOracle:
    def test_conv2d_matches_loops(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data
        want = oracles.conv2d_loops(x, w, b, stride=1, padding=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_conv2d_stride2_edge_pad(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        got = F.conv2d(Tensor(x), Tensor(w), None, stride=2, padding=1, pad_mode="edge").data
        want = oracles.conv2d_loops(x, w, None, stride=2, padding=1, pad_mode="edge")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(CONV_LAYOUTS))
    def test_conv2d_layouts_match_loops(self, name):
        # x needs a gradient, as between the style encoder's convs, so the
        # batch_last_* rows build batch-innermost columns
        x, w, b, opts = conv_case(np.random.default_rng(7), name)
        got = F.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), **opts).data
        want = oracles.conv2d_loops(x, w, b, **opts)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_linear_matches_loops(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        w = rng.standard_normal((4, 7))
        b = rng.standard_normal(4)
        got = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, oracles.linear_loops(x, w, b), rtol=1e-12, atol=1e-12)

    def test_attention_matches_loops(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((2, 5, 8))
        k = rng.standard_normal((2, 3, 8))
        v = rng.standard_normal((2, 3, 8))
        got = F.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        want = oracles.attention_loops(q, k, v)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_attention_empty_keys_raises(self):
        q = Tensor(np.zeros((1, 2, 4)))
        k = Tensor(np.zeros((1, 0, 4)))
        with pytest.raises(ValueError, match="empty key sequence"):
            F.scaled_dot_attention(q, k, k)

    def test_channel_mean_std_matches_loops(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 5))
        mu, sigma = F.channel_mean_std(Tensor(x))
        mu_o, sigma_o = oracles.mean_std_loops(x)
        np.testing.assert_allclose(mu.data, mu_o, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sigma.data, sigma_o, rtol=1e-12, atol=1e-12)

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 9))
        s = oracles.softmax(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), rtol=1e-12)
        s2 = oracles.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(s, s2, rtol=1e-9, atol=1e-12)
        assert np.isfinite(oracles.softmax(Tensor(np.array([[1e4, -1e4]]))).data).all()

    def test_logsumexp_extreme_values_finite(self):
        x = Tensor(np.array([[1000.0, 1000.0], [-1000.0, -1000.0]]))
        out = nn.logsumexp(x, axis=1).data
        np.testing.assert_allclose(out, [1000.0 + np.log(2), -1000.0 + np.log(2)], rtol=1e-12)

    def test_l2_normalize_unit_norm_and_zero_raises(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 6))
        out = F.l2_normalize(Tensor(x)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(3), rtol=1e-12)
        with pytest.raises(ValueError, match="degenerate zero embedding"):
            F.l2_normalize(Tensor(np.zeros((1, 4))))

    @pytest.mark.parametrize("mode,np_mode", [("zeros", "constant"), ("edge", "edge")])
    def test_pad2d_matches_numpy_pad(self, mode, np_mode):
        x = np.random.default_rng(8).standard_normal((2, 3, 4, 5))
        for p in (1, 2):
            want = np.pad(x, [(0, 0), (0, 0), (p, p), (p, p)], mode=np_mode)
            np.testing.assert_array_equal(T.pad_array(x, p, mode), want)

    def test_upsample_nearest(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        got = nn.upsample_nearest2x(Tensor(x)).data
        assert got.shape == (1, 2, 4, 4)
        np.testing.assert_array_equal(got[0, 0], np.repeat(np.repeat(x[0, 0], 2, 0), 2, 1))

    def test_sinusoidal_embedding_values(self):
        emb = F.sinusoidal_embedding(np.array([0, 7]), 8)
        assert emb.shape == (2, 8)
        np.testing.assert_allclose(emb[0], [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-7)
        freqs = np.exp(-np.log(10000.0) * np.arange(4) / 3)
        np.testing.assert_allclose(emb[1, :4], np.sin(7 * freqs), rtol=1e-5)
        np.testing.assert_allclose(emb[1, 4:], np.cos(7 * freqs), rtol=1e-5)


class TestGradients:
    """Every differentiable op against central finite differences."""

    def test_arithmetic_chain(self):
        rng = np.random.default_rng(10)
        a = randn64(rng, 3, 4)
        b = randn64(rng, 3, 4)

        def f():
            return ((a * b + a / (b * b + 3.0) - b) ** 2).sum()

        gradcheck(f, [a, b], tol=1e-6)

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(11)
        a = randn64(rng, 2, 3, 4)
        b = randn64(rng, 4)

        def f():
            return ((a + b) * b).mean()

        gradcheck(f, [a, b], tol=1e-6)

    def test_sqrt(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(0.5, 2.0, (3, 3)))

        def f():
            return nn.sqrt(a).sum()

        gradcheck(f, [a], tol=1e-6)

    def test_relu(self):
        rng = np.random.default_rng(13)
        a = randn64(rng, 4, 4)
        a.data[np.abs(a.data) < 1e-3] = 0.5  # keep FD away from the kink

        def f():
            return (nn.relu(a) * nn.relu(a)).sum()

        gradcheck(f, [a], tol=1e-6)

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(14)
        a = randn64(rng, 2, 3, 4)

        def f():
            s = a.sum(axis=1) + a.mean(axis=(1, 2), keepdims=True).reshape(2)[:, None]
            return (s * s).mean()

        gradcheck(f, [a], tol=1e-6)

    def test_matmul_2d_and_batched(self):
        rng = np.random.default_rng(15)
        a = randn64(rng, 3, 4)
        b = randn64(rng, 4, 5)
        c = randn64(rng, 2, 3, 4)

        def f():
            return ((a @ b).sum() + (c @ b).mean())

        gradcheck(f, [a, b, c], tol=1e-6)

    def test_softmax_grad(self):
        rng = np.random.default_rng(16)
        a = randn64(rng, 3, 5)
        w = rng.standard_normal((3, 5))

        def f():
            return (oracles.softmax(a, axis=-1) * w).sum()

        gradcheck(f, [a], tol=1e-6)

    def test_logsumexp_logaddexp_grads(self):
        rng = np.random.default_rng(17)
        a = randn64(rng, 4, 6)
        b = randn64(rng, 4, 1)

        def f():
            return nn.logsumexp(a, axis=1).sum() + nn.logaddexp(a, b).mean()

        gradcheck(f, [a, b], tol=1e-6)

    def test_concat_getitem_transpose(self):
        rng = np.random.default_rng(18)
        a = randn64(rng, 2, 3)
        b = randn64(rng, 2, 2)

        def f():
            cat = nn.concat([a, b], axis=1)
            return (cat[:, 1:4] * cat[:, 1:4]).sum() + cat.transpose(1, 0).mean()

        gradcheck(f, [a, b], tol=1e-6)

    def test_pad_zero_and_edge(self):
        rng = np.random.default_rng(19)
        a = randn64(rng, 1, 2, 3, 3)

        def f():
            return ((oracles.pad2d(a, 2, "zeros") ** 2).sum()
                    + (oracles.pad2d(a, 1, "edge") ** 2).sum())

        gradcheck(f, [a], tol=1e-6)

    def test_upsample_grad(self):
        rng = np.random.default_rng(20)
        a = randn64(rng, 1, 2, 3, 3)
        w = rng.standard_normal((1, 2, 6, 6))

        def f():
            return (nn.upsample_nearest2x(a) * w).sum()

        gradcheck(f, [a], tol=1e-6)

    def test_conv2d_grads_all_inputs(self):
        rng = np.random.default_rng(21)
        x = randn64(rng, 2, 2, 5, 5)
        w = randn64(rng, 3, 2, 3, 3)
        b = randn64(rng, 3)
        tgt = rng.standard_normal((2, 3, 5, 5))

        def f():
            d = F.conv2d(x, w, b, stride=1, padding=1) - tgt
            return (d * d).mean()

        gradcheck(f, [x, w, b], tol=1e-5)

    def test_conv2d_stride2_edge_grads(self):
        rng = np.random.default_rng(22)
        x = randn64(rng, 1, 2, 6, 6)
        w = randn64(rng, 2, 2, 3, 3)

        def f():
            return (F.conv2d(x, w, None, stride=2, padding=1, pad_mode="edge") ** 2).sum()

        gradcheck(f, [x, w], tol=1e-5)

    @pytest.mark.parametrize("name", sorted(CONV_LAYOUTS))
    def test_conv2d_layout_grads(self, name):
        rng = np.random.default_rng(24)
        xd, wd, bd, opts = conv_case(rng, name)
        x, w, b = Tensor(xd), Tensor(wd), Tensor(bd)
        tgt = rng.standard_normal(oracles.conv2d_loops(xd, wd, bd, **opts).shape)

        def f():
            d = F.conv2d(x, w, b, **opts) - tgt
            return (d * d).mean()

        gradcheck(f, [x, w, b], tol=1e-5)

    @pytest.mark.parametrize("name", ["narrow_k3_edge", "stride2_odd_edge"])
    def test_conv2d_node_parents_are_its_inputs(self, name):
        # conv2d pads inside its node, so no padded copy of x sits on the
        # tape between x and the conv, on either lowering
        rng = np.random.default_rng(25)
        xd, wd, bd, opts = conv_case(rng, name)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = F.conv2d(x, w, b, **opts)
        assert len(out._parents) == 3
        assert all(p is t for p, t in zip(out._parents, (x, w, b)))
        np.testing.assert_allclose(out.data, oracles.conv2d_loops(xd, wd, bd, **opts),
                                   rtol=1e-12, atol=1e-12)
        tgt = rng.standard_normal(out.shape)

        def f():
            d = F.conv2d(x, w, b, **opts) - tgt
            return (d * d).mean()

        gradcheck(f, [x, w], tol=1e-5)

    @pytest.mark.parametrize("batch", [17, 128])
    @pytest.mark.parametrize("cin, cout, size, stride", ENCODER_CONVS)
    def test_conv2d_batch_last_bits(self, cin, cout, size, stride, batch):
        # batch-innermost columns give the bits of the (b, yo, xo) ones in
        # float32: the output, dW, db and dX
        rng = np.random.default_rng(27)
        xd = rng.standard_normal((batch, cin, size, size)).astype(np.float32)
        wd = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        bd = rng.standard_normal(cout).astype(np.float32)
        side = (size - 1) // stride + 1
        g = rng.standard_normal((batch, cout, side, side)).astype(np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = F.conv2d(x, w, b, stride=stride, padding=1, pad_mode="edge")
        out._backward(g)
        want = oracles.conv2d_bhw(xd, wd, bd, g, stride=stride, padding=1, pad_mode="edge")
        for got, ref in zip((out.data, w.grad, b.grad, x.grad), want):
            assert got.dtype == np.float32 and np.array_equal(got, ref)

    def test_narrow_conv2d_builds_no_columns(self):
        # a stride-1 conv with Cout < Cin never holds im2col columns
        # [Cin*k*k, B*Ho*Wo]: its forward and backward together peak below
        # the size of those columns
        B, Cin, Cout, H = 2, 64, 4, 16
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((B, Cin, H, H)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((Cout, Cin, 3, 3)).astype(np.float32),
                   requires_grad=True)
        g = rng.standard_normal((B, Cout, H, H)).astype(np.float32)
        cols = Cin * 9 * B * H * H * 4
        tracemalloc.start()
        try:
            F.conv2d(x, w, None)._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cols, f"peak {peak} bytes, columns {cols}"

    def test_attention_grads(self):
        rng = np.random.default_rng(23)
        q = randn64(rng, 1, 4, 6)
        k = randn64(rng, 1, 3, 6)
        v = randn64(rng, 1, 3, 6)

        def f():
            return (F.scaled_dot_attention(q, k, v) ** 2).sum()

        gradcheck(f, [q, k, v], tol=1e-5)

    def test_channel_stats_and_normalize_grads(self):
        rng = np.random.default_rng(24)
        x = randn64(rng, 2, 3, 4, 4)

        def f():
            mu, sigma = F.channel_mean_std(x)
            z = F.l2_normalize(nn.concat([mu, sigma], axis=1))
            return (z * np.arange(6)).sum()

        gradcheck(f, [x], tol=1e-5)

    # operand shapes that broadcast against each other, so both gradients
    # are summed back to their operand's shape
    BINARY_OPS = {
        "add": (nn.add, (3, 1, 4), (2, 4)),
        "sub": (nn.sub, (3, 1, 4), (2, 4)),
        "mul": (nn.mul, (3, 1, 4), (2, 4)),
        "div": (nn.div, (3, 1, 4), (2, 4)),
        "matmul": (nn.matmul, (2, 1, 3, 4), (3, 4, 5)),
        "logaddexp": (nn.logaddexp, (3, 1, 4), (2, 4)),
    }

    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    def test_binary_node_contract(self, name):
        # both operands trainable: gradients match finite differences; then
        # each frozen in turn: it gets no gradient and the other the same bits
        op, sa, sb = self.BINARY_OPS[name]
        rng = np.random.default_rng(19)
        a0 = rng.standard_normal(sa)
        b0 = rng.uniform(0.5, 1.5, sb) * rng.choice([-1.0, 1.0], sb)  # away from 0 for div
        w = rng.standard_normal(op(Tensor(a0), Tensor(b0)).shape)

        def grads(frozen=None):
            a, b = Tensor(a0.copy(), True), Tensor(b0.copy(), True)
            if frozen is not None:
                (a, b)[frozen].requires_grad = False
            (op(a, b) * w).sum().backward()
            return a.grad, b.grad

        a, b = Tensor(a0.copy()), Tensor(b0.copy())
        gradcheck(lambda: (op(a, b) * w).sum(), [a, b], tol=1e-6)
        both = grads()
        assert both[0].shape == sa and both[1].shape == sb
        for frozen in (0, 1):
            got = grads(frozen)
            assert got[frozen] is None
            assert np.array_equal(got[1 - frozen], both[1 - frozen])

    def test_grad_accumulates_when_input_reused(self):
        a = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        out = a * a + a * 3.0
        out.backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_gather_with_repeated_indices(self):
        # embedding-style lookup: duplicate rows must accumulate gradient
        table = Tensor(np.random.default_rng(3).standard_normal((5, 3)))
        idx = np.array([[1, 1, 4], [0, 1, 2]])
        fn = lambda: (nn.getitem(table, idx) ** 2.0).sum()
        gradcheck(fn, [table], tol=1e-6)
        out = (nn.getitem(table, np.array([2, 2, 2])) * 1.0).sum()
        out.backward()
        np.testing.assert_allclose(table.grad[2], [3.0, 3.0, 3.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            out = (a * 2.0).sum()
        assert out._backward is None and not out.requires_grad

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2.0).backward()


class TestFusedAttention:
    """scaled_dot_attention is one node that gives the bits of the composed
    transpose/matmul/mul/softmax/matmul chain, forward and backward."""

    @pytest.mark.parametrize("name", sorted(ATTENTION_SHAPES))
    def test_bit_identical_to_composed_chain(self, name):
        B, Lq, Lk, d, dtype = ATTENTION_SHAPES[name]
        rng = np.random.default_rng(41)
        q, k, v, g = (rng.standard_normal(shape).astype(dtype)
                      for shape in ((B, Lq, d), (B, Lk, d), (B, Lk, d), (B, Lq, d)))
        want, want_grads = attention_and_grads(oracles.scaled_dot_attention_tape,
                                               q, k, v, g)
        got, got_grads = attention_and_grads(F.scaled_dot_attention, q, k, v, g)
        assert got.dtype == dtype and np.array_equal(got, want)
        for axis, a, b in zip("qkv", got_grads, want_grads):
            assert a.dtype == dtype and np.array_equal(a, b), f"d{axis} differs"
            # same memory layout too (dk is a transposed product), so the
            # products upstream of the node see the operands the chain gave
            assert a.strides == b.strides, f"d{axis} layout differs"

    @pytest.mark.parametrize("frozen", [("q", "k"), ("k",), ("v",)])
    def test_frozen_operands_get_no_grad(self, frozen):
        rng = np.random.default_rng(42)
        q, k, v, g = (rng.standard_normal((2, 32, 16)).astype(np.float32)
                      for _ in range(4))
        _, want = attention_and_grads(oracles.scaled_dot_attention_tape,
                                      q, k, v, g, frozen)
        _, got = attention_and_grads(F.scaled_dot_attention, q, k, v, g, frozen)
        for axis, a, b in zip("qkv", got, want):
            if axis in frozen:
                assert a is None and b is None
            else:
                assert np.array_equal(a, b), f"d{axis} differs"

    def test_shared_operand_accumulates_like_chain(self):
        # one tensor as q, k and v takes three gradient terms; the node must
        # add them in the chain's order (v, then q, then k) to match its bits
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 256, 64)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        grads = []
        for attend in (oracles.scaled_dot_attention_tape, F.scaled_dot_attention):
            t = Tensor(x.copy(), requires_grad=True)
            nn.tsum(attend(t, t, t) * Tensor(g)).backward()
            grads.append(t.grad)
        assert np.array_equal(grads[0], grads[1])

    def test_keeps_no_score_array(self):
        # after the forward pass the node holds no [Lq, Lk] score slice, let
        # alone a [B, Lq, Lk] array: backward recomputes each P_b from q and
        # k; the chain held the raw scores, the scaled scores and P
        B, L, d = 2, 512, 64
        rng = np.random.default_rng(44)
        q, k, v = (Tensor(rng.standard_normal((B, L, d)).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = F.scaled_dot_attention(q, k, v)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept < L * L * 4, f"kept {kept / (L * L * 4):.2f} score slices"

    def test_backward_peak_is_a_few_slices(self):
        # backward works on one [Lq, Lk] slice at a time (P_b, dS_b and the
        # dP_b * P_b product), where a [B, Lq, Lk] dS alone is B slices
        B, L, d = 8, 512, 16
        rng = np.random.default_rng(45)
        q, k, v = (Tensor(rng.standard_normal((B, L, d)).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        g = Tensor(rng.standard_normal((B, L, d)).astype(np.float32))
        loss = nn.tsum(F.scaled_dot_attention(q, k, v) * g)
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        operands, slices = 8 * q.data.nbytes, 4 * L * L * 4
        assert peak < slices + operands, \
            f"peak {(peak - operands) / (L * L * 4):.2f} slices above the operands"

    @pytest.mark.parametrize("shapes, message", [
        (((2, 5, 4), (1, 3, 4), (2, 3, 4)), "batch sizes differ"),
        (((2, 5, 4), (2, 3, 4), (1, 3, 4)), "batch sizes differ"),
        (((2, 5, 4), (2, 3, 6), (2, 3, 4)), "query width 4 differs from key width 6"),
        (((2, 5, 4), (2, 3, 4), (2, 2, 4)), "3 keys but 2 values"),
    ], ids=["k_batch", "v_batch", "key_width", "value_count"])
    def test_mismatched_operands_raise(self, shapes, message):
        q, k, v = (Tensor(np.ones(s, np.float32), requires_grad=True) for s in shapes)
        with pytest.raises(ValueError, match=message):
            F.scaled_dot_attention(q, k, v)


def _activation(rng, shape):
    """An op output that needs a gradient, as a layer's activation does,
    whose value nothing but the caller holds."""
    return Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True) * 1.0


def _attend_as(role):
    """Attention with the watched tensor x as q, k or v and `other` as the
    other two operands."""
    def op(x, other):
        qkv = [other, other, other]
        qkv["qkv".index(role)] = x
        return F.scaled_dot_attention(*qkv)
    return op


# op(x, other) for an activation x and a leaf `other` that is frozen or
# needs a gradient, and whether the tape must keep x's value after the
# forward drops it, for each: (op, x shape, other shape, kept if other is
# frozen, kept if it trains). An op of x alone has no other shape.
TAPE_KEEPS = {
    "add": (nn.add, (3, 4), (3, 4), False, False),
    "sub": (nn.sub, (3, 4), (3, 4), False, False),
    "mul": (nn.mul, (3, 4), (3, 4), False, True),
    "div_dividend": (nn.div, (3, 4), (3, 4), False, True),
    "div_divisor": (lambda x, o: nn.div(o, x), (3, 4), (3, 4), True, True),
    "matmul_left": (nn.matmul, (2, 3, 4), (4, 5), False, True),
    "matmul_right": (lambda x, o: nn.matmul(o, x), (4, 5), (2, 3, 4), False, True),
    "logaddexp": (nn.logaddexp, (3, 4), (3, 4), False, False),
    "concat": (lambda x, o: nn.concat([x, o], axis=1), (3, 4), (3, 2), False, False),
    "conv2d_im2col": (lambda x, w: F.conv2d(x, w), (2, 3, 6, 5), (4, 3, 3, 3), False, True),
    "conv2d_narrow": (lambda x, w: F.conv2d(x, w, pad_mode="edge"), (2, 5, 6, 5),
                      (2, 5, 3, 3), False, True),
    "conv2d_unpadded": (lambda x, w: F.conv2d(F.unflatten_tokens(x, 3, 2), w, padding=0),
                        (2, 6, 4), (4, 4, 1, 1), False, True),
    # backward recomputes the softmax from q and k, so a trained q or k
    # keeps both; v is kept only for dq and dk
    "attention_q": (_attend_as("q"), (2, 5, 4), (2, 3, 4), True, True),
    "attention_k": (_attend_as("k"), (2, 3, 4), (2, 3, 4), True, True),
    "attention_v": (_attend_as("v"), (2, 3, 4), (2, 3, 4), False, True),
    "relu": (lambda x, o: nn.relu(x), (3, 4), None, False, None),
    "sqrt": (lambda x, o: nn.sqrt(x), (3, 4), None, False, None),
    "power": (lambda x, o: x ** 3.0, (3, 4), None, True, None),
    "tsum": (lambda x, o: nn.tsum(x, axis=1), (3, 4), None, False, None),
    "tmean": (lambda x, o: nn.tmean(x, axis=0, keepdims=True), (3, 4), None, False, None),
    "reshape": (lambda x, o: nn.reshape(x, (4, 3)), (3, 4), None, False, None),
    "transpose": (lambda x, o: nn.transpose(x, (1, 0)), (3, 4), None, False, None),
    "getitem": (lambda x, o: x[np.array([2, 0, 2])], (3, 4), None, False, None),
    "upsample": (lambda x, o: nn.upsample_nearest2x(x), (1, 2, 3, 3), None, False, None),
    "logsumexp": (lambda x, o: nn.logsumexp(x, axis=1), (3, 4), None, False, None),
}


class TestTape:
    """The tape keeps only the values backward reads, and what a tracer
    needs of a node: its operands and a settable backward closure."""

    @pytest.mark.parametrize("name, trains", [
        (name, trains) for name, case in sorted(TAPE_KEEPS.items())
        for trains in ((False, True) if case[2] else (False,))])
    def test_operand_value_kept_only_for_backward(self, name, trains):
        op, x_shape, other_shape, *kept = TAPE_KEEPS[name]
        rng = np.random.default_rng(60)
        x = _activation(rng, x_shape)
        other = Tensor(rng.uniform(0.5, 1.5, other_shape or ()), requires_grad=trains)
        value = weakref.ref(x.data)
        out = op(x, other)
        loss = nn.tsum(out * Tensor(rng.standard_normal(out.shape)))
        del x, out
        assert (value() is not None) == kept[trains]
        loss.backward()
        assert value() is None

    @pytest.mark.parametrize("op, kept", [
        (lambda x: F.conv2d(x, Tensor(np.ones((2, 3, 3, 3)))), False),
        (lambda x: F.scaled_dot_attention(*[nn.reshape(x, (2, 3, 16))] * 3), False),
        (nn.relu, False),
        (nn.sqrt, True),  # its derivative reads its output
    ], ids=["conv2d", "attention", "relu", "sqrt"])
    def test_output_value_freed_when_dropped(self, op, kept):
        x = _activation(np.random.default_rng(61), (2, 3, 4, 4))
        out = op(x)
        value = weakref.ref(out.data)
        loss = nn.tsum(out * 2.0)
        del out
        assert (value() is not None) == kept
        loss.backward()
        assert value() is None

    def test_kernel_nodes_link_their_live_inputs(self):
        # bench/tracing.py walks out._parents to a kernel's input Tensors by
        # identity and wraps out._backward; both must work on intermediate
        # inputs, whose values the tape does not keep
        rng = np.random.default_rng(62)
        x = _activation(rng, (2, 3, 5, 5))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        q, k, v = (_activation(rng, (2, 6, 4)) for _ in range(3))
        conv, att = F.conv2d(x, w, b), F.scaled_dot_attention(q, k, v)
        calls = []
        for name, out, inputs in (("conv2d", conv, (x, w, b)), ("attention", att, (q, k, v))):
            assert len(out._parents) == len(inputs)
            assert all(p is t for p, t in zip(out._parents, inputs))

            def doubled(g, inner=out._backward, name=name):
                calls.append(name)
                inner(g * 2.0)
            out._backward = doubled
        (nn.tsum(conv) + nn.tsum(att)).backward()
        assert sorted(calls) == ["attention", "conv2d"]
        got = w.grad
        w.grad = None
        (nn.tsum(F.conv2d(x, w, b)) * 2.0).backward()
        assert np.array_equal(got, w.grad)

    def test_accum_keeps_first_gradient_layout(self):
        # a first gradient is copied in its own layout and later ones add
        # into it in place: sums downstream run in memory order, so the
        # layout is part of the bits
        rng = np.random.default_rng(63)
        t = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
        first = rng.standard_normal((4, 3)).astype(np.float32).T
        second = rng.standard_normal((3, 4)).astype(np.float32)
        T._accum(t, first)
        held = t.grad
        assert held.strides == first.strides and not np.shares_memory(held, first)
        T._accum(t, second)
        assert t.grad is held and held.strides == first.strides
        assert np.array_equal(held, first + second)

    @pytest.mark.parametrize("view", [
        lambda a: a,
        lambda a: a.transpose(0, 2, 1, 3),
        lambda a: a.reshape(2, 20, 3).transpose(0, 2, 1).reshape(2, 3, 4, 5),
        lambda a: a[:, ::2, :, 1:],
        lambda a: np.asfortranarray(a),
    ], ids=["c_order", "transposed", "unflattened_tokens", "strided", "f_order"])
    def test_zeros_like_layout_matches_numpy(self, view):
        a = view(np.arange(120, dtype=np.float32).reshape(2, 3, 4, 5))
        got = T._zeros_like_layout(a)()
        want = np.zeros_like(a)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.strides == want.strides and not got.any()


class TestAdam:
    def test_trajectory_matches_reference(self):
        rng = np.random.default_rng(30)
        theta0 = rng.standard_normal(6)
        grads = [rng.standard_normal(6) for _ in range(25)]

        params = nn.ParameterSet()
        t = params.add("w", Tensor(theta0.copy().astype(np.float64)))
        state = nn.AdamState(lr=1e-2)
        for g in grads:
            t.grad = g.copy()
            nn.adam_step(params, state)

        want = oracles.adam_steps_loops(theta0, grads, lr=1e-2)
        np.testing.assert_allclose(t.data, want, rtol=1e-10, atol=1e-12)
        assert t.grad is None

    def test_zero_lr_is_identity(self):
        params = nn.ParameterSet()
        t = params.add("w", Tensor(np.array([1.0, 2.0])))
        before = t.data.copy()
        state = nn.AdamState(lr=0.0)
        t.grad = np.array([5.0, -5.0], dtype=t.data.dtype)
        nn.adam_step(params, state)
        np.testing.assert_array_equal(t.data, before)

    def test_missing_grad_names_parameter(self):
        params = nn.ParameterSet()
        params.add("enc/w1", Tensor(np.ones(2)))
        with pytest.raises(RuntimeError, match="enc/w1"):
            nn.adam_step(params, nn.AdamState())

    def test_frozen_parameters_untouched(self):
        params = nn.ParameterSet()
        a = params.add("a", Tensor(np.ones(2)))
        b = params.add("b", Tensor(np.ones(2)))
        params.set_trainable({"b"})
        before = a.data.copy()
        b.grad = np.ones(2, dtype=b.data.dtype)
        nn.adam_step(params, nn.AdamState(lr=0.1))
        np.testing.assert_array_equal(a.data, before)
        assert not np.array_equal(b.data, np.ones(2))

    def test_duplicate_path_rejected(self):
        params = nn.ParameterSet()
        params.add("x", Tensor(np.ones(1)))
        with pytest.raises(ValueError, match="duplicate"):
            params.add("x", Tensor(np.ones(1)))
