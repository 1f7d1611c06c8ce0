"""Autodiff engine tests: convolution oracle, gradient checks, op semantics."""

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn.autodiff import Parameter, Tensor, grad_check
from amcrn.errors import ConfigError, ShapeError


def conv_reference(x, kernel, dilation):
    """Literal definition: out[q, co] = sum over taps t in [-n, n] of
    x[q - dilation*t] . K[t + n], with zero outside the signal."""
    t_len, c_in = x.shape
    k, _, c_out = kernel.shape
    n = (k - 1) // 2
    out = np.zeros((t_len, c_out))
    for q in range(t_len):
        for t in range(-n, n + 1):
            src = q - dilation * t
            if 0 <= src < t_len:
                out[q] += x[src] @ kernel[t + n]
    return out


class TestConvForward:
    def test_matches_reference_200_random_cases(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            t_len = int(rng.integers(1, 20))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5, 7]))
            r = int(rng.integers(1, 5))
            x = rng.standard_normal((t_len, c_in))
            kern = rng.standard_normal((k, c_in, c_out))
            got = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=r).data
            ref = conv_reference(x, kern, r)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        assert worst < 1e-12

    def test_identity_kernel(self):
        x = np.arange(12.0).reshape(6, 2)
        kern = np.zeros((3, 2, 2))
        kern[1] = np.eye(2)  # center tap only
        out = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=3).data
        np.testing.assert_array_equal(out, x)

    def test_dilation_one_equals_standard_conv(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        kern = rng.standard_normal((3, 3, 4))
        a = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=1).data
        ref = np.zeros((10, 4))
        for co in range(4):
            for ci in range(3):
                full = np.convolve(x[:, ci], kern[:, ci, co], mode="same")
                ref[:, co] += full
        np.testing.assert_allclose(a, ref, atol=1e-12)

    def test_receptive_field_of_dilated_tap(self):
        # An impulse at frame 10 through a k=3, r=4 conv touches frames 6, 10, 14.
        x = np.zeros((20, 1))
        x[10, 0] = 1.0
        kern = np.ones((3, 1, 1))
        out = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=4).data[:, 0]
        assert set(np.nonzero(out)[0]) == {6, 10, 14}

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((8, 2))
        x2 = rng.standard_normal((8, 2))
        kern = rng.standard_normal((5, 2, 3))
        f = lambda v: ad.conv1d_dilated(Tensor(v), Tensor(kern), dilation=2).data
        np.testing.assert_allclose(f(2.0 * x1 + 3.0 * x2), 2.0 * f(x1) + 3.0 * f(x2),
                                   atol=1e-12)

    def test_bias_added_per_channel(self):
        x = np.zeros((4, 2))
        kern = np.zeros((3, 2, 3))
        bias = np.array([1.0, -2.0, 0.5])
        out = ad.conv1d_dilated(Tensor(x), Tensor(kern), Tensor(bias), dilation=1).data
        np.testing.assert_array_equal(out, np.tile(bias, (4, 1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv1d_dilated(Tensor(np.zeros((4, 1))), Tensor(np.zeros((2, 1, 1))))

    def test_zero_dilation_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv1d_dilated(Tensor(np.zeros((4, 1))), Tensor(np.zeros((3, 1, 1))),
                              dilation=0)


class TestGradChecks:
    """Central-difference checks; every op must come in under 1e-4."""

    TOL = 1e-4

    def test_arithmetic_chain(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3))
        b = Tensor(rng.standard_normal((4, 3)) + 3.0)

        def f(x):
            return ad.tsum((x * b - x / b + 2.0 * x) ** 3)

        assert grad_check(f, Tensor(a)) < self.TOL

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_operand_used_twice(self, op):
        rng = np.random.default_rng(40)
        w = Tensor(rng.standard_normal((3, 4)))

        def f(x):
            return ad.tsum((x + x if op == "add" else x * x) * w)

        assert grad_check(f, Tensor(rng.standard_normal((3, 4)))) < self.TOL

    def test_matmul(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((3, 5)))
        f = lambda x: ad.tsum((x @ w) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((4, 3)))) < self.TOL

    def test_activations(self):
        rng = np.random.default_rng(5)
        point = Tensor(rng.standard_normal(10))
        for act in (ad.relu, ad.sigmoid, ad.tanh, ad.exp):
            w = Tensor(rng.standard_normal(10))
            f = lambda x, act=act, w=w: ad.tsum(act(x) * w)
            assert grad_check(f, point) < self.TOL

    def test_log_sqrt_clamp(self):
        rng = np.random.default_rng(6)
        point = Tensor(rng.uniform(0.5, 2.0, 8))
        assert grad_check(lambda x: ad.tsum(ad.log(x)), point) < self.TOL
        assert grad_check(lambda x: ad.tsum(ad.sqrt(x)), point) < self.TOL
        assert grad_check(lambda x: ad.tsum(ad.clamp_min(x, 0.8) ** 2), point) < self.TOL

    def test_reductions(self):
        rng = np.random.default_rng(7)
        point = Tensor(rng.standard_normal((5, 4)))
        assert grad_check(lambda x: ad.tsum(x**2), point) < self.TOL
        assert grad_check(lambda x: ad.tsum(ad.tmean(x, axis=0) ** 2), point) < self.TOL
        assert grad_check(lambda x: ad.tsum(ad.tmax(x, axis=1) ** 2), point) < self.TOL

    def test_softmax(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.standard_normal((6, 3)))
        f = lambda x: ad.tsum(ad.softmax(x, axis=1) * w)
        assert grad_check(f, Tensor(rng.standard_normal((6, 3)))) < self.TOL

    def test_concat_narrow_split(self):
        rng = np.random.default_rng(9)

        def f(x):
            parts = ad.split(x, 2, axis=1)
            y = ad.concat([parts[1], parts[0]], axis=1)
            return ad.tsum(ad.narrow(y, 0, 1, 2) ** 2)

        assert grad_check(f, Tensor(rng.standard_normal((4, 6)))) < self.TOL

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(10)
        kern = Tensor(rng.standard_normal((5, 2, 3)))
        f = lambda x: ad.tsum(ad.relu(ad.conv1d_dilated(x, kern, dilation=3)) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((9, 2)))) < self.TOL

    def test_conv_kernel_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((9, 2)))
        f = lambda k: ad.tsum(ad.conv1d_dilated(x, k, dilation=2) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((3, 2, 3)))) < self.TOL

    def test_cross_entropy(self):
        rng = np.random.default_rng(12)
        f = lambda x: ad.cross_entropy(x, 2)
        assert grad_check(f, Tensor(rng.standard_normal(5))) < self.TOL

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(13)
        row = Tensor(rng.standard_normal((1, 4)))
        f = lambda x: ad.tsum((x + row) * (x * row))
        assert grad_check(f, Tensor(rng.standard_normal((3, 4)))) < self.TOL


class TestSemantics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert float(x.grad) == pytest.approx(7.0)

    def test_first_accumulation_copies_the_gradient(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        t._accum(g)
        assert not np.shares_memory(t.grad, g)
        t._accum(g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(t.grad, [2.0, 4.0, 6.0])

    def test_one_gradient_array_passed_to_two_parents(self):
        # The outer add hands the same array to both of its parents; a
        # later accumulation into one of them must not reach the other.
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        ad.tsum((a + b) + a).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_diamond_graph(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        (a * b).backward()  # d(15 x^2)/dx = 30x = 60
        assert float(x.grad) == pytest.approx(60.0)

    def test_tmax_tie_splits_gradient(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        ad.tsum(ad.tmax(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        y = ad.softmax(Tensor(1000.0 + rng.standard_normal((5, 7))), axis=1).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(y))

    def test_cross_entropy_uniform_logits(self):
        loss = ad.cross_entropy(Tensor(np.zeros(10)), 3)
        assert float(loss.data) == pytest.approx(np.log(10.0))

    def test_cross_entropy_extreme_logits_stable(self):
        logits = Tensor(np.array([1000.0, 0.0, -1000.0]), requires_grad=True)
        loss = ad.cross_entropy(logits, 0)
        loss.backward()
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(logits.grad))

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = ad.dropout(x, 0.5, "eval", np.random.default_rng(0))
        assert out is x

    def test_dropout_train_scales_surviving_units(self):
        x = Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.25, "train", np.random.default_rng(0)).data
        vals = np.unique(out)
        np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75])
        assert abs(out.mean() - 1.0) < 0.02

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3), "p")
        assert p.requires_grad and p.name == "p"

    def test_no_grad_records_nothing(self):
        w = Parameter(np.array([0.5, -1.0]), "w")
        with ad.no_grad():
            y = ad.tsum(ad.tanh(w * 3.0))
            inner = Parameter(np.zeros(2), "inner")
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert float(y.data) == float(ad.tsum(ad.tanh(w * 3.0)).data)
        assert inner.requires_grad

    def test_no_grad_restored_after_a_raise(self):
        w = Parameter(np.array([0.5, -1.0]), "w")
        with pytest.raises(ShapeError):
            with ad.no_grad():
                w @ w  # a 1-D left operand raises
        ad.tsum(ad.tanh(w * 3.0)).backward()
        np.testing.assert_allclose(w.grad, 3.0 * (1.0 - np.tanh(3.0 * w.data) ** 2))


def batch_norm_composite(x, gamma, beta, eps):
    """Reference for `ad.batch_norm` built from elementary tape ops."""
    mean = ad.tmean(x, axis=-2, keepdims=True)
    var = ad.tmean((x - mean) ** 2, axis=-2, keepdims=True)
    return gamma * ((x - mean) / ad.sqrt(var + eps)) + beta


class TestBatchAxis:
    """A B x T x C stack must behave as B separate T x C calls."""

    TOL = 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_grad_check(self, reverse):
        rng = np.random.default_rng(20)
        w_x = Tensor(0.5 * rng.standard_normal((2, 12)))
        w_h = Tensor(0.5 * rng.standard_normal((3, 12)))
        bias = Tensor(rng.standard_normal(12))
        weights = Tensor(rng.standard_normal((3, 4, 3)))
        f = lambda x: ad.tsum(ad.lstm(x, w_x, w_h, bias, reverse) * weights)
        assert grad_check(f, Tensor(rng.standard_normal((3, 4, 2)))) < self.TOL
        x = Tensor(rng.standard_normal((3, 4, 2)))
        g = lambda w: ad.tsum(ad.lstm(x, w_x, w, bias, reverse) * weights)
        assert grad_check(g, w_h) < self.TOL

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_rows_match_unbatched_calls(self, reverse):
        rng = np.random.default_rng(21)
        values = [rng.standard_normal((3, 6, 2)), 0.5 * rng.standard_normal((2, 16)),
                  0.5 * rng.standard_normal((4, 16)), rng.standard_normal(16)]
        weights = rng.standard_normal((3, 6, 4))
        batched = [Tensor(v.copy(), requires_grad=True) for v in values]
        out = ad.lstm(*batched, reverse)
        ad.tsum(out * Tensor(weights)).backward()
        singles = [Tensor(v.copy(), requires_grad=True) for v in values[1:]]
        for b in range(3):
            x = Tensor(values[0][b].copy(), requires_grad=True)
            row = ad.lstm(x, *singles, reverse)
            ad.tsum(row * Tensor(weights[b])).backward()
            np.testing.assert_allclose(out.data[b], row.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched[0].grad[b], x.grad, rtol=0, atol=1e-12)
        for name, t, ref in zip(("w_x", "w_h", "bias"), batched[1:], singles):
            np.testing.assert_allclose(t.grad, ref.grad, rtol=0, atol=1e-12, err_msg=name)

    def test_conv_grad_check(self):
        rng = np.random.default_rng(22)
        kern = Tensor(rng.standard_normal((3, 2, 3)))
        bias = Tensor(rng.standard_normal(3))
        f = lambda x: ad.tsum(ad.relu(ad.conv1d_dilated(x, kern, bias, dilation=2)) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((2, 7, 2)))) < self.TOL
        x = Tensor(rng.standard_normal((2, 7, 2)))
        g = lambda k: ad.tsum(ad.conv1d_dilated(x, k, bias, dilation=3) ** 2)
        assert grad_check(g, kern) < self.TOL
        h = lambda b: ad.tsum(ad.conv1d_dilated(x, kern, b, dilation=1) ** 2)
        assert grad_check(h, bias) < self.TOL

    def test_conv_rows_match_brute_force(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 9, 2))
        kern = rng.standard_normal((5, 2, 4))
        got = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=2).data
        for b in range(3):  # each sequence is padded on its own
            np.testing.assert_allclose(got[b], conv_reference(x[b], kern, 2), atol=1e-12)

    def test_softmax_over_time_grad_check(self):
        rng = np.random.default_rng(24)
        w = Tensor(rng.standard_normal((2, 5, 3)))
        f = lambda x: ad.tsum(ad.softmax(x, axis=-2) * w)
        assert grad_check(f, Tensor(rng.standard_normal((2, 5, 3)))) < self.TOL

    def test_cross_entropy_sums_rows(self):
        rng = np.random.default_rng(25)
        labels = np.array([2, 0, 4])
        f = lambda x: ad.cross_entropy(x, labels)
        assert grad_check(f, Tensor(rng.standard_normal((3, 5)))) < self.TOL
        logits = rng.standard_normal((3, 5))
        rows = sum(float(ad.cross_entropy(Tensor(l), c).data) for l, c in zip(logits, labels))
        assert float(ad.cross_entropy(Tensor(logits), labels).data) == pytest.approx(rows,
                                                                                    abs=1e-12)
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor(logits), labels[:2])

    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)])
    def test_batch_norm_matches_composite(self, shape):
        rng = np.random.default_rng(26)
        values = [rng.standard_normal(shape), rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)]
        weights = Tensor(rng.standard_normal(shape))
        results = []
        for fused in (True, False):
            inputs = [Tensor(v.copy(), requires_grad=True) for v in values]
            if fused:
                out, mean, var = ad.batch_norm(*inputs, 1e-5)
                np.testing.assert_allclose(mean[..., 0, :], values[0].mean(axis=-2), atol=1e-12)
                np.testing.assert_allclose(var[..., 0, :], values[0].var(axis=-2), atol=1e-12)
            else:
                out = batch_norm_composite(*inputs, 1e-5)
            ad.tsum(out * weights).backward()
            results.append([out.data] + [t.grad for t in inputs])
        for name, got, ref in zip(("out", "x", "gamma", "beta"), *results):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=name)

    def test_batch_norm_grad_check(self):
        rng = np.random.default_rng(27)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3))
        beta = Tensor(rng.standard_normal(3))
        w = Tensor(rng.standard_normal((2, 6, 3)))
        f = lambda x: ad.tsum(ad.batch_norm(x, gamma, beta, 1e-5)[0] * w)
        assert grad_check(f, Tensor(rng.standard_normal((2, 6, 3)))) < self.TOL
        x = Tensor(rng.standard_normal((2, 6, 3)))
        g = lambda gm: ad.tsum(ad.batch_norm(x, gm, beta, 1e-5)[0] ** 2)
        assert grad_check(g, gamma) < self.TOL

    def test_matmul_weight_gradient_sums_the_batch(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((2, 4, 3)))
        f = lambda w: ad.tsum((x @ w) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((3, 5)))) < self.TOL
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_dropout_takes_draws_made_ahead(self):
        x = Tensor(np.ones((2, 3, 4)))
        draws = np.random.default_rng(3).random((2, 3, 4))
        live = ad.dropout(x, 0.25, "train", np.random.default_rng(3)).data
        np.testing.assert_array_equal(ad.dropout(x, 0.25, "train", draws).data, live)
        with pytest.raises(ShapeError):
            ad.dropout(x, 0.25, "train", draws[0])

    def test_backward_releases_interior_nodes(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        loss = ad.tsum(y * y)
        loss.backward()
        np.testing.assert_allclose(x.grad, [18.0, 36.0])
        assert y.grad is None and y._parents == () and loss._parents == ()
