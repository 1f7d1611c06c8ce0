"""Autodiff engine tests: convolution oracle, gradient checks, op semantics."""

import tracemalloc

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn.autodiff import Parameter, Tensor, grad_check
from amcrn.errors import ConfigError, ShapeError
from amcrn.model import McbBlock, ResidualBlstm, named_arrays, tiny_config


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


def narrow(x, axis, start, length):
    """Reference slice node: a contiguous slice along one axis, whose
    backward hands its input a zero-filled array of the input's shape with
    the gradient in the slice."""
    x = ad.as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[sl] = g
            x._accum(full)

    return Tensor(x.data[sl], _parents=(x,), _backward=bwd)


def split_reference(x, n, axis):
    """What `ad.split` was: n `narrow` nodes, which hand the input n
    full-size gradients."""
    step = x.shape[axis] // n
    return [narrow(x, axis, i * step, step) for i in range(n)]


# Reference nodes for the compositions that the fused ops must match bit
# for bit; the network itself calls none of them.


def relu(x):
    x = ad.as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (x.data > 0.0))

    return Tensor(np.maximum(x.data, 0.0), _parents=(x,), _backward=bwd)


def tanh(x):
    x = ad.as_tensor(x)
    y = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (1.0 - y * y))

    return Tensor(y, _parents=(x,), _backward=bwd)


def exp(x):
    x = ad.as_tensor(x)
    y = np.exp(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accum(g * y)

    return Tensor(y, _parents=(x,), _backward=bwd)


def log(x):
    x = ad.as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x._accum(g / x.data)

    return Tensor(np.log(x.data), _parents=(x,), _backward=bwd)


def softmax(x, axis):
    """Numerically stable softmax along one axis."""
    x = ad.as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            x._accum(y * (g - dot))

    return Tensor(y, _parents=(x,), _backward=bwd)


def cross_entropy_composite(logits, labels):
    """What `ad.cross_entropy` computes, as elementary graph nodes."""
    logits = ad.as_tensor(logits)
    shift = logits.data.max(axis=-1)  # constant; gradient-neutral
    lse = log(ad.tsum(exp(logits - shift[..., None]), axis=-1)) + shift
    onehot = np.eye(logits.data.shape[-1])[np.asarray(labels, dtype=np.int64)]
    return ad.tsum(lse - ad.tsum(logits * onehot, axis=-1))


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

    def test_dilation_one_equals_numpy_convolve(self):
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
        for act in (relu, ad.sigmoid, tanh, exp):
            w = Tensor(rng.standard_normal(10))
            f = lambda x, act=act, w=w: ad.tsum(act(x) * w)
            assert grad_check(f, point) < self.TOL

    def test_log_sqrt_clamp(self):
        rng = np.random.default_rng(6)
        point = Tensor(rng.uniform(0.5, 2.0, 8))
        assert grad_check(lambda x: ad.tsum(log(x)), point) < self.TOL
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
        f = lambda x: ad.tsum(softmax(x, axis=1) * w)
        assert grad_check(f, Tensor(rng.standard_normal((6, 3)))) < self.TOL

    def test_concat_narrow_split(self):
        rng = np.random.default_rng(9)

        def f(x):
            parts = ad.split(x, 2, axis=1)
            y = ad.concat([parts[1], parts[0]], axis=1)
            return ad.tsum(narrow(y, 0, 1, 2) ** 2)

        assert grad_check(f, Tensor(rng.standard_normal((4, 6)))) < self.TOL

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(10)
        kern = Tensor(rng.standard_normal((5, 2, 3)))
        f = lambda x: ad.tsum(relu(ad.conv1d_dilated(x, kern, dilation=3)) ** 2)
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

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_tmax_tie_gradient_is_the_split_mask(self, keepdims):
        """The mask built in backward gives the bits of the mask that
        forward used to keep: the weight over the count of tied maxima."""
        rng = np.random.default_rng(42)
        x = rng.integers(0, 3, size=(2, 5, 4)).astype(np.float64)
        w = rng.standard_normal((2, 5, 1) if keepdims else (2, 5))
        t = Tensor(x, requires_grad=True)
        ad.tsum(ad.tmax(t, axis=-1, keepdims=keepdims) * Tensor(w)).backward()
        mask = (x == x.max(axis=-1, keepdims=True)).astype(np.float64)
        mask /= mask.sum(axis=-1, keepdims=True)
        want = (w if keepdims else w[..., None]) * mask
        assert t.grad.tobytes() == want.tobytes()

    def test_tape_free_tmax_builds_no_mask(self):
        x = Tensor(np.random.default_rng(43).standard_normal((2, 300, 64)))
        with ad.no_grad():
            tracemalloc.start()
            try:
                y = ad.tmax(x, axis=-1, keepdims=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert y.shape == (2, 300, 1)
        assert peak < x.data.nbytes / 8, peak / x.data.nbytes

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
        """Eval mode applies no dropout, whatever masks it is handed."""
        rb = ResidualBlstm("rb", 4, 3, 0.5, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
        keep = np.zeros((5, 6), dtype=bool)
        assert_same_bits(rb(x, "eval", keep).data, rb(x, "eval").data)
        assert not np.array_equal(rb(x, "train", keep).data, rb(x, "eval").data)

    def test_dropout_train_scales_surviving_units(self):
        x = Tensor(np.ones((200, 50)))
        out = ad.dropout(x, np.random.default_rng(0).random(x.shape) >= 0.25, 0.25).data
        vals = np.unique(out)
        np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75])
        assert abs(out.mean() - 1.0) < 0.02

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3), "p")
        assert p.requires_grad and p.name == "p"

    def test_no_grad_records_nothing(self):
        w = Parameter(np.array([0.5, -1.0]), "w")
        with ad.no_grad():
            y = ad.tsum(ad.sigmoid(w * 3.0))
            inner = Parameter(np.zeros(2), "inner")
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert float(y.data) == float(ad.tsum(ad.sigmoid(w * 3.0)).data)
        assert inner.requires_grad

    def test_no_grad_restored_after_a_raise(self):
        w = Parameter(np.array([0.5, -1.0]), "w")
        with pytest.raises(ShapeError):
            with ad.no_grad():
                w @ w  # a 1-D left operand raises
        ad.tsum(ad.sigmoid(w * 3.0)).backward()
        y = 1.0 / (1.0 + np.exp(-3.0 * w.data))
        np.testing.assert_allclose(w.grad, 3.0 * y * (1.0 - y))


def copying_accum(self, grad):
    """How every node accumulated before interior nodes stopped copying:
    a copy of the first gradient, later ones added into it in place."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=np.float64)
    else:
        self.grad += grad


def assert_same_bits(got, want, name=""):
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


class TestCopyFreeGradients:
    """An interior node keeps the first gradient array it is given, which
    may be the array another node holds too; every gradient must keep the
    bits of the copying accumulation."""

    def test_interior_node_keeps_its_first_gradient(self):
        t = Tensor(np.zeros(3), requires_grad=True) * 2.0
        g = np.array([1.0, 2.0, 3.0])
        t._accum(g)
        assert t.grad is g
        t._accum(g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(t.grad, [2.0, 4.0, 6.0])

    GRAPHS = {
        "square": lambda x, w: ad.tsum((x * x) * w),
        "doubled": lambda x, w: ad.tsum((x + x) * w),
        "doubled_twice": lambda x, w: ad.tsum(((x + x) + x) * w),
        "residual": lambda x, w: ad.tsum(relu(x + tanh(x) * w) * w),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_shared_gradient_arrays_match_copying(self, graph, monkeypatch):
        rng = np.random.default_rng(44)
        x0, w = rng.standard_normal((3, 5)), Tensor(rng.standard_normal((3, 5)))

        def grads():
            leaf = Tensor(x0.copy(), requires_grad=True)
            inner = leaf * 1.5  # an interior node reached along two paths
            self.GRAPHS[graph](inner, w).backward()
            return leaf.grad

        got = grads()
        monkeypatch.setattr(Tensor, "_accum", copying_accum)
        assert_same_bits(got, grads())

    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_mcb_residual_matches_copying(self, batch, monkeypatch):
        """relu(s + x) of an MCB block hands one gradient to s directly and
        through the block's layers; train mode, every parameter."""
        cfg = tiny_config(n_mels=4, channels=8, n_scales=2)
        s0 = np.random.default_rng(45).standard_normal(batch + (9, 8))
        w = Tensor(np.random.default_rng(46).standard_normal(batch + (9, 8)))

        def grads():
            block = McbBlock("b", cfg, 0, np.random.default_rng(47))
            leaf = Tensor(s0.copy(), requires_grad=True)
            ad.tsum(block(leaf * 1.0, "train") * w).backward()
            return [leaf.grad] + [p.grad for _, p, _ in named_arrays(block)
                                  if isinstance(p, Parameter)]

        got = grads()
        monkeypatch.setattr(Tensor, "_accum", copying_accum)
        for i, (g, want) in enumerate(zip(got, grads())):
            assert_same_bits(g, want, str(i))


def conv_bn_composite(x, kernel, bias, dilation, gamma, beta, eps, with_relu):
    """What `ad.conv_batch_norm` computes with a sequence's own statistics,
    from elementary graph nodes; (out, mean, var) as it returns them."""
    c = ad.conv1d_dilated(x, kernel, bias, dilation)
    out = batch_norm_composite(c, gamma, beta, eps)
    mean, var = c.data.mean(axis=-2, keepdims=True), c.data.var(axis=-2, keepdims=True)
    return (relu(out) if with_relu else out), mean, var


def fixed_stats_reference(c, mean, var, gamma, beta, eps, relu):
    """gamma * (c - mean) / sqrt(var + eps) + beta (+ ReLU) in the order
    `ad.conv_batch_norm` runs it, on plain arrays."""
    out = gamma * ((c - mean) / np.sqrt(var + eps)) + beta
    return np.maximum(out, 0.0) if relu else out


class TestConvBatchNorm:
    TOL = 1e-4

    @staticmethod
    def _values(shape, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape + (3,)), rng.standard_normal((3, 3, 4)),
                rng.standard_normal(4), rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)]

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_bit_identical_to_the_composition(self, shape, relu):
        """The output keeps the composition's bits; the statistics and the
        gradients, summed in another order, agree to 1e-12."""
        values = self._values(shape, 48)
        weights = Tensor(np.random.default_rng(49).standard_normal(shape + (4,)))
        results = []
        for op in (ad.conv_batch_norm, conv_bn_composite):
            x, kernel, bias, gamma, beta = (Tensor(v.copy(), requires_grad=True) for v in values)
            out, mean, var = op(x, kernel, bias, 2, gamma, beta, 1e-5, relu)
            ad.tsum(out * weights).backward()
            results.append([out.data, mean, var] + [t.grad for t in (x, kernel, bias, gamma, beta)])
        names = ("out", "mean", "var", "x", "kernel", "bias", "gamma", "beta")
        assert_same_bits(results[0][0], results[1][0], "out")
        for name, got, want in list(zip(names, *results))[1:]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_given_stats_keep_the_bits_of_the_formula(self, shape, relu, dtype):
        """With `stats`, the node normalizes by them and returns them; a
        graph-free float32 pass stays float32."""
        x, kernel, bias, gamma, beta = (v.astype(dtype) for v in self._values(shape, 53))
        rng = np.random.default_rng(54)
        mean, var = rng.standard_normal(4).astype(dtype), rng.uniform(0.5, 2.0, 4).astype(dtype)
        with ad.no_grad():
            c = ad.conv1d_dilated(x, kernel, bias, 2).data
            out, got_mean, got_var = ad.conv_batch_norm(x, kernel, bias, 2, gamma, beta, 1e-5,
                                                        relu, stats=(mean, var))
        assert out.data.dtype == dtype
        assert got_mean is mean and got_var is var
        want = fixed_stats_reference(c, mean, var, gamma, beta, 1e-5, relu)
        assert_same_bits(out.data, want)

    @pytest.mark.parametrize("relu", [False, True])
    def test_given_stats_grad_check(self, relu):
        """x, kernel, bias, gamma and beta in turn, the statistics fixed."""
        values = [Tensor(v) for v in self._values((2, 6), 55)]
        rng = np.random.default_rng(56)
        stats = (rng.standard_normal(4), rng.uniform(0.5, 2.0, 4))
        w = Tensor(rng.standard_normal((2, 6, 4)))
        for i in range(5):
            def loss(v, i=i):
                x, kernel, bias, gamma, beta = values[:i] + [v] + values[i + 1:]
                return ad.tsum(ad.conv_batch_norm(x, kernel, bias, 1, gamma, beta, 1e-5,
                                                  relu, stats)[0] * w)

            assert grad_check(loss, values[i]) < self.TOL, i

    @pytest.mark.parametrize("relu", [False, True])
    def test_grad_check(self, relu):
        """x, kernel, bias, gamma and beta in turn."""
        values = [Tensor(v) for v in self._values((2, 6), 50)]
        w = Tensor(np.random.default_rng(51).standard_normal((2, 6, 4)))
        for i in range(5):
            def loss(v, i=i):
                x, kernel, bias, gamma, beta = values[:i] + [v] + values[i + 1:]
                return ad.tsum(ad.conv_batch_norm(x, kernel, bias, 1, gamma, beta, 1e-5,
                                                  relu)[0] * w)

            assert grad_check(loss, values[i]) < self.TOL, i

    @staticmethod
    def _kept_bytes(op, inputs, relu):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(*inputs[:3], 1, *inputs[3:], 1e-5, relu)[0]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        return kept

    @pytest.mark.parametrize("relu", [False, True])
    def test_keeps_fewer_arrays_than_the_composition(self, relu):
        """The fused node keeps xhat and its output, the composition also
        the convolution's output and, with the ReLU, the pre-ReLU output:
        at least one B x T x C array fewer, two with the ReLU."""
        rng = np.random.default_rng(52)
        b, t_len, c_in, c_out = 2, 200, 8, 64
        inputs = [Tensor(rng.standard_normal((b, t_len, c_in)), requires_grad=True),
                  Parameter(rng.standard_normal((3, c_in, c_out)), "k"),
                  Parameter(np.zeros(c_out), "b"),
                  Parameter(np.ones(c_out), "g"), Parameter(np.zeros(c_out), "beta")]
        array = b * t_len * c_out * 8
        fused = self._kept_bytes(ad.conv_batch_norm, inputs, relu)
        composed = self._kept_bytes(conv_bn_composite, inputs, relu)
        assert fused < 2.1 * array, fused / array
        assert composed - fused > (0.9 + relu) * array, (composed - fused) / array


def residual_relu_composite(s, x, gate=None):
    """What `ad.residual_relu` fuses, as elementary graph nodes."""
    return relu(s + (x if gate is None else gate * x))


def dropout_composite(x, keep, p):
    """`ad.dropout` as a product with a float64 mask node."""
    return ad.as_tensor(x) * Tensor(keep / (1.0 - p))


def kept_bytes(make):
    """Bytes still allocated when `make()` has returned its taped output:
    what the tape keeps for backward."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return kept


def interior(data):
    """A node that requires grad and keeps the gradient it is given
    without a copy, as an interior node does; its backward does nothing."""
    return Tensor(data, requires_grad=True, _backward=lambda g: None)


class TestResidualRelu:
    TOL = 1e-4

    @staticmethod
    def _values(shape, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(shape + (4,)), rng.standard_normal(shape + (4,)),
                rng.uniform(0.0, 1.0, shape + (1,)))

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_bit_identical_to_the_composition(self, shape, gated):
        values = self._values(shape, 53)
        weights = Tensor(np.random.default_rng(54).standard_normal(shape + (4,)))
        results = []
        for op in (ad.residual_relu, residual_relu_composite):
            s, x, gate = (Tensor(v.copy(), requires_grad=True) for v in values)
            out = op(s, x, gate if gated else None)
            ad.tsum(out * weights).backward()
            results.append([out.data, s.grad, x.grad] + ([gate.grad] if gated else []))
        for name, got, want in zip(("out", "s", "x", "gate"), *results):
            assert_same_bits(got, want, name)

    @pytest.mark.parametrize("gated", [False, True])
    def test_grad_check(self, gated):
        """s, x and the gate in turn."""
        values = [Tensor(v) for v in self._values((2, 6), 55)]
        w = Tensor(np.random.default_rng(56).standard_normal((2, 6, 4)))
        for i in range(3 if gated else 2):
            def loss(v, i=i):
                s, x, gate = values[:i] + [v] + values[i + 1:]
                return ad.tsum(ad.residual_relu(s, x, gate if gated else None) * w)

            assert grad_check(loss, values[i]) < self.TOL, i

    @pytest.mark.parametrize("gated", [False, True])
    def test_keeps_fewer_arrays_than_the_composition(self, gated):
        """The fused node keeps its output; the composition also keeps the
        sum before the ReLU and, with a gate, the gated map."""
        s, x, gate = (interior(v) for v in self._values((2, 200), 57))
        array = s.data.nbytes
        args = (s, x, gate if gated else None)
        fused = kept_bytes(lambda: ad.residual_relu(*args))
        composed = kept_bytes(lambda: residual_relu_composite(*args))
        assert fused < 1.1 * array, fused / array
        assert composed - fused > (0.9 + gated) * array, (composed - fused) / array


class TestSplit:
    GRAPHS = {
        # Each chunk reaches the loss along a path of its own.
        "joined": lambda parts, w: ad.tsum(ad.concat(parts[::-1], axis=-1) * w),
        "mixed": lambda parts, w: ad.tsum(ad.concat([tanh(parts[0]), parts[1] * 2.0,
                                                     parts[2] + parts[3], parts[3]], axis=-1)
                                          * w),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("shape", [(7, 8), (2, 7, 8)])
    def test_gradient_bits_match_narrow_chunks(self, shape, graph):
        """For an interior input and for a leaf, as the `narrow` nodes that
        split was built from give them."""
        x0 = np.random.default_rng(58).standard_normal(shape)
        w = Tensor(np.random.default_rng(59).standard_normal(shape))
        results = []
        for op in (ad.split, split_reference):
            leaf = Tensor(x0.copy(), requires_grad=True)
            inner = leaf * 1.5
            self.GRAPHS[graph](op(inner, 4, axis=-1), w).backward()
            direct = Tensor(x0.copy(), requires_grad=True)
            self.GRAPHS[graph](op(direct, 4, axis=-1), w).backward()
            results.append([leaf.grad, direct.grad])
        for name, got, want in zip(("through an interior node", "leaf"), *results):
            assert_same_bits(got, want, name)

    def test_backward_writes_one_gradient(self):
        """Splitting a 4 x 198 x 64 input into 4 chunks and joining them
        back, backward needs the joined output's gradient and one array for
        the input's; the narrow chunks needed more than three more."""
        data = np.random.default_rng(60).standard_normal((4, 198, 64))

        def backward_peak(op):
            loss = ad.tsum(ad.concat(op(interior(data), 4, axis=-1), axis=-1))
            tracemalloc.start()
            try:
                loss.backward()
                return tracemalloc.get_traced_memory()[1] / data.nbytes
            finally:
                tracemalloc.stop()

        assert backward_peak(ad.split) < 2.1
        assert backward_peak(split_reference) > 3.5


def residual_affine_composite(x, h, weight, bias):
    """What `ad.residual_affine` fuses, as elementary graph nodes."""
    return x + (h @ weight + bias)


def attentive_stat_pool_composite(h, w1, b1, w2, b2, floor):
    """What `ad.attentive_stat_pool` fuses, as elementary graph nodes."""
    alpha = softmax(tanh(h @ w1 + b1) @ w2 + b2, axis=-2)
    mean = ad.tsum(alpha * h, axis=-2)
    second = ad.tsum(alpha * h * h, axis=-2)
    std = ad.sqrt(ad.clamp_min(second - mean * mean, floor))
    return ad.concat([mean, std], axis=-1)


def fused_and_composed_runs(ops, values, weights, grad_from=None):
    """For each op: the output, then the gradient of every input of
    `sum(op(*inputs) * weights)`. The first input enters through an
    interior node (x * 1.0), as in the network; with `grad_from`, it is a
    leaf that already holds the gradient of `sum(x * grad_from)`."""
    runs = []
    for op in ops:
        inputs = [Tensor(v.copy(), requires_grad=True) for v in values]
        first = inputs[0]
        if grad_from is None:
            first = first * 1.0
        else:
            ad.tsum(first * Tensor(grad_from)).backward()
        out = op(first, *inputs[1:])
        ad.tsum(out * weights).backward()
        runs.append([out.data] + [t.grad for t in inputs])
    return runs


class TestResidualAffine:
    @staticmethod
    def _values(shape, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape + (4,)), rng.standard_normal(shape + (6,)),
                rng.standard_normal((6, 4)), rng.standard_normal(4)]

    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_bit_identical_to_the_composition(self, shape):
        weights = Tensor(np.random.default_rng(73).standard_normal(shape + (4,)))
        runs = fused_and_composed_runs((ad.residual_affine, residual_affine_composite),
                                       self._values(shape, 74), weights)
        for name, got, want in zip(("out", "x", "h", "weight", "bias"), *runs):
            assert_same_bits(got, want, name)

    def test_grad_check(self):
        values = [Tensor(v) for v in self._values((2, 5), 75)]
        w = Tensor(np.random.default_rng(76).standard_normal((2, 5, 4)))
        for i in range(4):
            def loss(v, i=i):
                return ad.tsum(ad.residual_affine(*values[:i], v, *values[i + 1:]) * w)

            assert grad_check(loss, values[i]) < 1e-4, i

    def test_keeps_only_its_output(self):
        """The composition also keeps the product and the biased product:
        two arrays of the output's size more."""
        x, h = (interior(v) for v in self._values((4, 198), 77)[:2])
        weight, bias = (Parameter(v, n) for v, n in zip(self._values((1,), 77)[2:], "wb"))
        array = x.data.nbytes
        fused = kept_bytes(lambda: ad.residual_affine(x, h, weight, bias))
        composed = kept_bytes(lambda: residual_affine_composite(x, h, weight, bias))
        assert fused < 1.1 * array, fused / array
        assert composed - fused > 1.9 * array, (composed - fused) / array


class TestAttentiveStatPool:
    FLOOR = 1e-9

    @staticmethod
    def _values(shape, channels, bottleneck, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape + (channels,)),
                rng.standard_normal((channels, bottleneck)), rng.standard_normal(bottleneck),
                rng.standard_normal((bottleneck, channels)), rng.standard_normal(channels)]

    def _op(self, composite=False):
        op = attentive_stat_pool_composite if composite else ad.attentive_stat_pool
        return lambda *inputs: op(*inputs, self.FLOOR)

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("shape", [(9,), (3, 9)])
    def test_bit_identical_to_the_composition(self, shape, held):
        """Output and every gradient; with `held`, h is a leaf that holds
        a gradient already, to which its pieces are added in order."""
        values = self._values(shape, 6, 3, 78)
        # One constant channel hits the variance floor.
        values[0][..., 5] = 0.25
        weights = Tensor(np.random.default_rng(79).standard_normal(shape[:-1] + (12,)))
        held_grad = np.random.default_rng(80).standard_normal(values[0].shape) if held else None
        runs = fused_and_composed_runs((self._op(), self._op(composite=True)), values, weights,
                                       held_grad)
        for name, got, want in zip(("out", "h", "w1", "b1", "w2", "b2"), *runs):
            assert_same_bits(got, want, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_free_pass_is_bit_identical(self, dtype):
        values = [v.astype(dtype) for v in self._values((3, 9), 6, 3, 81)]
        with ad.no_grad():
            fused, composed = (op(*(Tensor(v) for v in values)).data
                               for op in (self._op(), self._op(composite=True)))
        assert fused.dtype == dtype
        assert_same_bits(fused, composed)

    def test_grad_check(self):
        """h, both weights and both biases in turn."""
        values = [Tensor(v) for v in self._values((2, 5), 3, 4, 82)]
        w = Tensor(np.random.default_rng(83).standard_normal((2, 6)))
        for i in range(5):
            def loss(v, i=i):
                return ad.tsum(self._op()(*values[:i], v, *values[i + 1:]) * w)

            assert grad_check(loss, values[i]) < 1e-4, i

    def test_keeps_the_tanh_output_and_alpha(self):
        """At C = 64 and a bottleneck of 32 (the benchmark's network) the
        node keeps 1.5 arrays of h's size, the composition 7.5."""
        h, *params = self._values((4, 198), 64, 32, 84)
        h = interior(h)
        params = [Parameter(v, str(i)) for i, v in enumerate(params)]
        array = h.data.nbytes
        fused = kept_bytes(lambda: self._op()(h, *params))
        composed = kept_bytes(lambda: self._op(composite=True)(h, *params))
        assert fused < 1.6 * array, fused / array
        assert composed - fused > 5.8 * array, (composed - fused) / array


class TestCrossEntropy:
    SHAPES = [(4,), (1, 7), (3, 4), (5, 2), (12, 30)]

    @staticmethod
    def _values(shape, scale, seed):
        rng = np.random.default_rng(seed)
        return scale * rng.standard_normal(shape), rng.integers(0, shape[-1], size=shape[:-1])

    @pytest.mark.parametrize("loss_grad", [1.0, 0.37])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_the_composition(self, shape, loss_grad):
        """The loss and the logits' gradient at scales 0.1 to 300, with the
        logits an interior node (x * 1.0), as the AAM head's are, and the
        loss handed its own gradient or a scaled one; the node is the one
        Tensor made."""
        for scale in (0.1, 1.0, 30.0, 300.0):
            x0, labels = self._values(shape, scale, 86)
            runs = []
            for op in (ad.cross_entropy, cross_entropy_composite):
                leaf = Tensor(x0.copy(), requires_grad=True)
                logits = leaf * 1.0
                loss = op(logits, labels)
                if op is ad.cross_entropy:
                    assert loss._parents == (logits,)
                (loss if loss_grad == 1.0 else loss * loss_grad).backward()
                runs.append([loss.data, leaf.grad])
            for name, got, want in zip(("loss", "logits"), *runs):
                assert_same_bits(got, want, f"{name} at scale {scale}")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_graph_free_float32_pass_is_bit_identical(self, shape):
        x0, labels = self._values(shape, 30.0, 87)
        with ad.no_grad():
            fused, composed = (op(Tensor(x0.astype(np.float32)), labels).data
                               for op in (ad.cross_entropy, cross_entropy_composite))
        assert_same_bits(fused, composed)


def batch_norm_composite(x, gamma, beta, eps):
    """Per-sequence BatchNorm over time built from elementary tape ops."""
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
        f = lambda x: ad.tsum(relu(ad.conv1d_dilated(x, kern, bias, dilation=2)) ** 2)
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
        f = lambda x: ad.tsum(softmax(x, axis=-2) * w)
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

    def test_matmul_weight_gradient_sums_the_batch(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((2, 4, 3)))
        f = lambda w: ad.tsum((x @ w) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((3, 5)))) < self.TOL
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_dropout_bits_match_a_float_mask(self, shape):
        x0 = np.random.default_rng(61).standard_normal(shape)
        keep = np.random.default_rng(62).random(shape) >= 0.3
        w = Tensor(np.random.default_rng(63).standard_normal(shape))
        results = []
        for op in (ad.dropout, dropout_composite):
            x = Tensor(x0.copy(), requires_grad=True)
            out = op(x, keep, 0.3)
            ad.tsum(out * w).backward()
            results.append([out.data, x.grad])
        for name, got, want in zip(("out", "x"), *results):
            assert_same_bits(got, want, name)

    def test_dropout_keeps_a_boolean_mask(self):
        """The node keeps its output and one byte per entry; the product
        with a mask node keeps a float64 mask as well."""
        x = interior(np.ones((2, 200, 64)))
        keep = np.random.default_rng(64).random(x.shape) >= 0.2
        fused = kept_bytes(lambda: ad.dropout(x, keep, 0.2))
        composed = kept_bytes(lambda: dropout_composite(x, keep, 0.2))
        assert fused < 1.2 * x.data.nbytes, fused / x.data.nbytes
        assert composed - fused > 0.8 * x.data.nbytes, (composed - fused) / x.data.nbytes

    def test_dropout_takes_draws_made_ahead(self):
        """Keep masks drawn ahead per sequence, as `AmcrnModel.draw_dropout`
        draws them, take the draws of one mask of the stack's shape; a
        mask of another shape, float draws or a Generator are refused."""
        x = Tensor(np.ones((2, 3, 4)))
        rng = np.random.default_rng(3)
        rows = np.stack([rng.random((3, 4)) >= 0.25 for _ in range(2)])
        draws = np.random.default_rng(3).random((2, 3, 4))
        np.testing.assert_array_equal(rows, draws >= 0.25)
        np.testing.assert_array_equal(ad.dropout(x, rows, 0.25).data,
                                      np.where(rows, 1.0 / 0.75, 0.0))
        for bad in (draws[0] >= 0.25, draws, np.random.default_rng(3)):
            with pytest.raises(ShapeError):
                ad.dropout(x, bad, 0.25)

    def test_backward_releases_interior_nodes(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        loss = ad.tsum(y * y)
        loss.backward()
        np.testing.assert_allclose(x.grad, [18.0, 36.0])
        assert y.grad is None and y._parents == () and loss._parents == ()
