"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operations that produced
it; `backward` on a scalar loss accumulates gradients into every reachable
tensor with `requires_grad`. Only the operations the network needs are
provided: elementwise arithmetic and activations, matmul by a matrix,
reductions, concatenation/slicing, dilated 1-D convolution, a fused LSTM
direction, dropout, and the losses.

Sequence ops read axis -2 as time and axis -1 as channels; any axes in
front of them are batch axes. A T x C sequence is therefore the
unbatched case of the same code, and a B x T x C stack runs B sequences
of equal length in one call.
"""

import math

import numpy as np

from .errors import ConfigError, ShapeError


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    # -- graph construction helpers ------------------------------------

    def _accum(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self):
        """Reverse accumulation from a scalar loss.

        The graph is consumed: once an interior node has passed its
        gradient on, its gradient, closure and parent links are dropped,
        so activations are freed as the pass proceeds. Leaf tensors keep
        their gradients.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, _parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, _parents=(self,))

        def bwd(g):
            if self.requires_grad:
                self._accum(-g)

        out._backward = bwd
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, _parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, _parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / other.data**2, other.data.shape))

        out._backward = bwd
        return out

    def __matmul__(self, other):
        """(... x) N x K stack of rows times a K x M matrix."""
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects a (... x) N x K left operand and a 2-D right one")
        out = Tensor(self.data @ other.data, _parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                rows = self.data.reshape(-1, self.data.shape[-1])
                other._accum(rows.T @ g.reshape(-1, g.shape[-1]))

        out._backward = bwd
        return out

    def __pow__(self, exponent):
        assert np.isscalar(exponent)
        out = Tensor(self.data**exponent, _parents=(self,))

        def bwd(g):
            if self.requires_grad:
                self._accum(g * exponent * self.data ** (exponent - 1))

        out._backward = bwd
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), _parents=(self,))

        def bwd(g):
            if self.requires_grad:
                self._accum(g.reshape(self.data.shape))

        out._backward = bwd
        return out


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise activations -------------------------------------------


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (x.data > 0.0))

    out._backward = bwd
    return out


def sigmoid(x):
    x = as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * y * (1.0 - y))

    out._backward = bwd
    return out


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (1.0 - y * y))

    out._backward = bwd
    return out


def exp(x):
    x = as_tensor(x)
    y = np.exp(x.data)
    out = Tensor(y, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * y)

    out._backward = bwd
    return out


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data), _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g / x.data)

    out._backward = bwd
    return out


def sqrt(x):
    x = as_tensor(x)
    y = np.sqrt(x.data)
    out = Tensor(y, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * 0.5 / y)

    out._backward = bwd
    return out


def clamp_min(x, floor):
    """max(x, floor) with gradient passing only where x > floor."""
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, floor), _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (x.data > floor))

    out._backward = bwd
    return out


# -- reductions ---------------------------------------------------------


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,))

    def bwd(g):
        if not x.requires_grad:
            return
        if axis is None:
            x._accum(np.broadcast_to(g, x.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accum(np.broadcast_to(gg, x.data.shape).copy())

    out._backward = bwd
    return out


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def tmax(x, axis, keepdims=False):
    """Max over one axis; ties split the gradient equally."""
    x = as_tensor(x)
    y = x.data.max(axis=axis, keepdims=True)
    mask = (x.data == y).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    out = Tensor(y if keepdims else np.squeeze(y, axis=axis), _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accum(gg * mask)

    out._backward = bwd
    return out


def softmax(x, axis):
    """Numerically stable softmax along one axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            x._accum(y * (g - dot))

    out._backward = bwd
    return out


# -- structure ----------------------------------------------------------


def concat(xs, axis):
    xs = [as_tensor(x) for x in xs]
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis), _parents=tuple(xs))
    sizes = [x.data.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                x._accum(g[tuple(sl)])

    out._backward = bwd
    return out


def narrow(x, axis, start, length):
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl], _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[sl] = g
            x._accum(full)

    out._backward = bwd
    return out


def split(x, n, axis):
    """Split into n equal chunks along an axis."""
    x = as_tensor(x)
    size = x.data.shape[axis]
    if size % n:
        raise ShapeError(f"axis of extent {size} not divisible into {n} chunks")
    step = size // n
    return [narrow(x, axis, i * step, step) for i in range(n)]


# -- network operations -------------------------------------------------


def linear(x, weight, bias=None):
    """Row-wise affine map: ((... x) T x Din) @ (Din x Dout) + bias."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def batch_norm(x, gamma, beta, eps):
    """Per-channel normalization of each sequence by its own statistics
    over time, as one graph node: gamma * (x - mean) / sqrt(var + eps) + beta.

    x: (B x) T x C; gamma, beta: C. Returns (out, mean, var) with mean
    and var the (B x) 1 x C statistics as plain arrays. Backward keeps
    only the normalized input and the standard deviation.
    """
    x, gamma, beta = (as_tensor(v) for v in (x, gamma, beta))
    scale = 1.0 / x.data.shape[-2]
    mean = x.data.sum(axis=-2, keepdims=True) * scale
    centered = x.data - mean
    var = (centered**2).sum(axis=-2, keepdims=True) * scale
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = Tensor(gamma.data * xhat + beta.data, _parents=(x, gamma, beta))

    def bwd(g):
        channels = g.shape[-1]
        if gamma.requires_grad:
            gamma._accum((g * xhat).reshape(-1, channels).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, channels).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            proj = (gx * xhat).sum(axis=-2, keepdims=True) * scale
            x._accum((gx - gx.sum(axis=-2, keepdims=True) * scale - xhat * proj) / std)

    out._backward = bwd
    return out, mean, var


def conv1d_dilated(x, kernel, bias=None, dilation=1):
    """1-D dilated convolution over time with "same" zero padding.

    x: (... x) T x Cin, kernel: k x Cin x Cout with k odd, output:
    (... x) T x Cout. out[q] = sum_t x[q - dilation * t] K[t] for tap
    index t in [-n, n], where the kernel array index i corresponds to
    t = i - n. Each sequence of a batch is padded on its own.
    """
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    k = kernel.data.shape[0]
    if k % 2 == 0:
        raise ConfigError("convolution kernel size must be odd")
    if dilation < 1:
        raise ConfigError("dilation rate must be >= 1")
    if x.data.ndim < 2 or kernel.data.ndim != 3 or x.data.shape[-1] != kernel.data.shape[1]:
        raise ShapeError("conv1d_dilated expects (... x) T x Cin input and k x Cin x Cout kernel")
    n_taps = (k - 1) // 2
    pad = dilation * n_taps
    t_len, c_in = x.data.shape[-2:]
    c_out = kernel.data.shape[2]
    pad_width = ((0, 0),) * (x.data.ndim - 2) + ((pad, pad), (0, 0))
    xp = np.pad(x.data, pad_width)
    acc = np.zeros(x.data.shape[:-1] + (c_out,))
    starts = [dilation * (2 * n_taps - i) for i in range(k)]
    for i, s in enumerate(starts):
        acc += xp[..., s : s + t_len, :] @ kernel.data[i]
    parents = (x, kernel)
    if bias is not None:
        bias = as_tensor(bias)
        acc += bias.data
        parents += (bias,)
    out = Tensor(acc, _parents=parents)

    def bwd(g):
        if x.requires_grad:
            gxp = np.zeros(x.data.shape[:-2] + (t_len + 2 * pad, c_in))
            for i, s in enumerate(starts):
                gxp[..., s : s + t_len, :] += g @ kernel.data[i].T
            x._accum(gxp[..., pad : pad + t_len, :] if pad else gxp)
        g_rows = g.reshape(-1, c_out)
        if kernel.requires_grad:
            # Padded again: a copy kept from forward would live as long as the tape.
            xp = np.pad(x.data, pad_width)
            gk = np.empty_like(kernel.data)
            for i, s in enumerate(starts):
                gk[i] = xp[..., s : s + t_len, :].reshape(-1, c_in).T @ g_rows
            kernel._accum(gk)
        if bias is not None and bias.requires_grad:
            bias._accum(_unbroadcast(g_rows.sum(axis=0), bias.data.shape))

    out._backward = bwd
    return out


def lstm(x, w_x, w_h, bias, reverse=False):
    """One LSTM direction over a (B x) T x Din input as a single graph node.

    w_x: Din x 4H, w_h: H x 4H, bias: 4H, gate order (input, forget,
    cell, output); zero initial state; output (B x) T x H. With `reverse`
    the recurrence runs from the last frame to the first. The input
    projection is one matmul over all B*T frames, transposed once to
    time-major order so that each step reads a contiguous B x 4H block
    and multiplies the B x H states by w_h in one product. The forward
    pass caches gate activations, cell and hidden states; backward is
    one BPTT loop filling the T x B x 4H pre-activation gradient, from
    which the four parameter/input gradients are whole-batch products.
    """
    x, w_x, w_h, bias = (as_tensor(v) for v in (x, w_x, w_h, bias))
    if x.data.ndim < 2 or x.data.shape[-1] != w_x.data.shape[0]:
        raise ShapeError("lstm expects (B x) T x Din input and Din x 4H input weights")
    h_dim = w_h.data.shape[0]
    if w_x.data.shape[1] != 4 * h_dim or w_h.data.shape[1] != 4 * h_dim \
            or bias.data.shape != (4 * h_dim,):
        raise ShapeError("lstm expects H x 4H recurrent weights and a 4H bias")
    t_len, d_in = x.data.shape[-2:]
    n = math.prod(x.data.shape[:-2])  # 1 for an unbatched sequence
    # Work in processing order; a reversed direction is a flipped sequence.
    xs = x.data[..., ::-1, :] if reverse else x.data
    x_rows = xs.reshape(n * t_len, d_in)
    pre_x = (x_rows @ w_x.data + bias.data).reshape(n, t_len, 4 * h_dim)
    pre_x = np.ascontiguousarray(pre_x.swapaxes(0, 1))
    gates = np.empty((t_len, n, 4 * h_dim))
    cells = np.empty((t_len, n, h_dim))
    hs = np.empty((t_len, n, h_dim))
    i_f, c_sl, o_sl = slice(0, 2 * h_dim), slice(2 * h_dim, 3 * h_dim), slice(3 * h_dim, None)
    h = np.zeros((n, h_dim))
    c = np.zeros((n, h_dim))
    for t in range(t_len):
        pre = pre_x[t] + h @ w_h.data
        g = gates[t]
        g[:, i_f] = 1.0 / (1.0 + np.exp(-pre[:, i_f]))
        g[:, c_sl] = np.tanh(pre[:, c_sl])
        g[:, o_sl] = 1.0 / (1.0 + np.exp(-pre[:, o_sl]))
        c = g[:, h_dim : 2 * h_dim] * c + g[:, :h_dim] * g[:, c_sl]
        h = g[:, o_sl] * np.tanh(c)
        cells[t] = c
        hs[t] = h
    out_data = (hs[::-1] if reverse else hs).swapaxes(0, 1)
    out = Tensor(out_data.reshape(x.data.shape[:-1] + (h_dim,)), _parents=(x, w_x, w_h, bias))

    def bwd(grad):
        gs = grad.reshape(n, t_len, h_dim).swapaxes(0, 1)
        if reverse:
            gs = gs[::-1]
        w_h_t = w_h.data.T
        dpre = np.empty((t_len, n, 4 * h_dim))
        dh_next = np.zeros((n, h_dim))
        dc_next = np.zeros((n, h_dim))
        for t in range(t_len - 1, -1, -1):
            g = gates[t]
            gi, gf, gc, go = g[:, :h_dim], g[:, h_dim : 2 * h_dim], g[:, c_sl], g[:, o_sl]
            tc = np.tanh(cells[t])
            dh = gs[t] + dh_next
            dc = dc_next + dh * go * (1.0 - tc * tc)
            c_prev = cells[t - 1] if t else 0.0
            d = dpre[t]
            d[:, :h_dim] = dc * gc * gi * (1.0 - gi)
            d[:, h_dim : 2 * h_dim] = dc * c_prev * gf * (1.0 - gf)
            d[:, c_sl] = dc * gi * (1.0 - gc * gc)
            d[:, o_sl] = dh * tc * go * (1.0 - go)
            dc_next = dc * gf
            dh_next = d @ w_h_t
        # Batch-major rows in processing order, matching x_rows.
        d_rows = dpre.swapaxes(0, 1).reshape(n * t_len, 4 * h_dim)
        if x.requires_grad:
            dx = (d_rows @ w_x.data.T).reshape(n, t_len, d_in)
            if reverse:
                dx = dx[:, ::-1]
            x._accum(dx.reshape(x.data.shape))
        if w_x.requires_grad:
            w_x._accum(x_rows.T @ d_rows)
        if w_h.requires_grad:
            w_h._accum(hs[:-1].reshape(-1, h_dim).T @ dpre[1:].reshape(-1, 4 * h_dim))
        if bias.requires_grad:
            bias._accum(dpre.reshape(-1, 4 * h_dim).sum(axis=0))

    out._backward = bwd
    return out


def dropout(x, p, mode, rng):
    """Inverted dropout: identity in eval mode.

    `rng` is a numpy Generator, from which x.shape uniform draws are
    taken, or those draws as an array taken ahead of time.
    """
    x = as_tensor(x)
    if mode == "eval" or p <= 0.0:
        return x
    draws = rng if isinstance(rng, np.ndarray) else rng.random(x.data.shape)
    if draws.shape != x.data.shape:
        raise ShapeError(f"dropout draws of shape {draws.shape} for input {x.data.shape}")
    mask = (draws >= p) / (1.0 - p)
    return x * Tensor(mask)


def cross_entropy(logits, labels):
    """Summed negative log softmax probability of the true classes.

    logits: (B x) C; labels: one class index for 1-D logits, else B of
    them. The result is a scalar: the sum of the B per-row losses.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim < 1 or labels.shape != logits.data.shape[:-1]:
        raise ShapeError("cross_entropy expects (B x) C logits and one label per row")
    shift = logits.data.max(axis=-1)  # constant; gradient-neutral
    lse = log(tsum(exp(logits - shift[..., None]), axis=-1)) + shift
    onehot = np.eye(logits.data.shape[-1])[labels]
    return tsum(lse - tsum(logits * onehot, axis=-1))


def grad_check(f, point, eps=1e-3):
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    x = Tensor(point.data.copy() if isinstance(point, Tensor) else np.asarray(point, dtype=np.float64),
               requires_grad=True)
    loss = f(x)
    loss.backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(analytic)
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(x.data)).data)
        flat[i] = orig - eps
        lo = float(f(Tensor(x.data)).data)
        flat[i] = orig
        numeric.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
