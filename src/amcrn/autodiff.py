"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operations that produced it;
`backward` on a scalar loss accumulates gradients into every reachable
tensor with `requires_grad`. Only the operations the network calls are
provided: elementwise arithmetic, sigmoid, sqrt and a floor, matmul by a
matrix, reductions, concatenation/splitting, dilated 1-D convolution, one
convolution + BatchNorm (+ ReLU) node that normalizes by the sequence's
own statistics or by given ones, a fused residual sum + ReLU node, a
fused residual affine node, a fused attentive pooling node, a fused LSTM
direction, dropout by a given mask, and the cross-entropy loss as one
node; `grad_check` verifies gradients by central differences.

A taped pass keeps only what backward reads: the fused nodes work in
their own buffers, the LSTM writes its gates over its input projection
and its gradient over its gates, ops can put their outputs into the
slices of one array that `join` then presents as one node, and an
interior node keeps the first gradient it is given without a copy. Leaf
gradients are copies, which the trainer may scale in place.

Sequence ops read axis -2 as time and axis -1 as channels; any axes in
front of them are batch axes. A T x C sequence is therefore the
unbatched case of the same code, and a B x T x C stack runs B sequences
of equal length in one call.

Inside `no_grad()` the same operations record nothing, which is how the
eval-mode forward passes run: the output is bit-identical, and no tape
outlives the pass.

Tensors keep float32 data float32 and make any other float64. Every
node, taped or not, computes forward and backward in its inputs' dtype,
which a Python number and a leaf's gradient take too, so a float32 model
fed float32 features runs and trains in float32 throughout.
"""

import contextlib
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


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block.

    A node created inside keeps neither its parents nor its backward
    closure, so each intermediate array is freed as soon as the forward
    pass no longer needs it. The previous state comes back on exit, also
    when the block raises. The switch is process-wide, not per thread.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.grad = None
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        if not _grad_enabled:
            # Neither link is kept: the closure holds the inputs as well.
            _parents, _backward = (), None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    # -- graph construction helpers ------------------------------------

    def _accum(self, grad):
        if self._backward is None:
            # A leaf copies its first gradient and adds later ones in place:
            # the trainer scales leaf gradients in place after backward.
            if self.grad is None:
                self.grad = np.array(grad, dtype=self.data.dtype)
            else:
                self.grad += grad
        elif self.grad is None:
            # An interior node keeps the array it is given, which may also
            # reach another node, so a later gradient is added out of place.
            self.grad = grad
        else:
            self.grad = self.grad + grad

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
        other = as_tensor(other, self)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _backward=bwd)

    __radd__ = __add__

    def __neg__(self):

        def bwd(g):
            if self.requires_grad:
                self._accum(-g)

        return Tensor(-self.data, _parents=(self,), _backward=bwd)

    def __sub__(self, other):
        return self + (-as_tensor(other, self))

    def __rsub__(self, other):
        return as_tensor(other, self) + (-self)

    def __mul__(self, other):
        other = as_tensor(other, self)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, _parents=(self, other), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, self)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / other.data**2, other.data.shape))

        return Tensor(self.data / other.data, _parents=(self, other), _backward=bwd)

    def __matmul__(self, other):
        """(... x) N x K stack of rows times a K x M matrix."""
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects a (... x) N x K left operand and a 2-D right one")

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                rows = self.data.reshape(-1, self.data.shape[-1])
                other._accum(rows.T @ g.reshape(-1, g.shape[-1]))

        return Tensor(self.data @ other.data, _parents=(self, other), _backward=bwd)

    def __pow__(self, exponent):
        assert np.isscalar(exponent)

        def bwd(g):
            if self.requires_grad:
                self._accum(g * exponent * self.data ** (exponent - 1))

        return Tensor(self.data**exponent, _parents=(self,), _backward=bwd)

    def reshape(self, *shape):

        def bwd(g):
            if self.requires_grad:
                self._accum(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(*shape), _parents=(self,), _backward=bwd)


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name


def as_tensor(x, like=None):
    """x as a Tensor; a Python number takes the dtype of the Tensor `like`."""
    if like is not None and isinstance(x, (int, float)):
        x = np.asarray(x, like.data.dtype)
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise activations -------------------------------------------


def sigmoid(x):
    x = as_tensor(x)
    # exp(-x) overflows to inf for x below about -709 (-88 in float32),
    # where 1 / (1 + inf) = 0 is the right value.
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        if x.requires_grad:
            x._accum(g * y * (1.0 - y))

    return Tensor(y, _parents=(x,), _backward=bwd)


def sqrt(x):
    x = as_tensor(x)
    y = np.sqrt(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accum(g * 0.5 / y)

    return Tensor(y, _parents=(x,), _backward=bwd)


def clamp_min(x, floor):
    """max(x, floor) with gradient passing only where x > floor."""
    x = as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (x.data > floor))

    return Tensor(np.maximum(x.data, floor), _parents=(x,), _backward=bwd)


# -- reductions ---------------------------------------------------------


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            x._accum(np.broadcast_to(gg, x.data.shape).copy())

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,), _backward=bwd)


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def tmax(x, axis, keepdims=False):
    """Max over one axis; ties split the gradient equally."""
    x = as_tensor(x)
    y = x.data.max(axis=axis, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            mask = (x.data == y).astype(x.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accum(gg * mask)

    return Tensor(y if keepdims else np.squeeze(y, axis=axis), _parents=(x,), _backward=bwd)


# -- structure ----------------------------------------------------------


def join(xs, data, axis):
    """The node of `data`, an array that holds the tensors `xs` joined
    along `axis`. The tensors may be views of its slices (ops given those
    slices as their `out`), so that the values are stored once. Backward
    hands each tensor its slice of the gradient."""
    sizes = [x.data.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                x._accum(g[tuple(sl)])

    return Tensor(data, _parents=tuple(xs), _backward=bwd)


def concat(xs, axis):
    xs = [as_tensor(x) for x in xs]
    return join(xs, np.concatenate([x.data for x in xs], axis=axis), axis)


def split(x, n, axis):
    """Split into n equal chunks along an axis, each a view of x.

    Backward copies the chunks' gradients into one array, chunk by chunk
    (a chunk that gets none leaves zeros), and x receives it as one
    gradient: the chunks' common parent holds it and runs after every
    chunk, before x.
    """
    x = as_tensor(x)
    size = x.data.shape[axis]
    if size % n:
        raise ShapeError(f"axis of extent {size} not divisible into {n} chunks")
    step = size // n
    whole = Tensor(x.data, _parents=(x,), _backward=x._accum)

    def chunk(start):
        sl = [slice(None)] * x.data.ndim
        sl[axis] = slice(start, start + step)
        sl = tuple(sl)

        def bwd(g):
            if whole.grad is None:
                whole.grad = np.zeros_like(x.data)
            whole.grad[sl] = g

        return Tensor(x.data[sl], _parents=(whole,), _backward=bwd)

    return [chunk(i * step) for i in range(n)]


def transpose(x):
    """The transpose of a matrix."""
    x = as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x._accum(g.T)

    return Tensor(x.data.T, _parents=(x,), _backward=bwd)


# -- network operations -------------------------------------------------


def _pad_time(data, pad):
    """`data` with `pad` zero frames added at both ends of axis -2."""
    t_len = data.shape[-2]
    out = np.zeros(data.shape[:-2] + (t_len + 2 * pad, data.shape[-1]), dtype=data.dtype)
    out[..., pad : pad + t_len, :] = data
    return out


def _conv(x, kernel, bias, dilation):
    """The forward sum of `conv1d_dilated`, as (output array, parent
    Tensors, backward), where backward takes the output's gradient."""
    x, kernel = as_tensor(x), as_tensor(kernel)
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
    xp = _pad_time(x.data, pad)
    acc = np.zeros(x.data.shape[:-1] + (c_out,), dtype=np.result_type(x.data, kernel.data))
    starts = [dilation * (2 * n_taps - i) for i in range(k)]
    for i, s in enumerate(starts):
        acc += xp[..., s : s + t_len, :] @ kernel.data[i]
    parents = (x, kernel)
    if bias is not None:
        bias = as_tensor(bias)
        acc += bias.data
        parents += (bias,)

    def bwd(g):
        if x.requires_grad:
            gxp = np.zeros(x.data.shape[:-2] + (t_len + 2 * pad, c_in), x.data.dtype)
            for i, s in enumerate(starts):
                gxp[..., s : s + t_len, :] += g @ kernel.data[i].T
            x._accum(gxp[..., pad : pad + t_len, :] if pad else gxp)
        g_rows = g.reshape(-1, c_out)
        if kernel.requires_grad:
            # Padded again: a copy kept from forward would live as long as the tape.
            xp = _pad_time(x.data, pad)
            gk = np.empty_like(kernel.data)
            for i, s in enumerate(starts):
                gk[i] = xp[..., s : s + t_len, :].reshape(-1, c_in).T @ g_rows
            kernel._accum(gk)
        if bias is not None and bias.requires_grad:
            bias._accum(_unbroadcast(g_rows.sum(axis=0), bias.data.shape))

    return acc, parents, bwd


def conv1d_dilated(x, kernel, bias=None, dilation=1, out=None):
    """1-D dilated convolution over time with "same" zero padding.

    x: (... x) T x Cin, kernel: k x Cin x Cout with k odd, output:
    (... x) T x Cout. out[q] = sum_t x[q - dilation * t] K[t] for tap
    index t in [-n, n], where the kernel array index i corresponds to
    t = i - n. Each sequence of a batch is padded on its own. Given `out`,
    an array of the output's shape and dtype (a slice of a larger one, say),
    the output is copied there and `out` is the node's data.
    """
    acc, parents, bwd = _conv(x, kernel, bias, dilation)
    if out is not None:
        # Summed in a contiguous buffer: adding into a strided slice is
        # slower than one copy.
        out[...] = acc
        acc = out
    return Tensor(acc, _parents=parents, _backward=bwd)


def conv_batch_norm(x, kernel, bias, dilation, gamma, beta, eps, relu=False, stats=None):
    """Per-channel normalization of c = conv1d_dilated(x, kernel, bias,
    dilation), gamma * (c - mean) / sqrt(var + eps) + beta, then a ReLU if
    `relu`, as one graph node.

    Without `stats`, mean and var are each sequence's own statistics over
    time, (B x) 1 x C arrays; `stats=(mean, var)` gives per-channel arrays
    to normalize by instead, which get no gradient. Returns (out, mean,
    var). The normalization runs in the convolution's own output buffer,
    which backward keeps as the normalized input, and the ReLU in the
    output's, whose sign masks its gradient.
    """
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    acc, conv_parents, conv_bwd = _conv(x, kernel, bias, dilation)
    scale = 1.0 / acc.shape[-2]
    if stats is None:
        mean = acc.sum(axis=-2, keepdims=True) * scale
        xhat = np.subtract(acc, mean, out=acc)
        var = (xhat**2).sum(axis=-2, keepdims=True) * scale
    else:
        mean, var = stats
        xhat = np.subtract(acc, mean, out=acc)
    std = np.sqrt(var + eps)
    xhat /= std
    out = gamma.data * xhat
    out += beta.data
    if relu:
        np.maximum(out, 0.0, out=out)
    need_conv = any(p.requires_grad for p in conv_parents)

    def bwd(g):
        if relu:
            g = g * (out > 0.0)
        channels = g.shape[-1]
        if gamma.requires_grad:
            gamma._accum((g * xhat).reshape(-1, channels).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, channels).sum(axis=0))
        if need_conv:
            gx = g * gamma.data
            if stats is None:
                proj = (gx * xhat).sum(axis=-2, keepdims=True) * scale
                gx = gx - gx.sum(axis=-2, keepdims=True) * scale - xhat * proj
            conv_bwd(gx / std)

    return Tensor(out, _parents=conv_parents + (gamma, beta), _backward=bwd), mean, var


def residual_relu(s, x, gate=None):
    """`relu(s + gate * x)`, or `relu(s + x)` without a gate, as one graph
    node with the same bits.

    s, x: (B x) T x C of one shape; gate: (B x) T x 1. The node keeps only
    its output, whose sign masks the gradient, and reads x and the gate,
    which the nodes that made them keep. The composition also keeps
    `gate * x` and the sum before the ReLU.
    """
    s, x = as_tensor(s), as_tensor(x)
    parents = (s, x)
    if gate is None:
        out = s.data + x.data
    else:
        gate = as_tensor(gate)
        parents += (gate,)
        out = gate.data * x.data
        out += s.data
    np.maximum(out, 0.0, out=out)

    def bwd(g):
        g = g * (out > 0.0)
        if s.requires_grad:
            s._accum(g)
        if gate is None:
            if x.requires_grad:
                x._accum(g)
            return
        if gate.requires_grad:
            gate._accum(_unbroadcast(g * x.data, gate.data.shape))
        if x.requires_grad:
            x._accum(g * gate.data)

    return Tensor(out, _parents=parents, _backward=bwd)


def residual_affine(x, h, weight, bias):
    """`x + (h @ weight + bias)`, a residual sum onto a row-wise affine
    map, as one graph node with the same bits.

    x: (B x) T x C; h: (B x) T x D; weight: D x C; bias: C. The node keeps
    only its output, which its backward does not read; the composition
    also keeps the product and the biased product.
    """
    x, h, weight, bias = (as_tensor(v) for v in (x, h, weight, bias))
    if h.data.ndim < 2 or weight.data.ndim != 2:
        raise ShapeError("residual_affine expects a (... x) N x D input and a D x C weight")
    out = h.data @ weight.data
    out += bias.data
    np.add(x.data, out, out=out)

    def bwd(g):
        if x.requires_grad:
            x._accum(g)
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if h.requires_grad:
            h._accum(g @ weight.data.T)
        if weight.requires_grad:
            weight._accum(h.data.reshape(-1, h.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Tensor(out, _parents=(x, h, weight, bias), _backward=bwd)


def attentive_stat_pool(h, w1, b1, w2, b2, floor):
    """Channel-wise attentive statistics pooling over time as one graph
    node, with the bits of the composition

        alpha = softmax(tanh(h @ w1 + b1) @ w2 + b2, axis=-2)
        mean = sum_t alpha * h,  second = sum_t alpha * h * h
        concat([mean, sqrt(clamp_min(second - mean * mean, floor))], -1)

    h: (B x) T x C; w1: C x K; b1: K; w2: K x C; b2: C; (B x) 2C out. The
    node keeps the tanh output and alpha, and its backward recomputes
    alpha * h; the composition keeps six (B x) T x C arrays and three
    (B x) T x K. Backward forms the gradients of the composition's nodes
    in the order its backward reaches them, and h's four pieces are
    added in that order, starting from any gradient h already holds.
    """
    h, w1, b1, w2, b2 = (as_tensor(v) for v in (h, w1, b1, w2, b2))
    t = h.data @ w1.data
    t += b1.data
    np.tanh(t, out=t)
    alpha = t @ w2.data
    alpha += b2.data
    alpha -= alpha.max(axis=-2, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-2, keepdims=True)
    weighted = alpha * h.data
    mean = weighted.sum(axis=-2)
    weighted *= h.data
    second = weighted.sum(axis=-2)
    del weighted
    var = second - mean * mean
    std = np.sqrt(np.maximum(var, floor))
    need_t = any(v.requires_grad for v in (h, w1, b1))

    def bwd(g):
        nonlocal t, alpha
        h_grad = None

        def to_h(piece):  # in place once h_grad is this pass's own array
            nonlocal h_grad
            if h_grad is None:
                h_grad = piece if h.grad is None else h.grad + piece
            else:
                h_grad += piece

        c = mean.shape[-1]
        g_var = np.expand_dims(g[..., c:] * 0.5 / std * (var > floor), -2)
        # alpha * h * h, that is (alpha * h) * h, and its sum over time
        if h.requires_grad:
            piece = alpha * h.data
            piece *= g_var
            to_h(piece)
        g_weighted = g_var * h.data
        g_alpha = g_weighted * h.data
        if h.requires_grad:
            g_weighted *= alpha
            to_h(g_weighted)
        del g_weighted
        # mean * mean, and alpha * h and its sum over time
        g_square = -g_var[..., 0, :] * mean
        g_mean = np.expand_dims(g[..., :c] + g_square + g_square, -2)
        g_alpha += g_mean * h.data
        if h.requires_grad:
            to_h(g_mean * alpha)
        # softmax over time, then the second affine map
        g_alpha -= (g_alpha * alpha).sum(axis=-2, keepdims=True)
        g_alpha *= alpha
        alpha = None
        if b2.requires_grad:
            b2._accum(_unbroadcast(g_alpha, b2.data.shape))
        if w2.requires_grad:
            w2._accum(t.reshape(-1, t.shape[-1]).T @ g_alpha.reshape(-1, c))
        if not need_t:
            return
        g_t = g_alpha @ w2.data.T
        del g_alpha
        # tanh, then the first affine map
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        g_t *= t
        t = None
        if b1.requires_grad:
            b1._accum(_unbroadcast(g_t, b1.data.shape))
        if w1.requires_grad:
            w1._accum(h.data.reshape(-1, c).T @ g_t.reshape(-1, g_t.shape[-1]))
        if h.requires_grad:
            to_h(g_t @ w1.data.T)
            h.grad = h_grad

    return Tensor(np.concatenate([mean, std], axis=-1), _parents=(h, w1, b1, w2, b2),
                  _backward=bwd)


def _lstm_factors(gates, cells, h_dim):
    """Every factor of the LSTM pre-activation gradient that does not
    depend on the recurrence, for all t at once, written over the gates
    it comes from: dpre's i/f/c columns are dc times the i/f/c factors
    and its o columns dh times the o factor. Returns (the forget gates,
    which the recurrence still reads, and dh's factor in dc). Each factor
    is evaluated in the operation order of `a * b * c`, so the bits are
    those of the expression; `cells` is overwritten with tanh(c)."""
    # gc holds the cell candidate negated.
    gi, gf, gc, go = (gates[..., k * h_dim : (k + 1) * h_dim] for k in range(4))
    c_factor = gc * gc
    np.subtract(1.0, c_factor, out=c_factor)
    c_factor *= gi  # gi * (1 - gc^2)
    gi_minus_one = gi - 1.0
    gi *= gc
    gi *= gi_minus_one  # gc * gi * (gi - 1)
    gc[...] = c_factor
    del c_factor, gi_minus_one
    forget = gf.copy()
    np.multiply(cells[:-1], forget[1:], out=gf[1:])
    gf[1:] *= 1.0 - forget[1:]  # c_prev * gf * (1 - gf)
    gf[0] = 0.0  # the initial cell state is zero
    tanh_c = np.tanh(cells, out=cells)
    dc_dh = tanh_c * tanh_c
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go  # go * (1 - tanh(c)^2)
    one_minus_go = 1.0 - go
    go *= tanh_c
    go *= one_minus_go  # tanh(c) * go * (1 - go)
    return forget, dc_dh


def lstm(x, w_x, w_h, bias, reverse=False, out=None):
    """One LSTM direction over a (B x) T x Din input as a single graph node.

    w_x: Din x 4H, w_h: H x 4H, bias: 4H, gate order (input, forget,
    cell, output); zero initial state; output (B x) T x H. With `reverse`
    the recurrence runs from the last frame to the first. The input
    projection is one matmul over all B*T frames, taken in time-major
    order so that each step reads a contiguous B x 4H block, and each
    step multiplies the B x H states by w_h in one product.

    Each step does only the recurrent work, and w_h is read as it is,
    never copied. The input projection is negated once per call, and a
    step writes the negated pre-activation pre_x[t] - h w_h into the
    buffer of the product, which is exact (-a - b = -(a + b)). It then
    evaluates 1 / (1 + exp(pre)) over the whole B x 4H block into the
    step's row of the projection, which it no longer needs: the sigmoid
    of every gate. It overwrites the cell columns with tanh, which is the
    cell candidate negated (tanh(-x) = -tanh(x)): the cell update
    subtracts its product, and backward flips its sign. The per-step cell
    states are kept only when a backward pass can follow, that is when
    graph recording is on and an input requires grad; otherwise every
    step writes them into one reused slot. A taped call thus keeps the
    projection (as the gates), the cell states and the hidden states;
    tanh of the cell states is recomputed in backward. Backward first
    writes, for all t at once, every factor of the pre-activation
    gradient that does not depend on the recurrence over the gates
    (`_lstm_factors`), keeping beside them only the forget gates and dh's
    factor in dc; the BPTT loop then carries only dh and dc, and scales
    step t's factors into its pre-activation gradient in place. The four
    parameter/input gradients are whole-batch products of it: w_h's and
    the bias's first, then the batch-major copy that w_x's and the
    input's read, once the time-major one is let go.

    Given `out`, a (B x) T x H array (one direction's half of a BLSTM
    layer's output, say), the hidden states are copied there once the
    steps are done, and `out` is the node's data and what backward reads.
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
    i_sl, f_sl, c_sl, o_sl = (slice(k * h_dim, (k + 1) * h_dim) for k in range(4))
    # Work in processing order; a reversed direction is a flipped sequence.
    xs = x.data[..., ::-1, :] if reverse else x.data
    gates = (xs.reshape(n, t_len, d_in).swapaxes(0, 1).reshape(t_len * n, d_in)
             @ w_x.data).reshape(t_len, n, 4 * h_dim)
    gates += bias.data
    np.negative(gates, out=gates)  # the negated projection until a step overwrites it
    keep = _grad_enabled and any(v.requires_grad for v in (x, w_x, w_h, bias))
    dtype = gates.dtype
    cells = np.empty((t_len if keep else 1, n, h_dim), dtype)
    hs = np.empty((t_len, n, h_dim), dtype)
    h = c = np.zeros((n, h_dim), dtype)
    w_rec = w_h.data
    # Every step reuses these: its w_h product, input gate x cell candidate, 1.
    pre, gated = np.empty((n, 4 * h_dim), dtype), np.empty((n, h_dim), dtype)
    one = np.ones((), dtype)
    # exp of a large cell pre-activation overflows to inf harmlessly: its
    # columns are overwritten by tanh, and a sigmoid gate reads 1 / inf = 0.
    with np.errstate(over="ignore"):
        for t in range(t_len):
            np.matmul(h, w_rec, out=pre)
            g = gates[t]
            np.subtract(g, pre, out=pre)
            np.exp(pre, out=g)
            g += one
            np.reciprocal(g, out=g)
            np.tanh(pre[:, c_sl], out=g[:, c_sl])
            c = np.multiply(g[:, f_sl], c, out=cells[t if keep else 0])
            c -= np.multiply(g[:, i_sl], g[:, c_sl], out=gated)
            h = np.tanh(c, out=hs[t])
            h *= g[:, o_sl]
    batch_major = (hs[::-1] if reverse else hs).swapaxes(0, 1)
    if out is None:
        out = batch_major.reshape(x.data.shape[:-1] + (h_dim,))
    else:
        # The steps ran on contiguous rows, which is faster than on the
        # strided frames of `out`; backward reads them from `out`.
        out[...] = batch_major.reshape(out.shape)
        hs = out.reshape(n, t_len, h_dim).swapaxes(0, 1)
        if reverse:
            hs = hs[::-1]

    def bwd(grad):
        nonlocal gates, cells
        # This pass takes over the gates and cell states, so that it can
        # let them go as soon as it is done with them.
        dpre, gates = gates, None
        forget, dc_dh = _lstm_factors(dpre, cells, h_dim)
        cells = None
        gs = grad.reshape(n, t_len, h_dim).swapaxes(0, 1)
        if reverse:
            gs = gs[::-1]
        w_h_t = w_h.data.T
        factors = dpre.reshape(t_len, n, 4, h_dim)
        dh_next = dc_next = np.zeros((n, h_dim), dtype)
        for t in range(t_len - 1, -1, -1):
            dh = gs[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            dc_next = dc * forget[t]
            factors[t, :, :3] *= dc[:, None]
            factors[t, :, 3] *= dh
            dh_next = dpre[t] @ w_h_t
        del forget, dc_dh, factors
        if w_h.requires_grad:
            w_h._accum(hs[:-1].reshape(-1, h_dim).T @ dpre[1:].reshape(-1, 4 * h_dim))
        if bias.requires_grad:
            bias._accum(dpre.reshape(-1, 4 * h_dim).sum(axis=0))
        # Batch-major rows in processing order.
        d_rows = dpre.swapaxes(0, 1).reshape(n * t_len, 4 * h_dim)
        del dpre
        if w_x.requires_grad:
            w_x._accum(xs.reshape(n * t_len, d_in).T @ d_rows)
        if x.requires_grad:
            dx = (d_rows @ w_x.data.T).reshape(n, t_len, d_in)
            del d_rows
            if reverse:
                dx = dx[:, ::-1]
            x._accum(dx.reshape(x.data.shape))

    return Tensor(out, _parents=(x, w_x, w_h, bias), _backward=bwd)


def dropout(x, keep, p):
    """Inverted dropout by a boolean `keep` mask of x's shape: an entry is
    kept, scaled by 1 / (1 - p), where its mask is True. The node keeps
    the mask, and forms the float mask `keep / (1 - p)` in x's dtype when it applies it.
    """
    x, keep = as_tensor(x), np.asarray(keep)
    if keep.shape != x.data.shape or keep.dtype != bool:
        raise ShapeError(f"dropout keep mask of {keep.dtype} shape {keep.shape} "
                         f"for input {x.data.shape}: expected booleans of the input's shape")

    def bwd(g):
        if x.requires_grad:
            x._accum(g * (keep / x.data.dtype.type(1.0 - p)))

    return Tensor(x.data * (keep / x.data.dtype.type(1.0 - p)), _parents=(x,), _backward=bwd)


def cross_entropy(logits, labels):
    """Summed negative log softmax probability of the true classes, as one
    graph node.

    logits: (B x) C; labels: one class index for 1-D logits, else B of
    them. The result is a scalar: the sum of the B per-row losses
    log(sum(exp(logits - max))) + max - (the true class's logit). Forward
    and backward keep the bits of that composition of elementary nodes;
    the node keeps exp(logits - max), its row sums and the one-hot rows.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim < 1 or labels.shape != logits.data.shape[:-1]:
        raise ShapeError("cross_entropy expects (B x) C logits and one label per row")
    shift = logits.data.max(axis=-1)
    e = np.exp(logits.data - shift[..., None])
    s = e.sum(axis=-1)
    onehot = np.eye(logits.data.shape[-1])[labels]
    rows = (np.log(s) + shift) - (logits.data * onehot).sum(axis=-1)

    def bwd(g):
        if logits.requires_grad:
            grad = (g / s)[..., None] * e + (-g)[..., None] * onehot
            logits._accum(grad.astype(logits.data.dtype, copy=False))

    return Tensor(rows.sum(), _parents=(logits,), _backward=bwd)


def grad_check(f, point, eps=1e-3):
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    x = Tensor(np.array(as_tensor(point).data, dtype=np.float64), requires_grad=True)
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
