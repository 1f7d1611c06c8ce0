"""The speaker embedding network and its AAM-softmax output head.

Structure: initial dilated-free convolution, a stack of multi-scale
convolutional blocks with temporal attention, a residual BLSTM block,
channel attentive statistics pooling, and a fully connected embedding
layer with normalization. The output head is only used during training.

Every block takes a T x C sequence or a B x T x C stack of B sequences of
equal length (time on axis -2, channels on axis -1, as in `autodiff`);
statistics over time stay per utterance.
"""

import contextlib
import dataclasses
import itertools
import math
import mmap
import os
import struct
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, DegenerateInput, InputTooShort, ShapeError


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# field default's type -> (what the error calls it, text -> value)
_VALUE_PARSERS = {
    bool: ("a boolean", lambda text: _BOOLS[text.lower()]),
    int: ("an integer", int),
    float: ("a number", float),
    tuple: ("comma-separated integers", lambda text: tuple(int(x) for x in text.split(","))),
}


def config_text(config) -> str:
    """`key = value` lines for every field of a config dataclass, in the
    form `parse_config` reads back."""
    lines = []
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_config(path, classes):
    """`parse_config_text` over the file at `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a UTF-8 config: {exc}") from exc
    return parse_config_text(text, classes, path)


def parse_config_text(text, classes, name):
    """Read flat `key = value` lines with `#` comments into one kwargs
    dict per dataclass in `classes`: each key goes to the class that has
    that field, its value parsed by the type of the field's default.
    Booleans are 1/true/yes or 0/false/no in any case. A line without
    `=`, an unknown key or an unparsable value raises ConfigError
    prefixed `<name>:<line>:`."""
    out = [{} for _ in classes]
    owner = {f.name: (kwargs, f.default)
             for cls, kwargs in zip(classes, out) for f in dataclasses.fields(cls)}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if not eq:
            raise ConfigError(f"{name}:{lineno}: expected key = value")
        if key not in owner:
            raise ConfigError(f"{name}:{lineno}: unknown key {key!r}")
        kwargs, default = owner[key]
        kind, parse = _VALUE_PARSERS[type(default)]
        try:
            kwargs[key] = parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{name}:{lineno}: {key}: expected {kind}, "
                              f"got {value!r}") from None
    return out


# The paper's kernel sizes: the initial convolution, the first and the
# fusion convolution of each MCB block, and its temporal attention.
INITIAL_KERNEL, MCB_KERNEL, FUSION_KERNEL, TA_KERNEL = 5, 3, 3, 7


@dataclass
class AmcrnConfig:
    """Architecture hyperparameters, including the ablation switches. One
    `channels` width runs through every residual block, one MCB block per
    `mcb_dilations` entry; the kernel sizes are the paper's (the module
    constants above), and the residual BLSTM has the paper's two layers."""

    n_mels: int = 80
    channels: int = 512
    mcb_dilations: tuple = (2, 3, 4)  # all 1: the standard-convolution ablation
    n_scales: int = 8
    blstm_hidden: int = 450
    blstm_dropout: float = 0.2
    pool_bottleneck: int = 128
    embedding_dim: int = 256
    n_classes: int = 2
    aam_margin: float = 0.2
    aam_scale: float = 30.0
    # Structural ablation switches.
    use_temporal_attention: bool = True
    use_blstm: bool = True

    def __post_init__(self):
        self.mcb_dilations = tuple(self.mcb_dilations)
        for f in dataclasses.fields(self):  # every size, count and dilation; no empty list
            value = getattr(self, f.name)
            if type(f.default) in (int, tuple) and min(np.atleast_1d(value), default=0) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if not 0.0 <= self.blstm_dropout < 1.0:
            raise ConfigError(f"blstm_dropout must be in [0, 1), got {self.blstm_dropout!r}")
        if not math.isfinite(self.aam_margin):
            raise ConfigError(f"aam_margin must be finite, got {self.aam_margin!r}")
        if not (math.isfinite(self.aam_scale) and self.aam_scale > 0.0):
            raise ConfigError(f"aam_scale must be a finite number > 0, got {self.aam_scale!r}")
        if self.channels % self.n_scales:
            raise ConfigError(f"channels {self.channels} not divisible by "
                              f"n_scales {self.n_scales}")

    to_text = config_text


def tiny_config(n_mels=8, channels=16, n_scales=2, hidden=8, **overrides) -> AmcrnConfig:
    """A desk-scale configuration for tests and gradient checks."""
    kwargs = dict(
        n_mels=n_mels,
        channels=channels,
        n_scales=n_scales,
        blstm_hidden=hidden,
        pool_bottleneck=max(4, hidden // 2),
        embedding_dim=16,
        n_classes=4,
    )
    kwargs.update(overrides)
    return AmcrnConfig(**kwargs)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------


def _uniform(rng, shape, fan_in):
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws; when `rng` is None (a
    skeleton, which allocates its arrays in its own dtype), a read-only
    view of one zero that draws nothing and takes no memory."""
    if rng is None:
        return np.broadcast_to(0.0, shape)
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Conv1d:
    """Dilated 1-D convolution layer with "same" padding."""

    def __init__(self, name, k, c_in, c_out, dilation, rng):
        self.dilation = dilation
        self.kernel = Parameter(_uniform(rng, (k, c_in, c_out), k * c_in), f"{name}.kernel")
        self.bias = Parameter(np.zeros(c_out), f"{name}.bias")

    def __call__(self, x, out=None):
        return ad.conv1d_dilated(x, self.kernel, self.bias, self.dilation, out)


class Linear:
    def __init__(self, name, d_in, d_out, rng):
        self.weight = Parameter(_uniform(rng, (d_in, d_out), d_in), f"{name}.weight")
        self.bias = Parameter(np.zeros(d_out), f"{name}.bias")

    def __call__(self, x):
        return ad.as_tensor(x) @ self.weight + self.bias


class _RunningNorm:
    """Per-channel affine normalization with running mean and variance
    buffers (eps 1e-5, momentum 0.1)."""

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, name, channels):
        self.name = name
        self.gamma = Parameter(np.ones(channels), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


class BatchNorm(_RunningNorm):
    """Per-channel normalization over the time axis of a convolution's
    output, `conv(x)`, followed by a ReLU if `relu`: in both modes one
    `autodiff.conv_batch_norm` node.

    Train mode normalizes each utterance with its own statistics over
    time and updates the running statistics once per utterance in batch
    order; eval mode uses the running statistics.
    """

    def __call__(self, x, mode, conv, relu=False):
        train = mode == "train"
        out, mean, var = ad.conv_batch_norm(
            x, conv.kernel, conv.bias, conv.dilation, self.gamma, self.beta, self.EPS, relu,
            stats=None if train else (self.running_mean, self.running_var))
        if not train:
            return out
        channels = self.running_mean.shape[0]
        for m, v in zip(mean.reshape(-1, channels), var.reshape(-1, channels)):
            self.running_mean = (1 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * m
            self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * v
        return out


class VectorNorm(_RunningNorm):
    """Normalization for a single vector using tracked population statistics.

    A per-sample batch statistic is degenerate for a lone embedding, so
    both modes normalize with the running estimates; train mode updates
    them as exponential moving averages over samples. A B x D stack is
    taken one row at a time in order: row b is normalized with the
    estimates after its own update, as if the rows came in B calls.
    """

    def _normalize(self, x, mean, var):
        xhat = (x - Tensor(mean)) / Tensor(np.sqrt(var + self.EPS))
        return self.gamma * xhat + self.beta

    def __call__(self, x, mode):
        if mode != "train":
            return self._normalize(x, self.running_mean, self.running_var)
        means, variances = [], []
        for row in x.data.reshape(-1, x.shape[-1]):
            delta = row - self.running_mean
            self.running_mean = self.running_mean + self.MOMENTUM * delta
            self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * delta**2
            means.append(self.running_mean)
            variances.append(self.running_var)
        return self._normalize(x, np.reshape(means, x.shape), np.reshape(variances, x.shape))


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------


def attention_coefficients(x, kernel, bias):
    """Frame-level gate A in (0, 1) of shape (B x) T x 1, from channel
    mean/max statistics. An MCB block applies A to its branch x inside
    `autodiff.residual_relu`, as relu(s + A * x)."""
    avg = ad.tmean(x, axis=-1, keepdims=True)
    mx = ad.tmax(x, axis=-1, keepdims=True)
    stats = ad.concat([avg, mx], axis=-1)
    return ad.sigmoid(ad.conv1d_dilated(stats, kernel, bias, dilation=1))


class TemporalAttention:
    def __init__(self, name, rng):
        self.kernel = Parameter(_uniform(rng, (TA_KERNEL, 2, 1), 2 * TA_KERNEL), f"{name}.kernel")
        self.bias = Parameter(np.zeros(1), f"{name}.bias")

    def __call__(self, x):
        return attention_coefficients(x, self.kernel, self.bias)


class McbBlock:
    """Multi-scale convolutional block with residual connection.

    The block input is convolved, split into channel subsets that are
    hierarchically convolved with information flowing between adjacent
    subsets, fused by a second convolution, gated by temporal attention,
    and summed back onto the block input.

    The scale convolutions copy their outputs into the array that the
    fusion convolution reads, beside the first subset, and the
    gate, the residual sum and the ReLU are one `autodiff.residual_relu`
    node: a taped block keeps no second copy of the scale outputs, and
    neither A * x nor the sum before the ReLU.
    """

    def __init__(self, name, config: AmcrnConfig, index: int, rng):
        c = config.channels
        r = config.mcb_dilations[index]
        n = config.n_scales
        sub = c // n
        self.n_scales = n
        self.conv_pre = Conv1d(f"{name}.pre", MCB_KERNEL, c, c, r, rng)
        self.bn_pre = BatchNorm(f"{name}.bn_pre", c)
        self.scale_convs = [
            Conv1d(f"{name}.scale{j}", 3, sub, sub, r, rng) for j in range(1, n)
        ]
        self.conv_post = Conv1d(f"{name}.post", FUSION_KERNEL, c, c, r, rng)
        self.bn_post = BatchNorm(f"{name}.bn_post", c)
        self.attention = TemporalAttention(f"{name}.ta", rng) \
            if config.use_temporal_attention else None

    def __call__(self, s, mode):
        x = p = self.bn_pre(s, mode, conv=self.conv_pre, relu=True)
        if self.scale_convs:
            subsets = ad.split(p, self.n_scales, axis=-1)
            joined = np.empty_like(p.data)
            width = joined.shape[-1] // self.n_scales
            joined[..., :width] = subsets[0].data
            fused = [subsets[0]]
            prev = None
            for j, conv in enumerate(self.scale_convs, 1):
                inp = subsets[j] if prev is None else subsets[j] + prev
                prev = conv(inp, out=joined[..., j * width : (j + 1) * width])
                fused.append(prev)
            x = ad.join(fused, joined, axis=-1)
        x = self.bn_post(x, mode, conv=self.conv_post)
        gate = None if self.attention is None else self.attention(x)
        return ad.residual_relu(s, x, gate)


class LstmDirection:
    """One direction of an LSTM layer (gate order: input, forget, cell, output)."""

    def __init__(self, name, d_in, hidden, rng):
        self.w_x = Parameter(_uniform(rng, (d_in, 4 * hidden), d_in), f"{name}.w_x")
        self.w_h = Parameter(_uniform(rng, (hidden, 4 * hidden), hidden), f"{name}.w_h")
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, f"{name}.bias")

    def __call__(self, x, reverse, out=None):
        return ad.lstm(x, self.w_x, self.w_h, self.bias, reverse, out)


# The two directions of a BLSTM layer run concurrently when the
# recurrent weights of one direction fill at least this many bytes and a
# second thread has a CPU of its own (`_spare_cpu`). A step is then one
# product with a w_h that does not fit a 2 MB per-core L2 cache, and
# numpy releases the GIL inside it. Below the threshold the gain shrinks
# to nothing (about 5% at 1 MiB) and then turns into a loss, because
# per-step overhead dominates and a second thread only adds to it (0.7x
# at H = 64, B = 12).
CONCURRENT_W_H_BYTES = 2 * 1024 * 1024


# Where a cgroup CPU quota is read: cgroup v2 keeps "<quota> <period>"
# ("max <period>" for none) in one file, v1 keeps the quota (-1 for none)
# and the period in two.
CGROUP_CPU_QUOTA = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _cgroup_cpus():
    """The CPUs' worth of time a cgroup quota grants, rounded up, or None."""
    for paths in CGROUP_CPU_QUOTA:
        fields = []
        try:
            for path in paths:
                with open(path, encoding="ascii") as fh:
                    fields += fh.read().split()
            quota, period = int(fields[0]), int(fields[1])
        except (OSError, ValueError, IndexError):  # no such file, or "max"
            continue
        if quota > 0 and period > 0:
            return math.ceil(quota / period)
    return None


def _usable_cpus():
    """The CPUs this process may run on, capped by a cgroup quota: a
    container limited to one CPU's worth of time gains nothing from a
    second thread, whatever its affinity shows."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _cgroup_cpus() or cpus)


# The BLAS read its thread count from the environment when numpy, imported
# above, loaded it (OpenBLAS reads OPENBLAS_NUM_THREADS, else
# OMP_NUM_THREADS; unset means one thread per CPU).
_BLAS_ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS",
                                  os.environ.get("OMP_NUM_THREADS", "")).strip() == "1"


def _spare_cpu():
    """Whether a second thread of products would have a CPU to itself: the
    BLAS runs one thread per product and more than one CPU is usable. A
    BLAS left to its default already spreads every large product over all
    cores, and a second caller only oversubscribes them (a concurrent
    `verify` took 1.4x as long as an inline one so)."""
    return _BLAS_ONE_THREAD and _usable_cpus() > 1


class BlstmLayer:
    """Bidirectional LSTM: per-frame concatenation of both directions.

    Each direction copies its hidden states into its half of the one
    (B x) T x 2H output, which its node keeps for backward: a taped layer
    holds no second copy of them.

    The directions do not depend on each other. When w_h fills at least
    `CONCURRENT_W_H_BYTES` and a second thread has a spare CPU, the forward
    one runs on a worker thread of its own while the calling thread runs
    the reverse one; otherwise both run inline, forward first. Each
    direction computes the same bits on either schedule.
    """

    def __init__(self, name, d_in, hidden, rng):
        self.fwd = LstmDirection(f"{name}.fwd", d_in, hidden, rng)
        self.bwd = LstmDirection(f"{name}.bwd", d_in, hidden, rng)

    def __call__(self, x):
        x = ad.as_tensor(x)
        hidden = self.fwd.w_h.data.shape[0]
        out = np.empty(x.shape[:-1] + (2 * hidden,), np.result_type(x.data, self.fwd.w_x.data))
        halves = out[..., :hidden], out[..., hidden:]
        if self.fwd.w_h.data.nbytes < CONCURRENT_W_H_BYTES or not _spare_cpu():
            ahead = self.fwd(x, reverse=False, out=halves[0])
            back = self.bwd(x, reverse=True, out=halves[1])
            return ad.join([ahead, back], out, axis=-1)
        # Leaving the block joins the worker, also if this thread raised.
        with ThreadPoolExecutor(1, thread_name_prefix="amcrn-blstm") as worker:
            ahead = worker.submit(self.fwd, x, reverse=False, out=halves[0])
            back = self.bwd(x, reverse=True, out=halves[1])
        return ad.join([ahead.result(), back], out, axis=-1)


class ResidualBlstm:
    """Two BLSTM layers with dropout between them, a linear projection
    back to the input width, and a residual connection; the projection
    and the residual sum are one `autodiff.residual_affine` node.

    Train mode applies dropout by `keep`, the masks
    `AmcrnModel.draw_dropout` drew for each utterance, stacked like x;
    without them, and in eval mode, there is none.
    """

    def __init__(self, name, channels, hidden, dropout_p, rng):
        self.dropout_p = dropout_p
        self.blstm1 = BlstmLayer(f"{name}.blstm1", channels, hidden, rng)
        self.blstm2 = BlstmLayer(f"{name}.blstm2", 2 * hidden, hidden, rng)
        self.proj = Linear(f"{name}.proj", 2 * hidden, channels, rng)

    def __call__(self, x, mode, keep=None):
        h1 = self.blstm1(x)
        d = ad.dropout(h1, keep, self.dropout_p) if mode == "train" and keep is not None else h1
        h2 = self.blstm2(d)
        return ad.residual_affine(x, h2, self.proj.weight, self.proj.bias)


class AttentiveStatPool:
    """Channel-wise attentive mean and standard deviation over time:
    (B x) T x C in, (B x) 2C out, as one `autodiff.attentive_stat_pool`
    node in both modes."""

    VAR_FLOOR = 1e-9

    def __init__(self, name, channels, bottleneck, rng):
        self.score1 = Linear(f"{name}.score1", channels, bottleneck, rng)
        self.score2 = Linear(f"{name}.score2", bottleneck, channels, rng)

    def __call__(self, h):
        if h.shape[-2] < 2:
            raise InputTooShort("attentive pooling needs at least 2 frames")
        return ad.attentive_stat_pool(h, self.score1.weight, self.score1.bias,
                                      self.score2.weight, self.score2.bias, self.VAR_FLOOR)


def aam_logits(embedding, class_weights, labels, margin, scale):
    """Additive-angular-margin logits for a D embedding and one label, or
    a B x D stack and B labels; (B x) C out.

    Non-target logits are scale * cos(theta); the target logit is
    scale * cos(theta + margin), computed from cos/sin identities.
    """
    emb = ad.as_tensor(embedding)
    w = ad.as_tensor(class_weights)
    n_classes, dim = w.shape
    if np.any(np.linalg.norm(emb.data, axis=-1) == 0.0):
        raise DegenerateInput("zero-norm embedding")
    row_norm_sq = ad.tsum(w * w, axis=1)
    if np.any(row_norm_sq.data == 0.0):
        raise DegenerateInput("zero-norm class weight row")
    emb_norm = ad.sqrt(ad.tsum(emb * emb, axis=-1, keepdims=True))
    dots = (emb.reshape(-1, dim) @ ad.transpose(w)).reshape(*emb.shape[:-1], n_classes)
    cos = dots / (ad.sqrt(row_norm_sq) * emb_norm)
    onehot = Tensor(np.eye(n_classes, dtype=emb.data.dtype)[np.asarray(labels, dtype=np.int64)])
    target_cos = ad.tsum(cos * onehot, axis=-1, keepdims=True)
    sin_t = ad.sqrt(ad.clamp_min(1.0 - target_cos * target_cos, 1e-12))
    cos_margin = target_cos * math.cos(margin) - sin_t * math.sin(margin)
    return scale * (cos + onehot * (cos_margin - target_cos))


# ----------------------------------------------------------------------
# Full model
# ----------------------------------------------------------------------


def equal_length_runs(rows, frame_limit=None):
    """Consecutive (features, ...) rows of equal frame count, as lists in
    input order, each ready to stack into one batched pass. A run is cut
    before it would pass `frame_limit` frames (a longer row runs alone)
    and is yielded as soon as it is full, before the next row is drawn,
    so over a lazy `rows` at most one run is held."""
    for frames, group in itertools.groupby(rows, lambda row: len(row[0])):
        size = None if frame_limit is None else max(1, frame_limit // frames)
        while run := list(itertools.islice(group, size)):
            yield run


def named_arrays(obj):
    """(name, owner, attribute) of every array that `obj` and its layers
    hold, in the order the attributes were assigned. A Parameter gives
    (its name, itself, "data"); a list is walked in order and any other
    object with attributes through `vars`; a normalization layer adds its
    running mean and variance after its gamma and beta. Anything else
    (arrays, numbers, None, the config's values) gives nothing."""
    if isinstance(obj, Parameter):
        yield obj.name, obj, "data"
    elif isinstance(obj, list):
        for item in obj:
            yield from named_arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from named_arrays(value)
        if isinstance(obj, _RunningNorm):
            for attr in ("running_mean", "running_var"):
                yield f"{obj.name}.{attr}", obj, attr


class AmcrnModel:
    """Speaker embedding network plus the training-time classifier head."""

    def __init__(self, config: AmcrnConfig, seed=0):
        self._build(config, np.random.default_rng(seed))

    @classmethod
    def skeleton(cls, config: AmcrnConfig, dtype=np.float64) -> "AmcrnModel":
        """The network's layers with every parameter and buffer a zero
        array of `dtype` and nothing drawn. `restore_model` assigns every
        array. The arrays are disjoint views into one zeroed buffer, each
        padded to a multiple of 64 bytes: one allocation in place of one per
        array lowered the benchmark's `verify` peak RSS by about 2.8 MB.
        With `dtype` None each array is only a read-only placeholder of
        its shape, for a caller that replaces every one."""
        model = cls.__new__(cls)
        model._build(config, None)
        if dtype is None:
            return model
        entries = [(owner, attr, getattr(owner, attr).shape)
                   for _, owner, attr in named_arrays(model)]
        pad = 64 // np.dtype(dtype).itemsize
        starts = np.cumsum([0] + [-(-math.prod(shape) // pad) * pad for *_, shape in entries])
        buffer = np.zeros(starts[-1], dtype)
        for (owner, attr, shape), start in zip(entries, starts):
            setattr(owner, attr, buffer[start:start + math.prod(shape)].reshape(shape))
        return model

    def _build(self, config, rng):
        self.config = config
        c = config.channels
        self.initial_conv = Conv1d("initial.conv", INITIAL_KERNEL, config.n_mels, c, 1, rng)
        self.initial_bn = BatchNorm("initial.bn", c)
        self.blocks = [McbBlock(f"mcb{i}", config, i, rng)
                       for i in range(len(config.mcb_dilations))]
        self.rblstm = ResidualBlstm("rblstm", c, config.blstm_hidden,
                                    config.blstm_dropout, rng) if config.use_blstm else None
        self.pool = AttentiveStatPool("pool", c, config.pool_bottleneck, rng)
        self.emb_linear = Linear("embed.linear", 2 * c, config.embedding_dim, rng)
        self.emb_norm = VectorNorm("embed.norm", config.embedding_dim)
        self.head = Parameter(_uniform(rng, (config.n_classes, config.embedding_dim),
                                       config.embedding_dim), "head.weight")

    @property
    def dtype(self):
        """The dtype of the weights and of every pass through them: float64,
        or float32 for a model that `restore_model` loaded as float32."""
        return self.initial_conv.kernel.data.dtype

    # -- forward --------------------------------------------------------

    def embed_tensor(self, lms, mode="eval", keep=None):
        """Differentiable embedding of a T x n_mels feature matrix (D out),
        or of a B x T x n_mels stack of equal-length utterances (B x D).

        `keep` holds the train-mode dropout masks (see `ResidualBlstm`).
        """
        x = ad.as_tensor(lms)
        if x.data.ndim not in (2, 3) or x.data.shape[-1] != self.config.n_mels:
            raise ShapeError(f"expected (B x) T x {self.config.n_mels} features")
        batch = x.shape[:-2]
        x = self.initial_bn(x, mode, conv=self.initial_conv, relu=True)
        for block in self.blocks:
            x = block(x, mode)
        if self.rblstm is not None:
            x = self.rblstm(x, mode, keep)
        pooled = self.pool(x)
        emb = self.emb_linear(pooled.reshape(-1, pooled.shape[-1]))
        return self.emb_norm(emb.reshape(*batch, self.config.embedding_dim), mode)

    def embed(self, lms_values) -> np.ndarray:
        """Deterministic eval-mode embedding as plain numpy: D values for a
        T x n_mels matrix, B x D for a B x T x n_mels stack of equal-length
        utterances. The pass runs under `autodiff.no_grad`, so it keeps no
        tape and gives the same bits as `embed_tensor(..., mode="eval")`
        on float64 weights and input; float32 weights and input compute in
        float32. The values are returned as a float64 array."""
        with ad.no_grad():
            emb = self.embed_tensor(lms_values, mode="eval")
        return np.asarray(emb.data, dtype=np.float64)

    def classify_loss(self, lms_values, labels, mode="train", keep=None):
        """AAM-softmax cross-entropy loss of one labeled T x n_mels
        utterance, or the summed loss of a B x T x n_mels stack and its B
        labels."""
        emb = self.embed_tensor(lms_values, mode=mode, keep=keep)
        logits = aam_logits(emb, self.head, labels,
                            self.config.aam_margin, self.config.aam_scale)
        return ad.cross_entropy(logits, labels)

    def draw_dropout(self, n_frames, rng):
        """The dropout keep mask that a train-mode forward pass over one
        utterance of `n_frames` frames draws from `rng` (None if it draws
        none), as booleans. Stacked per utterance, masks are the `keep` of a
        batched pass, so that the draws for several utterances can be
        taken in turn with other draws between them."""
        if self.rblstm is None or self.rblstm.dropout_p <= 0.0:
            return None
        return rng.random((n_frames, 2 * self.config.blstm_hidden)) >= self.rblstm.dropout_p

    # -- parameter access ----------------------------------------------

    def parameters(self, include_head=True):
        """Every Parameter in layer order; the head, built last, comes last."""
        return [p for _, p, _ in named_arrays(self)
                if isinstance(p, Parameter) and (include_head or p is not self.head)]

    def buffers(self):
        """(name, owner, attribute) of each normalization running statistic."""
        return [entry for entry in named_arrays(self) if not isinstance(entry[1], Parameter)]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def n_params(self, include_head=True):
        return sum(p.data.size for p in self.parameters(include_head))


# ----------------------------------------------------------------------
# Checkpoint I/O
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"AMCRN5"
_OLD_MAGICS = (b"AMCRN1", b"AMCRN2", b"AMCRN3", b"AMCRN4")
# Each entry's values start at a file offset that is a multiple of this, so
# a float32 model's arrays, views of the mapped file, are aligned: an
# unaligned float32 view made a GEMV 3.3x slower.
VALUE_ALIGN = 64
# The CRC reads this many bytes per call; a float64 load releases the
# mapped pages of each chunk behind it.
_CRC_CHUNK = 1 << 20


def _checkpoint_chunks(model):
    """The `checkpoint_bytes` layout as bytes-like chunks, a header and the
    float32 values per entry; at most one entry's float32 copy is held."""
    entries = [(p.name, p.data) for p in model.parameters()]
    entries += [(name, getattr(owner, attr)) for name, owner, attr in model.buffers()]
    config = config_text(model.config).encode("utf-8")

    def body():
        head = CHECKPOINT_MAGIC + struct.pack("<I", len(config)) + config
        yield head
        pos = len(head)
        for name, data in entries:
            encoded = name.encode("utf-8")
            header = (struct.pack("<H", len(encoded)) + encoded
                      + struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape))
            header += bytes(-(pos + len(header)) % VALUE_ALIGN)
            yield header
            # Bound to no name, so it is freed before the next entry's copy
            # is made: a name held across the yield kept two copies alive.
            yield np.ascontiguousarray(data, dtype="<f4")
            pos += len(header) + 4 * data.size
        yield struct.pack("<I", len(entries))

    crc = 0
    for chunk in body():
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def checkpoint_bytes(model) -> bytes:
    """Serialize the config, parameters and normalization statistics.

    Layout: magic, u32 LE config length, UTF-8 `config_text`; then per
    entry: u16 LE name length, UTF-8 name, u8 rank, u32 LE dims, zero
    bytes up to the next file offset that is a multiple of `VALUE_ALIGN`,
    raw little-endian float32 values; then u32 LE entry count and u32 LE
    `zlib.crc32` of all bytes before it.
    """
    return b"".join(_checkpoint_chunks(model))


def save_checkpoint(path, model) -> None:
    """Write `model`'s checkpoint atomically, one entry at a time."""
    _atomic_write(path, _checkpoint_chunks(model))


def build_config(path, make, *args, **kwargs):
    """`make(*args, **kwargs)`, building a config from values that
    `parse_config` read from `path`: a ConfigError from the config's own
    checks gets the prefix `<path>: ` (none if `path` is None)."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        if path is None:
            raise
        raise ConfigError(f"{path}: {exc}") from None


def load_checkpoint(path, dtype=np.float64) -> AmcrnModel:
    """`restore_model` over the checkpoint file at `path`; each ConfigError
    it raises starts with `<path>: ` (`<path>:<line>: ` for a line of the
    embedded config)."""
    with open(path, "rb") as fh:
        return restore_model(fh, dtype)


@contextlib.contextmanager
def loading_checkpoint(path, dtype=np.float64):
    """`load_checkpoint` that does not wait for the CRC: the model is
    given to the body of the `with` block once every structural check has
    passed, while one worker thread runs the CRC over the whole file. The
    CRC is waited for when the block is left, however it is left; if it
    does not match, the ConfigError `<path>: checkpoint checksum mismatch`
    is raised in place of anything the block raised. A caller that writes
    its output after the block writes nothing from a corrupt file. The
    block must not write to a float32 model's arrays: they are the bytes
    the CRC reads."""
    with open(path, "rb") as fh:
        model, check = _open_checkpoint(fh, dtype)
    with ThreadPoolExecutor(1, thread_name_prefix="amcrn-crc") as worker:
        crc = worker.submit(check)
        try:
            yield model
        finally:
            crc.result()


def _stored_values(config: AmcrnConfig) -> int:
    """How many float32 values a checkpoint of `config` holds: every
    parameter, the head included, and the running mean and variance of
    each normalization layer (as many as its gamma and beta)."""
    from .profiling import count_params  # profiling imports this module

    # The initial BatchNorm, two per block and the embedding norm.
    norm_channels = (1 + 2 * len(config.mcb_dilations)) * config.channels + config.embedding_dim
    return count_params(config, include_head=True) + 2 * norm_channels


def restore_model(source, dtype=np.float64) -> AmcrnModel:
    """Rebuild a model from `checkpoint_bytes` output, given as bytes or as
    a binary file opened from disk; any malformed, truncated or corrupt
    checkpoint raises ConfigError, prefixed with the file's name if it has
    one. The model's arrays have `dtype`: float64 for training and for
    embeddings that are stored or scored by PLDA, float32 for
    cosine-scored inference.

    A file is mapped, not read: a float32 model's arrays are views of a
    private copy-on-write map of it (of a writable copy of given bytes),
    so writing to them never touches the file. A float64 model's arrays
    are filled one entry at a time, and the mapped pages of each entry
    are released once copied. A file too small to hold the values its
    config needs is refused before any layer is built. Every byte, also
    of an entry the model has no array for, goes through the CRC, which
    is checked before this returns.
    """
    model, check = _open_checkpoint(source, dtype)
    check()
    return model


def _open_checkpoint(source, dtype):
    """(model, check) for `restore_model`'s `source`: the model once every
    structural check has passed (magic, truncation, the size against the
    config, UTF-8 text, zero padding, the entry count, missing entries and
    shapes), and a function that runs the CRC over the whole checkpoint
    and raises ConfigError if it does not match."""
    views = np.dtype(dtype) == np.dtype("<f4")  # the arrays view the buffer
    if isinstance(source, (bytes, bytearray, memoryview)):
        origin = None
        buffer = _aligned_copy(source) if views else source
    else:
        origin = source.name
        size = os.fstat(source.fileno()).st_size
        buffer = mmap.mmap(source.fileno(), 0, access=mmap.ACCESS_COPY) if size else b""
    view = memoryview(buffer)

    def refused(message):
        return ConfigError(message if origin is None else f"{origin}: {message}")

    end = len(view) - 8  # the trailing entry count and CRC
    magic = bytes(view[:len(CHECKPOINT_MAGIC)])
    if magic in _OLD_MAGICS:
        raise refused(f"an {magic.decode()} checkpoint, an old format that is no longer read; "
                      f"retrain the model to write an {CHECKPOINT_MAGIC.decode()} checkpoint")
    if magic != CHECKPOINT_MAGIC:
        raise refused("not a recognized checkpoint file")
    pos = len(magic)

    def take(n):
        """The next n bytes, which must lie before the trailer; advance."""
        nonlocal pos
        if n > end - pos:
            raise refused(f"checkpoint truncated: {n} bytes wanted at offset {pos}, "
                          f"{max(end - pos, 0)} left")
        pos += n
        return view[pos - n:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def text(n, what):
        try:
            return str(take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise refused(f"checkpoint {what} at offset {pos - n} is not UTF-8") from exc

    (config_len,) = unpack("<I")
    config_name = origin or "checkpoint"  # names the config's own errors
    (kwargs,) = parse_config_text(text(config_len, "config"), (AmcrnConfig,), config_name)
    config = build_config(config_name, AmcrnConfig, **kwargs)
    need = 4 * _stored_values(config)
    if need > end - pos:
        raise refused(f"checkpoint truncated: its config needs {need} bytes of values, "
                      f"{end - pos} left")
    model = AmcrnModel.skeleton(config, None if views else dtype)
    arrays = {name: (owner, attr) for name, owner, attr in named_arrays(model)}
    shapes = {}  # entry name -> shape as read; a repeated name keeps its last
    while pos < end:
        (name_len,) = unpack("<H")
        name = text(name_len, "entry name")
        (rank,) = unpack("<B")
        shape = unpack(f"<{rank}I")
        if any(take(-pos % VALUE_ALIGN)):
            raise refused(f"checkpoint padding before offset {pos} is not zero")
        values = take(4 * math.prod(shape))
        shapes[name] = shape
        owner, attr = arrays.get(name, (None, None))
        if owner is None or getattr(owner, attr).shape != shape:
            continue
        values = np.frombuffer(values, "<f4").reshape(shape)
        if views:
            setattr(owner, attr, values)
        else:
            with np.errstate(invalid="ignore"):  # signalling NaNs of a corrupt file
                np.copyto(getattr(owner, attr), values)
            _release(buffer, pos - values.nbytes, pos)
    (n_entries,) = struct.unpack("<I", view[end:end + 4])
    if n_entries != len(shapes):
        raise refused(f"checkpoint entry count mismatch: {n_entries} != {len(shapes)}")
    for name, (owner, attr) in arrays.items():
        if name not in shapes:
            kind = "parameter" if isinstance(owner, Parameter) else "buffer"
            raise refused(f"checkpoint missing {kind} {name}")
        if shapes[name] != getattr(owner, attr).shape:
            raise refused(f"shape mismatch for {name}")

    def check():
        body = len(view) - 4
        crc = 0
        for start in range(0, body, _CRC_CHUNK):
            stop = min(start + _CRC_CHUNK, body)
            crc = zlib.crc32(view[start:stop], crc)
            if not views:
                _release(buffer, start, stop)
        if crc.to_bytes(4, "little") != view[body:]:
            raise refused("checkpoint checksum mismatch")

    return model, check


def _aligned_copy(data):
    """A writable copy of the bytes-like `data` that starts at a multiple
    of `VALUE_ALIGN` bytes in memory."""
    raw = np.empty(len(data) + VALUE_ALIGN, np.uint8)
    start = -raw.ctypes.data % VALUE_ALIGN
    copy = raw[start:start + len(data)]
    copy[:] = np.frombuffer(data, np.uint8)
    return copy


def _release(buffer, start, stop):
    """Drop the mapped pages wholly inside bytes [start, stop) of
    `buffer` if it is a map (nothing is ever written to the pages of a
    float64 load, so the kernel reads them from the file again if they are
    touched again); do nothing for any other buffer."""
    if isinstance(buffer, mmap.mmap):
        start = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
        stop -= stop % mmap.PAGESIZE
        if stop > start:
            buffer.madvise(mmap.MADV_DONTNEED, start, stop - start)


def _atomic_write(path, payload) -> None:
    """Write `payload`, bytes or an iterable of bytes-like chunks, to `path`
    through a temp file in the same directory and a rename, so the path
    holds either its old bytes or all of the new ones."""
    path = str(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([payload] if isinstance(payload, bytes) else payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
