"""The speaker embedding network and its AAM-softmax output head.

Structure: initial dilated-free convolution, a stack of multi-scale
convolutional blocks with temporal attention, a residual BLSTM block,
channel attentive statistics pooling, and a fully connected embedding
layer with normalization. The output head is only used during training.

Every block takes a T x C sequence or a B x T x C stack of B sequences of
equal length (time on axis -2, channels on axis -1, as in `autodiff`);
statistics over time stay per utterance.
"""

import dataclasses
import io
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, DegenerateInput, InputTooShort, ShapeError


@dataclass
class AmcrnConfig:
    """Architecture hyperparameters, including the ablation switches."""

    n_mels: int = 80
    initial_kernel: int = 5
    initial_channels: int = 512
    n_mcb: int = 3
    mcb_channels: tuple = (512, 512, 512)
    mcb_kernel: tuple = (3, 3, 3)
    mcb_dilations: tuple = (2, 3, 4)
    n_scales: int = 8
    ta_kernel: int = 7
    fusion_kernel: int = 3
    blstm_hidden: int = 450
    blstm_layers: int = 2
    blstm_dropout: float = 0.2
    pool_bottleneck: int = 128
    embedding_dim: int = 256
    n_classes: int = 2
    aam_margin: float = 0.2
    aam_scale: float = 30.0
    # Structural ablation switches.
    use_temporal_attention: bool = True
    use_blstm: bool = True
    standard_conv: bool = False  # forces dilation 1 in every convolution

    def __post_init__(self):
        self.mcb_channels = tuple(self.mcb_channels)
        self.mcb_kernel = tuple(self.mcb_kernel)
        self.mcb_dilations = tuple(self.mcb_dilations)
        self.validate()

    def validate(self):
        lists = (self.mcb_channels, self.mcb_kernel, self.mcb_dilations)
        if any(len(l) != self.n_mcb for l in lists):
            raise ConfigError("per-block lists must have length n_mcb")
        if self.n_scales < 1:
            raise ConfigError("n_scales must be >= 1")
        for c in self.mcb_channels:
            if c % self.n_scales:
                raise ConfigError(f"channels {c} not divisible by n_scales {self.n_scales}")
        if self.initial_channels != self.mcb_channels[0]:
            raise ConfigError("initial_channels must match the first block's channels")
        if self.n_classes < 1:
            raise ConfigError("n_classes must be positive")

    def dilation(self, i):
        return 1 if self.standard_conv else self.mcb_dilations[i]

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AmcrnConfig":
        kwargs = {}
        types = {f.name: f for f in dataclasses.fields(cls)}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            default = types[key].default
            if isinstance(default, bool):
                kwargs[key] = val.lower() in ("1", "true", "yes")
            elif isinstance(default, int):
                kwargs[key] = int(val)
            elif isinstance(default, float):
                kwargs[key] = float(val)
            else:
                kwargs[key] = tuple(int(x) for x in val.split(","))
        return cls(**kwargs)


def tiny_config(n_mels=8, channels=16, n_scales=2, hidden=8, **overrides) -> AmcrnConfig:
    """A desk-scale configuration for tests and gradient checks."""
    kwargs = dict(
        n_mels=n_mels,
        initial_channels=channels,
        mcb_channels=(channels,) * 3,
        n_scales=n_scales,
        blstm_hidden=hidden,
        pool_bottleneck=max(4, hidden // 2),
        embedding_dim=16,
        n_classes=4,
    )
    kwargs.update(overrides)
    return AmcrnConfig(**kwargs)


@dataclass
class SpeakerEmbedding:
    """Fixed-length speaker representation."""

    values: np.ndarray
    speaker_id: str = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------


def _uniform(rng, shape, fan_in):
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws; zeros, drawing nothing,
    when `rng` is None (a skeleton whose values are assigned later)."""
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Conv1d:
    """Dilated 1-D convolution layer with "same" padding."""

    def __init__(self, name, k, c_in, c_out, dilation, rng):
        self.dilation = dilation
        self.kernel = Parameter(_uniform(rng, (k, c_in, c_out), k * c_in), f"{name}.kernel")
        self.bias = Parameter(np.zeros(c_out), f"{name}.bias")

    def __call__(self, x):
        return ad.conv1d_dilated(x, self.kernel, self.bias, self.dilation)

    def params(self):
        return [self.kernel, self.bias]


class Linear:
    def __init__(self, name, d_in, d_out, rng):
        self.weight = Parameter(_uniform(rng, (d_in, d_out), d_in), f"{name}.weight")
        self.bias = Parameter(np.zeros(d_out), f"{name}.bias")

    def __call__(self, x):
        return ad.linear(x, self.weight, self.bias)

    def params(self):
        return [self.weight, self.bias]


class BatchNorm:
    """Per-channel normalization over the time axis.

    Train mode normalizes each utterance with its own statistics over
    time (eps 1e-5) and updates the running statistics with momentum 0.1,
    once per utterance in batch order; eval mode uses the running
    statistics.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, name, channels, rng=None):
        self.name = name
        self.gamma = Parameter(np.ones(channels), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x, mode):
        if mode == "train":
            out, mean, var = ad.batch_norm(x, self.gamma, self.beta, self.EPS)
            channels = self.running_mean.shape[0]
            for m, v in zip(mean.reshape(-1, channels), var.reshape(-1, channels)):
                self.running_mean = (1 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * m
                self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * v
            return out
        xhat = (x - Tensor(self.running_mean)) / Tensor(np.sqrt(self.running_var + self.EPS))
        return self.gamma * xhat + self.beta

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [(f"{self.name}.running_mean", "running_mean"),
                (f"{self.name}.running_var", "running_var")]


class VectorNorm:
    """Normalization for a single vector using tracked population statistics.

    A per-sample batch statistic is degenerate for a lone embedding, so
    both modes normalize with the running estimates; train mode updates
    them as exponential moving averages over samples. A B x D stack is
    taken one row at a time in order: row b is normalized with the
    estimates after its own update, as if the rows came in B calls.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, name, dim, rng=None):
        self.name = name
        self.gamma = Parameter(np.ones(dim), f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x, mode):
        if mode == "train":
            means, variances = [], []
            for row in x.data.reshape(-1, x.shape[-1]):
                delta = row - self.running_mean
                self.running_mean = self.running_mean + self.MOMENTUM * delta
                self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * delta**2
                means.append(self.running_mean)
                variances.append(self.running_var)
            mean = np.reshape(means, x.shape)
            var = np.reshape(variances, x.shape)
        else:
            mean, var = self.running_mean, self.running_var
        xhat = (x - Tensor(mean)) / Tensor(np.sqrt(var + self.EPS))
        return self.gamma * xhat + self.beta

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [(f"{self.name}.running_mean", "running_mean"),
                (f"{self.name}.running_var", "running_var")]


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------


def temporal_attention(x, kernel, bias):
    """Frame-level gating from channel mean/max statistics.

    Returns (coefficients A in (0,1) of shape (B x) T x 1, gated map A * x).
    """
    avg = ad.tmean(x, axis=-1, keepdims=True)
    mx = ad.tmax(x, axis=-1, keepdims=True)
    stats = ad.concat([avg, mx], axis=-1)
    a = ad.sigmoid(ad.conv1d_dilated(stats, kernel, bias, dilation=1))
    return a, a * x


class TemporalAttention:
    def __init__(self, name, k, rng):
        self.kernel = Parameter(_uniform(rng, (k, 2, 1), 2 * k), f"{name}.kernel")
        self.bias = Parameter(np.zeros(1), f"{name}.bias")

    def __call__(self, x):
        return temporal_attention(x, self.kernel, self.bias)

    def params(self):
        return [self.kernel, self.bias]


class McbBlock:
    """Multi-scale convolutional block with residual connection.

    The block input is convolved, split into channel subsets that are
    hierarchically convolved with information flowing between adjacent
    subsets, fused by a second convolution, gated by temporal attention,
    and summed back onto the block input.
    """

    def __init__(self, name, config: AmcrnConfig, index: int, rng):
        c = config.mcb_channels[index]
        k = config.mcb_kernel[index]
        r = config.dilation(index)
        n = config.n_scales
        sub = c // n
        self.n_scales = n
        self.conv_pre = Conv1d(f"{name}.pre", k, c, c, r, rng)
        self.bn_pre = BatchNorm(f"{name}.bn_pre", c, rng)
        self.scale_convs = [
            Conv1d(f"{name}.scale{j}", 3, sub, sub, r, rng) for j in range(1, n)
        ]
        self.conv_post = Conv1d(f"{name}.post", config.fusion_kernel, c, c, r, rng)
        self.bn_post = BatchNorm(f"{name}.bn_post", c, rng)
        self.attention = TemporalAttention(f"{name}.ta", config.ta_kernel, rng) \
            if config.use_temporal_attention else None

    def __call__(self, s, mode):
        p = ad.relu(self.bn_pre(self.conv_pre(s), mode))
        subsets = ad.split(p, self.n_scales, axis=-1)
        fused = [subsets[0]]
        prev = None
        for j in range(1, self.n_scales):
            inp = subsets[j] if prev is None else subsets[j] + prev
            prev = self.scale_convs[j - 1](inp)
            fused.append(prev)
        x = self.bn_post(self.conv_post(ad.concat(fused, axis=-1) if len(fused) > 1 else fused[0]), mode)
        if self.attention is not None:
            _, x = self.attention(x)
        return ad.relu(s + x)

    def params(self):
        out = self.conv_pre.params() + self.bn_pre.params()
        for conv in self.scale_convs:
            out += conv.params()
        out += self.conv_post.params() + self.bn_post.params()
        if self.attention is not None:
            out += self.attention.params()
        return out

    def buffers(self):
        return self.bn_pre.buffers() + self.bn_post.buffers()

    def bn_layers(self):
        return [self.bn_pre, self.bn_post]


class LstmDirection:
    """One direction of an LSTM layer (gate order: input, forget, cell, output)."""

    def __init__(self, name, d_in, hidden, rng):
        self.w_x = Parameter(_uniform(rng, (d_in, 4 * hidden), d_in), f"{name}.w_x")
        self.w_h = Parameter(_uniform(rng, (hidden, 4 * hidden), hidden), f"{name}.w_h")
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, f"{name}.bias")

    def __call__(self, x, reverse):
        return ad.lstm(x, self.w_x, self.w_h, self.bias, reverse)

    def params(self):
        return [self.w_x, self.w_h, self.bias]


class BlstmLayer:
    """Bidirectional LSTM: per-frame concatenation of both directions."""

    def __init__(self, name, d_in, hidden, rng):
        self.fwd = LstmDirection(f"{name}.fwd", d_in, hidden, rng)
        self.bwd = LstmDirection(f"{name}.bwd", d_in, hidden, rng)

    def __call__(self, x):
        return ad.concat([self.fwd(x, reverse=False), self.bwd(x, reverse=True)], axis=-1)

    def params(self):
        return self.fwd.params() + self.bwd.params()


class ResidualBlstm:
    """Two BLSTM layers with dropout between them, a linear projection
    back to the input width, and a residual connection.

    `rng` feeds the dropout (see `autodiff.dropout`): a Generator, or the
    draws `AmcrnModel.draw_dropout` took for each utterance, stacked like x.
    """

    def __init__(self, name, channels, hidden, dropout_p, rng):
        self.dropout_p = dropout_p
        self.blstm1 = BlstmLayer(f"{name}.blstm1", channels, hidden, rng)
        self.blstm2 = BlstmLayer(f"{name}.blstm2", 2 * hidden, hidden, rng)
        self.proj = Linear(f"{name}.proj", 2 * hidden, channels, rng)

    def __call__(self, x, mode, rng=None):
        h1 = self.blstm1(x)
        d = ad.dropout(h1, self.dropout_p, mode, rng) if rng is not None else h1
        h2 = self.blstm2(d)
        return x + self.proj(h2)

    def params(self):
        return self.blstm1.params() + self.blstm2.params() + self.proj.params()


class AttentiveStatPool:
    """Channel-wise attentive mean and standard deviation over time:
    (B x) T x C in, (B x) 2C out."""

    VAR_FLOOR = 1e-9

    def __init__(self, name, channels, bottleneck, rng):
        self.score1 = Linear(f"{name}.score1", channels, bottleneck, rng)
        self.score2 = Linear(f"{name}.score2", bottleneck, channels, rng)

    def __call__(self, h):
        if h.shape[-2] < 2:
            raise InputTooShort("attentive pooling needs at least 2 frames")
        scores = self.score2(ad.tanh(self.score1(h)))
        alpha = ad.softmax(scores, axis=-2)
        mean = ad.tsum(alpha * h, axis=-2)
        second = ad.tsum(alpha * h * h, axis=-2)
        std = ad.sqrt(ad.clamp_min(second - mean * mean, self.VAR_FLOOR))
        return ad.concat([mean, std], axis=-1)

    def params(self):
        return self.score1.params() + self.score2.params()


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
    dots = (emb.reshape(-1, dim) @ transpose(w)).reshape(*emb.shape[:-1], n_classes)
    cos = dots / (ad.sqrt(row_norm_sq) * emb_norm)
    onehot = Tensor(np.eye(n_classes)[np.asarray(labels, dtype=np.int64)])
    target_cos = ad.tsum(cos * onehot, axis=-1, keepdims=True)
    sin_t = ad.sqrt(ad.clamp_min(1.0 - target_cos * target_cos, 1e-12))
    cos_margin = target_cos * math.cos(margin) - sin_t * math.sin(margin)
    return scale * (cos + onehot * (cos_margin - target_cos))


def transpose(x):
    x = ad.as_tensor(x)
    out = Tensor(x.data.T, _parents=(x,))

    def bwd(g):
        if x.requires_grad:
            x._accum(g.T)

    out._backward = bwd
    return out


# ----------------------------------------------------------------------
# Full model
# ----------------------------------------------------------------------


class AmcrnModel:
    """Speaker embedding network plus the training-time classifier head."""

    def __init__(self, config: AmcrnConfig, seed=0):
        self._build(config, np.random.default_rng(seed))

    @classmethod
    def skeleton(cls, config: AmcrnConfig) -> "AmcrnModel":
        """The network's layers with every array allocated but none drawn:
        randomly initialized parameters are zero. `restore_model` assigns
        every array."""
        model = cls.__new__(cls)
        model._build(config, None)
        return model

    def _build(self, config, rng):
        self.config = config
        c0 = config.initial_channels
        self.initial_conv = Conv1d("initial.conv", config.initial_kernel,
                                   config.n_mels, c0, 1, rng)
        self.initial_bn = BatchNorm("initial.bn", c0, rng)
        self.blocks = [McbBlock(f"mcb{i}", config, i, rng) for i in range(config.n_mcb)]
        last_c = config.mcb_channels[-1]
        self.rblstm = ResidualBlstm("rblstm", last_c, config.blstm_hidden,
                                    config.blstm_dropout, rng) if config.use_blstm else None
        self.pool = AttentiveStatPool("pool", last_c, config.pool_bottleneck, rng)
        self.emb_linear = Linear("embed.linear", 2 * last_c, config.embedding_dim, rng)
        self.emb_norm = VectorNorm("embed.norm", config.embedding_dim, rng)
        self.head = Parameter(_uniform(rng, (config.n_classes, config.embedding_dim),
                                       config.embedding_dim), "head.weight")

    # -- forward --------------------------------------------------------

    def embed_tensor(self, lms, mode="eval", rng=None):
        """Differentiable embedding of a T x n_mels feature matrix (D out),
        or of a B x T x n_mels stack of equal-length utterances (B x D).

        `rng` feeds the train-mode dropout (see `ResidualBlstm`).
        """
        x = ad.as_tensor(lms)
        if x.data.ndim not in (2, 3) or x.data.shape[-1] != self.config.n_mels:
            raise ShapeError(f"expected (B x) T x {self.config.n_mels} features")
        batch = x.shape[:-2]
        x = ad.relu(self.initial_bn(self.initial_conv(x), mode))
        for block in self.blocks:
            x = block(x, mode)
        if self.rblstm is not None:
            x = self.rblstm(x, mode, rng)
        pooled = self.pool(x)
        emb = self.emb_linear(pooled.reshape(-1, pooled.shape[-1]))
        return self.emb_norm(emb.reshape(*batch, self.config.embedding_dim), mode)

    def embed(self, lms_values, speaker_id=None) -> SpeakerEmbedding:
        """Deterministic eval-mode embedding as plain numpy."""
        return SpeakerEmbedding(self.embed_tensor(lms_values, mode="eval").data.copy(),
                                speaker_id)

    def classify_loss(self, lms_values, labels, mode="train", rng=None):
        """AAM-softmax cross-entropy loss of one labeled T x n_mels
        utterance, or the summed loss of a B x T x n_mels stack and its B
        labels."""
        emb = self.embed_tensor(lms_values, mode=mode, rng=rng)
        logits = aam_logits(emb, self.head, labels,
                            self.config.aam_margin, self.config.aam_scale)
        return ad.cross_entropy(logits, labels)

    def draw_dropout(self, n_frames, rng):
        """The uniform draws a train-mode forward pass over one utterance
        of `n_frames` frames takes from `rng` (None if it takes none).
        Stacked per utterance, they can stand in for `rng` in a batched
        pass, so that draws for several utterances can be taken in turn
        with other draws between them."""
        if self.rblstm is None or self.rblstm.dropout_p <= 0.0:
            return None
        return rng.random((n_frames, 2 * self.config.blstm_hidden))

    # -- parameter access ----------------------------------------------

    def parameters(self, include_head=True):
        out = self.initial_conv.params() + self.initial_bn.params()
        for block in self.blocks:
            out += block.params()
        if self.rblstm is not None:
            out += self.rblstm.params()
        out += self.pool.params() + self.emb_linear.params() + self.emb_norm.params()
        if include_head:
            out.append(self.head)
        return out

    def _buffer_owners(self):
        owners = [self.initial_bn] + [bn for b in self.blocks for bn in b.bn_layers()]
        owners.append(self.emb_norm)
        return owners

    def buffers(self):
        out = []
        for owner in self._buffer_owners():
            for name, attr in owner.buffers():
                out.append((name, owner, attr))
        return out

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def n_params(self, include_head=True):
        return sum(p.data.size for p in self.parameters(include_head))


# ----------------------------------------------------------------------
# Checkpoint I/O
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"AMCRN1"


def _checkpoint_entries(model):
    entries = [(p.name, p.data) for p in model.parameters()]
    entries += [(name, getattr(owner, attr)) for name, owner, attr in model.buffers()]
    return entries


def checkpoint_bytes(model) -> bytes:
    """Serialize parameters and normalization statistics.

    Layout: magic, then per entry: u16 LE name length, UTF-8 name, u8
    rank, u32 LE dims, raw little-endian float32 values; trailing u32
    entry count.
    """
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    entries = _checkpoint_entries(model)
    for name, data in entries:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", data.ndim))
        for dim in data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
    buf.write(struct.pack("<I", len(entries)))
    return buf.getvalue()


def save_checkpoint(path, model) -> None:
    """Write the checkpoint and a `<path>.cfg` sidecar, atomically."""
    _atomic_write(path, checkpoint_bytes(model))
    _atomic_write(str(path) + ".cfg", model.config.to_text().encode())


def load_checkpoint(path) -> AmcrnModel:
    with open(str(path) + ".cfg", encoding="utf-8") as fh:
        config = AmcrnConfig.from_text(fh.read())
    with open(path, "rb") as fh:
        blob = fh.read()
    return restore_model(blob, config)


def restore_model(blob: bytes, config: AmcrnConfig) -> AmcrnModel:
    """Rebuild a model from `checkpoint_bytes` output; any malformed,
    truncated or mismatched blob raises ConfigError."""
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ConfigError("not a recognized checkpoint file")
    view = memoryview(blob)
    pos = len(CHECKPOINT_MAGIC)
    end = len(blob) - 4  # the trailing entry count

    def take(n):
        nonlocal pos
        if n > end - pos:
            raise ConfigError(f"checkpoint truncated: {n} bytes wanted at offset {pos}, "
                              f"{max(end - pos, 0)} left")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    values = {}
    while pos < end:
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"checkpoint entry name at offset {pos - name_len} "
                              "is not UTF-8") from exc
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(shape)
        arr = np.frombuffer(take(4 * count), dtype="<f4").astype(np.float64)
        values[name] = arr.reshape(shape)
    if end < pos:
        raise ConfigError("checkpoint truncated: no entry count")
    (n_entries,) = struct.unpack_from("<I", blob, end)
    if n_entries != len(values):
        raise ConfigError(f"checkpoint entry count mismatch: {n_entries} != {len(values)}")
    model = AmcrnModel.skeleton(config)
    for p in model.parameters():
        if p.name not in values:
            raise ConfigError(f"checkpoint missing parameter {p.name}")
        if values[p.name].shape != p.data.shape:
            raise ConfigError(f"shape mismatch for {p.name}")
        p.data = values[p.name]
    for name, owner, attr in model.buffers():
        if name not in values:
            raise ConfigError(f"checkpoint missing buffer {name}")
        if values[name].shape != getattr(owner, attr).shape:
            raise ConfigError(f"shape mismatch for {name}")
        setattr(owner, attr, values[name])
    return model


def _atomic_write(path, payload: bytes) -> None:
    path = str(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
