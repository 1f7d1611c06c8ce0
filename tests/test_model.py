"""Network component tests: hand oracles for attention, pooling, the
multi-scale block, the BLSTM, and the margin-softmax head."""

import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn.autodiff import Tensor, grad_check
from amcrn.errors import ConfigError, DegenerateInput, InputTooShort, ShapeError
from amcrn.model import (AmcrnConfig, AmcrnModel, AttentiveStatPool, BlstmLayer,
                         Conv1d, LstmDirection, McbBlock, ResidualBlstm,
                         aam_logits, config_text, named_arrays, parse_config,
                         temporal_attention, tiny_config)
from amcrn.training import TrainConfig
from test_autodiff import (assert_same_bits, dropout_composite, kept_bytes, narrow,
                           split_reference)


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = AmcrnConfig()
        assert cfg.channels == 512
        assert cfg.mcb_dilations == (2, 3, 4)
        assert cfg.blstm_hidden == 450
        assert cfg.pool_bottleneck == 128
        assert cfg.embedding_dim == 256
        assert cfg.aam_margin == 0.2 and cfg.aam_scale == 30.0

    def test_indivisible_scales_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(channels=10, n_scales=4)

    def test_mismatched_block_lists_rejected(self):
        with pytest.raises(ConfigError, match="mcb_kernel has 2 entries, mcb_dilations 3"):
            AmcrnConfig(mcb_kernel=(3, 3))

    def test_text_round_trip(self, tmp_path):
        cfg = tiny_config(n_scales=4, channels=32, mcb_dilations=(1, 1, 1))
        train_cfg = TrainConfig(lr_end=1e-6, crop_seconds=1.5, augment_copies=0)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text() + config_text(train_cfg))
        model_kv, train_kv = parse_config(path, (AmcrnConfig, TrainConfig))
        assert AmcrnConfig(**model_kv) == cfg
        assert TrainConfig(**train_kv) == train_cfg

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("YES", True), ("True", True),
        ("0", False), ("false", False), ("No", False), ("FALSE", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"# ablation\nuse_blstm = {text}  # switch\n")
        assert parse_config(path, (AmcrnConfig,)) == [{"use_blstm": value}]

    def test_keys_go_to_the_class_that_has_them(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\nn_scales = 4\n\nmcb_kernel = 3, 5,7\n")
        model_kv, train_kv = parse_config(path, (AmcrnConfig, TrainConfig))
        assert model_kv == {"n_scales": 4, "mcb_kernel": (3, 5, 7)}
        assert train_kv == {"epochs": 7}

    @pytest.mark.parametrize("line, message", [
        ("use_blstm = flase", "use_blstm: expected a boolean, got 'flase'"),
        ("use_blstm =", "use_blstm: expected a boolean, got ''"),
        ("channels = three", "channels: expected an integer, got 'three'"),
        ("channels = 3.0", "channels: expected an integer, got '3.0'"),
        ("aam_scale = thirty", "aam_scale: expected a number, got 'thirty'"),
        ("mcb_kernel = 3,,3", "mcb_kernel: expected comma-separated integers, got '3,,3'"),
        ("epochs = 2", "unknown key 'epochs'"),
        ("channels 3", "expected key = value"),
    ])
    def test_bad_line_is_located(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n_mels = 8\n{line}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path, (AmcrnConfig,))
        assert str(info.value) == f"{path}:2: {message}"


# field -> a value other than tiny_config's: one the model must feel, or
# one that `AmcrnConfig.validate` refuses on its own.
AUDIT_VALUES = {
    "n_mels": 10, "initial_kernel": 3, "channels": 32,
    "mcb_kernel": (3, 3, 5), "mcb_dilations": (2, 3, 5),
    "n_scales": 4, "ta_kernel": 5, "fusion_kernel": 5, "blstm_hidden": 10,
    "blstm_dropout": 0.5, "pool_bottleneck": 6, "embedding_dim": 12,
    "n_classes": 5, "aam_margin": 0.3, "aam_scale": 20.0,
    "use_temporal_attention": False, "use_blstm": False,
}


def draw_keep(model, shape, rng):
    """The train-mode dropout masks for a (B x) T x n_mels input of
    `shape`, drawn per utterance in order with `AmcrnModel.draw_dropout`
    as training draws them, stacked like the input (None if it draws none)."""
    masks = [model.draw_dropout(shape[-2], rng) for _ in range(math.prod(shape[:-2]))]
    return None if masks[0] is None else np.stack(masks).reshape(shape[:-1] + (-1,))


def _audit_signature(config):
    """Parameter count, eval embedding and one taped train-mode loss of a
    seeded model on seeded input."""
    model = AmcrnModel(config, seed=0)
    feats = np.random.default_rng(1).standard_normal((2, 60, config.n_mels))
    loss = model.classify_loss(feats, [0, 1], mode="train",
                               keep=draw_keep(model, feats.shape, np.random.default_rng(2)))
    return model.n_params(), model.embed(feats), float(loss.data)


class TestConfigAudit:
    """No `AmcrnConfig` field is a dead key: changing it alone changes the
    parameter count, the eval embedding or the train loss, or is refused."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _audit_signature(tiny_config())

    def test_every_field_is_audited(self):
        assert set(AUDIT_VALUES) == {f.name for f in dataclasses.fields(AmcrnConfig)}

    @pytest.mark.parametrize("name", sorted(AUDIT_VALUES))
    def test_field_changes_the_model(self, baseline, name):
        assert AUDIT_VALUES[name] != getattr(tiny_config(), name)
        try:
            config = tiny_config(**{name: AUDIT_VALUES[name]})
        except ConfigError:
            return
        n_params, emb, loss = _audit_signature(config)
        assert (n_params != baseline[0] or emb.shape != baseline[1].shape
                or not np.array_equal(emb, baseline[1]) or loss != baseline[2]), name


class TestTemporalAttention:
    def test_hand_oracle(self):
        # Single-tap kernel: a = sigmoid(w0 * mean + w1 * max + b).
        x = np.array([[1.0, 3.0], [2.0, -2.0], [0.0, 0.0]])
        kernel = np.zeros((1, 2, 1))
        kernel[0, 0, 0] = 0.5  # weight on the channel mean
        kernel[0, 1, 0] = 0.25  # weight on the channel max
        bias = np.array([0.1])
        a, gated = temporal_attention(Tensor(x), Tensor(kernel), Tensor(bias))
        means = x.mean(axis=1)
        maxes = x.max(axis=1)
        expected = 1.0 / (1.0 + np.exp(-(0.5 * means + 0.25 * maxes + 0.1)))
        np.testing.assert_allclose(a.data[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(gated.data, expected[:, None] * x, atol=1e-12)

    def test_zero_weights_give_half_gate(self):
        x = np.random.default_rng(0).standard_normal((5, 4))
        a, gated = temporal_attention(Tensor(x), Tensor(np.zeros((7, 2, 1))),
                                      Tensor(np.zeros(1)))
        np.testing.assert_allclose(a.data, 0.5)
        np.testing.assert_allclose(gated.data, 0.5 * x)

    def test_coefficients_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a, _ = temporal_attention(Tensor(10.0 * rng.standard_normal((20, 6))),
                                  Tensor(rng.standard_normal((7, 2, 1))),
                                  Tensor(rng.standard_normal(1)))
        assert a.data.shape == (20, 1)
        assert np.all((a.data > 0.0) & (a.data < 1.0))

    def test_gradient_flows(self):
        rng = np.random.default_rng(2)
        kern = Tensor(rng.standard_normal((7, 2, 1)))
        bias = Tensor(np.zeros(1))

        def f(x):
            _, gated = temporal_attention(x, kern, bias)
            return ad.tsum(gated**2)

        assert grad_check(f, Tensor(rng.standard_normal((6, 3)))) < 1e-4


def mcb_composite(block, s, mode):
    """`McbBlock.__call__` from elementary graph nodes: `narrow` chunks,
    scale outputs of their own joined by a copy, the gated map of
    `temporal_attention` and relu(s + x)."""
    p = block.bn_pre(s, mode, conv=block.conv_pre, relu=True)
    subsets = split_reference(p, block.n_scales, axis=-1)
    fused = [subsets[0]]
    prev = None
    for j in range(1, block.n_scales):
        inp = subsets[j] if prev is None else subsets[j] + prev
        prev = block.scale_convs[j - 1](inp)
        fused.append(prev)
    x = block.bn_post(ad.concat(fused, axis=-1) if len(fused) > 1 else fused[0], mode,
                      conv=block.conv_post)
    if block.attention is not None:
        _, x = temporal_attention(x, block.attention.kernel, block.attention.bias)
    return ad.relu(s + x)


def blstm_composite(layer, x):
    """`BlstmLayer.__call__` inline, each direction in a buffer of its own
    and the layer's output a concatenated copy."""
    return ad.concat([layer.fwd(x, reverse=False), layer.bwd(x, reverse=True)], axis=-1)


# The block widths of the benchmark's network: C = 64 channels, 4 scales.
CENSUS_CONFIG = tiny_config(n_mels=8, channels=64, n_scales=4, hidden=64)


class TestMcbBlock:
    @pytest.mark.parametrize("batch", [(), (2,)])
    @pytest.mark.parametrize("variant", [dict(), dict(use_temporal_attention=False),
                                         dict(n_scales=1), dict(n_scales=4)])
    def test_train_pass_matches_the_composition(self, variant, batch):
        """Output, input gradient, every parameter gradient and the running
        statistics, byte for byte."""
        cfg = tiny_config(n_mels=4, channels=8, **variant)
        s0 = np.random.default_rng(65).standard_normal(batch + (9, 8))
        w = Tensor(np.random.default_rng(66).standard_normal(batch + (9, 8)))
        runs = []
        for call in (McbBlock.__call__, mcb_composite):
            block = McbBlock("b", cfg, 1, np.random.default_rng(67))
            leaf = Tensor(s0.copy(), requires_grad=True)
            out = call(block, leaf * 1.0, "train")
            ad.tsum(out * w).backward()
            runs.append([out.data, leaf.grad]
                        + [owner.grad if attr == "data" else getattr(owner, attr)
                           for _, owner, attr in named_arrays(block)])
        for i, (got, want) in enumerate(zip(*runs)):
            assert_same_bits(got, want, str(i))

    def test_taped_block_keeps_fewer_arrays(self):
        """A train-mode block at B = 4 keeps about 6.7 input-sized arrays for
        backward, the composition 9.4: no second copy of the scale outputs,
        no gated map and no sum before the ReLU."""
        block = McbBlock("b", CENSUS_CONFIG, 0, np.random.default_rng(68))
        s = Tensor(np.random.default_rng(69).standard_normal((4, 100, 64)), requires_grad=True)
        array = s.data.nbytes
        fused = kept_bytes(lambda: block(s, "train"))
        composed = kept_bytes(lambda: mcb_composite(block, s, "train"))
        assert fused < 6.9 * array, fused / array
        assert composed - fused > 2.6 * array, (composed - fused) / array

    def test_forward_matches_manual_composition(self):
        """Recompute the block output step by step from its own parameters."""
        cfg = tiny_config(n_mels=4, channels=8, n_scales=2)
        rng = np.random.default_rng(3)
        block = McbBlock("b", cfg, 0, np.random.default_rng(5))
        s = rng.standard_normal((6, 8))

        def conv(layer, v):
            return ad.conv1d_dilated(Tensor(v), layer.kernel, layer.bias,
                                     layer.dilation).data

        def bn_eval(layer, v):
            xhat = (v - layer.running_mean) / np.sqrt(layer.running_var + 1e-5)
            return layer.gamma.data * xhat + layer.beta.data

        p = np.maximum(bn_eval(block.bn_pre, conv(block.conv_pre, s)), 0.0)
        s1, s2 = p[:, :4], p[:, 4:]
        s2p = conv(block.scale_convs[0], s2)
        fused = np.concatenate([s1, s2p], axis=1)
        x = bn_eval(block.bn_post, conv(block.conv_post, fused))
        means = x.mean(axis=1, keepdims=True)
        maxes = x.max(axis=1, keepdims=True)
        stats = np.concatenate([means, maxes], axis=1)
        gate = ad.conv1d_dilated(Tensor(stats), block.attention.kernel,
                                 block.attention.bias, dilation=1).data
        a = 1.0 / (1.0 + np.exp(-gate))
        expected = np.maximum(s + a * x, 0.0)

        got = block(Tensor(s), mode="eval").data
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_hierarchical_scale_coupling(self):
        """Subset j of the split must influence fused subsets j and above
        but never the ones below it."""
        cfg = tiny_config(n_mels=4, channels=8, n_scales=4,
                          use_temporal_attention=False)
        block = McbBlock("b", cfg, 0, np.random.default_rng(6))
        # Remove the pre/post mixing so the split structure is observable.
        for conv in (block.conv_pre, block.conv_post):
            conv.kernel.data[:] = 0.0
            conv.kernel.data[conv.kernel.data.shape[0] // 2] = np.eye(8)
            conv.bias.data[:] = 0.0
        for bn in (block.bn_pre, block.bn_post):
            bn.running_mean[:] = 0.0
            bn.running_var[:] = 1.0 - 1e-5
        base = np.full((5, 8), 0.3)
        ref = block(Tensor(base), mode="eval").data
        bumped = base.copy()
        bumped[:, 4:6] += 1.0  # subset index 2 of 4 (channels 4, 5)
        out = block(Tensor(bumped), mode="eval").data
        delta = np.abs(out - ref).sum(axis=0)
        assert np.all(delta[:4] == np.abs(bumped - base).sum(axis=0)[:4])  # residual only
        assert delta[4:6].sum() > 0.0
        assert delta[6:8].sum() > 0.0  # flows into the next subset

    def test_residual_dominates_with_zeroed_post_conv(self):
        cfg = tiny_config(n_mels=4, channels=8, n_scales=2)
        block = McbBlock("b", cfg, 0, np.random.default_rng(7))
        block.conv_post.kernel.data[:] = 0.0
        block.conv_post.bias.data[:] = 0.0
        block.bn_post.beta.data[:] = 0.0  # BN of zeros stays zero in eval
        s = np.abs(np.random.default_rng(8).standard_normal((5, 8)))
        out = block(Tensor(s), mode="eval").data
        np.testing.assert_allclose(out, s, atol=1e-12)

    def test_single_scale_variant_runs(self):
        cfg = tiny_config(n_mels=4, channels=8, n_scales=1)
        block = McbBlock("b", cfg, 0, np.random.default_rng(9))
        assert block.scale_convs == []
        out = block(Tensor(np.random.default_rng(10).standard_normal((5, 8))), "eval")
        assert out.data.shape == (5, 8)


def lstm_per_step(x, w_x, w_h, bias, reverse):
    """Reference LSTM direction built from elementary tape ops, one frame
    at a time (about a dozen graph nodes per frame); `ad.lstm` must match
    it on the output and on every gradient."""
    t_len = x.shape[0]
    h_dim = w_h.shape[0]
    xw = x @ w_x
    h = Tensor(np.zeros((1, h_dim)))
    c = Tensor(np.zeros((1, h_dim)))
    outs = [None] * t_len
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in steps:
        pre = narrow(xw, 0, t, 1) + (h @ w_h) + bias
        gi = ad.sigmoid(narrow(pre, 1, 0, h_dim))
        gf = ad.sigmoid(narrow(pre, 1, h_dim, h_dim))
        gc = ad.tanh(narrow(pre, 1, 2 * h_dim, h_dim))
        go = ad.sigmoid(narrow(pre, 1, 3 * h_dim, h_dim))
        c = gf * c + gi * gc
        h = go * ad.tanh(c)
        outs[t] = h
    return ad.concat(outs, axis=0)


def lstm_forward_reference(x, w_x, w_h, bias, reverse):
    """Reference forward pass of `ad.lstm` on arrays: the plain per-step
    loop, evaluating each sigmoid gate as 1 / (1 + exp(-pre)) on its own
    slice. The fused op must reproduce its output bit for bit."""
    h_dim = w_h.shape[0]
    t_len, d_in = x.shape[-2:]
    n = math.prod(x.shape[:-2])
    xs = x[..., ::-1, :] if reverse else x
    pre_x = (xs.reshape(n * t_len, d_in) @ w_x + bias).reshape(n, t_len, 4 * h_dim)
    pre_x = np.ascontiguousarray(pre_x.swapaxes(0, 1))
    i_f, c_sl, o_sl = slice(0, 2 * h_dim), slice(2 * h_dim, 3 * h_dim), slice(3 * h_dim, None)
    gates = np.empty((t_len, n, 4 * h_dim))
    hs = np.empty((t_len, n, h_dim))
    h = np.zeros((n, h_dim))
    c = np.zeros((n, h_dim))
    for t in range(t_len):
        pre = pre_x[t] + h @ w_h
        g = gates[t]
        g[:, i_f] = 1.0 / (1.0 + np.exp(-pre[:, i_f]))
        g[:, c_sl] = np.tanh(pre[:, c_sl])
        g[:, o_sl] = 1.0 / (1.0 + np.exp(-pre[:, o_sl]))
        c = g[:, h_dim : 2 * h_dim] * c + g[:, :h_dim] * g[:, c_sl]
        h = g[:, o_sl] * np.tanh(c)
        hs[t] = h
    return (hs[::-1] if reverse else hs).swapaxes(0, 1).reshape(x.shape[:-1] + (h_dim,))


def batched_lstm_per_step(x, w_x, w_h, bias, reverse):
    """`lstm_per_step` run on each row of a B x T x Din input."""
    rows = [lstm_per_step(narrow(x, 0, b, 1).reshape(*x.shape[1:]), w_x, w_h, bias,
                          reverse) for b in range(x.shape[0])]
    return ad.concat([r.reshape(1, *r.shape) for r in rows], axis=0)


def saturated_lstm_values(rng, batch, t_len, hidden, sigmoid_sign):
    """Inputs that drive the first half of the units to |pre| of about
    800 (sigmoid gates at sign(sigmoid_sign) * 800, the cell gate at
    either sign) and leave the second half moderate."""
    d_in = 2
    x = np.stack([np.ones((batch, t_len)),
                  rng.standard_normal((batch, t_len))], axis=-1)
    w_x = 0.5 * rng.standard_normal((d_in, 4 * hidden))
    w_h = 0.5 * rng.standard_normal((hidden, 4 * hidden))
    bias = rng.standard_normal(4 * hidden)
    half = hidden // 2
    for gate in range(4):
        cols = slice(gate * hidden, gate * hidden + half)
        w_x[1, cols] = 0.0
        if gate == 2:
            w_x[0, cols] = 800.0 * rng.choice([-1.0, 1.0], half)
        else:
            w_x[0, cols] = 800.0 * sigmoid_sign
    return [x, w_x, w_h, bias]


class TestLstm:
    @staticmethod
    def _scalar_reference(x_seq, w_x, w_h, b):
        """One-unit LSTM unrolled with plain floats."""
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        h = c = 0.0
        outs = []
        for x in x_seq:
            pre = [x * w_x[g] + h * w_h[g] + b[g] for g in range(4)]
            gi, gf = sig(pre[0]), sig(pre[1])
            gc, go = math.tanh(pre[2]), sig(pre[3])
            c = gf * c + gi * gc
            h = go * math.tanh(c)
            outs.append(h)
        return outs

    def test_matches_scalar_unroll(self):
        rng = np.random.default_rng(11)
        cell = LstmDirection("l", 1, 1, rng)
        x_seq = [0.5, -1.0, 2.0, 0.0]
        w_x = cell.w_x.data[0]
        w_h = cell.w_h.data[0]
        b = cell.bias.data
        ref = self._scalar_reference(x_seq, w_x, w_h, b)
        got = cell(Tensor(np.array(x_seq)[:, None]), reverse=False).data[:, 0]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_reverse_direction_mirrors_forward(self):
        rng = np.random.default_rng(12)
        cell = LstmDirection("l", 2, 3, rng)
        x = rng.standard_normal((7, 2))
        fwd_on_flipped = cell(Tensor(x[::-1].copy()), reverse=False).data
        bwd = cell(Tensor(x), reverse=True).data
        np.testing.assert_allclose(bwd, fwd_on_flipped[::-1], atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        cell = LstmDirection("l", 2, 4, np.random.default_rng(13))
        np.testing.assert_array_equal(cell.bias.data[4:8], 1.0)
        np.testing.assert_array_equal(cell.bias.data[:4], 0.0)
        np.testing.assert_array_equal(cell.bias.data[8:], 0.0)

    def test_blstm_concatenates_directions(self):
        rng = np.random.default_rng(14)
        layer = BlstmLayer("bl", 2, 3, rng)
        x = rng.standard_normal((5, 2))
        out = layer(Tensor(x)).data
        assert out.shape == (5, 6)
        np.testing.assert_allclose(out[:, :3], layer.fwd(Tensor(x), False).data)
        np.testing.assert_allclose(out[:, 3:], layer.bwd(Tensor(x), True).data)

    def test_single_frame_sequence(self):
        layer = BlstmLayer("bl", 2, 3, np.random.default_rng(15))
        out = layer(Tensor(np.ones((1, 2)))).data
        assert out.shape == (1, 6)

    def test_residual_blstm_passthrough_when_projection_zeroed(self):
        rng = np.random.default_rng(16)
        rb = ResidualBlstm("rb", 4, 3, 0.0, rng)
        rb.proj.weight.data[:] = 0.0
        rb.proj.bias.data[:] = 0.0
        x = rng.standard_normal((6, 4))
        np.testing.assert_allclose(rb(Tensor(x), "eval").data, x, atol=1e-12)

    def test_taped_residual_blstm_keeps_fewer_arrays(self, monkeypatch):
        """Train mode at B = 4 with C = H = 64: the layer outputs are the
        directions' own buffers and dropout keeps booleans, so the block
        keeps 27.0 input-sized arrays for backward, the composition 33.0
        (the keep mask, made by the caller, not counted)."""
        rb = ResidualBlstm("rb", 64, 64, 0.2, np.random.default_rng(70))
        x = Tensor(np.random.default_rng(71).standard_normal((4, 100, 64)), requires_grad=True)
        keep = np.random.default_rng(72).random((4, 100, 128)) >= 0.2
        array = x.data.nbytes
        fused = kept_bytes(lambda: rb(x, "train", keep))
        monkeypatch.setattr(BlstmLayer, "__call__", blstm_composite)
        monkeypatch.setattr(ad, "dropout", dropout_composite)
        composed = kept_bytes(lambda: rb(x, "train", keep))
        assert fused < 29.5 * array, fused / array
        assert composed - fused > 5.5 * array, (composed - fused) / array

    def test_taped_blstm_backward_peak(self):
        """A BLSTM layer's backward at B = 4, T = 198, C = H = 64 (the
        benchmark's crops) allocates at most 4.5 inputs' worth above what
        it starts with: each direction writes its factors over its gates,
        lets its cell states go once tanh(c) is taken, and lets the
        time-major pre-activation gradient go once its batch-major copy is
        made. With the factors in buffers of their own it peaked at 10.7."""
        layer = BlstmLayer("bl", 64, 64, np.random.default_rng(85))
        data = np.random.default_rng(86).standard_normal((4, 198, 64))
        w = Tensor(np.random.default_rng(87).standard_normal((4, 198, 128)))
        tracemalloc.start()
        try:
            loss = ad.tsum(layer(ad.as_tensor(data) * 1.0) * w)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / data.nbytes < 4.5, (peak - start) / data.nbytes

    def test_gradient_through_lstm(self):
        rng = np.random.default_rng(17)
        cell = LstmDirection("l", 2, 2, rng)
        f = lambda x: ad.tsum(cell(x, reverse=False) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((4, 2)))) < 1e-4

    def test_gradient_through_reverse_lstm(self):
        rng = np.random.default_rng(33)
        cell = LstmDirection("l", 2, 2, rng)
        f = lambda x: ad.tsum(cell(x, reverse=True) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((4, 2)))) < 1e-4

    def test_gradient_wrt_recurrent_weights(self):
        rng = np.random.default_rng(34)
        cell = LstmDirection("l", 2, 2, rng)
        x = Tensor(rng.standard_normal((5, 2)))
        f = lambda w_h: ad.tsum(ad.lstm(x, cell.w_x, w_h, cell.bias, reverse=True) ** 2)
        assert grad_check(f, cell.w_h) < 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 50])
    def test_fused_op_matches_per_step_oracle(self, t_len, reverse):
        rng = np.random.default_rng(35)
        d_in, hidden = 3, 4
        values = [rng.standard_normal((t_len, d_in)),
                  0.5 * rng.standard_normal((d_in, 4 * hidden)),
                  0.5 * rng.standard_normal((hidden, 4 * hidden)),
                  rng.standard_normal(4 * hidden)]
        weights = Tensor(rng.standard_normal((t_len, hidden)))
        results = []
        for op in (lstm_per_step, ad.lstm):
            inputs = [Tensor(v.copy(), requires_grad=True) for v in values]
            out = op(*inputs, reverse)
            ad.tsum(out * weights).backward()
            results.append([out.data] + [t.grad for t in inputs])
        for name, ref, got in zip(("out", "x", "w_x", "w_h", "bias"), *results):
            assert got.shape == ref.shape, name
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=name)


    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 50])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_bit_identical_to_reference_loop(self, batch, t_len, reverse):
        rng = np.random.default_rng(36)
        d_in, hidden = 3, 5
        x = rng.standard_normal((batch, t_len, d_in))
        w_x = 0.5 * rng.standard_normal((d_in, 4 * hidden))
        w_h = 0.5 * rng.standard_normal((hidden, 4 * hidden))
        bias = rng.standard_normal(4 * hidden)
        got = ad.lstm(Tensor(x), Tensor(w_x), Tensor(w_h), Tensor(bias), reverse).data
        want = lstm_forward_reference(x, w_x, w_h, bias, reverse)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 50])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_tape_free_bit_identical_to_taped(self, batch, t_len, reverse):
        """Without a backward to follow (under no_grad, or with no input
        requiring grad) the op keeps one step's caches; the output bits
        are those of the taped op that keeps all of them."""
        rng = np.random.default_rng(40)
        d_in, hidden = 3, 5
        values = [rng.standard_normal((batch, t_len, d_in)),
                  0.5 * rng.standard_normal((d_in, 4 * hidden)),
                  0.5 * rng.standard_normal((hidden, 4 * hidden)),
                  rng.standard_normal(4 * hidden)]
        taped = ad.lstm(*(Tensor(v, requires_grad=True) for v in values), reverse)
        assert taped.requires_grad
        with ad.no_grad():
            free = ad.lstm(*(Tensor(v, requires_grad=True) for v in values), reverse)
        plain = ad.lstm(*(Tensor(v) for v in values), reverse)
        assert np.array_equal(free.data, taped.data)
        assert np.array_equal(plain.data, taped.data)

    @staticmethod
    def _lstm_peak_bytes(requires_grad, t_len, hidden):
        rng = np.random.default_rng(41)
        values = [rng.standard_normal((1, t_len, 4)),
                  0.5 * rng.standard_normal((4, 4 * hidden)),
                  0.5 * rng.standard_normal((hidden, 4 * hidden)),
                  rng.standard_normal(4 * hidden)]
        inputs = [Tensor(v, requires_grad=requires_grad) for v in values]
        tracemalloc.start()
        try:
            out = ad.lstm(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out

    def test_tape_free_allocates_no_step_caches(self):
        """At T = 500 a tape-free call holds the T x 4H input projection
        and the T x H output (1.25 T x 4H arrays); the taped call keeps
        the projection, overwritten by the gates, the output and one T x H
        cell cache (1.5), and neither a second T x 4H array nor tanh(c)."""
        t_len, hidden = 500, 64
        projection = t_len * 4 * hidden * 8
        with ad.no_grad():
            free, out = self._lstm_peak_bytes(True, t_len, hidden)
        assert out.data.shape == (1, t_len, hidden)
        assert free < 1.5 * projection, free / projection
        taped, _ = self._lstm_peak_bytes(True, t_len, hidden)
        assert taped <= 1.6 * projection, taped / projection

    @staticmethod
    def _outputs_and_grads(op, values, weights, reverse):
        inputs = [Tensor(v.copy(), requires_grad=True) for v in values]
        out = op(*inputs, reverse)
        ad.tsum(out * weights).backward()
        return [out.data] + [t.grad for t in inputs]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("t_len", [1, 2, 50])
    def test_batched_bptt_matches_per_step_oracle(self, t_len, reverse):
        rng = np.random.default_rng(37)
        batch, d_in, hidden = 3, 3, 4
        values = [rng.standard_normal((batch, t_len, d_in)),
                  0.5 * rng.standard_normal((d_in, 4 * hidden)),
                  0.5 * rng.standard_normal((hidden, 4 * hidden)),
                  rng.standard_normal(4 * hidden)]
        weights = Tensor(rng.standard_normal((batch, t_len, hidden)))
        ref = self._outputs_and_grads(batched_lstm_per_step, values, weights, reverse)
        got = self._outputs_and_grads(ad.lstm, values, weights, reverse)
        for name, r, g in zip(("out", "x", "w_x", "w_h", "bias"), ref, got):
            assert g.shape == r.shape, name
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("sigmoid_sign", [1.0, -1.0])
    def test_saturated_gates(self, sigmoid_sign, reverse):
        """|pre| of about 800: exp overflows to inf on one side. The output
        stays finite and bit-identical to the reference loop, and the
        gradients match the per-step oracle."""
        rng = np.random.default_rng(38)
        values = saturated_lstm_values(rng, 3, 20, 6, sigmoid_sign)
        weights = Tensor(rng.standard_normal((3, 20, 6)))
        with np.errstate(over="ignore"):  # the oracles overflow in exp(-pre)
            want = lstm_forward_reference(*values, reverse)
            ref = self._outputs_and_grads(batched_lstm_per_step, values, weights, reverse)
        got = self._outputs_and_grads(ad.lstm, values, weights, reverse)
        assert np.all(np.isfinite(got[0]))
        assert np.array_equal(got[0], want)
        for name, r, g in zip(("out", "x", "w_x", "w_h", "bias"), ref, got):
            assert np.all(np.isfinite(g)), name
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)

    def test_saturated_forward_warns_no_more_than_reference(self):
        """Sigmoid gates at +800 and cell gates at +-800: the reference
        loop evaluates exp(-800) and tanh, which raise no warning, so the
        fused forward must not raise one either (exp(+800) on the cell
        columns would overflow)."""
        rng = np.random.default_rng(39)
        values = saturated_lstm_values(rng, 2, 10, 6, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want = lstm_forward_reference(*values, False)
            got = ad.lstm(*(Tensor(v) for v in values), False).data
        assert np.array_equal(got, want)


class TestAttentivePooling:
    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(18)
        pool = AttentiveStatPool("p", 3, 4, rng)
        h = rng.standard_normal((6, 3))
        scores = np.tanh(h @ pool.score1.weight.data + pool.score1.bias.data)
        scores = scores @ pool.score2.weight.data + pool.score2.bias.data
        e = np.exp(scores - scores.max(axis=0))
        alpha = e / e.sum(axis=0)
        mu = (alpha * h).sum(axis=0)
        var = (alpha * h * h).sum(axis=0) - mu**2
        sd = np.sqrt(np.maximum(var, 1e-9))
        expected = np.concatenate([mu, sd])
        np.testing.assert_allclose(pool(Tensor(h)).data, expected, atol=1e-10)

    def test_uniform_attention_reduces_to_weighted_moments(self):
        rng = np.random.default_rng(19)
        pool = AttentiveStatPool("p", 3, 4, rng)
        pool.score1.weight.data[:] = 0.0
        pool.score2.weight.data[:] = 0.0
        pool.score2.bias.data[:] = 0.0
        h = rng.standard_normal((10, 3))
        out = pool(Tensor(h)).data
        np.testing.assert_allclose(out[:3], h.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out[3:], h.std(axis=0), atol=1e-9)

    def test_constant_input_hits_variance_floor(self):
        pool = AttentiveStatPool("p", 2, 4, np.random.default_rng(20))
        out = pool(Tensor(np.full((5, 2), 1.5))).data
        np.testing.assert_allclose(out[:2], 1.5, atol=1e-9)
        np.testing.assert_allclose(out[2:], np.sqrt(1e-9), rtol=1e-3)

    def test_single_frame_rejected(self):
        pool = AttentiveStatPool("p", 2, 4, np.random.default_rng(21))
        with pytest.raises(InputTooShort):
            pool(Tensor(np.ones((1, 2))))

    def test_gradient(self):
        rng = np.random.default_rng(22)
        pool = AttentiveStatPool("p", 2, 3, rng)
        f = lambda x: ad.tsum(pool(x) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((5, 2)))) < 1e-4


class TestAamLogits:
    def test_arccos_oracle(self):
        rng = np.random.default_rng(23)
        emb = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        got = aam_logits(Tensor(emb), Tensor(w), 1, 0.2, 30.0).data
        for c in range(3):
            theta = math.acos(np.clip(
                emb @ w[c] / (np.linalg.norm(emb) * np.linalg.norm(w[c])), -1, 1))
            expect = 30.0 * math.cos(theta + (0.2 if c == 1 else 0.0))
            assert got[c] == pytest.approx(expect, abs=1e-9)

    def test_zero_margin_is_scaled_cosine(self):
        rng = np.random.default_rng(24)
        emb = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        got = aam_logits(Tensor(emb), Tensor(w), 0, 0.0, 10.0).data
        cos = w @ emb / (np.linalg.norm(w, axis=1) * np.linalg.norm(emb))
        np.testing.assert_allclose(got, 10.0 * cos, atol=1e-10)

    def test_aligned_target_gets_cos_of_margin(self):
        emb = np.array([2.0, 0.0])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = aam_logits(Tensor(emb), Tensor(w), 0, 0.2, 30.0).data
        # The sin term is floored away from zero, costing a few 1e-6.
        assert got[0] == pytest.approx(30.0 * math.cos(0.2), abs=1e-4)
        assert got[1] == pytest.approx(0.0, abs=1e-9)

    def test_margin_penalizes_target_logit(self):
        rng = np.random.default_rng(25)
        emb = rng.standard_normal(6)
        w = rng.standard_normal((4, 6))
        plain = aam_logits(Tensor(emb), Tensor(w), 2, 0.0, 30.0).data
        margined = aam_logits(Tensor(emb), Tensor(w), 2, 0.2, 30.0).data
        assert margined[2] < plain[2]
        others = [c for c in range(4) if c != 2]
        np.testing.assert_allclose(margined[others], plain[others], atol=1e-10)

    def test_zero_embedding_rejected(self):
        with pytest.raises(DegenerateInput):
            aam_logits(Tensor(np.zeros(3)), Tensor(np.eye(3)), 0, 0.2, 30.0)

    def test_gradient(self):
        rng = np.random.default_rng(26)
        w = Tensor(rng.standard_normal((4, 5)))
        f = lambda x: ad.cross_entropy(aam_logits(x, w, 1, 0.2, 30.0), 1)
        assert grad_check(f, Tensor(rng.standard_normal(5) * 2.0)) < 1e-4


def per_crop_classify_loss(model, crops, labels, rng):
    """Reference for a batched `classify_loss`: one train-mode forward and
    backward per crop, in order, each with the dropout mask drawn for it;
    returns the summed loss."""
    total = 0.0
    for x, label in zip(crops, labels):
        loss = model.classify_loss(x, int(label), mode="train",
                                   keep=model.draw_dropout(len(x), rng))
        loss.backward()
        total += float(loss.data)
    return total


class TestBatchedModel:
    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_classify_loss_matches_per_crop_loop(self, batch):
        cfg = tiny_config()
        rng = np.random.default_rng(40)
        crops = rng.standard_normal((batch, 12, cfg.n_mels))
        labels = rng.integers(0, cfg.n_classes, batch)
        ref, got = AmcrnModel(cfg, seed=2), AmcrnModel(cfg, seed=2)
        ref_rng, got_rng = np.random.default_rng(41), np.random.default_rng(41)
        want = per_crop_classify_loss(ref, crops, labels, ref_rng)
        loss = got.classify_loss(crops, labels, mode="train",
                                 keep=draw_keep(got, crops.shape, got_rng))
        loss.backward()
        assert abs(float(loss.data) - want) <= 1e-12
        for p, q in zip(ref.parameters(), got.parameters()):
            np.testing.assert_allclose(q.grad, p.grad, rtol=0, atol=1e-12, err_msg=p.name)
        # BatchNorm and VectorNorm statistics move once per crop, in order.
        for (name, o1, a1), (_, o2, a2) in zip(ref.buffers(), got.buffers()):
            np.testing.assert_allclose(getattr(o2, a2), getattr(o1, a1), rtol=0, atol=1e-12,
                                       err_msg=name)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_eval_embedding_rows_match_single_calls(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=3)
        x = np.random.default_rng(42).standard_normal((3, 10, cfg.n_mels))
        stacked = model.embed_tensor(x, mode="eval").data
        assert stacked.shape == (3, cfg.embedding_dim)
        for b in range(3):
            np.testing.assert_allclose(stacked[b], model.embed(x[b]), rtol=0, atol=1e-12)

    def test_pooling_grad_check(self):
        rng = np.random.default_rng(43)
        pool = AttentiveStatPool("p", 3, 4, rng)
        w = Tensor(rng.standard_normal((2, 6)))
        f = lambda x: ad.tsum(pool(x) * w)
        assert grad_check(f, Tensor(rng.standard_normal((2, 5, 3)))) < 1e-4

    def test_aam_cross_entropy_grad_check(self):
        rng = np.random.default_rng(44)
        w = Tensor(rng.standard_normal((4, 5)))
        labels = np.array([1, 3, 1])
        f = lambda x: ad.cross_entropy(aam_logits(x, w, labels, 0.2, 30.0), labels)
        assert grad_check(f, Tensor(2.0 * rng.standard_normal((3, 5)))) < 1e-4
        emb = Tensor(rng.standard_normal((3, 5)))
        g = lambda v: ad.cross_entropy(aam_logits(emb, v, labels, 0.2, 30.0), labels)
        assert grad_check(g, w) < 1e-4

    def test_aam_rows_match_single_calls(self):
        rng = np.random.default_rng(45)
        emb = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 6))
        labels = [0, 2, 3]
        got = aam_logits(Tensor(emb), Tensor(w), labels, 0.2, 30.0).data
        for b in range(3):
            np.testing.assert_allclose(got[b], aam_logits(Tensor(emb[b]), Tensor(w), labels[b],
                                                          0.2, 30.0).data, atol=1e-12)

    def test_zero_row_in_a_stack_rejected(self):
        emb = np.ones((2, 3))
        emb[1] = 0.0
        with pytest.raises(DegenerateInput):
            aam_logits(Tensor(emb), Tensor(np.eye(3)), [0, 1], 0.2, 30.0)

    def test_skeleton_draws_nothing_and_matches_shapes(self):
        cfg = tiny_config()
        built = AmcrnModel(cfg, seed=0)
        bare = AmcrnModel.skeleton(cfg)
        assert [p.name for p in bare.parameters()] == [p.name for p in built.parameters()]
        for p, q in zip(bare.parameters(), built.parameters()):
            assert p.data.shape == q.data.shape
            if p.name.endswith(("kernel", "weight", "w_x", "w_h")):  # the sampled ones
                assert not p.data.any(), p.name


class TestFullModel:
    @pytest.mark.parametrize("t_len", [2, 7, 200])
    def test_embedding_shape_for_varied_lengths(self, t_len):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=0)
        x = np.random.default_rng(27).standard_normal((t_len, cfg.n_mels))
        emb = model.embed(x)
        assert emb.shape == (cfg.embedding_dim,)
        assert np.all(np.isfinite(emb))

    def test_eval_embedding_deterministic(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=0)
        x = np.random.default_rng(28).standard_normal((12, cfg.n_mels))
        np.testing.assert_array_equal(model.embed(x), model.embed(x))

    def test_wrong_feature_width_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model.embed(np.zeros((10, 5)))

    def test_classify_loss_backward_touches_all_parameters(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=1)
        x = np.random.default_rng(29).standard_normal((8, cfg.n_mels))
        loss = model.classify_loss(x, 2, mode="train",
                                   keep=draw_keep(model, x.shape, np.random.default_rng(0)))
        loss.backward()
        missing = [p.name for p in model.parameters() if p.grad is None]
        assert missing == []

    def test_fused_conv_batch_norm_keeps_the_training_bits(self, monkeypatch):
        """A train-mode pass through the three fused convolution + BatchNorm
        sites gives the loss, gradients and running statistics of the same
        pass with each convolution a conv1d_dilated node of its own. The
        normalization then runs behind a 1 x 1 identity convolution, which
        changes no bits."""
        fused = ad.conv_batch_norm

        def unfused(x, kernel, bias, dilation, gamma, beta, eps, relu=False, stats=None):
            c = ad.conv1d_dilated(x, kernel, bias, dilation)
            width = c.shape[-1]
            return fused(c, np.eye(width)[None], np.zeros(width), 1, gamma, beta, eps, relu,
                         stats)

        cfg = tiny_config()
        x = np.random.default_rng(33).standard_normal((2, 9, cfg.n_mels))
        runs = []
        for op in (fused, unfused):
            monkeypatch.setattr(ad, "conv_batch_norm", op)
            model = AmcrnModel(cfg, seed=2)
            loss = model.classify_loss(x, [1, 3], mode="train",
                                       keep=draw_keep(model, x.shape, np.random.default_rng(0)))
            loss.backward()
            runs.append([loss.data] + [p.grad for p in model.parameters()]
                        + [getattr(owner, attr) for _, owner, attr in model.buffers()])
        for i, (got, want) in enumerate(zip(*runs)):
            assert got.tobytes() == want.tobytes(), i

    @pytest.mark.parametrize("shape", [(9,), (2, 9)])
    def test_fused_blocks_keep_the_training_bits(self, monkeypatch, shape):
        """A train-mode pass with the fused MCB blocks, BLSTM layers and
        dropout gives the loss, the feature and parameter gradients and
        the running statistics of the elementary-node compositions."""
        cfg = tiny_config()
        feats = np.random.default_rng(73).standard_normal(shape + (cfg.n_mels,))
        labels = [1, 3] if len(shape) > 1 else 2
        runs = []
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(McbBlock, "__call__", mcb_composite)
                monkeypatch.setattr(BlstmLayer, "__call__", blstm_composite)
                monkeypatch.setattr(ad, "dropout", dropout_composite)
            model = AmcrnModel(cfg, seed=4)
            x = Tensor(feats.copy(), requires_grad=True)
            loss = model.classify_loss(x, labels, mode="train",
                                       keep=draw_keep(model, x.shape, np.random.default_rng(5)))
            loss.backward()
            runs.append([loss.data, x.grad] + [p.grad for p in model.parameters()]
                        + [getattr(owner, attr) for _, owner, attr in model.buffers()])
        for i, (got, want) in enumerate(zip(*runs)):
            assert_same_bits(got, want, str(i))

    @pytest.mark.parametrize("variant", [
        dict(use_temporal_attention=False),
        dict(use_blstm=False),
        dict(mcb_dilations=(1, 1, 1)),
        dict(n_scales=1),
        dict(use_temporal_attention=False, use_blstm=False, mcb_dilations=(1, 1, 1),
             n_scales=1),
    ])
    def test_ablation_variants_run(self, variant):
        cfg = tiny_config(**variant)
        model = AmcrnModel(cfg, seed=0)
        x = np.random.default_rng(30).standard_normal((9, cfg.n_mels))
        emb = model.embed(x)
        assert np.all(np.isfinite(emb))

    @pytest.mark.parametrize("scales", [2, 4, 8, 16, 32])
    def test_scale_sweep_runs(self, scales):
        cfg = tiny_config(channels=32, n_scales=scales)
        model = AmcrnModel(cfg, seed=0)
        emb = model.embed(np.random.default_rng(31).standard_normal((6, cfg.n_mels)))
        assert np.all(np.isfinite(emb))

    def test_ablations_change_parameter_count(self):
        full = AmcrnModel(tiny_config(), seed=0).n_params(include_head=False)
        no_blstm = AmcrnModel(tiny_config(use_blstm=False), seed=0).n_params(include_head=False)
        no_ta = AmcrnModel(tiny_config(use_temporal_attention=False), seed=0).n_params(include_head=False)
        assert no_blstm < full and no_ta < full

    def test_transpose_gradient(self):
        rng = np.random.default_rng(32)
        w = Tensor(rng.standard_normal((5, 4)))
        f = lambda x: ad.tsum((ad.transpose(x) @ w) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((5, 3)))) < 1e-4


class TestTapeFreeEmbed:
    """`embed` runs under `no_grad`; the taped eval-mode pass is its oracle."""

    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        tiny_config(n_mels=80, channels=64, n_scales=4, hidden=64, embedding_dim=256),
    ], ids=["tiny", "acceptance"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_bit_identical_to_taped_pass(self, cfg, batch):
        model = AmcrnModel(cfg, seed=7)
        x = np.random.default_rng(44).standard_normal(batch + (30, cfg.n_mels))
        taped = model.embed_tensor(x, mode="eval")
        assert taped._parents  # the oracle does build a tape
        got = model.embed(x)
        assert got.shape == batch + (cfg.embedding_dim,)
        np.testing.assert_array_equal(got, taped.data)

    def test_no_intermediate_outlives_the_pass(self, monkeypatch):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=8)
        x = np.random.default_rng(45).standard_normal((12, cfg.n_mels))
        refs = []
        conv_batch_norm = ad.conv_batch_norm

        def recording(*args, **kwargs):
            out = conv_batch_norm(*args, **kwargs)
            refs.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(ad, "conv_batch_norm", recording)
        gc.disable()  # reference counting alone must free the graph
        try:
            taped = model.embed_tensor(x, mode="eval")
            assert any(r() is not None for r in refs)  # held by the tape
            del taped
            refs.clear()
            with ad.no_grad():
                emb = model.embed_tensor(x, mode="eval")
            assert emb._parents == () and emb._backward is None
            assert refs and all(r() is None for r in refs)
            refs.clear()
            model.embed(x)
            assert refs and all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_gradients_flow_after_a_failed_pass(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=9)
        rng = np.random.default_rng(46)
        with pytest.raises(InputTooShort):
            model.embed(rng.standard_normal((1, cfg.n_mels)))
        x = rng.standard_normal((8, cfg.n_mels))
        loss = model.classify_loss(x, 1, mode="train",
                                   keep=draw_keep(model, x.shape, np.random.default_rng(0)))
        loss.backward()
        assert [p.name for p in model.parameters() if p.grad is None] == []
