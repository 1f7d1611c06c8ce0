"""Network component tests: hand oracles for attention, pooling, the
multi-scale block, the BLSTM, and the margin-softmax head."""

import math

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn.autodiff import Tensor, grad_check
from amcrn.errors import ConfigError, DegenerateInput, InputTooShort, ShapeError
from amcrn.model import (AmcrnConfig, AmcrnModel, AttentiveStatPool, BlstmLayer,
                         Conv1d, LstmDirection, McbBlock, ResidualBlstm,
                         aam_logits, temporal_attention, tiny_config, transpose)


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = AmcrnConfig()
        assert cfg.mcb_channels == (512, 512, 512)
        assert cfg.mcb_dilations == (2, 3, 4)
        assert cfg.blstm_hidden == 450
        assert cfg.pool_bottleneck == 128
        assert cfg.embedding_dim == 256
        assert cfg.aam_margin == 0.2 and cfg.aam_scale == 30.0

    def test_indivisible_scales_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(channels=10, n_scales=4)

    def test_mismatched_block_lists_rejected(self):
        with pytest.raises(ConfigError):
            AmcrnConfig(mcb_channels=(512, 512))

    def test_text_round_trip(self):
        cfg = tiny_config(n_scales=4, channels=32, standard_conv=True)
        again = AmcrnConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_standard_conv_forces_dilation_one(self):
        cfg = tiny_config(standard_conv=True)
        assert [cfg.dilation(i) for i in range(3)] == [1, 1, 1]
        assert [tiny_config().dilation(i) for i in range(3)] == [2, 3, 4]


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


class TestMcbBlock:
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
        pre = ad.narrow(xw, 0, t, 1) + (h @ w_h) + bias
        gi = ad.sigmoid(ad.narrow(pre, 1, 0, h_dim))
        gf = ad.sigmoid(ad.narrow(pre, 1, h_dim, h_dim))
        gc = ad.tanh(ad.narrow(pre, 1, 2 * h_dim, h_dim))
        go = ad.sigmoid(ad.narrow(pre, 1, 3 * h_dim, h_dim))
        c = gf * c + gi * gc
        h = go * ad.tanh(c)
        outs[t] = h
    return ad.concat(outs, axis=0)


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
    backward per crop, in order; returns the summed loss."""
    total = 0.0
    for x, label in zip(crops, labels):
        loss = model.classify_loss(x, int(label), mode="train", rng=rng)
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
        loss = got.classify_loss(crops, labels, mode="train", rng=got_rng)
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
            np.testing.assert_allclose(stacked[b], model.embed(x[b]).values, rtol=0, atol=1e-12)

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
        assert emb.values.shape == (cfg.embedding_dim,)
        assert np.all(np.isfinite(emb.values))

    def test_eval_embedding_deterministic(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=0)
        x = np.random.default_rng(28).standard_normal((12, cfg.n_mels))
        np.testing.assert_array_equal(model.embed(x).values, model.embed(x).values)

    def test_wrong_feature_width_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model.embed(np.zeros((10, 5)))

    def test_classify_loss_backward_touches_all_parameters(self):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=1)
        x = np.random.default_rng(29).standard_normal((8, cfg.n_mels))
        loss = model.classify_loss(x, 2, mode="train",
                                   rng=np.random.default_rng(0))
        loss.backward()
        missing = [p.name for p in model.parameters() if p.grad is None]
        assert missing == []

    @pytest.mark.parametrize("variant", [
        dict(use_temporal_attention=False),
        dict(use_blstm=False),
        dict(standard_conv=True),
        dict(n_scales=1),
        dict(use_temporal_attention=False, use_blstm=False, standard_conv=True,
             n_scales=1),
    ])
    def test_ablation_variants_run(self, variant):
        cfg = tiny_config(**variant)
        model = AmcrnModel(cfg, seed=0)
        x = np.random.default_rng(30).standard_normal((9, cfg.n_mels))
        emb = model.embed(x)
        assert np.all(np.isfinite(emb.values))

    @pytest.mark.parametrize("scales", [2, 4, 8, 16, 32])
    def test_scale_sweep_runs(self, scales):
        cfg = tiny_config(channels=32, n_scales=scales)
        model = AmcrnModel(cfg, seed=0)
        emb = model.embed(np.random.default_rng(31).standard_normal((6, cfg.n_mels)))
        assert np.all(np.isfinite(emb.values))

    def test_ablations_change_parameter_count(self):
        full = AmcrnModel(tiny_config(), seed=0).n_params(include_head=False)
        no_blstm = AmcrnModel(tiny_config(use_blstm=False), seed=0).n_params(include_head=False)
        no_ta = AmcrnModel(tiny_config(use_temporal_attention=False), seed=0).n_params(include_head=False)
        assert no_blstm < full and no_ta < full

    def test_transpose_gradient(self):
        rng = np.random.default_rng(32)
        w = Tensor(rng.standard_normal((5, 4)))
        f = lambda x: ad.tsum((transpose(x) @ w) ** 2)
        assert grad_check(f, Tensor(rng.standard_normal((5, 3)))) < 1e-4
