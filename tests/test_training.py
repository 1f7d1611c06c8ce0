"""Optimizer, schedule, toy dataset, and training loop tests."""

import numpy as np
import pytest

from amcrn.autodiff import Parameter, Tensor
from amcrn.errors import ConfigError, NumericalError
from amcrn.model import AmcrnModel, restore_model, tiny_config
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset
from amcrn.audio import AudioBuffer
from amcrn.training import (AdamState, TrainConfig, _features, _random_crop,
                            adam_step, clip_gradients, lr_schedule,
                            minibatch_backward, train, validation_loss,
                            write_history_csv)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # With bias correction, the first update is lr * g / (|g| + eps).
        p = Parameter(np.array([1.0, -2.0]), "p")
        p.grad = np.array([0.3, -0.7])
        state = AdamState([p])
        adam_step([p], state, lr=0.1)
        expect = np.array([1.0, -2.0]) - 0.1 * np.sign([0.3, -0.7]) \
            * np.abs([0.3, -0.7]) / (np.abs([0.3, -0.7]) + 1e-8)
        np.testing.assert_allclose(p.data, expect, atol=1e-9)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]), "p")
        state = AdamState([p])
        for _ in range(600):
            p.grad = 2.0 * p.data  # grad of |x|^2
            adam_step([p], state, lr=0.05)
        assert np.all(np.abs(p.data) < 1e-3)

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.ones(2), "p")
        q = Parameter(np.ones(2), "q")
        p.grad = np.ones(2)
        state = AdamState([p, q])
        adam_step([p, q], state, lr=0.1)
        np.testing.assert_array_equal(q.data, 1.0)
        assert not np.array_equal(p.data, np.ones(2))

    def test_nonfinite_gradient_aborts(self):
        p = Parameter(np.ones(2), "p")
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(NumericalError):
            adam_step([p], AdamState([p]), lr=0.1)

    def test_moments_accumulate_across_steps(self):
        p = Parameter(np.zeros(1), "p")
        state = AdamState([p])
        p.grad = np.array([1.0])
        adam_step([p], state, lr=0.1)
        first = p.data.copy()
        p.grad = np.array([1.0])
        adam_step([p], state, lr=0.1)
        assert state.step == 2
        assert p.data[0] < first[0] < 0.0


class TestClipping:
    def test_small_gradients_untouched(self):
        p = Parameter(np.zeros(3), "p")
        p.grad = np.array([1.0, 2.0, 2.0])  # norm 3
        norm = clip_gradients([p], 5.0)
        assert norm == pytest.approx(3.0)
        np.testing.assert_array_equal(p.grad, [1.0, 2.0, 2.0])

    def test_large_gradients_scaled_to_max_norm(self):
        p = Parameter(np.zeros(2), "p")
        q = Parameter(np.zeros(2), "q")
        p.grad = np.array([30.0, 0.0])
        q.grad = np.array([0.0, 40.0])  # global norm 50
        clip_gradients([p, q], 5.0)
        total = np.sqrt(np.sum(p.grad**2) + np.sum(q.grad**2))
        assert total == pytest.approx(5.0)
        assert p.grad[0] == pytest.approx(3.0)
        assert q.grad[1] == pytest.approx(4.0)


class TestSchedule:
    def test_endpoints_exact(self):
        cfg = TrainConfig(lr_start=0.005, lr_end=1e-6, epochs=9)
        assert lr_schedule(0, 9, cfg) == pytest.approx(0.005)
        assert lr_schedule(8, 9, cfg) == pytest.approx(1e-6)

    def test_geometric_midpoint(self):
        cfg = TrainConfig(lr_start=1e-2, lr_end=1e-6, epochs=3)
        assert lr_schedule(1, 3, cfg) == pytest.approx(1e-4)

    def test_single_epoch_uses_start(self):
        cfg = TrainConfig(epochs=1)
        assert lr_schedule(0, 1, cfg) == cfg.lr_start

    def test_out_of_range_epoch_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ConfigError):
            lr_schedule(3, 3, cfg)

    def test_invalid_lr_pair_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_start=1e-6, lr_end=1e-3)


class TestToyDataset:
    def test_counts_and_labels(self):
        spec = ToySpeakerSpec(n_speakers=3, utterances_per_speaker=2,
                              utterance_seconds=0.5)
        data = make_toy_dataset(spec)
        assert len(data) == 6
        assert sorted({u.speaker_id for u in data}) == ["spk000", "spk001", "spk002"]
        assert all(len(u.audio) == 8000 for u in data)

    def test_deterministic(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                              utterance_seconds=0.5, seed=3)
        a = make_toy_dataset(spec)
        b = make_toy_dataset(spec)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.audio.samples, ub.audio.samples)

    def test_offset_yields_fresh_utterances(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                              utterance_seconds=0.5)
        base = make_toy_dataset(spec)
        held = make_toy_dataset(spec, utterance_offset=2)
        assert {u.utterance_id for u in base}.isdisjoint({u.utterance_id for u in held})
        assert not np.array_equal(base[0].audio.samples, held[0].audio.samples)

    def test_within_speaker_closer_than_across(self):
        """Spectral distance (proxy for separability) must be smaller
        within a speaker than across speakers."""
        spec = ToySpeakerSpec(n_speakers=4, utterances_per_speaker=2,
                              utterance_seconds=1.0)
        data = make_toy_dataset(spec)

        def spectrum(u):
            mag = np.abs(np.fft.rfft(u.audio.samples, n=4096))
            return np.log(mag[:1200] + 1e-6)

        specs = {u.utterance_id: spectrum(u) for u in data}
        within, across = [], []
        for i, a in enumerate(data):
            for b in data[i + 1 :]:
                d = float(np.mean((specs[a.utterance_id] - specs[b.utterance_id]) ** 2))
                (within if a.speaker_id == b.speaker_id else across).append(d)
        assert np.mean(within) < np.mean(across)

    def test_too_few_speakers_rejected(self):
        with pytest.raises(ConfigError):
            ToySpeakerSpec(n_speakers=1)


@pytest.fixture(scope="module")
def tiny_run():
    spec = ToySpeakerSpec(n_speakers=4, utterances_per_speaker=3,
                          utterance_seconds=1.0, seed=1)
    data = make_toy_dataset(spec)
    cfg = tiny_config(n_classes=4)
    model = AmcrnModel(cfg, seed=0)
    tcfg = TrainConfig(lr_start=1e-3, lr_end=1e-4, epochs=2, batch_size=4,
                       crop_seconds=1.0, val_fraction=0.2, augment_copies=1,
                       seed=0)
    result = train(model, data, tcfg)
    return data, cfg, tcfg, result


class TestTrainLoop:
    def test_history_shape_and_view_count(self, tiny_run):
        data, cfg, tcfg, result = tiny_run
        assert len(result.history) == 2
        n_val = max(1, round(0.2 * len(data)))
        expected_views = (len(data) - n_val) * (1 + tcfg.augment_copies)
        assert all(rec.n_samples == expected_views for rec in result.history)

    def test_lr_recorded_from_schedule(self, tiny_run):
        _, _, tcfg, result = tiny_run
        assert result.history[0].lr == pytest.approx(1e-3)
        assert result.history[1].lr == pytest.approx(1e-4)

    def test_best_checkpoint_is_argmin_val(self, tiny_run):
        _, _, _, result = tiny_run
        vals = [rec.val_loss for rec in result.history]
        assert result.best_epoch == int(np.argmin(vals))

    def test_checkpoint_reproduces_reported_loss(self, tiny_run):
        data, cfg, tcfg, result = tiny_run
        restored = restore_model(result.best_checkpoint, cfg)
        rng = np.random.default_rng(tcfg.seed)
        order = rng.permutation(len(data))
        n_val = max(1, round(0.2 * len(data)))
        val_set = [data[i] for i in order[:n_val]]
        speakers = sorted({u.speaker_id for u in data})
        label_of = {s: i for i, s in enumerate(speakers)}
        got = validation_loss(restored, val_set, label_of, tcfg)
        assert got == result.best_val_loss

    def test_losses_are_finite(self, tiny_run):
        _, _, _, result = tiny_run
        for rec in result.history:
            assert np.isfinite(rec.train_loss) and np.isfinite(rec.val_loss)

    def test_deterministic_given_seed(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=2)
        data = make_toy_dataset(spec)
        tcfg = TrainConfig(lr_start=1e-3, lr_end=1e-3, epochs=1, batch_size=4,
                           crop_seconds=0.5, val_fraction=0.2, augment_copies=0,
                           seed=7)
        cfg = tiny_config(n_classes=2)
        r1 = train(AmcrnModel(cfg, seed=3), data, tcfg)
        r2 = train(AmcrnModel(cfg, seed=3), data, tcfg)
        assert r1.best_checkpoint == r2.best_checkpoint
        assert r1.history[0].train_loss == r2.history[0].train_loss

    def test_speaker_count_mismatch_rejected(self):
        spec = ToySpeakerSpec(n_speakers=3, utterances_per_speaker=2,
                              utterance_seconds=0.5)
        data = make_toy_dataset(spec)
        model = AmcrnModel(tiny_config(n_classes=4), seed=0)
        with pytest.raises(ConfigError):
            train(model, data, TrainConfig())

    def test_history_csv(self, tiny_run, tmp_path):
        _, _, _, result = tiny_run
        path = tmp_path / "history.csv"
        write_history_csv(path, result.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 1 + len(result.history)


def per_crop_step(model, batch, crop_seconds, rng):
    """The per-crop training step `minibatch_backward` replaces: crop,
    featurize, forward and backward one view at a time; the summed loss."""
    total = 0.0
    for audio, label in batch:
        feats = _features(_random_crop(audio, crop_seconds, rng), model.config.n_mels)
        loss = model.classify_loss(feats, label, mode="train", rng=rng)
        loss.backward()
        total += float(loss.data)
    return total


def assert_same_state(got, ref):
    for p, q in zip(ref.parameters(), got.parameters()):
        np.testing.assert_allclose(q.grad, p.grad, rtol=0, atol=1e-12, err_msg=p.name)
    for (name, o1, a1), (_, o2, a2) in zip(ref.buffers(), got.buffers()):
        np.testing.assert_allclose(getattr(o2, a2), getattr(o1, a1), rtol=0, atol=1e-12,
                                   err_msg=name)


class TestMinibatch:
    @staticmethod
    def _views(seconds):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=5)
        data = make_toy_dataset(spec)
        return [(AudioBuffer(u.audio.samples[: int(s * u.audio.sample_rate)]), i % 2)
                for i, (u, s) in enumerate(zip(data, seconds))]

    def test_equal_lengths_match_the_per_crop_step(self):
        batch = self._views([0.5, 0.5, 0.5, 0.5])
        cfg = tiny_config(n_classes=2)
        ref, got = AmcrnModel(cfg, seed=4), AmcrnModel(cfg, seed=4)
        ref_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = per_crop_step(ref, batch, 0.3, ref_rng)
        have = minibatch_backward(got, batch, 0.3, got_rng)
        # Offsets and dropout draws come off the stream in crop order.
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(have - want) <= 1e-12
        assert_same_state(got, ref)

    def test_mixed_lengths_split_into_groups(self, monkeypatch):
        # 0.2 s views are shorter than the 0.3 s crop and stay whole. Three
        # offset draws: with two, the second is the buffered half of the
        # first 64-bit output, whatever is drawn between them.
        batch = self._views([0.5, 0.2, 0.5, 0.5, 0.2])
        cfg = tiny_config(n_classes=2)
        ref, got = AmcrnModel(cfg, seed=4), AmcrnModel(cfg, seed=4)
        ref_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        shapes = []
        forward = AmcrnModel.classify_loss

        def spy(self, lms, *args, **kwargs):
            shapes.append(np.shape(lms))
            return forward(self, lms, *args, **kwargs)

        monkeypatch.setattr(AmcrnModel, "classify_loss", spy)
        minibatch_backward(got, batch, 0.3, got_rng)
        long_t = _features(_random_crop(batch[0][0], 0.3, np.random.default_rng(0)),
                           cfg.n_mels).shape[0]
        short_t = _features(batch[1][0], cfg.n_mels).shape[0]
        assert shapes == [(3, long_t, cfg.n_mels), (2, short_t, cfg.n_mels)]
        # Reference: draws in crop order, then one crop at a time in group order.
        rows = []
        for audio, label in batch:
            feats = _features(_random_crop(audio, 0.3, ref_rng), cfg.n_mels)
            rows.append((feats, label, ref.draw_dropout(len(feats), ref_rng)))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        for feats, label, draws in (rows[0], rows[2], rows[3], rows[1], rows[4]):
            forward(ref, feats, label, mode="train", rng=draws).backward()
        assert_same_state(got, ref)

    def test_validation_batches_equal_lengths(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                              utterance_seconds=0.5, seed=6)
        val_set = make_toy_dataset(spec)
        val_set[1].audio = AudioBuffer(val_set[1].audio.samples[:4000])
        model = AmcrnModel(tiny_config(n_classes=2), seed=5)
        label_of = {"spk000": 0, "spk001": 1}
        per_utt = [float(model.classify_loss(_features(u.audio, model.config.n_mels),
                                             label_of[u.speaker_id],
                                             mode="eval").data) for u in val_set]
        got = validation_loss(model, val_set, label_of, TrainConfig())
        assert got == pytest.approx(np.mean(per_utt), rel=1e-12)
