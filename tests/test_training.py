"""Optimizer, schedule, toy dataset, and training loop tests."""

import hashlib
import os
import shutil
import subprocess
import sys
import wave

import numpy as np
import pytest

import amcrn
from amcrn import cli, toydata, training
from amcrn.augment import augment
from amcrn.cli import main as cli_main
from amcrn.autodiff import Parameter, Tensor
from amcrn.errors import ConfigError, InputTooShort, NumericalError
from amcrn.model import AmcrnModel, equal_length_runs, restore_model, tiny_config
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset
from amcrn.toydata import _utterance as generate_utterance
from amcrn.audio import SAMPLE_RATE, random_crop, read_wav, write_wav
from amcrn.dsp import SHIFT_SAMPLES, featurize
from amcrn.training import (AdamState, TrainConfig, adam_step, clip_gradients,
                            lr_schedule, minibatch_backward, train, validation_loss,
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

    def test_bits_match_the_plain_expression(self):
        """Five steps over parameters of several shapes, one of them
        without a gradient on some steps, against `adam_step_reference`."""
        shapes = [(3, 5), (7,), (2, 3, 4), (1,)]
        runs = []
        for step_fn in (adam_step, adam_step_reference):
            params = [Parameter(np.random.default_rng(89 + i).standard_normal(shape), f"p{i}")
                      for i, shape in enumerate(shapes)]
            state = AdamState(params)
            grads = np.random.default_rng(90)
            for step in range(5):
                for i, p in enumerate(params):
                    g = grads.standard_normal(p.data.shape)
                    p.grad = None if (i == 1 and step % 2) else g
                step_fn(params, state, lr=0.01 * (step + 1))
            runs.append([p.data for p in params]
                        + [m for p in params for m in state.moments[p.name]])
        for i, (got, want) in enumerate(zip(*runs)):
            assert got.tobytes() == want.tobytes(), i


def adam_step_reference(params, state, lr):
    """`adam_step` as the plain expression, with its parameter-size
    temporaries: the oracle for the bits of the scratch-buffer update."""
    state.step += 1
    b1, b2 = AdamState.BETA1, AdamState.BETA2
    correct1 = 1.0 - b1**state.step
    correct2 = 1.0 - b2**state.step
    for p in params:
        if p.grad is None:
            continue
        m, v = state.moments[p.name]
        m *= b1
        m += (1.0 - b1) * p.grad
        v *= b2
        v += (1.0 - b2) * p.grad**2
        p.data -= lr * (m / correct1) / (np.sqrt(v / correct2) + AdamState.EPS)


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

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be at least 1, got {value}$"):
            TrainConfig(**{field: value})


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
            assert np.array_equal(ua.audio, ub.audio)

    def test_offset_yields_fresh_utterances(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                              utterance_seconds=0.5)
        base = make_toy_dataset(spec)
        held = make_toy_dataset(spec, utterance_offset=2)
        assert {u.utterance_id for u in base}.isdisjoint({u.utterance_id for u in held})
        assert not np.array_equal(base[0].audio, held[0].audio)

    def test_within_speaker_closer_than_across(self):
        """Spectral distance (proxy for separability) must be smaller
        within a speaker than across speakers."""
        spec = ToySpeakerSpec(n_speakers=4, utterances_per_speaker=2,
                              utterance_seconds=1.0)
        data = make_toy_dataset(spec)

        def spectrum(u):
            mag = np.abs(np.fft.rfft(u.audio, n=4096))
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
        restored = restore_model(result.best_checkpoint)
        assert restored.config == cfg
        rng = np.random.default_rng(tcfg.seed)
        order = rng.permutation(len(data))
        n_val = max(1, round(0.2 * len(data)))
        val_set = [data[i] for i in order[:n_val]]
        speakers = sorted({u.speaker_id for u in data})
        label_of = {s: i for i, s in enumerate(speakers)}
        got = validation_loss(restored, [featurize(u.audio, cfg.n_mels) for u in val_set],
                              [label_of[u.speaker_id] for u in val_set])
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

    def test_validates_once_per_epoch(self, monkeypatch):
        """Each epoch validates its stored checkpoint once; the best loss
        is that epoch's recorded loss, with no recompute at the end."""
        calls = []

        def counting(model, *args):
            calls.append(model)
            return validation_loss(model, *args)

        monkeypatch.setattr(training, "validation_loss", counting)
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=2)
        tcfg = TrainConfig(lr_start=1e-3, lr_end=1e-4, epochs=3, batch_size=4,
                           crop_seconds=0.5, val_fraction=0.2, augment_copies=0,
                           seed=7)
        model = AmcrnModel(tiny_config(n_classes=2), seed=3)
        result = train(model, make_toy_dataset(spec), tcfg)
        assert len(calls) == tcfg.epochs
        assert all(m is not model for m in calls)  # a restored checkpoint each time
        assert result.best_val_loss == result.history[result.best_epoch].val_loss

    def test_validation_set_is_featurized_once(self, monkeypatch):
        """Three epochs featurize each training crop once per epoch and each
        validation utterance once in all."""
        calls = []

        def counting(audio, n_mels):
            calls.append(len(audio))
            return featurize(audio, n_mels)

        monkeypatch.setattr(training, "featurize", counting)
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=2)
        tcfg = TrainConfig(lr_start=1e-3, lr_end=1e-4, epochs=3, batch_size=4,
                           crop_seconds=0.5, val_fraction=0.2, augment_copies=0,
                           seed=7)
        data = make_toy_dataset(spec)
        result = train(AmcrnModel(tiny_config(n_classes=2), seed=3), data, tcfg)
        n_val = max(1, round(0.2 * len(data)))
        assert len(calls) == tcfg.epochs * (len(data) - n_val) + n_val
        assert len(result.history) == tcfg.epochs

    @pytest.mark.parametrize("samples", [399, 559])
    def test_utterance_shorter_than_two_frames_is_named(self, samples):
        """Less than one frame fails in the front end, one frame in the
        pooling; both are refused before the first epoch, by name."""
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=2)
        data = make_toy_dataset(spec)
        data[4].audio = data[4].audio[:samples]
        model = AmcrnModel(tiny_config(n_classes=2), seed=3)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(InputTooShort, match=f"utterance '{data[4].utterance_id}': "
                                                f"audio has {samples} samples"):
            train(model, data, TrainConfig(epochs=1, crop_seconds=0.5))
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

    def test_augments_each_view_when_its_minibatch_runs(self, monkeypatch):
        """No view is augmented before the first minibatch, and each
        minibatch augments at most its own views."""
        log = []

        def counting_augment(audio, *draw):
            log.append("augment")
            return augment(audio, *draw)

        def counting_step(*args):
            log.append("step")
            return minibatch_backward(*args)

        monkeypatch.setattr(training, "augment", counting_augment)
        monkeypatch.setattr(training, "minibatch_backward", counting_step)
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=2)
        tcfg = TrainConfig(epochs=2, batch_size=3, crop_seconds=0.5, val_fraction=0.2,
                           augment_copies=2, seed=7)
        train(AmcrnModel(tiny_config(n_classes=2), seed=3), make_toy_dataset(spec), tcfg)
        assert log[0] == "step"
        runs = "".join("s" if entry == "step" else "a" for entry in log).split("s")[1:]
        assert max(len(run) for run in runs) <= tcfg.batch_size
        assert len(log) - len(runs) == tcfg.epochs * 5 * tcfg.augment_copies

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


def trained_digests(tmp_path, source, seed):
    """SHA-256 of the checkpoint and of the loss CSV that `amcrn train
    SOURCE --epochs 2 --seed N` writes with the tiny preset,
    `augment_copies = 1` and `batch_size = 4` (10 views an epoch, so three
    minibatches).

    OpenBLAS splits a product's sum by thread, so the weight-gradient
    products over all B*T rows of the LSTM and residual projection
    backward passes round differently with one thread than with two, and
    the trained bytes follow. The run is therefore a child process whose
    BLAS is held to one thread, whatever the machine's CPU count. Bit-exact
    sums can still differ on another BLAS build."""
    config = tmp_path / "train.cfg"
    config.write_text("augment_copies = 1\nbatch_size = 4\n")
    out = tmp_path / "model.ckpt"
    package_root = os.path.dirname(os.path.dirname(amcrn.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "amcrn.cli", "train", *source, "--config",
                          str(config), "--epochs", "2", "--seed", str(seed), "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (out, tmp_path / "model.ckpt.loss.csv"))


# `trained_digests` of `--toy 'speakers=2 utts=3 seconds=2.5'`.
TRAINED_BYTES = {
    0: ("71d03fe5c483a0b025f0df476880f029eac845662a686cc5f68ac53157643e36",
        "5d045382471d779ecc6b04b1582dc0ea1b0bd04a8111dcb865b9d1dfce372a0b"),
    1: ("a5e2cae6257dd061b15973a0e7e7654041ce10953085c04d89cf6f467988cd27",
        "2d1a2d47ca0180e83eed87ae8f3ea3d186623ef53b2b296fe397ade8a5153aa4"),
}


@pytest.mark.parametrize("seed", sorted(TRAINED_BYTES))
def test_trained_bytes_are_pinned(tmp_path, seed):
    source = ["--toy", "speakers=2 utts=3 seconds=2.5"]
    assert trained_digests(tmp_path, source, seed) == TRAINED_BYTES[seed]


# `trained_digests` of `--data D`, where D is `amcrn toygen --spec
# 'speakers=2 utts=3 seconds=2.5'`: the benchmark's path.
TRAINED_DATA_BYTES = {
    0: ("7205160d6553c522dd8625677b5cca8a3e0ad955e29529a4a0451facbd9002ff",
        "3b0f4638ada06375eb44349cfdcd93b8be6c08cab496ba96cec760d247896950"),
    1: ("0849233e1b46bf63f0f9865b0c113e408e0fd8bb1c6ea1ddba466f485d8ab802",
        "40b5e92c88eed9a3746f39741026aae91d6025f5e9ab99ff4da191bc0737e787"),
}


@pytest.fixture(scope="module")
def toygen_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("toygen") / "data"
    assert cli_main(["toygen", "--spec", "speakers=2 utts=3 seconds=2.5", "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("seed", sorted(TRAINED_DATA_BYTES))
def test_trained_data_bytes_are_pinned(tmp_path, toygen_dir, seed):
    source = ["--data", str(toygen_dir)]
    assert trained_digests(tmp_path, source, seed) == TRAINED_DATA_BYTES[seed]


class TestLazyAudio:
    """`train --data` and `train --toy` hold no audio: an utterance's
    samples are read (or generated) when they are featurized."""

    @pytest.mark.parametrize("source", ["data", "toy"])
    def test_reads_only_validation_audio_before_the_first_minibatch(
            self, monkeypatch, tmp_path, toygen_dir, source):
        log = []

        def logging_read(path, *args):
            log.append(os.path.relpath(path, toygen_dir))
            return read_wav(path, *args)

        def logging_utterance(spec, spk, utt):
            log.append(f"spk{spk:03d}/utt{utt:03d}.wav")
            return generate_utterance(spec, spk, utt)

        def logging_step(*args):
            log.append("step")
            return minibatch_backward(*args)

        monkeypatch.setattr(cli, "read_wav", logging_read)
        monkeypatch.setattr(toydata, "_utterance", logging_utterance)
        monkeypatch.setattr(training, "minibatch_backward", logging_step)
        config = tmp_path / "train.cfg"
        config.write_text("augment_copies = 1\nbatch_size = 4\nval_fraction = 0.4\n")
        data = ["--data", str(toygen_dir)] if source == "data" else \
            ["--toy", "speakers=2 utts=3 seconds=2.5"]
        assert cli_main(["train", *data, "--config", str(config), "--epochs", "1",
                         "--out", str(tmp_path / "m.ckpt")]) == 0
        files = [f"spk{spk:03d}/utt{utt:03d}.wav" for spk in range(2) for utt in range(3)]
        val = [files[i] for i in np.random.default_rng(0).permutation(len(files))[:2]]
        first = log.index("step")
        assert sorted(log[:first]) == sorted(val)
        # Each of the 4 training utterances is read again for each of its 2 views.
        assert sorted(entry for entry in log[first:] if entry != "step") == \
            sorted(2 * [f for f in files if f not in val])

    @pytest.mark.parametrize("change", ["removed", "shortened", "resampled"])
    def test_a_file_changed_after_the_scan_is_named(self, monkeypatch, tmp_path, toygen_dir,
                                                    capsys, change):
        data = tmp_path / "data"
        shutil.copytree(toygen_dir, data)
        victim = data / "spk001" / "utt002.wav"
        scan = cli._load_dataset_dir

        def scan_then_change(root):
            dataset = scan(root)
            if change == "removed":
                victim.unlink()
            elif change == "shortened":
                write_wav(victim, read_wav(victim)[:-SHIFT_SAMPLES])
            else:
                with wave.open(str(victim), "wb") as wf:
                    wf.setnchannels(1)
                    wf.setsampwidth(2)
                    wf.setframerate(8000)
                    wf.writeframes(bytes(16000))
            return dataset

        monkeypatch.setattr(cli, "_load_dataset_dir", scan_then_change)
        out = tmp_path / "m.ckpt"
        assert cli_main(["train", "--data", str(data), "--epochs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: "), err
        assert not out.exists()

    def test_a_vanished_file_is_a_typed_error(self, tmp_path, toygen_dir):
        data = tmp_path / "data"
        shutil.copytree(toygen_dir, data)
        dataset = cli._load_dataset_dir(str(data))
        (data / "spk000" / "utt001.wav").unlink()
        assert dataset[0].audio.shape == (dataset[0].n_samples,)
        with pytest.raises(ConfigError, match="utt001.wav: no longer readable since it was scanned"):
            dataset[1].audio


def per_crop_step(model, batch, crop_seconds, rng):
    """The per-crop training step `minibatch_backward` replaces: crop,
    featurize, forward and backward one view at a time; the summed loss."""
    total = 0.0
    for audio, label in batch:
        feats = featurize(random_crop(audio, crop_seconds, rng), model.config.n_mels)
        loss = model.classify_loss(feats, label, mode="train",
                                   keep=model.draw_dropout(len(feats), rng))
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
        return [(u.audio[: int(s * SAMPLE_RATE)], i % 2)
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
        have = minibatch_backward(got, batch, 0.3, got_rng)
        monkeypatch.setattr(AmcrnModel, "classify_loss", forward)
        long_t = featurize(random_crop(batch[0][0], 0.3, np.random.default_rng(0)),
                           cfg.n_mels).shape[0]
        short_t = featurize(batch[1][0], cfg.n_mels).shape[0]
        # Consecutive crops of equal length share a pass, in crop order.
        assert shapes == [(1, long_t, cfg.n_mels), (1, short_t, cfg.n_mels),
                          (2, long_t, cfg.n_mels), (1, short_t, cfg.n_mels)]
        want = per_crop_step(ref, batch, 0.3, ref_rng)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(have - want) <= 1e-12
        assert_same_state(got, ref)

    def test_validation_batches_equal_lengths(self):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                              utterance_seconds=0.5, seed=6)
        val_set = make_toy_dataset(spec)
        val_set[1].audio = val_set[1].audio[:4000]
        model = AmcrnModel(tiny_config(n_classes=2), seed=5)
        label_of = {"spk000": 0, "spk001": 1}
        per_utt = [float(model.classify_loss(featurize(u.audio, model.config.n_mels),
                                             label_of[u.speaker_id],
                                             mode="eval").data) for u in val_set]
        got = validation_loss(model, [featurize(u.audio, model.config.n_mels) for u in val_set],
                              [label_of[u.speaker_id] for u in val_set])
        assert got == pytest.approx(np.mean(per_utt), rel=1e-12)

    def test_validation_without_tape_matches_taped_pass(self, monkeypatch):
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=3,
                              utterance_seconds=0.5, seed=7)
        val_set = make_toy_dataset(spec)
        val_set[2].audio = val_set[2].audio[:4000]
        model = AmcrnModel(tiny_config(n_classes=2), seed=6)
        label_of = {"spk000": 0, "spk001": 1}
        rows = [(featurize(u.audio, model.config.n_mels), label_of[u.speaker_id])
                for u in val_set]
        taped = []
        for run in equal_length_runs(rows):
            feats, labels = zip(*run)
            loss = model.classify_loss(np.stack(feats), labels, mode="eval")
            assert loss._parents  # the oracle pass builds a tape
            taped.append(float(loss.data))
        losses = []
        forward = AmcrnModel.classify_loss

        def spy(self, *args, **kwargs):
            losses.append(forward(self, *args, **kwargs))
            return losses[-1]

        monkeypatch.setattr(AmcrnModel, "classify_loss", spy)
        got = validation_loss(model, *zip(*rows))
        assert got == sum(taped) / len(val_set)
        assert len(losses) == 3
        assert all(loss._parents == () and loss._backward is None for loss in losses)
