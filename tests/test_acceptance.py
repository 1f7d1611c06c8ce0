"""Acceptance suite: one test per release criterion.

The toy benchmark (20 synthetic speakers, 10 utterances each) is trained
once in a session fixture and shared between the end-to-end and the
truncated-duration criteria.
"""

import time

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn import dsp
from amcrn.audio import SAMPLE_RATE
from amcrn.autodiff import Tensor, grad_check
from amcrn.cli import main as cli_main
from amcrn.dsp import featurize, power_spectrum
from amcrn.errors import ConfigError
from amcrn.model import (AmcrnModel, AttentiveStatPool, BatchNorm, BlstmLayer,
                         Conv1d, McbBlock, aam_logits, checkpoint_bytes, restore_model,
                         temporal_attention, tiny_config)
from amcrn.scoring import (compute_eer, compute_mindcf, csm, plda_score,
                           plda_train, truncate_segment)
from amcrn.store import EmbeddingStore
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset
from amcrn.training import TrainConfig, train
from test_dsp import cmvn_window_bounds

GRAD_TOL = 1e-4


# ----------------------------------------------------------------------
# Toy benchmark fixture (shared by criteria 6 and 7)
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def toy_benchmark():
    """Train the 20-speaker toy system and pre-compute shared embeddings.

    Returns a dict with the trained model, wall-clock training+eval time,
    loss history, enrollment embeddings, held-out test audio, and the
    whole-utterance test embeddings.
    """
    t0 = time.monotonic()
    spec = ToySpeakerSpec(n_speakers=20, utterances_per_speaker=10,
                          utterance_seconds=3.0, seed=0)
    dataset = make_toy_dataset(spec)
    cfg = tiny_config(n_mels=80, channels=64, n_scales=4, hidden=64,
                      embedding_dim=256, n_classes=20)
    tcfg = TrainConfig(lr_start=2e-3, lr_end=2e-4, epochs=3, batch_size=32,
                       crop_seconds=2.0, val_fraction=0.05, augment_copies=1,
                       seed=0)
    model = AmcrnModel(cfg, seed=0)
    result = train(model, dataset, tcfg)
    model = restore_model(result.best_checkpoint)

    # Enrollment: mean embedding of 3 training utterances per speaker,
    # plus additional training embeddings for fitting the PLDA backend.
    by_speaker = {}
    for utt in dataset:
        by_speaker.setdefault(utt.speaker_id, []).append(utt)
    train_embs, train_labels, enroll = [], [], {}
    for sid in sorted(by_speaker):
        vecs = [model.embed(featurize(u.audio, 80)) for u in by_speaker[sid][:5]]
        train_embs.extend(vecs)
        train_labels.extend([sid] * len(vecs))
        enroll[sid] = np.mean(vecs[:3], axis=0)

    # Held-out utterances from the same speakers: fresh excitation seeds
    # and a 6 s duration so 2 s / 5 s truncation is meaningful.
    held_spec = ToySpeakerSpec(n_speakers=20, utterances_per_speaker=3,
                               utterance_seconds=6.0, seed=0)
    held = make_toy_dataset(held_spec, utterance_offset=10)
    whole_embs = {u.utterance_id: model.embed(featurize(u.audio, 80))
                  for u in held}

    speakers = sorted(enroll)
    trials = []  # (label, enroll_speaker, test_utterance)
    for i, utt in enumerate(held):
        trials.append((1, utt.speaker_id, utt.utterance_id))
        spk_idx = speakers.index(utt.speaker_id)
        # Two nontarget speakers; the offsets never wrap onto the target.
        for off in (7 + i % 5, 13):
            trials.append((0, speakers[(spk_idx + off) % len(speakers)],
                           utt.utterance_id))
    elapsed = time.monotonic() - t0
    return dict(model=model, result=result, elapsed=elapsed, enroll=enroll,
                held=held, whole_embs=whole_embs, trials=trials,
                train_embs=train_embs, train_labels=train_labels)


def _eer_from_embs(bench, test_embs, score_fn):
    labels, scores = [], []
    for label, spk, utt_id in bench["trials"]:
        labels.append(label)
        scores.append(score_fn(bench["enroll"][spk], test_embs[utt_id]))
    eer, _ = compute_eer(labels, scores)
    return eer, labels, scores


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    """Every differentiable building block passes a central-difference
    check below 1e-4, inside a 2 minute budget."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    errs = {}

    kern = Tensor(rng.standard_normal((3, 2, 3)))
    errs["conv"] = grad_check(
        lambda x: ad.tsum(ad.conv1d_dilated(x, kern, dilation=3) ** 2),
        Tensor(rng.standard_normal((8, 2))))

    bn_conv = Conv1d("bn_conv", 3, 2, 3, 2, np.random.default_rng(1))
    bn = BatchNorm("bn", 3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    bn.beta.data[:] = rng.standard_normal(3)
    errs["batchnorm"] = grad_check(
        lambda x: ad.tsum(bn(x, "train", conv=bn_conv) ** 2),
        Tensor(rng.standard_normal((6, 2))))

    blstm = BlstmLayer("bl", 2, 3, rng)
    errs["blstm"] = grad_check(
        lambda x: ad.tsum(blstm(x) ** 2),
        Tensor(rng.standard_normal((5, 2))))

    ta_k = Tensor(rng.standard_normal((7, 2, 1)))
    ta_b = Tensor(np.zeros(1))
    errs["temporal_attention"] = grad_check(
        lambda x: ad.tsum(temporal_attention(x, ta_k, ta_b)[1] ** 2),
        Tensor(rng.standard_normal((6, 4))))

    pool = AttentiveStatPool("p", 3, 4, rng)
    errs["pool"] = grad_check(
        lambda x: ad.tsum(pool(x) ** 2),
        Tensor(rng.standard_normal((5, 3))))

    head = Tensor(rng.standard_normal((4, 5)))
    errs["aam"] = grad_check(
        lambda x: ad.cross_entropy(aam_logits(x, head, 1, 0.2, 30.0), 1),
        Tensor(2.0 * rng.standard_normal(5)))

    cfg = tiny_config(n_mels=4, channels=8, n_scales=2)
    block = McbBlock("b", cfg, 0, np.random.default_rng(1))
    errs["mcb"] = grad_check(
        lambda x: ad.tsum(block(x, "eval") ** 2),
        Tensor(rng.standard_normal((6, 8))))

    model = AmcrnModel(tiny_config(), seed=0)
    errs["full_model"] = grad_check(
        lambda x: ad.tsum(model.embed_tensor(x, mode="eval") ** 2),
        Tensor(rng.standard_normal((6, 8))))

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f} s"
    for name, err in errs.items():
        assert err < GRAD_TOL, f"{name}: {err:.3e}"


def test_criterion_02_dilated_conv_oracle():
    """conv1d_dilated equals a brute-force summation on 200 random cases
    within 1e-12 and reduces to the standard convolution at rate 1."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        t_len = int(rng.integers(1, 24))
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5, 7]))
        r = int(rng.integers(1, 5))
        x = rng.standard_normal((t_len, c_in))
        kern = rng.standard_normal((k, c_in, c_out))
        got = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=r).data
        ref = np.zeros((t_len, c_out))
        n = (k - 1) // 2
        for q in range(t_len):
            for tap in range(-n, n + 1):
                src = q - r * tap
                if 0 <= src < t_len:
                    ref[q] += x[src] @ kern[tap + n]
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-12, f"worst deviation {worst:.3e}"

    x = rng.standard_normal((15, 2))
    kern = rng.standard_normal((5, 2, 3))
    got = ad.conv1d_dilated(Tensor(x), Tensor(kern), dilation=1).data
    ref = np.zeros((15, 3))
    for co in range(3):
        for ci in range(2):
            ref[:, co] += np.convolve(x[:, ci], kern[:, ci, co], mode="same")
    assert np.max(np.abs(got - ref)) < 1e-12


def test_criterion_03_temporal_attention_oracle():
    """Gating coefficients match the hand oracle within 1e-9, live in
    (0,1), and a zero-weight gate is exactly one half."""
    x = np.array([[1.0, 3.0, -1.0], [0.5, 0.5, 0.5], [-2.0, 4.0, 0.0],
                  [0.0, 0.0, 6.0]])
    kernel = np.zeros((1, 2, 1))
    kernel[0, 0, 0], kernel[0, 1, 0] = 0.8, -0.3
    bias = np.array([0.2])
    a, gated = temporal_attention(Tensor(x), Tensor(kernel), Tensor(bias))
    expect = 1.0 / (1.0 + np.exp(-(0.8 * x.mean(axis=1) - 0.3 * x.max(axis=1) + 0.2)))
    assert np.max(np.abs(a.data[:, 0] - expect)) < 1e-9
    assert np.max(np.abs(gated.data - expect[:, None] * x)) < 1e-9

    rng = np.random.default_rng(3)
    a_rand, _ = temporal_attention(Tensor(20.0 * rng.standard_normal((30, 5))),
                                   Tensor(rng.standard_normal((7, 2, 1))),
                                   Tensor(rng.standard_normal(1)))
    assert np.all((a_rand.data > 0.0) & (a_rand.data < 1.0))

    a_zero, _ = temporal_attention(Tensor(rng.standard_normal((9, 4))),
                                   Tensor(np.zeros((7, 2, 1))), Tensor(np.zeros(1)))
    assert np.all(a_zero.data == 0.5)


def test_criterion_04_shapes_and_structural_variants():
    """Blocks preserve T x C for T in {1, 7, 200}; the embedding is
    exactly 256-dimensional; the five structural variants and the five
    scale settings all run; indivisible channel splits are rejected."""
    cfg = tiny_config(n_mels=8, channels=16, n_scales=2, embedding_dim=256)
    model = AmcrnModel(cfg, seed=0)
    rng = np.random.default_rng(4)
    for t_len in (1, 7, 200):
        x = model.initial_bn(Tensor(rng.standard_normal((t_len, 8))), "eval",
                             conv=model.initial_conv, relu=True)
        for block in model.blocks:
            x = block(x, "eval")
            assert x.data.shape == (t_len, 16)
        assert model.rblstm(x, "eval").data.shape == (t_len, 16)

    emb = model.embed(rng.standard_normal((50, 8)))
    assert emb.shape == (256,)

    variants = [dict(),
                dict(mcb_dilations=(1, 1, 1)),
                dict(n_scales=1),
                dict(use_temporal_attention=False),
                dict(use_blstm=False)]
    for kwargs in variants:
        m = AmcrnModel(tiny_config(**kwargs), seed=0)
        out = m.embed(rng.standard_normal((12, 8)))
        assert out.shape == (16,) and np.all(np.isfinite(out))

    for scales in (2, 4, 8, 16, 32):
        m = AmcrnModel(tiny_config(channels=32, n_scales=scales), seed=0)
        out = m.embed(rng.standard_normal((10, 8)))
        assert np.all(np.isfinite(out))
    with pytest.raises(ConfigError):
        tiny_config(channels=24, n_scales=16)


def test_criterion_05_metric_oracles():
    """EER and minDCF equal exhaustive threshold sweeps on 100 random
    score sets of up to 1000 trials; separable sets give exactly zero."""
    rng = np.random.default_rng(5)
    for case in range(100):
        n_t = int(rng.integers(2, 500))
        n_n = int(rng.integers(2, 500))
        sep = rng.uniform(0.0, 3.0)
        quantize = rng.random() < 0.3
        tg = rng.standard_normal(n_t) + sep
        ng = rng.standard_normal(n_n)
        if quantize:  # force ties
            tg, ng = np.round(tg, 1), np.round(ng, 1)
        scores = np.concatenate([tg, ng])
        labels = np.concatenate([np.ones(n_t, int), np.zeros(n_n, int)])

        # Exhaustive oracle over every distinct threshold.
        cands = np.unique(scores)
        cands = np.append(cands, cands[-1] + 1.0)
        prev = None
        oracle_eer = 1.0
        for t in cands:
            far = float(np.mean(ng >= t))
            frr = float(np.mean(tg < t))
            if far == frr:
                oracle_eer = far
                break
            if far < frr:
                if prev is None:
                    oracle_eer = 0.5 * (far + frr)
                else:
                    pfar, pfrr = prev
                    alpha = (pfar - pfrr) / ((pfar - pfrr) + (frr - far))
                    oracle_eer = pfar + alpha * (far - pfar)
                break
            prev = (far, frr)

        norm = min(0.01, 0.99)
        oracle_dcf = min(
            (0.01 * float(np.mean(tg < t)) + 0.99 * float(np.mean(ng >= t))) / norm
            for t in np.concatenate([cands, cands - 1e-9, [cands[0] - 1.0]]))

        eer, _ = compute_eer(labels, scores)
        assert eer == oracle_eer, f"case {case}: {eer} != {oracle_eer}"
        assert compute_mindcf(labels, scores) == pytest.approx(oracle_dcf, abs=0)

    eer, _ = compute_eer([1, 1, 1, 0, 0], [3.0, 2.5, 2.0, 1.0, 0.5])
    assert eer == 0.0
    assert compute_mindcf([1, 1, 1, 0, 0], [3.0, 2.5, 2.0, 1.0, 0.5]) == 0.0


def test_criterion_06_toy_end_to_end(toy_benchmark):
    """Toy system trains inside 15 minutes with decreasing loss; cosine
    scoring reaches EER below 5% and PLDA below 10% on held-out trials."""
    bench = toy_benchmark
    assert bench["elapsed"] < 900.0, f"toy run took {bench['elapsed']:.0f} s"
    losses = [rec.train_loss for rec in bench["result"].history]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses

    eer_csm, labels, _ = _eer_from_embs(bench, bench["whole_embs"], csm)
    assert eer_csm < 0.05, f"CSM EER {eer_csm:.3f}"

    plda = plda_train(bench["train_embs"], bench["train_labels"])
    eer_plda, _, _ = _eer_from_embs(
        bench, bench["whole_embs"], lambda a, b: plda_score(plda, a, b))
    assert eer_plda < 0.10, f"PLDA EER {eer_plda:.3f}"


def test_criterion_07_truncation_monotonicity(toy_benchmark):
    """Mean EER over 5 seeds does not improve when test segments shrink:
    EER(2 s) >= EER(5 s) >= EER(whole), each within a 0.01 band."""
    bench = toy_benchmark
    model = bench["model"]
    eer_whole, _, _ = _eer_from_embs(bench, bench["whole_embs"], csm)

    means = {}
    for duration in (5.0, 2.0):
        eers = []
        for seed in range(5):
            test_embs = {}
            for idx, utt in enumerate(bench["held"]):
                seg, _ = truncate_segment(utt.audio, duration, 1000 * seed + idx)
                test_embs[utt.utterance_id] = model.embed(featurize(seg, 80))
            eer, _, _ = _eer_from_embs(bench, test_embs, csm)
            eers.append(eer)
        means[duration] = float(np.mean(eers))

    assert means[2.0] >= means[5.0] - 0.01, means
    assert means[5.0] >= eer_whole - 0.01, (means, eer_whole)


def test_criterion_08_profiler():
    """MAC totals scale as 1.50x and 2.50x from 2 s to 3 s and 5 s within
    2%; headless parameters sit in [8e6, 15e6]; the closed-form count
    equals the instantiated model exactly."""
    from amcrn.model import AmcrnConfig
    from amcrn.profiling import count_macs, count_params

    cfg = AmcrnConfig()
    m2, m3, m5 = (count_macs(cfg, d) for d in (2.0, 3.0, 5.0))
    assert abs(m3 / m2 - 1.5) <= 0.02 * 1.5, m3 / m2
    assert abs(m5 / m2 - 2.5) <= 0.02 * 2.5, m5 / m2

    headless = count_params(cfg, include_head=False)
    assert 8_000_000 <= headless <= 15_000_000, headless

    for kwargs in (dict(), dict(n_scales=4, channels=32), dict(use_blstm=False)):
        tcfg = tiny_config(**kwargs)
        model = AmcrnModel(tcfg, seed=0)
        assert count_params(tcfg, include_head=True) == model.n_params()
        assert count_params(tcfg, include_head=False) == model.n_params(include_head=False)
    big = AmcrnModel(AmcrnConfig(n_mels=80), seed=0)
    assert count_params(cfg, include_head=True) == big.n_params()


def test_criterion_09_round_trips(tmp_path):
    """Checkpoints, the embedding store, and seeded CLI reruns all
    reproduce their outputs bit-exactly."""
    cfg = tiny_config()
    model = AmcrnModel(cfg, seed=9)
    model.initial_bn.running_mean += 0.1
    x = np.random.default_rng(10).standard_normal((14, cfg.n_mels))
    ref = model.embed(x)
    blob = checkpoint_bytes(model)
    again = restore_model(blob)
    # Storage is float32, so compare through a second round trip.
    ref32 = again.embed(x)
    assert checkpoint_bytes(again) == checkpoint_bytes(restore_model(checkpoint_bytes(again)))
    assert np.array_equal(restore_model(checkpoint_bytes(again)).embed(x),
                          ref32)
    assert ref.shape == ref32.shape

    store = EmbeddingStore()
    store.add("a", ref32)
    p1, p2 = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
    store.save(p1)
    loaded = EmbeddingStore(p1)
    assert np.array_equal(loaded.get("a").vector, ref32)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    # Seeded CLI rerun: identical checkpoint bytes and identical scores.
    data_dir = tmp_path / "wavs"
    assert cli_main(["toygen", "--spec", "speakers=2 utts=3 seconds=1.0",
                     "--out", str(data_dir)]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("augment_copies = 0\nval_fraction = 0.2\n"
                       "lr_start = 0.001\nlr_end = 0.001\ncrop_seconds = 1.0\n")
    outs = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        assert cli_main(["train", "--toy", "speakers=2 utts=3 seconds=1.0",
                         "--config", str(run_cfg), "--epochs", "1", "--seed", "3",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    trials = tmp_path / "trials.txt"
    trials.write_text("1 spk000/utt000.wav spk000/utt001.wav\n"
                      "0 spk000/utt000.wav spk001/utt001.wav\n")
    score_files = []
    for tag in ("x", "y"):
        prefix = str(tmp_path / f"run{tag}")
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                         "--trials", str(trials), "--audio-root", str(data_dir),
                         "--seed", "5", "--out-prefix", prefix]) == 0
        score_files.append(open(prefix + ".scores", "rb").read())
    assert score_files[0] == score_files[1]


def test_criterion_10_dsp_suite():
    """98 frames per second of audio, silence at the log floor, windowed
    normalization equal to its brute-force oracle, and energy conservation
    in the power spectrum."""
    audio = 0.5 * np.sin(2 * np.pi * 440 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
    lms = dsp._log_mel(audio, 80)
    assert lms.shape == (98, 80)

    silence = dsp._log_mel(np.zeros(SAMPLE_RATE), 80)
    assert np.all(silence == np.log(1e-10))

    rng = np.random.default_rng(11)
    for case in range(50):
        t_len = int(rng.integers(4, 350))
        vals = rng.standard_normal((t_len, 6))
        out = dsp._cmvn(vals, 0.8)
        w = int(round(0.8 / 0.010))
        t = int(rng.integers(0, t_len))
        lo, hi = cmvn_window_bounds(t, t_len, w)
        win = vals[lo:hi]
        ref = (vals[t] - win.mean(axis=0)) / np.maximum(win.std(axis=0), 1e-8)
        assert np.max(np.abs(out[t] - ref)) < 1e-8

    frames = rng.standard_normal((8, 512))
    half = power_spectrum(frames, 512)
    full_energy = 2 * half.sum(axis=1) - half[:, 0] - half[:, -1]
    time_energy = 512 * np.sum(frames**2, axis=1)
    assert np.max(np.abs(full_energy / time_energy - 1.0)) < 1e-6
