"""Back-end tests: cosine scoring, PLDA, EER/minDCF against exhaustive
oracles, and segment truncation."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from amcrn import scoring
from amcrn.audio import SAMPLE_RATE
from amcrn.dsp import featurize
from amcrn.errors import (ConfigError, DegenerateInput, InputTooShort,
                          InsufficientTrials, MissingUtterance, NumericalError)
from amcrn.model import AmcrnModel, tiny_config
from amcrn.scoring import (EvalReport, Trial, compute_eer, compute_mindcf, csm,
                           decide, det_sweep, far_frr, plda_from_covariances,
                           plda_score, plda_train, read_trial_list, run_trials,
                           truncate_segment, write_scored_trials)
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset


def eer_oracle(labels, scores):
    """Exhaustive sweep over every candidate threshold with the same
    linear interpolation rule, implemented independently."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tg = scores[labels == 1]
    ng = scores[labels == 0]
    cands = np.unique(scores)
    cands = np.append(cands, cands[-1] + 1.0)
    pts = [(float(t), np.mean(ng >= t), np.mean(tg < t)) for t in cands]
    prev = None
    for t, far, frr in pts:
        if far == frr:
            return far
        if far < frr:
            if prev is None:
                return 0.5 * (far + frr)
            _, pfar, pfrr = prev
            alpha = (pfar - pfrr) / ((pfar - pfrr) + (frr - far))
            return pfar + alpha * (far - pfar)
        prev = (t, far, frr)
    return 1.0


def _gaussian_logpdf(x, cov):
    chol = np.linalg.cholesky(cov)
    y = solve_triangular(chol, x, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (len(x) * np.log(2.0 * np.pi) + logdet + y @ y)


def plda_llr_oracle(model, between, within, a, b):
    """Same/different-speaker log-likelihood ratio of one pair from the
    2D x 2D joint Gaussian of the covariances `model` was built from, with
    no closed-form algebra."""
    a = model.preprocess(a) - model.mu
    b = model.preprocess(b) - model.mu
    total = between + within
    joint_same = np.block([[total, between], [between, total]])
    ll_same = _gaussian_logpdf(np.concatenate([a, b]), joint_same)
    ll_diff = _gaussian_logpdf(a, total) + _gaussian_logpdf(b, total)
    return float(ll_same - ll_diff)


def random_plda(rng, dim, spread, length_norm):
    """(model, between, within) for random covariances whose eigenvalues
    span `spread` decades."""
    def covariance():
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return (basis * 10.0 ** rng.uniform(-spread, 0.0, dim)) @ basis.T
    mu, between, within = 0.1 * rng.standard_normal(dim), covariance(), covariance()
    center = rng.standard_normal(dim) if length_norm else np.zeros(dim)
    model = plda_from_covariances(mu, between, within, center=center,
                                  length_norm=length_norm)
    return model, between, within


def mindcf_oracle(labels, scores, p_target=0.01, c_miss=1.0, c_fa=1.0):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tg = scores[labels == 1]
    ng = scores[labels == 0]
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best = np.inf
    for t in np.concatenate([scores - 1e-9, scores + 1e-9,
                             [scores.min() - 1.0, scores.max() + 1.0]]):
        dcf = c_miss * p_target * np.mean(tg < t) + c_fa * (1 - p_target) * np.mean(ng >= t)
        best = min(best, dcf / norm)
    return best


class TestCsm:
    def test_hand_case(self):
        # cos([1,2,2],[2,1,2]) = 8 / 9
        assert csm(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0])) == \
            pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            s = csm(a, b)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
            assert s == pytest.approx(csm(b, a), abs=1e-15)

    def test_scale_invariance(self):
        a = np.array([0.3, -0.7, 1.1])
        b = np.array([1.0, 0.4, -0.2])
        assert csm(3.0 * a, b) == pytest.approx(csm(a, 0.5 * b), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            csm(np.zeros(3), np.ones(3))

    def test_decision_boundary(self):
        assert decide(0.5, 0.5) == "accept"
        assert decide(0.4999999, 0.5) == "reject"
        assert decide(-1.0, -2.0) == "accept"
        assert decide(-1e300, -np.inf) == "accept"
        assert decide(1e300, np.inf) == "reject"

    @pytest.mark.parametrize("threshold", [0.5, -np.inf, np.inf, np.nan])
    def test_nan_score_is_never_accepted(self, threshold):
        with pytest.raises(NumericalError):
            decide(float("nan"), threshold)

    @pytest.mark.parametrize("score", [0.5, -np.inf, np.inf])
    def test_nan_threshold_is_a_config_error(self, score):
        with pytest.raises(ConfigError, match="threshold is NaN"):
            decide(score, float("nan"))

    def test_row_stack_matches_per_pair_calls(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((30, 7)), rng.standard_normal((30, 7))
        got = csm(a, b)
        assert got.shape == (30,)
        np.testing.assert_allclose(got, [csm(x, y) for x, y in zip(a, b)],
                                   rtol=0, atol=1e-15)

    def test_zero_row_in_stack_rejected(self):
        a = np.ones((3, 4))
        a[1] = 0.0
        with pytest.raises(DegenerateInput):
            csm(a, np.ones((3, 4)))


class TestPlda:
    @staticmethod
    def _clustered(rng, n_spk=5, per_spk=8, dim=6, spread=0.3):
        embs, labels = [], []
        for s in range(n_spk):
            mean = rng.standard_normal(dim) * 2.0
            for _ in range(per_spk):
                embs.append(mean + spread * rng.standard_normal(dim))
                labels.append(f"s{s}")
        return embs, labels

    def test_scores_are_symmetric(self):
        rng = np.random.default_rng(1)
        model = plda_train(*self._clustered(rng))
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        assert plda_score(model, a, b) == pytest.approx(plda_score(model, b, a), abs=1e-9)

    def test_same_speaker_pairs_outscore_cross_pairs(self):
        rng = np.random.default_rng(2)
        embs, labels = self._clustered(rng)
        model = plda_train(embs[:30], labels[:30])
        same = plda_score(model, embs[32], embs[33])  # both s4
        cross = plda_score(model, embs[2], embs[33])  # s0 vs s4
        assert same > cross

    def test_one_dimensional_hand_case(self):
        # B = W = 1: LLR = log N([a,b]; 0, [[2,1],[1,2]]) - log N(a;0,2) N(b;0,2)
        model = plda_from_covariances(np.zeros(1), np.eye(1), np.eye(1), np.zeros(1))
        a, b = 0.7, -0.3
        joint = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = np.array([a, b])
        ll_same = -0.5 * (2 * np.log(2 * np.pi) + np.log(np.linalg.det(joint))
                          + v @ np.linalg.inv(joint) @ v)
        ll_diff = sum(-0.5 * (np.log(2 * np.pi * 2.0) + x * x / 2.0) for x in (a, b))
        got = plda_score(model, np.array([a]), np.array([b]))
        assert got == pytest.approx(ll_same - ll_diff, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 6, 64]),
           spread=st.floats(0.0, 5.0), length_norm=st.booleans())
    def test_row_stack_matches_joint_gaussian_oracle(self, seed, dim, spread, length_norm):
        # Scores reach 1e5 in magnitude, so the tolerance is relative.
        rng = np.random.default_rng(seed)
        model, between, within = random_plda(rng, dim, spread, length_norm)
        a, b = rng.standard_normal((2, 5, dim))
        got = plda_score(model, a, b)
        want = np.array([plda_llr_oracle(model, between, within, x, y)
                         for x, y in zip(a, b)])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), (got, want)

    def test_row_stack_matches_per_pair_calls(self):
        # The matrix products round differently for one row and for many,
        # so equality holds to the oracle tolerance, not bit for bit.
        rng = np.random.default_rng(12)
        embs, labels = self._clustered(rng, dim=16)
        model = plda_train(embs, labels)
        a, b = rng.standard_normal((2, 25, 16))
        got = plda_score(model, a, b)
        assert got.shape == (25,)
        pairs = np.array([plda_score(model, x, y) for x, y in zip(a, b)])
        assert all(isinstance(plda_score(model, x, y), float) for x, y in zip(a, b))
        np.testing.assert_allclose(got, pairs, rtol=1e-9)

    @pytest.mark.parametrize("between, within", [
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.eye(2), -np.eye(2)),
        (np.eye(2), np.diag([1.0, -3.0])),
    ])
    def test_singular_total_covariance_is_numerical_error(self, between, within):
        with pytest.raises(NumericalError):
            plda_from_covariances(np.zeros(2), between, within, np.zeros(2))

    def test_identical_embeddings_favor_same_hypothesis(self):
        model = plda_from_covariances(np.zeros(2), np.eye(2), 0.1 * np.eye(2), np.zeros(2))
        x = np.array([0.5, -1.0])
        assert plda_score(model, x, x) > plda_score(model, x, -x)

    def test_covariances_recovered_from_generated_data(self):
        rng = np.random.default_rng(3)
        dim = 3
        embs, labels = [], []
        for s in range(200):
            mean = rng.standard_normal(dim)
            for _ in range(10):
                embs.append(mean + 0.5 * rng.standard_normal(dim))
                labels.append(s)
        model = plda_train(embs, labels)
        # After centering and length-norm the structure changes, so check
        # on a model fitted to raw statistics instead.
        x = np.asarray(embs, dtype=np.float64)
        x = x - x.mean(axis=0)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        by = {}
        for row, lab in zip(x, labels):
            by.setdefault(lab, []).append(row)
        means = np.asarray([np.mean(v, axis=0) for v in by.values()])
        cm = means - means.mean(axis=0)
        between_ref = cm.T @ cm / len(means)
        within_ref = sum((np.asarray(v) - m).T @ (np.asarray(v) - m)
                         for v, m in zip(by.values(), means)) / len(x)
        ridge = 1e-6 * np.eye(dim)
        want = plda_from_covariances(means.mean(axis=0), between_ref + ridge,
                                     within_ref + ridge, np.zeros(dim))
        for name in ("mu", "q", "p", "c"):
            np.testing.assert_allclose(getattr(model, name), getattr(want, name),
                                       rtol=0, atol=1e-9, err_msg=name)

    def test_single_speaker_rejected(self):
        with pytest.raises(DegenerateInput):
            plda_train([np.ones(3), np.zeros(3)], ["a", "a"])

    def test_singleton_speaker_warns(self):
        rng = np.random.default_rng(4)
        embs, labels = self._clustered(rng, n_spk=3, per_spk=3)
        embs.append(rng.standard_normal(6))
        labels.append("lonely")
        with pytest.warns(UserWarning, match="single embedding"):
            plda_train(embs, labels)


class TestMetrics:
    def test_far_frr_conventions(self):
        tg = np.array([0.9, 0.8, 0.2])
        ng = np.array([0.7, 0.1])
        far, frr = far_frr(tg, ng, 0.7)
        assert far == pytest.approx(0.5)  # 0.7 >= 0.7 accepted
        assert frr == pytest.approx(1.0 / 3.0)

    def test_eer_hand_case(self):
        labels = [1, 1, 0, 0]
        scores = [0.8, 0.4, 0.6, 0.2]
        eer, thr = compute_eer(labels, scores)
        assert eer == pytest.approx(0.5)

    def test_perfect_separation_gives_zero(self):
        eer, thr = compute_eer([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert eer == pytest.approx(0.0)
        assert 0.2 < thr <= 0.8

    def test_eer_matches_oracle_random_cases(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n_t = int(rng.integers(3, 40))
            n_n = int(rng.integers(3, 40))
            sep = rng.uniform(0.0, 2.0)
            scores = np.concatenate([rng.standard_normal(n_t) + sep,
                                     rng.standard_normal(n_n)])
            labels = np.concatenate([np.ones(n_t, int), np.zeros(n_n, int)])
            eer, _ = compute_eer(labels, scores)
            assert eer == pytest.approx(eer_oracle(labels, scores), abs=1e-12)

    def test_eer_with_tied_scores(self):
        labels = [1, 1, 1, 0, 0, 0]
        scores = [0.5, 0.5, 0.9, 0.5, 0.5, 0.1]
        eer, _ = compute_eer(labels, scores)
        assert eer == pytest.approx(eer_oracle(labels, scores), abs=1e-12)

    def test_mindcf_matches_oracle_random_cases(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n_t = int(rng.integers(3, 40))
            n_n = int(rng.integers(3, 40))
            scores = np.concatenate([rng.standard_normal(n_t) + 1.0,
                                     rng.standard_normal(n_n)])
            labels = np.concatenate([np.ones(n_t, int), np.zeros(n_n, int)])
            got = compute_mindcf(labels, scores)
            assert got == pytest.approx(mindcf_oracle(labels, scores), abs=1e-12)

    def test_mindcf_perfect_separation_is_zero(self):
        assert compute_mindcf([1, 1, 0, 0], [3.0, 2.0, -2.0, -3.0]) == pytest.approx(0.0)

    def test_mindcf_never_exceeds_one_plus_eps(self):
        # Accept-all or reject-all bounds the normalized cost at 1.
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, 50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        assert compute_mindcf(labels, scores) <= 1.0 + 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientTrials):
            compute_eer([1, 1], [0.5, 0.6])

    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_equals_far_frr_at_every_threshold(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_t, n_n = (int(n) for n in rng.integers(1, 300, 2))
        scores = np.concatenate([rng.standard_normal(n_t) + 1.0, rng.standard_normal(n_n)])
        if seed % 2:  # ties
            scores = np.round(scores, 1)
        labels = np.concatenate([np.ones(n_t, int), np.zeros(n_n, int)])
        rows = det_sweep(labels, scores)
        assert [r[0] for r in rows] == np.unique(scores).tolist()
        for t, far, frr in rows:
            assert (far, frr) == far_frr(scores[:n_t], scores[n_t:], t)

    @pytest.mark.parametrize("metric", [compute_eer, compute_mindcf, det_sweep])
    def test_nan_score_is_numerical_error(self, metric):
        with pytest.raises(NumericalError):
            metric([1, 0, 1, 0], [0.9, 0.1, float("nan"), 0.2])

    def test_det_sweep_monotone_far(self):
        rng = np.random.default_rng(8)
        scores = np.concatenate([rng.standard_normal(20) + 1, rng.standard_normal(20)])
        labels = [1] * 20 + [0] * 20
        rows = det_sweep(labels, scores)
        fars = [r[1] for r in rows]
        frrs = [r[2] for r in rows]
        assert fars == sorted(fars, reverse=True)
        assert frrs == sorted(frrs)


class TestTrials:
    def test_truncate_returns_requested_length(self):
        audio = np.random.default_rng(9).standard_normal(3 * SAMPLE_RATE) * 0.1
        seg, truncated = truncate_segment(audio, 2.0, seed=0)
        assert truncated and len(seg) == 2 * SAMPLE_RATE

    def test_truncate_is_contiguous_slice(self):
        audio = np.arange(3 * SAMPLE_RATE, dtype=np.float64) / (4 * SAMPLE_RATE)
        seg, _ = truncate_segment(audio, 1.0, seed=1)
        start = int(round(seg[0] * 4 * SAMPLE_RATE))
        np.testing.assert_array_equal(seg, audio[start : start + SAMPLE_RATE])

    def test_truncate_deterministic_per_seed(self):
        audio = np.random.default_rng(10).standard_normal(3 * SAMPLE_RATE) * 0.1
        a, _ = truncate_segment(audio, 2.0, seed=5)
        b, _ = truncate_segment(audio, 2.0, seed=5)
        assert np.array_equal(a, b)

    def test_short_audio_passed_whole(self):
        audio = np.zeros(SAMPLE_RATE)
        seg, truncated = truncate_segment(audio, 2.0, seed=0)
        assert not truncated and seg is audio

    def test_trial_list_round_trip(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 spk0_a spk0_b\n0 spk0_a spk1_c\n\n")
        trials = read_trial_list(path)
        assert trials == [Trial(1, "spk0_a", "spk0_b"), Trial(0, "spk0_a", "spk1_c")]
        out = tmp_path / "scored.txt"
        write_scored_trials(out, trials, [0.25, -0.5])
        lines = out.read_text().splitlines()
        assert lines[0] == "1 spk0_a spk0_b 0.25"
        assert lines[1] == "0 spk0_a spk1_c -0.5"

    def test_malformed_trial_line_reports_lineno(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a b\n2 c d\n")
        with pytest.raises(MissingUtterance, match="2"):
            read_trial_list(path)

    def test_undecodable_trial_list_names_its_file(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_bytes(b"1 a b\n0 a \xff\n")
        with pytest.raises(MissingUtterance, match=f"^{path}: not a UTF-8 trial list: "):
            read_trial_list(path)

    def test_report_text_round_trips_floats(self):
        report = EvalReport(0.1 + 0.2, 0.3, 0.7, 10, 20)
        text = report.to_text()
        assert f"eer={(0.1 + 0.2)!r}" in text
        assert "n_target=10" in text


class TestRunTrials:
    @pytest.fixture(scope="class")
    def dataset(self):
        data = make_toy_dataset(ToySpeakerSpec(n_speakers=2, utterances_per_speaker=2,
                                               utterance_seconds=0.5, seed=0))
        audio = {u.utterance_id: u.audio for u in data}
        speaker = {u.utterance_id: u.speaker_id for u in data}
        trials = [Trial(int(speaker[a] == speaker[b]), a, b)
                  for a in audio for b in audio if a != b]
        return audio, trials

    @staticmethod
    def _counted_model(monkeypatch):
        """A model whose `embed` records the input shape of every call."""
        model = AmcrnModel(tiny_config(), seed=0)
        shapes = []
        embed = model.embed

        def counted(lms_values):
            shapes.append(np.shape(lms_values))
            return embed(lms_values)

        monkeypatch.setattr(model, "embed", counted)
        return model, shapes

    @staticmethod
    def _rows(shapes):
        return sum(1 if len(shape) == 2 else shape[0] for shape in shapes)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_each_ref_embedded_once_without_truncation(self, dataset, monkeypatch,
                                                       copies):
        # A trial list that names every pair `copies` times still embeds
        # each ref once.
        audio, trials = dataset
        model, shapes = self._counted_model(monkeypatch)
        run_trials(model, trials * copies, audio.__getitem__)
        assert self._rows(shapes) == len(audio)

    def test_empty_trial_list_rejected(self):
        with pytest.raises(InsufficientTrials):
            run_trials(AmcrnModel(tiny_config(), seed=0), [], {}.__getitem__)

    def test_truncated_test_side_gets_its_own_embedding(self, dataset, monkeypatch):
        audio, trials = dataset
        model, shapes = self._counted_model(monkeypatch)
        whole, _ = run_trials(model, trials, audio.__getitem__)
        shapes.clear()
        cut, _ = run_trials(model, trials, audio.__getitem__, truncation=0.25, seed=1)
        assert self._rows(shapes) == 2 * len(audio)
        assert not np.allclose(cut, whole)

    def test_test_ref_no_longer_than_truncation_shares_whole_embedding(
            self, dataset, monkeypatch):
        # Four 0.5 s refs are not cut at 2 s: each is embedded once.
        audio, trials = dataset
        model, shapes = self._counted_model(monkeypatch)
        whole, _ = run_trials(model, trials, audio.__getitem__)
        shapes.clear()
        kept, _ = run_trials(model, trials, audio.__getitem__, truncation=2.0, seed=1)
        assert self._rows(shapes) == len(audio)
        assert kept == whole

    @pytest.mark.parametrize("frame_limit", [150, scoring.EMBED_FRAME_LIMIT])
    def test_waiting_features_stay_bounded(self, monkeypatch, frame_limit):
        # Twenty refs of ten lengths (28 to 64 frames), each length twice
        # and ten refs apart, so no two consecutive whole refs share a
        # pass; the test side is cut to 0.4 s where it is longer, and those
        # cut sides run in passes of several.
        data = make_toy_dataset(ToySpeakerSpec(n_speakers=4, utterances_per_speaker=5,
                                               utterance_seconds=1.0, seed=1))
        seconds = [0.3 + 0.04 * i for i in range(10)]
        audio = {u.utterance_id: u.audio[:int(SAMPLE_RATE * s)]
                 for u, s in zip(data, seconds * 2)}
        speaker = {u.utterance_id: u.speaker_id for u in data}
        refs = list(audio)
        trials = [Trial(int(speaker[a] == speaker[b]), a, b)
                  for i, a in enumerate(refs) for b in refs[i + 1:i + 4]]
        monkeypatch.setattr(scoring, "EMBED_FRAME_LIMIT", frame_limit)
        model, shapes = self._counted_model(monkeypatch)
        featurized, waiting = [], []
        extract = scoring.featurize

        def recording(segment, n_mels):
            # Frames featurized and not yet embedded, before this one.
            waiting.append(sum(featurized) - sum(n * t for n, t, _ in shapes))
            feats = extract(segment, n_mels)
            featurized.append(len(feats))
            return feats

        monkeypatch.setattr(scoring, "featurize", recording)
        got, _ = run_trials(model, trials, audio.__getitem__, truncation=0.4, seed=2)
        monkeypatch.setattr(scoring, "featurize", extract)
        want = self._per_ref_taped_scores(model, trials, audio, "csm", None, 0.4, seed=2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert 0 < max(waiting) <= frame_limit
        assert sum(n * t for n, t, _ in shapes) == sum(featurized)
        assert all(n == 1 or n * t <= frame_limit for n, t, _ in shapes)
        assert any(n > 1 for n, _, _ in shapes)

    @staticmethod
    def _per_ref_taped_scores(model, trials, audio, backend, plda, truncation, seed):
        """Oracle: each trial side embedded on its own by the taped
        eval-mode pass, then scored pair by pair."""
        def embedding(ref, trunc):
            segment = audio[ref]
            if trunc is not None:
                segment, _ = truncate_segment(segment, trunc,
                                              (seed, zlib.crc32(ref.encode())))
            feats = featurize(segment, model.config.n_mels)
            return model.embed_tensor(feats, mode="eval").data

        score = csm if backend == "csm" else (lambda a, b: plda_score(plda, a, b))
        return [score(embedding(t.enroll_ref, None), embedding(t.test_ref, truncation))
                for t in trials]

    @pytest.mark.parametrize("backend", ["csm", "plda"])
    @pytest.mark.parametrize("truncation", [None, 0.25])
    @pytest.mark.parametrize("frame_limit", [scoring.EMBED_FRAME_LIMIT, 100, 1])
    def test_batched_scores_match_per_ref_taped_embedding(self, dataset, monkeypatch,
                                                          backend, truncation,
                                                          frame_limit):
        audio, trials = dataset
        # Four 0.5 s refs (48 frames each): a limit of 100 frames splits
        # their group into passes of two, a limit of 1 into single refs.
        monkeypatch.setattr(scoring, "EMBED_FRAME_LIMIT", frame_limit)
        model, shapes = self._counted_model(monkeypatch)
        dim = model.config.embedding_dim
        rng = np.random.default_rng(2)
        spread = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        plda = plda_from_covariances(np.zeros(dim), spread @ spread.T + np.eye(dim),
                                     np.eye(dim), np.zeros(dim))
        got, _ = run_trials(model, trials, audio.__getitem__,
                            plda if backend == "plda" else None,
                            truncation=truncation, seed=4)
        want = self._per_ref_taped_scores(model, trials, audio, backend, plda,
                                          truncation, seed=4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert all(len(shape) == 3 for shape in shapes)
        assert all(n == 1 or n * t <= frame_limit for n, t, _ in shapes)
        if frame_limit < 4 * 48:
            assert len(shapes) > len({t for _, t, _ in shapes})

    @pytest.mark.parametrize("samples", [320, 400])
    def test_too_short_ref_is_named(self, dataset, samples):
        # 320 samples make no frame; 400 make one, too few to pool.
        audio, trials = dataset
        audio = dict(audio, tiny=np.ones(samples) * 0.01)
        trials = trials + [Trial(0, trials[0].enroll_ref, "tiny")]
        with pytest.raises(InputTooShort, match="'tiny'"):
            run_trials(AmcrnModel(tiny_config(), seed=0), trials, audio.__getitem__)

    def test_truncation_offset_differs_per_ref_and_repeats(self, monkeypatch):
        # Six identical ramps: a segment's first sample gives its offset.
        ramp = np.arange(SAMPLE_RATE // 2) / (2.0 * SAMPLE_RATE)
        refs = [f"u{i}" for i in range(6)]
        trials = [Trial(int(i % 2 == 0), "u0", ref) for i, ref in enumerate(refs)]
        offsets = []
        extract = scoring.featurize

        def recording(audio, n_mels):
            if len(audio) == SAMPLE_RATE // 4:
                offsets.append(int(round(audio[0] * 2.0 * SAMPLE_RATE)))
            return extract(audio, n_mels)

        monkeypatch.setattr(scoring, "featurize", recording)
        model = AmcrnModel(tiny_config(), seed=0)
        run_trials(model, trials, lambda ref: ramp, truncation=0.25, seed=3)
        first = list(offsets)
        assert len(first) == len(refs)
        assert len(set(first)) == len(refs)
        offsets.clear()
        run_trials(model, trials, lambda ref: ramp, truncation=0.25, seed=3)
        assert offsets == first
