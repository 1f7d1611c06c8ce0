"""Back-end scoring and evaluation: cosine similarity, a two-covariance
PLDA, accept/reject decisions, EER and minDCF, and truncated-segment
evaluation."""

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .audio import AudioBuffer
from .dsp import FrameSpec, apply_cmvn, extract_lms
from .errors import (DegenerateInput, InsufficientTrials, MissingUtterance,
                     NumericalError)

# ----------------------------------------------------------------------
# Similarity backends
# ----------------------------------------------------------------------


def csm(a, b) -> float:
    """Cosine similarity between two embeddings (no score normalization)."""
    a = np.asarray(getattr(a, "values", a), dtype=np.float64)
    b = np.asarray(getattr(b, "values", b), dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInput("cosine similarity of a zero-norm embedding")
    return float(a @ b / (na * nb))


def decide(score: float, threshold: float = 0.5) -> str:
    """Reject iff the score is strictly below the threshold."""
    return "reject" if score < threshold else "accept"


@dataclass
class PldaModel:
    """Two-covariance Gaussian model: class mean ~ N(mu, B), residual ~ N(0, W).

    `center` and `length_norm` describe the preprocessing applied to raw
    embeddings before scoring (set by plda_train; leave at defaults to
    score raw vectors against a hand-constructed model).
    """

    mu: np.ndarray
    between: np.ndarray
    within: np.ndarray
    center: np.ndarray = None
    length_norm: bool = False

    def preprocess(self, x):
        x = np.asarray(getattr(x, "values", x), dtype=np.float64)
        if self.center is not None:
            x = x - self.center
        if self.length_norm:
            norm = np.linalg.norm(x)
            if norm > 1e-12:
                x = x / norm
        return x


RIDGE = 1e-6


def plda_train(embeddings, labels) -> PldaModel:
    """Method-of-moments two-covariance model.

    Embeddings are centered and length-normalized; the between-class
    covariance is the scatter of speaker means and the within-class
    covariance is the pooled within-speaker scatter, each ridged.
    """
    x = np.asarray([np.asarray(getattr(e, "values", e), dtype=np.float64) for e in embeddings])
    labels = list(labels)
    if len(set(labels)) < 2:
        raise DegenerateInput("PLDA training needs at least 2 speakers")
    center = x.mean(axis=0)
    x = x - center
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = np.where(norms > 1e-12, x / np.maximum(norms, 1e-12), x)
    dim = x.shape[1]

    by_speaker = {}
    for row, lab in zip(x, labels):
        by_speaker.setdefault(lab, []).append(row)
    means = []
    within = np.zeros((dim, dim))
    n_within = 0
    for lab, rows in by_speaker.items():
        rows = np.asarray(rows)
        mean = rows.mean(axis=0)
        means.append(mean)
        if len(rows) < 2:
            warnings.warn(f"speaker {lab!r} has a single embedding; "
                          "it contributes only to the between-class scatter")
        centered = rows - mean
        within += centered.T @ centered
        n_within += len(rows)
    means = np.asarray(means)
    mu = means.mean(axis=0)
    centered_means = means - mu
    between = centered_means.T @ centered_means / len(means)
    within = within / max(1, n_within)
    between += RIDGE * np.eye(dim)
    within += RIDGE * np.eye(dim)
    return PldaModel(mu, between, within, center=center, length_norm=True)


def plda_score(model: PldaModel, a, b) -> float:
    """Gaussian log-likelihood ratio: same speaker vs different speakers."""
    a = model.preprocess(a)
    b = model.preprocess(b)
    dim = len(a)
    total = model.between + model.within
    joint_same = np.block([[total, model.between], [model.between, total]])
    pair = np.concatenate([a - model.mu, b - model.mu])
    try:
        ll_same = _gaussian_logpdf(pair, joint_same)
        ll_diff = _gaussian_logpdf(a - model.mu, total) + _gaussian_logpdf(b - model.mu, total)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular covariance in PLDA scoring: {exc}") from exc
    return float(ll_same - ll_diff)


def _gaussian_logpdf(x, cov):
    chol = np.linalg.cholesky(cov)
    y = solve_triangular(chol, x, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (len(x) * np.log(2.0 * np.pi) + logdet + y @ y)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@dataclass
class Trial:
    label: int  # 1 = target, 0 = nontarget
    enroll_ref: str
    test_ref: str


@dataclass
class EvalReport:
    eer: float
    eer_threshold: float
    min_dcf: float
    n_target: int
    n_nontarget: int

    def to_text(self) -> str:
        return (f"eer={self.eer!r}\n"
                f"eer_threshold={self.eer_threshold!r}\n"
                f"min_dcf={self.min_dcf!r}\n"
                f"n_target={self.n_target}\n"
                f"n_nontarget={self.n_nontarget}\n")


def _split_scores(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    targets = scores[labels == 1]
    nontargets = scores[labels == 0]
    if len(targets) == 0 or len(nontargets) == 0:
        raise InsufficientTrials("need at least one target and one nontarget trial")
    return targets, nontargets


def far_frr(targets, nontargets, threshold):
    """False-acceptance and false-rejection rates at one threshold.

    FAR counts nontargets with score >= threshold; FRR counts targets
    with score < threshold (accept-at-threshold convention).
    """
    far = float(np.mean(nontargets >= threshold))
    frr = float(np.mean(targets < threshold))
    return far, frr


def compute_eer(labels, scores):
    """EER with linear interpolation at the FAR/FRR sign change.

    Returns (eer, threshold). Thresholds sweep the sorted scores plus a
    sentinel above the maximum.
    """
    targets, nontargets = _split_scores(labels, scores)
    all_scores = np.concatenate([targets, nontargets])
    thresholds = np.unique(all_scores)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    prev = None
    for t in thresholds:
        far, frr = far_frr(targets, nontargets, t)
        if far == frr:
            return float(far), float(t)
        if far < frr:
            if prev is None:
                return 0.5 * (far + frr), float(t)
            p_t, p_far, p_frr = prev
            d1 = p_far - p_frr
            d2 = frr - far
            alpha = d1 / (d1 + d2)
            eer = p_far + alpha * (far - p_far)
            thr = p_t + alpha * (t - p_t)
            return float(eer), float(thr)
        prev = (t, far, frr)
    # FAR stays above FRR through the sweep end (cannot happen with the
    # sentinel, where FAR = 0).
    return 1.0, float(thresholds[-1])


def compute_mindcf(labels, scores, p_target=0.01, c_miss=1.0, c_fa=1.0):
    """Minimum normalized detection cost over all candidate thresholds."""
    targets, nontargets = _split_scores(labels, scores)
    all_scores = np.unique(np.concatenate([targets, nontargets]))
    candidates = np.concatenate([[all_scores[0] - 1.0], all_scores, [all_scores[-1] + 1.0]])
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best = np.inf
    for t in candidates:
        far, frr = far_frr(targets, nontargets, t)
        dcf = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
        best = min(best, dcf / norm)
    return float(best)


def det_sweep(labels, scores):
    """Raw (threshold, FAR, FRR) sweep points for external plotting."""
    targets, nontargets = _split_scores(labels, scores)
    thresholds = np.unique(np.concatenate([targets, nontargets]))
    rows = []
    for t in thresholds:
        far, frr = far_frr(targets, nontargets, t)
        rows.append((float(t), far, frr))
    return rows


# ----------------------------------------------------------------------
# Trial evaluation
# ----------------------------------------------------------------------


def truncate_segment(audio: AudioBuffer, duration: float, seed: int):
    """Uniformly random contiguous segment of the requested duration.

    Returns (segment, truncated_flag); audio shorter than the request is
    passed through whole with the flag unset.
    """
    want = int(round(duration * audio.sample_rate))
    if len(audio) <= want:
        return audio, False
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(audio) - want + 1))
    return AudioBuffer(audio.samples[start : start + want], audio.sample_rate), True


def read_trial_list(path):
    """Parse `<label> <enroll_path> <test_path>` lines (1=target, 0=nontarget)."""
    trials = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("0", "1"):
                raise MissingUtterance(f"{path}:{lineno}: malformed trial line: {raw.rstrip()!r}")
            trials.append(Trial(int(parts[0]), parts[1], parts[2]))
    return trials


def write_scored_trials(path, trials, scores):
    with open(path, "w", encoding="utf-8") as fh:
        for trial, score in zip(trials, scores):
            fh.write(f"{trial.label} {trial.enroll_ref} {trial.test_ref} {score!r}\n")


def _worker_count():
    return max(1, int(os.environ.get("AMCRN_THREADS", "1")))


def run_trials(model, trials, resolve_audio, backend="csm", plda_model=None,
               truncation=None, seed=0, p_target=0.01):
    """Score a trial list and compute EER/minDCF.

    `resolve_audio(ref)` returns an AudioBuffer or raises KeyError.
    Truncation (in seconds) applies to the test side only. Embeddings are
    cached by (ref, truncation applied), so without truncation a ref used
    on both sides is embedded once.
    """
    if backend == "plda" and plda_model is None:
        raise NumericalError("PLDA backend requested without a trained model")
    cache = {}
    spec = FrameSpec(n_mels=model.config.n_mels)

    def embed_ref(ref, trunc):
        key = (ref, trunc)
        if key in cache:
            return cache[key]
        try:
            audio = resolve_audio(ref)
        except KeyError as exc:
            raise MissingUtterance(f"cannot resolve utterance {ref!r}") from exc
        if trunc is not None:
            audio, _ = truncate_segment(audio, trunc, seed)
        feats = apply_cmvn(extract_lms(audio, spec))
        emb = model.embed(feats.values)
        cache[key] = emb
        return emb

    keys = [(t.enroll_ref, None) for t in trials] + [(t.test_ref, truncation) for t in trials]
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda key: embed_ref(*key), dict.fromkeys(keys)))
    scores = []
    for t in trials:
        enroll = embed_ref(t.enroll_ref, None)
        test = embed_ref(t.test_ref, truncation)
        if backend == "csm":
            scores.append(csm(enroll, test))
        else:
            scores.append(plda_score(plda_model, enroll, test))
    labels = [t.label for t in trials]
    eer, thr = compute_eer(labels, scores)
    min_dcf = compute_mindcf(labels, scores, p_target=p_target)
    report = EvalReport(eer, thr, min_dcf, int(sum(labels)), int(len(labels) - sum(labels)))
    return scores, report
