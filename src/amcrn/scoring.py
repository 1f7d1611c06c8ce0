"""Back-end scoring and evaluation: cosine similarity, a two-covariance
PLDA, accept/reject decisions, EER and minDCF, and truncated-segment
evaluation."""

import math
import os
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .audio import AudioBuffer
from .dsp import FrameSpec, apply_cmvn, extract_lms
from .errors import (DegenerateInput, InsufficientTrials, MissingUtterance,
                     NumericalError)

# ----------------------------------------------------------------------
# Similarity backends
# ----------------------------------------------------------------------


def _rows(x):
    return np.asarray(getattr(x, "values", x), dtype=np.float64)


def csm(a, b):
    """Cosine similarity (no score normalization).

    Two embeddings give a float; two N×D row stacks give the N pairwise
    scores of row i with row i.
    """
    a, b = _rows(a), _rows(b)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DegenerateInput("cosine similarity of a zero-norm embedding")
    scores = np.einsum("...d,...d->...", a, b) / (na * nb)
    return float(scores) if scores.ndim == 0 else scores


def decide(score: float, threshold: float = 0.5) -> str:
    """Reject iff the score is strictly below the threshold.

    A NaN score raises NumericalError, so it can never be accepted.
    """
    if math.isnan(score):
        raise NumericalError("score is NaN")
    return "reject" if score < threshold else "accept"


@dataclass
class PldaModel:
    """Two-covariance Gaussian model: class mean ~ N(mu, B), residual ~ N(0, W).

    `center` and `length_norm` describe the preprocessing applied to raw
    embeddings before scoring (set by plda_train; leave at defaults to
    score raw vectors against a hand-constructed model).

    Construction derives the closed-form scoring terms (Ioffe 2006): with
    T = B + W and S = T - B T^-1 B, the same/different log-likelihood
    ratio of a pair is ½x'Qx + ½y'Qy + x'Py + c for Q = T^-1 - S^-1,
    P = T^-1 B S^-1 and c = ½ logdet T - ½ logdet S. T and S are
    factorized by Cholesky and every inverse is a `cho_solve`; a
    covariance that is not positive definite raises NumericalError.
    """

    mu: np.ndarray
    between: np.ndarray
    within: np.ndarray
    center: np.ndarray = None
    length_norm: bool = False
    q: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        between = np.asarray(self.between, dtype=np.float64)
        total = between + np.asarray(self.within, dtype=np.float64)
        eye = np.eye(len(total))
        try:
            chol_t = cho_factor(total, lower=True)
            t_inv_b = cho_solve(chol_t, between)
            chol_s = cho_factor(total - between @ t_inv_b, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular covariance in PLDA model: {exc}") from exc
        s_inv = cho_solve(chol_s, eye)
        self.q = cho_solve(chol_t, eye) - s_inv
        # P = T^-1 B S^-1 is symmetric; (S^-1 (T^-1 B)')' computes it.
        self.p = cho_solve(chol_s, t_inv_b.T).T
        self.c = float(np.sum(np.log(np.diag(chol_t[0])))
                       - np.sum(np.log(np.diag(chol_s[0]))))

    def preprocess(self, x):
        """Center and length-normalize an embedding or the rows of a stack."""
        x = _rows(x)
        if self.center is not None:
            x = x - self.center
        if self.length_norm:
            norm = np.linalg.norm(x, axis=-1, keepdims=True)
            x = np.where(norm > 1e-12, x / np.maximum(norm, 1e-12), x)
        return x


RIDGE = 1e-6


def plda_train(embeddings, labels) -> PldaModel:
    """Method-of-moments two-covariance model.

    Embeddings are centered and length-normalized; the between-class
    covariance is the scatter of speaker means and the within-class
    covariance is the pooled within-speaker scatter, each ridged.
    """
    x = np.asarray([_rows(e) for e in embeddings])
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


def plda_score(model: PldaModel, a, b):
    """Log-likelihood ratio, same speaker vs different speakers.

    Two embeddings give a float; two N×D row stacks give the N scores of
    row i against row i, as matrix products with the model's Q and P.
    """
    x = model.preprocess(a) - model.mu
    y = model.preprocess(b) - model.mu
    scores = (0.5 * np.einsum("...d,...d->...", x @ model.q, x)
              + 0.5 * np.einsum("...d,...d->...", y @ model.q, y)
              + np.einsum("...d,...d->...", x @ model.p, y) + model.c)
    return float(scores) if scores.ndim == 0 else scores


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
    if np.any(np.isnan(scores)):
        raise NumericalError("score list contains NaN")
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


def _sweep(labels, scores):
    """(thresholds, FAR, FRR) arrays over every distinct score plus one
    sentinel below the minimum and one above the maximum, ascending.

    The rates follow `far_frr`. The count of each class's scores below a
    threshold is a binary search in that class's sorted scores, so the
    sweep costs O(N log N), and count / n reproduces `far_frr`'s mean over
    booleans bit for bit.
    """
    targets, nontargets = _split_scores(labels, scores)
    distinct = np.unique(np.concatenate([targets, nontargets]))
    thresholds = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    targets_below = np.searchsorted(np.sort(targets), thresholds, side="left")
    nontargets_below = np.searchsorted(np.sort(nontargets), thresholds, side="left")
    far = (len(nontargets) - nontargets_below) / len(nontargets)
    frr = targets_below / len(targets)
    return thresholds, far, frr


def compute_eer(labels, scores):
    """EER with linear interpolation at the FAR/FRR sign change.

    Returns (eer, threshold). Thresholds sweep the sorted scores plus a
    sentinel above the maximum.
    """
    thresholds, far, frr = _sweep(labels, scores)
    # Skip the sentinel below the minimum. The sentinel above the maximum
    # has FAR = 0, so FAR <= FRR somewhere.
    i = 1 + int(np.argmax(far[1:] <= frr[1:]))
    t, t_far, t_frr = float(thresholds[i]), float(far[i]), float(frr[i])
    if t_far == t_frr:
        return t_far, t
    if i == 1:
        return 0.5 * (t_far + t_frr), t
    p_t, p_far, p_frr = float(thresholds[i - 1]), float(far[i - 1]), float(frr[i - 1])
    d1 = p_far - p_frr
    d2 = t_frr - t_far
    alpha = d1 / (d1 + d2)
    return p_far + alpha * (t_far - p_far), p_t + alpha * (t - p_t)


def compute_mindcf(labels, scores, p_target=0.01, c_miss=1.0, c_fa=1.0):
    """Minimum normalized detection cost over all candidate thresholds."""
    _, far, frr = _sweep(labels, scores)
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    dcf = (c_miss * p_target * frr + c_fa * (1.0 - p_target) * far) / norm
    return float(dcf.min())


def det_sweep(labels, scores):
    """Raw (threshold, FAR, FRR) sweep points for external plotting."""
    thresholds, far, frr = (a[1:-1].tolist() for a in _sweep(labels, scores))
    return list(zip(thresholds, far, frr))


# ----------------------------------------------------------------------
# Trial evaluation
# ----------------------------------------------------------------------


def truncate_segment(audio: AudioBuffer, duration: float, seed):
    """Uniformly random contiguous segment of the requested duration.

    Returns (segment, truncated_flag); audio shorter than the request is
    passed through whole with the flag unset. `seed` is an int or a
    sequence of ints, as `np.random.default_rng` takes.
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
    Truncation (in seconds) applies to the test side only; each ref's
    offset is drawn from `seed` mixed with the CRC-32 of the ref, so
    equal-length utterances are cut at different offsets and a rerun
    repeats them. Embeddings are cached by (ref, truncation applied), so
    without truncation a ref used on both sides is embedded once. The
    whole list is scored in one back-end call on the stacked sides.
    """
    if backend == "plda" and plda_model is None:
        raise NumericalError("PLDA backend requested without a trained model")
    if not trials:
        raise InsufficientTrials("empty trial list")
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
            audio, _ = truncate_segment(audio, trunc, (seed, zlib.crc32(ref.encode())))
        feats = apply_cmvn(extract_lms(audio, spec))
        emb = model.embed(feats.values)
        cache[key] = emb
        return emb

    keys = [(t.enroll_ref, None) for t in trials] + [(t.test_ref, truncation) for t in trials]
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda key: embed_ref(*key), dict.fromkeys(keys)))
    enroll = np.stack([embed_ref(t.enroll_ref, None).values for t in trials])
    test = np.stack([embed_ref(t.test_ref, truncation).values for t in trials])
    if backend == "csm":
        scores = csm(enroll, test).tolist()
    else:
        scores = plda_score(plda_model, enroll, test).tolist()
    labels = [t.label for t in trials]
    eer, thr = compute_eer(labels, scores)
    min_dcf = compute_mindcf(labels, scores, p_target=p_target)
    report = EvalReport(eer, thr, min_dcf, int(sum(labels)), int(len(labels) - sum(labels)))
    return scores, report
