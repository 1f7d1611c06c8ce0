"""Back-end scoring and evaluation: cosine similarity, a two-covariance
PLDA and its file, accept/reject decisions, EER and minDCF, and
truncated-segment evaluation."""

import io
import math
import warnings
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .audio import random_crop
from .dsp import featurize
from .errors import (ConfigError, DegenerateInput, InputTooShort, InsufficientTrials,
                     MissingUtterance, NumericalError)
from .model import _atomic_write, equal_length_runs

# ----------------------------------------------------------------------
# Similarity backends
# ----------------------------------------------------------------------


def _rows(x):
    return np.asarray(x, dtype=np.float64)


def _length_norm(x):
    """Rows scaled to unit L2 norm; rows of norm <= 1e-12 are left as they are."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norm > 1e-12, x / np.maximum(norm, 1e-12), x)


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

    A NaN score raises NumericalError, so it can never be accepted; a NaN
    threshold, which no score is below, raises ConfigError.
    """
    if math.isnan(score):
        raise NumericalError("score is NaN")
    if math.isnan(threshold):
        raise ConfigError("threshold is NaN")
    return "reject" if score < threshold else "accept"


@dataclass
class PldaModel:
    """What `plda_score` reads of a two-covariance PLDA model.

    `q`, `p` and `c` are the closed-form scoring terms that
    `plda_from_covariances` derives; `center` and `length_norm` describe
    the preprocessing applied to raw embeddings before scoring (set by
    plda_train; leave at defaults to score raw vectors). `save_plda` and
    `load_plda` store and restore these six fields.
    """

    mu: np.ndarray
    q: np.ndarray
    p: np.ndarray
    c: float
    center: np.ndarray = None
    length_norm: bool = False

    def preprocess(self, x):
        """Center and length-normalize an embedding or the rows of a stack."""
        x = _rows(x)
        if self.center is not None:
            x = x - self.center
        return _length_norm(x) if self.length_norm else x


def plda_from_covariances(mu, between, within, center=None, length_norm=False) -> PldaModel:
    """Two-covariance Gaussian model: class mean ~ N(mu, B), residual ~ N(0, W).

    Derives the closed-form scoring terms (Ioffe 2006): with T = B + W
    and S = T - B T^-1 B, the same/different log-likelihood ratio of a
    pair is ½x'Qx + ½y'Qy + x'Py + c for Q = T^-1 - S^-1,
    P = T^-1 B S^-1 and c = ½ logdet T - ½ logdet S. T and S are
    factorized by Cholesky and every inverse is a `cho_solve`; a
    covariance that is not positive definite raises NumericalError.
    This is the only place the closed form is computed.
    """
    # Imported here: scipy.linalg adds about 0.3 s and 28 MB to a
    # process, and only the fit (and a hand-built model) needs it;
    # scoring a model read by `load_plda` does not.
    from scipy.linalg import cho_factor, cho_solve

    between = np.asarray(between, dtype=np.float64)
    total = between + np.asarray(within, dtype=np.float64)
    eye = np.eye(len(total))
    try:
        chol_t = cho_factor(total, lower=True)
        t_inv_b = cho_solve(chol_t, between)
        chol_s = cho_factor(total - between @ t_inv_b, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular covariance in PLDA model: {exc}") from exc
    s_inv = cho_solve(chol_s, eye)
    q = cho_solve(chol_t, eye) - s_inv
    # P = T^-1 B S^-1 is symmetric; (S^-1 (T^-1 B)')' computes it.
    p = cho_solve(chol_s, t_inv_b.T).T
    c = float(np.sum(np.log(np.diag(chol_t[0]))) - np.sum(np.log(np.diag(chol_s[0]))))
    return PldaModel(mu, q, p, c, center=center, length_norm=length_norm)


def save_plda(path, model: PldaModel):
    """Write a model's six fields as a numpy `.npz` archive (`c` 0-d),
    so `load_plda` restores them bit for bit and factorizes nothing."""
    buf = io.BytesIO()
    np.savez(buf, mu=model.mu, q=model.q, p=model.p, c=np.float64(model.c),
             center=model.center, length_norm=np.bool_(model.length_norm))
    _atomic_write(path, buf.getvalue())


def load_plda(path, dim) -> PldaModel:
    """Read a model written by `save_plda` for `dim`-d embeddings.

    Nothing is solved and scipy is not imported. Every array must be
    present, finite and of its shape for `dim`, or ConfigError; Q must be
    negative definite (a Cholesky of -Q succeeds), as it is for every fit
    with positive-definite covariances, or NumericalError. A file of the
    older covariance-only layout is refused with ConfigError.
    """
    shapes = {"mu": (dim,), "q": (dim, dim), "p": (dim, dim), "c": (), "center": (dim,)}
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path}: not a PLDA .npz archive")
        with data:
            if "between" in data.files and "q" not in data.files:
                raise ConfigError(f"{path}: PLDA file of the old covariance-only layout; "
                                  "refit it with --plda-train-dir")
            arrays = {name: np.asarray(data[name], dtype=np.float64) for name in shapes}
            length_norm = bool(data["length_norm"])
    except KeyError as exc:
        raise ConfigError(f"{path}: PLDA file lacks array {exc}") from exc
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable PLDA file: {exc}") from exc
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ConfigError(f"{path}: {name} has shape {arrays[name].shape}, expected "
                              f"{shape} for the checkpoint's {dim}-d embeddings")
        if not np.all(np.isfinite(arrays[name])):
            raise ConfigError(f"{path}: {name} has non-finite values")
    try:
        np.linalg.cholesky(-arrays["q"])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{path}: PLDA q is not negative definite: {exc}") from exc
    arrays["c"] = float(arrays["c"])
    return PldaModel(**arrays, length_norm=length_norm)


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
    x = _length_norm(x - center)
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
    return plda_from_covariances(mu, between, within, center=center, length_norm=True)


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


def truncate_segment(audio: np.ndarray, duration: float, seed):
    """Uniformly random contiguous segment of the requested duration.

    Returns (segment, truncated_flag); audio shorter than the request is
    passed through whole with the flag unset. `seed` is an int or a
    sequence of ints, as `np.random.default_rng` takes.
    """
    segment = random_crop(audio, duration, np.random.default_rng(seed))
    return segment, segment is not audio


def read_trial_list(path):
    """Parse `<label> <enroll_path> <test_path>` lines (1=target, 0=nontarget)."""
    trials = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise MissingUtterance(f"{path}: not a UTF-8 trial list: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("0", "1"):
            raise MissingUtterance(f"{path}:{lineno}: malformed trial line: {raw.rstrip()!r}")
        trials.append(Trial(int(parts[0]), parts[1], parts[2]))
    return trials


def write_scored_trials(path, trials, scores):
    _atomic_write(path, "".join(f"{t.label} {t.enroll_ref} {t.test_ref} {score!r}\n"
                                for t, score in zip(trials, scores)).encode("utf-8"))


# The most frames one batched forward pass takes; it bounds the memory
# the activations of a pass hold at once. Embedding 3 s utterances with
# the full config (one BLAS thread, 2-core Xeon), 2048 frames per pass
# (six utterances) added 75 MB of peak RSS and took about 315 ms per
# utterance, against 6.5 MB and 630 ms one at a time and 175 MB and
# 275 ms at 4096 frames (13 utterances).
EMBED_FRAME_LIMIT = 2048


def embed_audio(model, named_audio):
    """Eval-mode embeddings of (name, audio) pairs as an N x D array,
    row i for the i-th pair.

    The pairs are featurized in order, as they are drawn from
    `named_audio`, and each run of consecutive utterances of equal frame
    count shares tape-free forward passes of at most EMBED_FRAME_LIMIT
    frames (a longer utterance runs alone), so at most one pass of
    features is held. Audio too short to featurize or to pool raises
    InputTooShort naming it. The features are cast to the model's dtype,
    so a float32 model embeds in float32; the rows are float64 either way.
    """
    def featurized():
        for name, audio in named_audio:
            try:
                feats = featurize(audio, model.config.n_mels)
            except InputTooShort as exc:
                raise InputTooShort(f"utterance {name!r}: {exc}") from exc
            yield feats.astype(model.dtype, copy=False), name

    vectors = []
    for run in equal_length_runs(featurized(), EMBED_FRAME_LIMIT):
        feats, names = zip(*run)
        try:
            vectors.extend(model.embed(np.stack(feats)))
        except InputTooShort as exc:
            # All rows of a pass have the same frame count: name the first.
            raise InputTooShort(f"utterance {names[0]!r}: {exc}") from exc
    return np.reshape(vectors, (len(vectors), model.config.embedding_dim))


def run_trials(model, trials, resolve_audio, plda=None, truncation=None, seed=0,
               p_target=0.01):
    """Score a trial list and compute EER/minDCF, by cosine similarity or,
    given a PldaModel `plda`, by `plda_score`.

    `resolve_audio(ref)` returns the ref's audio or raises KeyError.
    Truncation (in seconds) applies to the test side only; each ref's
    offset is drawn from `seed` mixed with the CRC-32 of the ref, so
    equal-length utterances are cut at different offsets and a rerun
    repeats them. Each (ref, truncation applied) key is embedded once: a
    ref used on both sides is embedded once unless its test side is cut,
    and a test ref no longer than the truncation shares the embedding of
    the whole ref. The keys stream through `embed_audio` in order of
    first appearance, so no audio is held past its featurization. The
    whole list is scored in one back-end call on the stacked sides.
    """
    if not trials:
        raise InsufficientTrials("empty trial list")

    row = {}       # (ref, requested truncation) -> row of `vectors`
    embedded = {}  # (ref, truncation applied) -> row of `vectors`

    def unique_audio():
        for ref, trunc in dict.fromkeys([(t.enroll_ref, None) for t in trials]
                                        + [(t.test_ref, truncation) for t in trials]):
            try:
                audio = resolve_audio(ref)
            except KeyError as exc:
                raise MissingUtterance(f"cannot resolve utterance {ref!r}") from exc
            applied = None
            if trunc is not None:
                audio, cut = truncate_segment(audio, trunc,
                                              (seed, zlib.crc32(ref.encode())))
                applied = trunc if cut else None
            fresh = (ref, applied) not in embedded
            row[ref, trunc] = embedded.setdefault((ref, applied), len(embedded))
            if fresh:
                yield ref, audio

    vectors = embed_audio(model, unique_audio())
    enroll = vectors[[row[t.enroll_ref, None] for t in trials]]
    test = vectors[[row[t.test_ref, truncation] for t in trials]]
    scores = (csm(enroll, test) if plda is None else plda_score(plda, enroll, test)).tolist()
    labels = [t.label for t in trials]
    eer, thr = compute_eer(labels, scores)
    min_dcf = compute_mindcf(labels, scores, p_target=p_target)
    report = EvalReport(eer, thr, min_dcf, int(sum(labels)), int(len(labels) - sum(labels)))
    return scores, report
