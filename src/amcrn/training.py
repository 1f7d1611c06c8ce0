"""Toy-scale training loop: Adam, AAM-softmax cross-entropy, augmentation,
and validation-based checkpoint selection."""

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import KINDS as AUGMENT_KINDS
from .augment import augment
from .audio import SAMPLE_RATE, random_crop
from .dsp import FRAME_SAMPLES, SHIFT_SAMPLES, featurize
from .errors import ConfigError, InputTooShort, NumericalError
from .model import (AmcrnModel, _atomic_write, checkpoint_bytes, equal_length_runs,
                    restore_model)

# The fewest samples a crop or a training utterance may have: two frames,
# the fewest that attentive pooling takes.
TWO_FRAMES = FRAME_SAMPLES + SHIFT_SAMPLES


@dataclass
class TrainConfig:
    lr_start: float = 0.005
    lr_end: float = 0.000001
    epochs: int = 3
    batch_size: int = 32  # 256 at full scale; desk-scale default
    crop_seconds: float = 2.0
    seed: int = 0
    val_fraction: float = 0.05
    augment_copies: int = 2
    grad_clip: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.lr_end <= self.lr_start):
            raise ConfigError("need 0 < lr_end <= lr_start")
        if not self.lr_start < np.inf:
            raise ConfigError(f"lr_start must be finite, got {self.lr_start!r}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in (0, 1)")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("augment_copies", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.crop_seconds < np.inf  # NaN fails too
                and round(self.crop_seconds * SAMPLE_RATE) >= TWO_FRAMES):
            raise ConfigError(f"crop_seconds must be a finite number >= {TWO_FRAMES / SAMPLE_RATE:g}"
                              f" (two frames), got {self.crop_seconds!r}")
        if not 0.0 <= self.grad_clip < np.inf:
            raise ConfigError(f"grad_clip must be a finite number >= 0 (0: no clipping), "
                              f"got {self.grad_clip!r}")


class AdamState:
    """Per-parameter moment buffers for Adam, and two scratch rows as long
    as the largest parameter, which every update reuses."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params):
        self.moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in params}
        self.scratch = np.empty((2, max((p.data.size for p in params), default=0)))
        self.step = 0


def adam_step(params, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place:

        m = b1 * m + (1 - b1) * g,  v = b2 * v + (1 - b2) * g**2
        p -= lr * (m / correct1) / (sqrt(v / correct2) + eps)

    evaluated in that operation order through the state's scratch rows,
    so no parameter-size temporary is made. Parameters without a gradient
    are skipped; NaN/Inf gradients abort."""
    state.step += 1
    b1, b2 = AdamState.BETA1, AdamState.BETA2
    correct1 = 1.0 - b1**state.step
    correct2 = 1.0 - b2**state.step
    for p in params:
        if p.grad is None:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise NumericalError(f"non-finite gradient for {p.name}")
        m, v = state.moments[p.name]
        step, denom = (row[: p.data.size].reshape(p.data.shape) for row in state.scratch)
        m *= b1
        np.multiply(p.grad, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.square(p.grad, out=step)
        step *= 1.0 - b2
        v += step
        np.divide(m, correct1, out=step)
        step *= lr
        np.divide(v, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += AdamState.EPS
        step /= denom
        p.data -= step


def lr_schedule(epoch: int, total_epochs: int, cfg: TrainConfig) -> float:
    """Exponential interpolation from lr_start to lr_end; endpoints exact."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError("epoch out of range")
    if total_epochs == 1:
        return cfg.lr_start
    frac = epoch / (total_epochs - 1)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm;
    a max_norm of 0 leaves them as they are. Returns the norm before."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad**2))
    norm = np.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    n_samples: int


@dataclass
class TrainResult:
    best_checkpoint: bytes
    best_epoch: int
    best_val_loss: float
    history: list


def minibatch_backward(model: AmcrnModel, batch, crop_seconds: float, rng) -> float:
    """Accumulate the gradient of the summed loss of one minibatch of
    (audio, label) views into the parameters; return that summed loss.

    The views are taken in order, and each is cropped (its offset draw)
    and given its dropout keep mask before the next, so `rng` is consumed
    as by one forward pass per crop. Each run of consecutive crops of equal
    frame count then runs as one B x T x n_mels forward and backward pass,
    so the passes follow crop order, as in a per-crop loop. A crop is
    drawn when its run is gathered, and a run's features and dropout
    masks are let go before its backward pass.
    """
    def rows():
        for audio, label in batch:
            feats = featurize(random_crop(audio, crop_seconds, rng), model.config.n_mels)
            yield feats, label, model.draw_dropout(len(feats), rng)

    total = 0.0
    for run in equal_length_runs(rows()):
        loss = _run_loss(model, run)
        loss.backward()
        total += float(loss.data)
    return total


def _run_loss(model: AmcrnModel, run) -> ad.Tensor:
    """The taped train-mode loss of one run of (features, label, keep mask)
    rows; the run is emptied and its rows let go once stacked, so that
    only the stacked arrays and the tape hold them."""
    feats, labels, masks = zip(*run)
    run.clear()
    keep = None if masks[0] is None else np.stack(masks)
    feats = np.stack(feats)
    del masks
    return model.classify_loss(feats, labels, mode="train", keep=keep)


def train(model: AmcrnModel, dataset, cfg: TrainConfig) -> TrainResult:
    """Train on labeled utterances and return the lowest-validation-loss
    checkpoint.

    `dataset` is a list of objects with `.speaker_id`, `.utterance_id`,
    `.n_samples` and `.audio`; an utterance shorter than two frames raises
    InputTooShort naming it, and a `val_fraction` that leaves no utterance
    to train on raises ConfigError, both before any featurizing. `.audio`
    is read only when it is needed, so an utterance may make its samples
    on demand (`toydata.LazyUtterance`): the validation utterances are
    read once, to be featurized, and a training utterance whenever a
    minibatch takes a view of it. Each epoch sees every training utterance plus
    `augment_copies` freshly augmented views of it, randomly cropped to
    `crop_seconds`. Each minibatch of `batch_size` views is one
    `minibatch_backward` call. An epoch draws every view's augmentation
    up front but augments a view only when its minibatch reaches it, so
    training holds one minibatch of audio, not the epoch's or the
    dataset's. The validation set is featurized once. A validation loss
    that is not finite raises NumericalError naming the epoch.
    """
    for utt in dataset:
        if utt.n_samples < TWO_FRAMES:
            raise InputTooShort(f"utterance {utt.utterance_id!r}: audio has {utt.n_samples} "
                                f"samples, training needs at least {TWO_FRAMES} (two frames)")
    speakers = sorted({u.speaker_id for u in dataset})
    if len(speakers) < 2:
        raise ConfigError("training needs at least 2 speakers")
    if len(speakers) != model.config.n_classes:
        raise ConfigError(f"model has {model.config.n_classes} classes, data has {len(speakers)}")
    label_of = {s: i for i, s in enumerate(speakers)}

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(cfg.val_fraction * len(dataset))))
    if n_val == len(dataset):
        raise ConfigError(f"val_fraction {cfg.val_fraction!r} puts all {n_val} utterances in "
                          "validation, leaving none to train on")
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]
    val_features = [featurize(utt.audio, model.config.n_mels) for utt in val_set]

    params = model.parameters()
    state = AdamState(params)
    history = []
    best = None

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.epochs, cfg)
        views = []  # (utterance, label, augmentation draw or None)
        for utt in train_set:
            views.append((utt, label_of[utt.speaker_id], None))
            for _ in range(cfg.augment_copies):
                kind = AUGMENT_KINDS[int(rng.integers(0, len(AUGMENT_KINDS)))]
                snr = float(rng.uniform(5.0, 20.0))
                seed = int(rng.integers(0, 2**31))
                views.append((utt, label_of[utt.speaker_id], (kind, snr, seed)))
        rng.shuffle(views)

        loss_sum = 0.0
        for start in range(0, len(views), cfg.batch_size):
            batch = views[start : start + cfg.batch_size]
            model.zero_grad()
            # `augment` is seeded by its draw alone, so augmenting late
            # gives the same audio and leaves `rng` untouched.
            loss_sum += minibatch_backward(
                model, ((utt.audio if draw is None else augment(utt.audio, *draw), label)
                        for utt, label, draw in batch), cfg.crop_seconds, rng)
            inv = 1.0 / len(batch)
            for p in params:
                if p.grad is not None:
                    p.grad *= inv
            clip_gradients(params, cfg.grad_clip)
            adam_step(params, state, lr)

        # Validate the checkpoint as stored (float32), so that loading it
        # reproduces the reported loss bit for bit.
        blob = checkpoint_bytes(model)
        val_loss = validation_loss(restore_model(blob), val_set, label_of, cfg, val_features)
        if not np.isfinite(val_loss):
            raise NumericalError(f"epoch {epoch}: validation loss is {val_loss!r}")
        record = EpochRecord(epoch, loss_sum / len(views), val_loss, lr, len(views))
        history.append(record)
        if best is None or val_loss < best[1]:
            best = (epoch, val_loss, blob)

    return TrainResult(best[2], best[0], best[1], history)


def validation_loss(model: AmcrnModel, val_set, label_of, cfg: TrainConfig,
                    features=None) -> float:
    """Mean eval-mode loss over whole utterances, consecutive equal-length
    ones batched, computed without a tape. `features` holds the features
    of each utterance of `val_set` when the caller has them already."""
    if features is None:
        features = [featurize(utt.audio, model.config.n_mels) for utt in val_set]
    rows = [(feats, label_of[utt.speaker_id]) for feats, utt in zip(features, val_set)]
    total = 0.0
    with ad.no_grad():
        for run in equal_length_runs(rows):
            feats, labels = zip(*run)
            total += float(model.classify_loss(np.stack(feats), labels, mode="eval").data)
    return total / len(val_set)


def write_history_csv(path, history) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
    for rec in history:
        writer.writerow([rec.epoch, repr(rec.train_loss), repr(rec.val_loss), repr(rec.lr)])
    _atomic_write(path, text.getvalue().encode())
