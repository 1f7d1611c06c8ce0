"""Toy-scale training loop: Adam, AAM-softmax cross-entropy, augmentation,
and validation-based checkpoint selection."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .augment import KINDS as AUGMENT_KINDS
from .augment import augment
from .audio import AudioBuffer
from .dsp import FrameSpec, apply_cmvn, extract_lms
from .errors import ConfigError, NumericalError
from .model import AmcrnModel, checkpoint_bytes, restore_model


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
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in (0, 1)")


class AdamState:
    """Per-parameter moment buffers for Adam."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params):
        self.moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in params}
        self.step = 0


def adam_step(params, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place. Parameters without a gradient
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
        m *= b1
        m += (1.0 - b1) * p.grad
        v *= b2
        v += (1.0 - b2) * p.grad**2
        p.data -= lr * (m / correct1) / (np.sqrt(v / correct2) + AdamState.EPS)


def lr_schedule(epoch: int, total_epochs: int, cfg: TrainConfig) -> float:
    """Exponential interpolation from lr_start to lr_end; endpoints exact."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError("epoch out of range")
    if total_epochs == 1:
        return cfg.lr_start
    frac = epoch / (total_epochs - 1)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
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


def _features(audio: AudioBuffer, n_mels: int):
    spec = FrameSpec(n_mels=n_mels)
    return apply_cmvn(extract_lms(audio, spec)).values


def _random_crop(audio: AudioBuffer, seconds: float, rng) -> AudioBuffer:
    want = int(round(seconds * audio.sample_rate))
    if len(audio) <= want:
        return audio
    start = int(rng.integers(0, len(audio) - want + 1))
    return AudioBuffer(audio.samples[start : start + want], audio.sample_rate)


def _by_frame_count(rows):
    """Group (features, ...) rows by frame count, groups in order of first
    appearance and rows in order within each; each group is returned
    column by column."""
    groups = {}
    for row in rows:
        groups.setdefault(len(row[0]), []).append(row)
    return [tuple(zip(*group)) for group in groups.values()]


def minibatch_backward(model: AmcrnModel, batch, crop_seconds: float, rng) -> float:
    """Accumulate the gradient of the summed loss of one minibatch of
    (audio, label) views into the parameters; return that summed loss.

    The views are taken in order, and each is cropped (its offset draw)
    and given its dropout draws before the next, so `rng` is consumed as
    by one forward pass per crop. Crops of equal frame count then run as
    one B x T x n_mels forward and backward pass; with mixed lengths the
    groups run in order of first appearance.
    """
    rows = []
    for audio, label in batch:
        feats = _features(_random_crop(audio, crop_seconds, rng), model.config.n_mels)
        rows.append((feats, label, model.draw_dropout(len(feats), rng)))
    total = 0.0
    for feats, labels, draws in _by_frame_count(rows):
        noise = None if draws[0] is None else np.stack(draws)
        loss = model.classify_loss(np.stack(feats), labels, mode="train", rng=noise)
        loss.backward()
        total += float(loss.data)
    return total


def train(model: AmcrnModel, dataset, cfg: TrainConfig) -> TrainResult:
    """Train on labeled utterances and return the lowest-validation-loss
    checkpoint.

    `dataset` is a list of objects with `.speaker_id` and `.audio`. Each
    epoch sees every training utterance plus `augment_copies` freshly
    augmented views of it, randomly cropped to `crop_seconds`. Each
    minibatch of `batch_size` views is one `minibatch_backward` call.
    """
    speakers = sorted({u.speaker_id for u in dataset})
    if len(speakers) < 2:
        raise ConfigError("training needs at least 2 speakers")
    if len(speakers) != model.config.n_classes:
        raise ConfigError(f"model has {model.config.n_classes} classes, data has {len(speakers)}")
    label_of = {s: i for i, s in enumerate(speakers)}

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(cfg.val_fraction * len(dataset))))
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]

    params = model.parameters()
    state = AdamState(params)
    history = []
    best = None

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.epochs, cfg)
        views = []
        for utt in train_set:
            views.append((utt.audio, label_of[utt.speaker_id]))
            for _ in range(cfg.augment_copies):
                kind = AUGMENT_KINDS[int(rng.integers(0, len(AUGMENT_KINDS)))]
                snr = float(rng.uniform(5.0, 20.0))
                seed = int(rng.integers(0, 2**31))
                views.append((augment(utt.audio, kind, snr, seed),
                              label_of[utt.speaker_id]))
        rng.shuffle(views)

        loss_sum = 0.0
        for start in range(0, len(views), cfg.batch_size):
            batch = views[start : start + cfg.batch_size]
            model.zero_grad()
            loss_sum += minibatch_backward(model, batch, cfg.crop_seconds, rng)
            inv = 1.0 / len(batch)
            for p in params:
                if p.grad is not None:
                    p.grad *= inv
            clip_gradients(params, cfg.grad_clip)
            adam_step(params, state, lr)

        val_loss = validation_loss(model, val_set, label_of, cfg)
        record = EpochRecord(epoch, loss_sum / len(views), val_loss, lr, len(views))
        history.append(record)
        if best is None or val_loss < best[1]:
            best = (epoch, val_loss, checkpoint_bytes(model))

    # Recompute the stored loss on the round-tripped checkpoint so that
    # save/load reproduces it bit-for-bit.
    restored = restore_model(best[2], model.config)
    best_val = validation_loss(restored, val_set, label_of, cfg)
    return TrainResult(best[2], best[0], best_val, history)


def validation_loss(model: AmcrnModel, val_set, label_of, cfg: TrainConfig) -> float:
    """Mean eval-mode loss over whole utterances, equal-length ones batched."""
    rows = [(_features(utt.audio, model.config.n_mels), label_of[utt.speaker_id])
            for utt in val_set]
    total = 0.0
    for feats, labels in _by_frame_count(rows):
        total += float(model.classify_loss(np.stack(feats), labels, mode="eval").data)
    return total / len(val_set)


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_loss), repr(rec.val_loss), repr(rec.lr)])
