"""Synthetic multi-speaker dataset for desk-scale experiments.

Each speaker is a fixed random vocal-tract-like filter (three resonances
sampled once per speaker) driven by a pulse train at a speaker-specific
fundamental frequency plus noise. Utterances of one speaker differ only
by their excitation seed. scipy.signal is imported on first use, as in
`augment`.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE
from .errors import ConfigError


@dataclass
class ToySpeakerSpec:
    n_speakers: int = 20
    utterances_per_speaker: int = 10
    utterance_seconds: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ConfigError("need at least 2 speakers")
        if self.utterances_per_speaker < 1:
            raise ConfigError(f"utterances_per_speaker must be >= 1, "
                              f"got {self.utterances_per_speaker}")
        if not 0.0 < self.utterance_seconds < math.inf:
            raise ConfigError(f"utterance_seconds must be a finite number > 0, "
                              f"got {self.utterance_seconds!r}")


@dataclass
class ToyUtterance:
    speaker_id: str
    utterance_id: str
    audio: np.ndarray  # 16 kHz samples

    @property
    def n_samples(self) -> int:
        return len(self.audio)


@dataclass(frozen=True)
class LazyUtterance:
    """An utterance that holds no samples: `load()` makes them each time
    `.audio` is read, and `n_samples` says how many it makes."""

    speaker_id: str
    utterance_id: str
    n_samples: int
    load: Callable[[], np.ndarray]

    @property
    def audio(self) -> np.ndarray:
        return self.load()


def _speaker_voice(spec: ToySpeakerSpec, spk: int):
    """Per-speaker fundamental frequency and resonator coefficients."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spk, 7]))
    f0 = 85.0 + spk * (200.0 / spec.n_speakers) + rng.uniform(-3.0, 3.0)
    centers = np.sort(rng.uniform(300.0, 3400.0, size=3))
    radii = rng.uniform(0.96, 0.99, size=3)
    sections = []
    for f, r in zip(centers, radii):
        theta = 2.0 * np.pi * f / SAMPLE_RATE
        sections.append([1.0, 0.0, 0.0, 1.0, -2.0 * r * np.cos(theta), r * r])
    return f0, np.array(sections)


def _utterance(spec: ToySpeakerSpec, spk: int, utt: int) -> np.ndarray:
    from scipy import signal as sp_signal

    f0, sos = _speaker_voice(spec, spk)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spk, utt, 13]))
    n = int(round(spec.utterance_seconds * SAMPLE_RATE))
    excitation = 0.02 * rng.standard_normal(n)
    period = SAMPLE_RATE / f0
    pos = rng.uniform(0.0, period)
    while pos < n:
        excitation[int(pos)] += rng.uniform(0.8, 1.2)
        pos += period * rng.uniform(0.98, 1.02)
    voiced = sp_signal.sosfilt(sos, excitation)
    rms = np.sqrt(np.mean(voiced**2))
    return np.clip(0.1 * voiced / max(rms, 1e-12), -1.0, 1.0)


def toy_utterances(spec: ToySpeakerSpec, utterance_offset: int = 0):
    """The labeled utterance list as LazyUtterances, each generated anew
    whenever its audio is read; deterministic given spec.seed.

    `utterance_offset` shifts the excitation seeds, yielding held-out
    utterances from the same speakers.
    """
    n_samples = int(round(spec.utterance_seconds * SAMPLE_RATE))
    out = []
    for spk in range(spec.n_speakers):
        sid = f"spk{spk:03d}"
        for utt in range(spec.utterances_per_speaker):
            idx = utt + utterance_offset
            out.append(LazyUtterance(sid, f"{sid}_utt{idx:03d}", n_samples,
                                     functools.partial(_utterance, spec, spk, idx)))
    return out


def make_toy_dataset(spec: ToySpeakerSpec, utterance_offset: int = 0):
    """`toy_utterances` generated once, as ToyUtterances holding their
    audio."""
    return [ToyUtterance(u.speaker_id, u.utterance_id, u.audio)
            for u in toy_utterances(spec, utterance_offset)]
