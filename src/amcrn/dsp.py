"""Log-mel spectrum (LMS) front end.

Pipeline: Hamming windowing, squared-magnitude FFT, mel-scale filtering,
logarithm, followed by short-time mean/variance normalization with a
sliding window.
"""

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, InputTooShort

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8


@dataclass
class FrameSpec:
    """Framing and filterbank configuration."""

    frame_len: float = 0.025
    frame_shift: float = 0.010
    n_fft: int = 512
    n_mels: int = 80
    f_min: float = 20.0
    f_max: float = 7600.0

    def validate(self, sample_rate: int) -> None:
        if self.frame_shift > self.frame_len:
            raise ConfigError("frame_shift must not exceed frame_len")
        if self.n_fft < int(round(self.frame_len * sample_rate)):
            raise ConfigError("n_fft must cover one frame of samples")
        if self.n_fft & (self.n_fft - 1):
            raise ConfigError("n_fft must be a power of two")
        if not (0 <= self.f_min < self.f_max):
            raise ConfigError("need 0 <= f_min < f_max")
        if self.f_max > sample_rate / 2:
            raise ConfigError("f_max exceeds the Nyquist frequency")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be positive")


@dataclass
class LmsFeature:
    """T x M log-mel feature matrix."""

    values: np.ndarray
    frame_spec: FrameSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != self.frame_spec.n_mels:
            raise ConfigError("LMS values must be T x n_mels")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def hamming_window(length: int) -> np.ndarray:
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def frame_and_window(audio: AudioBuffer, spec: FrameSpec) -> np.ndarray:
    """Split audio into overlapping frames and apply a Hamming window.

    Frame t starts at sample t * S; T = floor((N - L) / S) + 1.
    """
    spec.validate(audio.sample_rate)
    length = int(round(spec.frame_len * audio.sample_rate))
    shift = int(round(spec.frame_shift * audio.sample_rate))
    n = len(audio.samples)
    if n < length:
        raise InputTooShort(f"audio has {n} samples, need at least {length}")
    n_frames = (n - length) // shift + 1
    idx = np.arange(length)[None, :] + shift * np.arange(n_frames)[:, None]
    return audio.samples[idx] * hamming_window(length)[None, :]


def power_spectrum(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """Squared-magnitude DFT of zero-padded frames, first n_fft/2 + 1 bins."""
    frames = np.asarray(frames, dtype=np.float64)
    if n_fft < frames.shape[1]:
        raise ConfigError("n_fft smaller than the frame length")
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    return np.abs(spectrum) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filter_centers(spec: FrameSpec) -> np.ndarray:
    """Center frequencies (Hz) of the triangular filters, mel-equispaced."""
    edges = np.linspace(hz_to_mel(spec.f_min), hz_to_mel(spec.f_max), spec.n_mels + 2)
    return mel_to_hz(edges[1:-1])


def mel_filterbank(spec: FrameSpec, sample_rate: int) -> np.ndarray:
    """M x (n_fft/2 + 1) triangular mel filterbank matrix.

    Built once per (FrameSpec fields, sample rate) and shared, so the
    returned array is read-only.
    """
    return _filterbank(dataclasses.astuple(spec), sample_rate)


@functools.lru_cache(maxsize=16)
def _filterbank(spec_fields, sample_rate):
    spec = FrameSpec(*spec_fields)
    spec.validate(sample_rate)
    mel_edges = np.linspace(hz_to_mel(spec.f_min), hz_to_mel(spec.f_max), spec.n_mels + 2)
    hz_edges = mel_to_hz(mel_edges)
    bin_freqs = np.arange(spec.n_fft // 2 + 1) * sample_rate / spec.n_fft
    bank = np.zeros((spec.n_mels, spec.n_fft // 2 + 1))
    for m in range(spec.n_mels):
        lo, center, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not bank[m].any():
            # Degenerate narrow triangle between bins: put unit weight on
            # the bin nearest the center so every filter stays usable.
            bank[m, int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
    bank.flags.writeable = False
    return bank


def extract_lms(audio: AudioBuffer, spec: FrameSpec = None) -> LmsFeature:
    """Full LMS extraction: frame/window, power spectrum, mel filter, log."""
    if spec is None:
        spec = FrameSpec()
    frames = frame_and_window(audio, spec)
    power = power_spectrum(frames, spec.n_fft)
    bank = mel_filterbank(spec, audio.sample_rate)
    mel_energy = power @ bank.T
    return LmsFeature(np.log(np.maximum(mel_energy, LOG_FLOOR)), spec)


def apply_cmvn(lms: LmsFeature, window: float = 3.0) -> LmsFeature:
    """Sliding-window mean/variance normalization per mel dimension.

    Each frame is normalized by the statistics of a window of
    W = round(window / frame_shift) frames centered on it, clipped at the
    utterance edges. The standard deviation is floored at 1e-8.
    """
    x = lms.values
    n_frames = x.shape[0]
    w = int(round(window / lms.frame_spec.frame_shift))
    w = max(w, 1)
    half = w // 2
    # Prefix sums give O(T) windowed moments.
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    csum2 = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x * x, axis=0)])
    t = np.arange(n_frames)
    lo = np.maximum(0, t - half)
    hi = np.minimum(n_frames, t + (w - half))
    count = (hi - lo).astype(np.float64)[:, None]
    mean = (csum[hi] - csum[lo]) / count
    var = (csum2[hi] - csum2[lo]) / count - mean**2
    std = np.sqrt(np.maximum(var, 0.0))
    return LmsFeature((x - mean) / np.maximum(std, STD_FLOOR), lms.frame_spec)


def cmvn_window_bounds(t: int, n_frames: int, w: int):
    """Frame range [lo, hi) used by apply_cmvn for frame t."""
    half = w // 2
    return max(0, t - half), min(n_frames, t + (w - half))
