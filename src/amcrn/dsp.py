"""Log-mel spectrum (LMS) front end.

Pipeline: Hamming windowing, squared-magnitude FFT, mel-scale filtering,
logarithm, followed by short-time mean/variance normalization with a
sliding window. `featurize` runs it; the steps are plain array functions.
"""

import functools

import numpy as np

from .audio import SAMPLE_RATE
from .errors import ConfigError, InputTooShort

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8

# Frame geometry and filterbank band, fixed for every model (seconds, Hz).
FRAME_LEN = 0.025
FRAME_SHIFT = 0.010
N_FFT = 512
F_MIN = 20.0
F_MAX = 7600.0
FRAME_SAMPLES = int(round(FRAME_LEN * SAMPLE_RATE))  # 400
SHIFT_SAMPLES = int(round(FRAME_SHIFT * SAMPLE_RATE))  # 160


def hamming_window(length: int) -> np.ndarray:
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def frame_and_window(audio: np.ndarray) -> np.ndarray:
    """Split audio into overlapping frames and apply a Hamming window.

    Frame t starts at sample t * S; T = floor((N - L) / S) + 1.
    """
    if len(audio) < FRAME_SAMPLES:
        raise InputTooShort(f"audio has {len(audio)} samples, need at least {FRAME_SAMPLES}")
    frames = np.lib.stride_tricks.sliding_window_view(audio, FRAME_SAMPLES)[::SHIFT_SAMPLES]
    return frames * hamming_window(FRAME_SAMPLES)


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


def mel_filter_centers(n_mels: int) -> np.ndarray:
    """Center frequencies (Hz) of the triangular filters, mel-equispaced."""
    edges = np.linspace(hz_to_mel(F_MIN), hz_to_mel(F_MAX), n_mels + 2)
    return mel_to_hz(edges[1:-1])


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int) -> np.ndarray:
    """M x (N_FFT/2 + 1) triangular mel filterbank matrix for 16 kHz audio.

    Refuses n_mels < 1. Built once per n_mels and shared, so the returned
    array is read-only.
    """
    if n_mels < 1:
        raise ConfigError("n_mels must be positive")
    hz_edges = mel_to_hz(np.linspace(hz_to_mel(F_MIN), hz_to_mel(F_MAX), n_mels + 2))
    bin_freqs = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
    bank = np.zeros((n_mels, N_FFT // 2 + 1))
    for m in range(n_mels):
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


def featurize(audio: np.ndarray, n_mels: int) -> np.ndarray:
    """The network's T x n_mels input: the LMS of 1-D 16 kHz `audio` after
    sliding CMVN. Audio that is not 1-D or not finite is a ConfigError."""
    if np.ndim(audio) != 1 or not np.all(np.isfinite(audio)):
        raise ConfigError("audio must be a 1-D array of finite samples")
    return _cmvn(_log_mel(audio, n_mels))


def _log_mel(audio: np.ndarray, n_mels: int) -> np.ndarray:
    """T x n_mels LMS: frame/window, power spectrum, mel filter, log. The
    filterbank is built first, so a bad n_mels fails before framing."""
    bank = mel_filterbank(n_mels)
    power = power_spectrum(frame_and_window(audio), N_FFT)
    return np.log(np.maximum(power @ bank.T, LOG_FLOOR))


def _cmvn(x: np.ndarray, window: float = 3.0) -> np.ndarray:
    """Sliding-window mean/variance normalization per mel dimension.

    Each frame is normalized by the statistics of a window of
    W = round(window / FRAME_SHIFT) frames centered on it, clipped at the
    utterance edges. The standard deviation is floored at 1e-8.
    """
    n_frames = x.shape[0]
    w = max(int(round(window / FRAME_SHIFT)), 1)
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
    return (x - mean) / np.maximum(std, STD_FLOOR)


def cmvn_window_bounds(t: int, n_frames: int, w: int):
    """Frame range [lo, hi) used by _cmvn for frame t."""
    half = w // 2
    return max(0, t - half), min(n_frames, t + (w - half))
