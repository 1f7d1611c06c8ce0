"""Synthetic data augmentation: additive interferers and reverberation.

The additive kinds mix a synthetic interferer (colored noise, a tone
mixture, or band-limited noise bursts) into the input at a requested SNR.
Reverb convolves with a synthetic exponentially decaying impulse response.

scipy.signal is imported where a filter or convolution runs, not with
the module: it takes about a second and 48 MB to load, and the commands
that never augment (`embed`, `enroll`, `verify`, `eval`) import this
module through the package.
"""

import numpy as np

from .audio import SAMPLE_RATE
from .errors import ConfigError

ADDITIVE_KINDS = ("noise", "music-like", "babble-like")
KINDS = ADDITIVE_KINDS + ("reverb",)


def _colored_noise(rng, n):
    """Gaussian noise shaped by a random one-pole lowpass."""
    from scipy import signal as sp_signal

    white = rng.standard_normal(n)
    pole = rng.uniform(0.2, 0.9)
    return sp_signal.lfilter([1.0 - pole], [1.0, -pole], white)


def _tone_mixture(rng, n):
    """Sum of a few slowly amplitude-modulated sinusoids."""
    t = np.arange(n) / SAMPLE_RATE
    out = np.zeros(n)
    for _ in range(rng.integers(3, 6)):
        freq = rng.uniform(100.0, 2000.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mod_rate = rng.uniform(0.5, 4.0)
        env = 0.5 * (1.0 + np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0, 2 * np.pi)))
        out += env * np.sin(2.0 * np.pi * freq * t + phase)
    return out


def _babble(rng, n):
    """Sum of band-limited noise bursts with random on/off envelopes."""
    from scipy import signal as sp_signal

    out = np.zeros(n)
    for _ in range(6):
        low = rng.uniform(100.0, 1500.0)
        high = low + rng.uniform(200.0, 2000.0)
        high = min(high, 0.45 * SAMPLE_RATE)
        sos = sp_signal.butter(2, [low, high], btype="band", fs=SAMPLE_RATE, output="sos")
        band = sp_signal.sosfilt(sos, rng.standard_normal(n))
        # Random bursts: smooth on/off gate.
        gate = rng.random(max(1, n // (SAMPLE_RATE // 4) + 1)) > 0.4
        env = np.repeat(gate.astype(float), SAMPLE_RATE // 4)[:n]
        if len(env) < n:
            env = np.pad(env, (0, n - len(env)), constant_values=env[-1] if len(env) else 1.0)
        out += band * env
    return out


_GENERATORS = {
    "noise": _colored_noise,
    "music-like": _tone_mixture,
    "babble-like": _babble,
}


def _mix_at_snr(clean, interferer, snr_db):
    p_clean = float(np.mean(clean**2))
    p_noise = float(np.mean(interferer**2))
    if p_noise <= 0.0 or p_clean <= 0.0:
        return clean.copy()
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return clean + scale * interferer


def augment(audio: np.ndarray, kind: str, snr_db: float, seed: int) -> np.ndarray:
    """Return a corrupted copy of `audio`; deterministic given seed.

    `snr_db = inf` is a no-op for the additive kinds.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown augmentation kind: {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "reverb":
        from scipy import signal as sp_signal

        ir_len = min(len(audio), int(0.25 * SAMPLE_RATE))
        decay = rng.uniform(0.02, 0.08)  # seconds to 1/e
        t = np.arange(ir_len) / SAMPLE_RATE
        ir = rng.standard_normal(ir_len) * np.exp(-t / decay)
        ir[0] = 1.0
        ir /= np.sqrt(np.sum(ir**2))
        wet = sp_signal.fftconvolve(audio, ir)[: len(audio)]
        out = wet
    else:
        if not np.isfinite(snr_db):
            return audio.copy()
        noise = _GENERATORS[kind](rng, len(audio))
        out = _mix_at_snr(audio, noise, snr_db)
    return np.clip(out, -1.0, 1.0)
