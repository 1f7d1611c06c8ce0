"""PCM-16 WAV I/O and the random crop.

Audio in this package is a 1-D float64 array of mono samples at
SAMPLE_RATE (16 kHz); `read_wav` refuses any other rate, so no value
carries its own. 16-bit samples map to [-1, 1) by division by 32768.
"""

import io
import wave

import numpy as np

from .errors import ConfigError
from .model import _atomic_write

SAMPLE_RATE = 16000
_PCM_SCALE = 32768.0


def random_crop(audio: np.ndarray, seconds: float, rng) -> np.ndarray:
    """A contiguous `seconds` of `audio` at an offset drawn uniformly from
    `rng`; audio no longer than that is returned whole (the same object),
    drawing nothing."""
    want = int(round(seconds * SAMPLE_RATE))
    if len(audio) <= want:
        return audio
    start = int(rng.integers(0, len(audio) - want + 1))
    return audio[start : start + want]


def read_wav(path) -> np.ndarray:
    """Read a mono 16-bit PCM WAV file at 16 kHz. A file that is not one,
    or whose chunks are cut or inconsistent, is a ConfigError naming it."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise ConfigError(f"{path}: expected mono audio, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise ConfigError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            if wf.getframerate() != SAMPLE_RATE:
                raise ConfigError(f"{path}: expected {SAMPLE_RATE} Hz, got {wf.getframerate()} Hz"
                                  " (resampling unsupported)")
            declared = 2 * wf.getnframes()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:
        # `wave` raises EOFError and RuntimeError without a message when a
        # chunk header is cut short or a chunk claims more than it holds.
        raise ConfigError(f"{path}: not a readable WAV file: "
                          f"{str(exc) or 'a chunk is cut short or overruns its size'}") from exc
    if len(raw) != declared:  # the file was cut inside the data chunk
        raise ConfigError(f"{path}: the data chunk holds {len(raw)} of {declared} declared bytes")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE


def write_wav(path, samples: np.ndarray) -> None:
    """Write 16 kHz samples as a mono 16-bit PCM WAV file atomically
    (temp file + rename)."""
    pcm = np.clip(np.round(samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())
    _atomic_write(path, buf.getvalue())
