"""Raw audio container and PCM-16 WAV I/O.

All audio in this package is mono 16 kHz. 16-bit samples map to [-1, 1)
by division by 32768.
"""

import io
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import _atomic_write

SAMPLE_RATE = 16000
_PCM_SCALE = 32768.0


@dataclass
class AudioBuffer:
    """Mono PCM samples with their sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigError("audio must be mono (1-D sample array)")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("audio samples must be finite")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def random_crop(audio: AudioBuffer, seconds: float, rng) -> AudioBuffer:
    """A contiguous `seconds` of `audio` at an offset drawn uniformly from
    `rng`; audio no longer than that is returned whole, drawing nothing."""
    want = int(round(seconds * audio.sample_rate))
    if len(audio) <= want:
        return audio
    start = int(rng.integers(0, len(audio) - want + 1))
    return AudioBuffer(audio.samples[start : start + want], audio.sample_rate)


def read_wav(path) -> AudioBuffer:
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
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return AudioBuffer(pcm / _PCM_SCALE, SAMPLE_RATE)


def write_wav(path, audio: AudioBuffer) -> None:
    """Write a mono 16-bit PCM WAV file atomically (temp file + rename)."""
    pcm = np.clip(np.round(audio.samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())
    _atomic_write(path, buf.getvalue())
