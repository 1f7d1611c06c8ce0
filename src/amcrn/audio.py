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


def _open_wav(path, last_only):
    """(declared frame count, bytes read) of a mono 16-bit PCM WAV file at
    16 kHz: every frame, or with `last_only` only the last one (none if it
    lies beyond an enclosing chunk). A file that is not one, or whose
    chunk headers are cut or inconsistent, is a ConfigError naming it."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise ConfigError(f"{path}: expected mono audio, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise ConfigError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            if wf.getframerate() != SAMPLE_RATE:
                raise ConfigError(f"{path}: expected {SAMPLE_RATE} Hz, got {wf.getframerate()} Hz"
                                  " (resampling unsupported)")
            frames = wf.getnframes()
            if not (last_only and frames):
                return frames, wf.readframes(0 if last_only else frames)
            wf.setpos(frames - 1)
            try:
                return frames, wf.readframes(1)
            except RuntimeError:  # the seek passes the end of the RIFF chunk
                return frames, b""
    except (wave.Error, EOFError, RuntimeError) as exc:
        # `wave` raises EOFError and RuntimeError without a message when a
        # chunk header is cut short or a chunk claims more than it holds.
        raise ConfigError(f"{path}: not a readable WAV file: "
                          f"{str(exc) or 'a chunk is cut short or overruns its size'}") from exc


def read_wav(path, n_samples=None) -> np.ndarray:
    """Read a mono 16-bit PCM WAV file at 16 kHz. A file that is not one,
    or whose chunks are cut or inconsistent, is a ConfigError naming it;
    so is one that no longer holds `n_samples` samples, or can no longer
    be read, when the count from an earlier `wav_length` is given."""
    try:
        frames, raw = _open_wav(path, last_only=False)
    except OSError as exc:
        if n_samples is None:
            raise
        raise ConfigError(f"{path}: no longer readable since it was scanned: "
                          f"{exc.strerror or exc}") from exc
    if len(raw) != 2 * frames:  # the file was cut inside the data chunk
        raise ConfigError(f"{path}: the data chunk holds {len(raw)} of {2 * frames} declared bytes")
    if n_samples is not None and frames != n_samples:
        raise ConfigError(f"{path}: holds {frames} samples, {n_samples} when it was scanned")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE


def wav_length(path) -> int:
    """The sample count of a WAV file that `read_wav` would read, checked
    as `read_wav` checks it but reading only its last sample. When that
    sample is missing, the file is read whole, so that a data chunk cut
    short fails with `read_wav`'s own error."""
    frames, last = _open_wav(path, last_only=True)
    if len(last) == 2 * min(frames, 1):
        return frames
    return len(read_wav(path))


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
