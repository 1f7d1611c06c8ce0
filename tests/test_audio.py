"""WAV reading: a valid file round-trips, and any damaged one ends as a
ConfigError that names it; `wav_length` counts samples with the same
checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcrn.audio import read_wav, wav_length, write_wav
from amcrn.errors import AmcrnError, ConfigError

# A valid 0.1 s file: 44 header bytes, then 3200 bytes of samples.
SAMPLES = 0.5 * np.sin(np.arange(1600) / 5.0)


@pytest.fixture(scope="module")
def wav_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "ok.wav"
    write_wav(path, SAMPLES)
    return path.read_bytes()


def read_bytes_as_wav(path, blob):
    path.write_bytes(blob)
    return read_wav(path)


def test_round_trip(tmp_path, wav_bytes):
    audio = read_bytes_as_wav(tmp_path / "a.wav", wav_bytes)
    np.testing.assert_allclose(audio, SAMPLES, atol=1 / 32768)


# A damaged copy of the valid file -> how the error after "<path>: " begins.
DAMAGED = {
    "byte_1": (lambda b: b[:1] + bytes([b[1] ^ 0x01]) + b[2:],
               "not a readable WAV file: file does not start with RIFF id"),
    "not_wave": (lambda b: b[:8] + b"WAVX" + b[12:], "not a readable WAV file: not a WAVE file"),
    "header_cut": (lambda b: b[:30], "not a readable WAV file: a chunk is cut short"),
    "empty": (lambda b: b"", "not a readable WAV file: a chunk is cut short"),
    "chunk_overrun": (lambda b: b[:16] + (200).to_bytes(4, "little") + b[20:],
                      "not a readable WAV file: a chunk is cut short or overruns its size"),
    "data_cut_odd": (lambda b: b[:45], "the data chunk holds 1 of 3200 declared bytes"),
    "data_cut_even": (lambda b: b[:100], "the data chunk holds 56 of 3200 declared bytes"),
    "stereo": (lambda b: b[:22] + (2).to_bytes(2, "little") + b[24:],
               "expected mono audio, got 2 channels"),
    "rate_8k": (lambda b: b[:24] + (8000).to_bytes(4, "little") + b[28:],
                "expected 16000 Hz, got 8000 Hz"),
    "width_8bit": (lambda b: b[:34] + (8).to_bytes(2, "little") + b[36:],
                   "expected 16-bit PCM, got 8-bit"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_file_names_itself(tmp_path, wav_bytes, case):
    damage, begins = DAMAGED[case]
    path = tmp_path / "bad.wav"
    with pytest.raises(ConfigError) as err:
        read_bytes_as_wav(path, damage(wav_bytes))
    assert str(err.value).startswith(f"{path}: {begins}"), str(err.value)


@pytest.fixture(scope="module")
def scratch_wav(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "m.wav"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_mutation_reads_or_raises_amcrn_error(scratch_wav, wav_bytes, data):
    """Up to three changed bytes (header bytes as likely as the rest),
    then a cut at any length: the file reads as audio or raises an
    AmcrnError, nothing else."""
    blob = bytearray(wav_bytes)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.one_of(st.integers(0, 63), st.integers(0, len(blob) - 1)))
        blob[at] ^= data.draw(st.integers(1, 255))
    blob = blob[: data.draw(st.integers(0, len(blob)))]
    try:
        audio = read_bytes_as_wav(scratch_wav, bytes(blob))
    except AmcrnError:
        return
    assert isinstance(audio, np.ndarray) and audio.ndim == 1 and audio.dtype == np.float64


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_length_scan_agrees_with_read_wav(scratch_wav, wav_bytes, data):
    """On the mutations above, `wav_length` raises `read_wav`'s error or
    returns the length of what `read_wav` reads."""
    blob = bytearray(wav_bytes)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.one_of(st.integers(0, 63), st.integers(0, len(blob) - 1)))
        blob[at] ^= data.draw(st.integers(1, 255))
    scratch_wav.write_bytes(bytes(blob[: data.draw(st.integers(0, len(blob)))]))
    try:
        audio = read_wav(scratch_wav)
    except AmcrnError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            wav_length(scratch_wav)
        return
    assert wav_length(scratch_wav) == len(audio)
