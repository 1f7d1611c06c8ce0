"""Front-end feature extraction tests."""

import dataclasses

import numpy as np
import pytest

from amcrn import dsp
from amcrn.audio import SAMPLE_RATE, AudioBuffer
from amcrn.dsp import (FrameSpec, LmsFeature, apply_cmvn, cmvn_window_bounds,
                       extract_lms, frame_and_window, hamming_window, hz_to_mel,
                       mel_filter_centers, mel_filterbank, mel_to_hz,
                       power_spectrum)
from amcrn.errors import ConfigError, InputTooShort


def tone(freq, seconds=1.0, amp=0.5):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t))


class TestFraming:
    def test_one_second_gives_98_frames(self):
        # T = floor((16000 - 400) / 160) + 1
        frames = frame_and_window(tone(440.0), FrameSpec())
        assert frames.shape == (98, 400)

    def test_constant_input_yields_window(self):
        audio = AudioBuffer(np.ones(SAMPLE_RATE))
        frames = frame_and_window(audio, FrameSpec())
        np.testing.assert_allclose(frames, np.tile(hamming_window(400), (98, 1)))

    def test_frame_offsets(self):
        audio = AudioBuffer(np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        frames = frame_and_window(audio, FrameSpec())
        w = hamming_window(400)
        for t in (0, 1, 50):
            np.testing.assert_allclose(frames[t], audio.samples[160 * t : 160 * t + 400] * w)

    def test_too_short_raises(self):
        with pytest.raises(InputTooShort):
            frame_and_window(AudioBuffer(np.zeros(100)), FrameSpec())


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.all(power_spectrum(np.zeros((3, 400)), 512) == 0.0)

    def test_bin_centered_cosine_matches_direct_dft(self):
        # Oracle: O(n^2) DFT evaluated directly.
        n_fft = 128
        k = 10
        x = np.cos(2 * np.pi * k * np.arange(n_fft) / n_fft)
        out = power_spectrum(x[None, :], n_fft)[0]
        direct = np.array([
            abs(sum(x[m] * np.exp(-2j * np.pi * j * m / n_fft) for m in range(n_fft))) ** 2
            for j in range(n_fft // 2 + 1)
        ])
        np.testing.assert_allclose(out, direct, atol=1e-8)
        assert np.argmax(out) == k

    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 256))
        n_fft = 256
        half = power_spectrum(x, n_fft)
        # Reconstruct the full-spectrum energy from the half spectrum.
        full = 2 * half.sum(axis=1) - half[:, 0] - half[:, -1]
        np.testing.assert_allclose(full, n_fft * np.sum(x**2, axis=1), rtol=1e-6)

    def test_nfft_too_small(self):
        with pytest.raises(ConfigError):
            power_spectrum(np.zeros((1, 400)), 256)


class TestMelFilterbank:
    def test_shape_and_nonnegative(self):
        bank = mel_filterbank(FrameSpec(), SAMPLE_RATE)
        assert bank.shape == (80, 257)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_centers_match_mel_oracle(self):
        spec = FrameSpec()
        # Oracle: recompute centers from the hz->mel->hz round trip.
        lo, hi = hz_to_mel(spec.f_min), hz_to_mel(spec.f_max)
        expected = mel_to_hz(lo + (hi - lo) * np.arange(1, 81) / 81.0)
        np.testing.assert_allclose(mel_filter_centers(spec), expected, rtol=1e-12)

    def test_peak_near_center_bin(self):
        spec = FrameSpec()
        bank = mel_filterbank(spec, SAMPLE_RATE)
        centers = mel_filter_centers(spec)
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        for m in range(80):
            nearest = int(np.argmin(np.abs(bin_freqs - centers[m])))
            assert abs(int(np.argmax(bank[m])) - nearest) <= 1

    def test_interior_coverage(self):
        spec = FrameSpec()
        bank = mel_filterbank(spec, SAMPLE_RATE)
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        interior = (bin_freqs > spec.f_min + 60) & (bin_freqs < spec.f_max - 60)
        assert np.all(bank.sum(axis=0)[interior] > 0.0)

    def test_compact_support(self):
        spec = FrameSpec()
        bank = mel_filterbank(spec, SAMPLE_RATE)
        lo_m = hz_to_mel(spec.f_min)
        hi_m = hz_to_mel(spec.f_max)
        edges = mel_to_hz(np.linspace(lo_m, hi_m, 82))
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        for m in range(0, 80, 7):
            outside = (bin_freqs < edges[m] - 1e-9) | (bin_freqs > edges[m + 2] + 1e-9)
            assert np.all(bank[m][outside] == 0.0)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(FrameSpec(f_max=9000.0), SAMPLE_RATE)

    def test_cached_bank_is_shared_and_read_only(self):
        bank = mel_filterbank(FrameSpec(n_mels=24), SAMPLE_RATE)
        assert mel_filterbank(FrameSpec(n_mels=24), SAMPLE_RATE) is bank
        assert mel_filterbank(FrameSpec(n_mels=40), SAMPLE_RATE).shape == (40, 257)
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        assert not bank.flags.writeable

    @pytest.mark.parametrize("n_mels", [24, 80])
    def test_extraction_with_cached_bank_is_bit_identical(self, n_mels):
        spec = FrameSpec(n_mels=n_mels)
        audio = tone(440.0, seconds=0.5)
        fresh = dsp._filterbank.__wrapped__(dataclasses.astuple(spec), SAMPLE_RATE)
        power = power_spectrum(frame_and_window(audio, spec), spec.n_fft)
        want = np.log(np.maximum(power @ fresh.T, dsp.LOG_FLOOR))
        for _ in range(2):  # the first call may fill the cache, the second reads it
            np.testing.assert_array_equal(extract_lms(audio, spec).values, want)


class TestExtractLms:
    def test_silence_hits_log_floor(self):
        audio = AudioBuffer(np.zeros(SAMPLE_RATE))
        lms = extract_lms(audio, FrameSpec())
        np.testing.assert_allclose(lms.values, np.log(1e-10))

    def test_output_is_80_dim(self):
        lms = extract_lms(tone(440.0), FrameSpec())
        assert lms.values.shape == (98, 80)

    def test_1khz_tone_peaks_at_matching_filter(self):
        spec = FrameSpec()
        lms = extract_lms(tone(1000.0), spec)
        centers = mel_filter_centers(spec)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        peak_bins = np.argmax(lms.values, axis=1)
        # Interior frames; allow the neighbor filter (overlapping triangles).
        assert np.all(np.abs(peak_bins[2:-2] - expected_bin) <= 1)

    def test_deterministic(self):
        audio = tone(523.0)
        a = extract_lms(audio, FrameSpec()).values
        b = extract_lms(audio, FrameSpec()).values
        assert np.array_equal(a, b)

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(-0.5, 0.5, SAMPLE_RATE)
        shifted = np.concatenate([rng.uniform(-0.5, 0.5, 160 * 3), base])
        a = extract_lms(AudioBuffer(base), FrameSpec()).values
        b = extract_lms(AudioBuffer(shifted), FrameSpec()).values
        np.testing.assert_allclose(b[3 : 3 + a.shape[0]], a, atol=1e-9)


class TestCmvn:
    def test_constant_feature_maps_to_zero(self):
        lms = LmsFeature(np.full((50, 80), 3.7), FrameSpec())
        out = apply_cmvn(lms)
        # Rounding residue divided by the floored std stays tiny.
        np.testing.assert_allclose(out.values, 0.0, atol=1e-6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            t_len = int(rng.integers(5, 400))
            x = rng.standard_normal((t_len, 4))
            lms = LmsFeature(x, FrameSpec(n_mels=4))
            out = apply_cmvn(lms, window=1.0).values
            w = int(round(1.0 / 0.010))
            for t in (0, t_len // 2, t_len - 1):
                lo, hi = cmvn_window_bounds(t, t_len, w)
                win = x[lo:hi]
                mean = win.mean(axis=0)
                std = np.sqrt(np.maximum(win.var(axis=0), 0.0))
                ref = (x[t] - mean) / np.maximum(std, 1e-8)
                np.testing.assert_allclose(out[t], ref, atol=1e-9)

    def test_default_window_is_300_frames(self):
        w = int(round(3.0 / FrameSpec().frame_shift))
        assert w == 300

    def test_interior_window_mean_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 3))
        out = apply_cmvn(LmsFeature(x, FrameSpec(n_mels=3)), window=0.2).values
        # A frame whose window is fully interior has exactly the window stats.
        w = 20
        t = 40
        lo, hi = cmvn_window_bounds(t, 80, w)
        win = x[lo:hi]
        ref = (x[t] - win.mean(axis=0)) / np.maximum(win.std(axis=0), 1e-8)
        np.testing.assert_allclose(out[t], ref, atol=1e-6)
