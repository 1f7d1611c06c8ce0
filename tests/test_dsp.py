"""Front-end feature extraction tests."""

import numpy as np
import pytest

from amcrn import dsp
from amcrn.audio import SAMPLE_RATE
from amcrn.dsp import (featurize, frame_and_window, hamming_window, hz_to_mel, mel_filterbank,
                       mel_to_hz, power_spectrum)
from amcrn.errors import ConfigError, InputTooShort


def mel_filter_centers(n_mels):
    """Oracle: center frequencies (Hz) of the triangular filters,
    mel-equispaced between the band edges."""
    edges = np.linspace(hz_to_mel(dsp.F_MIN), hz_to_mel(dsp.F_MAX), n_mels + 2)
    return mel_to_hz(edges[1:-1])


def cmvn_window_bounds(t, n_frames, w):
    """Oracle: the frame range [lo, hi) of the W-frame window centered on
    frame t, clipped at the utterance edges."""
    half = w // 2
    return max(0, t - half), min(n_frames, t + (w - half))


def tone(freq, seconds=1.0, amp=0.5):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return amp * np.sin(2 * np.pi * freq * t)


class TestFraming:
    def test_one_second_gives_98_frames(self):
        # T = floor((16000 - 400) / 160) + 1
        frames = frame_and_window(tone(440.0))
        assert frames.shape == (98, 400)

    def test_constant_input_yields_window(self):
        audio = np.ones(SAMPLE_RATE)
        frames = frame_and_window(audio)
        np.testing.assert_allclose(frames, np.tile(hamming_window(400), (98, 1)))

    def test_frame_offsets(self):
        audio = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        frames = frame_and_window(audio)
        w = hamming_window(400)
        for t in (0, 1, 50):
            np.testing.assert_allclose(frames[t], audio[160 * t : 160 * t + 400] * w)

    @pytest.mark.parametrize("n", [400, 401, 8000, 32000, 48000, 80000])
    def test_frames_equal_the_index_gather(self, n):
        samples = np.random.default_rng(n).standard_normal(n)
        frames = frame_and_window(samples)
        idx = np.arange(400)[None, :] + 160 * np.arange((n - 400) // 160 + 1)[:, None]
        want = samples[idx] * hamming_window(400)[None, :]
        assert frames.shape == want.shape and np.array_equal(frames, want)

    def test_too_short_raises(self):
        with pytest.raises(InputTooShort):
            frame_and_window(np.zeros(100))

    @pytest.mark.parametrize("n_mels, rate, message", [
        (0, SAMPLE_RATE, "n_mels must be positive"),
    ])
    def test_spec_refused_for_the_audio(self, n_mels, rate, message):
        with pytest.raises(ConfigError, match=message):
            featurize(np.zeros(rate), n_mels)

    @pytest.mark.parametrize("audio", [
        np.where(np.arange(SAMPLE_RATE) == 100, np.nan, 0.0),
        np.where(np.arange(SAMPLE_RATE) == 100, -np.inf, 0.0),
        np.zeros((2, SAMPLE_RATE)),
    ], ids=["nan", "inf", "2-D"])
    def test_featurize_refuses_audio_that_is_not_finite_1d(self, audio):
        with pytest.raises(ConfigError, match="1-D array of finite samples"):
            featurize(audio, 24)


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
        bank = mel_filterbank(80)
        assert bank.shape == (80, 257)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_centers_match_mel_oracle(self):
        # Oracle: recompute centers from the hz->mel->hz round trip.
        lo, hi = hz_to_mel(dsp.F_MIN), hz_to_mel(dsp.F_MAX)
        expected = mel_to_hz(lo + (hi - lo) * np.arange(1, 81) / 81.0)
        np.testing.assert_allclose(mel_filter_centers(80), expected, rtol=1e-12)

    def test_peak_near_center_bin(self):
        bank = mel_filterbank(80)
        centers = mel_filter_centers(80)
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        for m in range(80):
            nearest = int(np.argmin(np.abs(bin_freqs - centers[m])))
            assert abs(int(np.argmax(bank[m])) - nearest) <= 1

    def test_interior_coverage(self):
        bank = mel_filterbank(80)
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        interior = (bin_freqs > dsp.F_MIN + 60) & (bin_freqs < dsp.F_MAX - 60)
        assert np.all(bank.sum(axis=0)[interior] > 0.0)

    def test_compact_support(self):
        bank = mel_filterbank(80)
        lo_m = hz_to_mel(dsp.F_MIN)
        hi_m = hz_to_mel(dsp.F_MAX)
        edges = mel_to_hz(np.linspace(lo_m, hi_m, 82))
        bin_freqs = np.arange(257) * SAMPLE_RATE / 512
        for m in range(0, 80, 7):
            outside = (bin_freqs < edges[m] - 1e-9) | (bin_freqs > edges[m + 2] + 1e-9)
            assert np.all(bank[m][outside] == 0.0)

    def test_cached_bank_is_shared_and_read_only(self):
        bank = mel_filterbank(24)
        assert mel_filterbank(24) is bank
        assert mel_filterbank(40).shape == (40, 257)
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        assert not bank.flags.writeable

    @pytest.mark.parametrize("n_mels", [24, 80])
    def test_extraction_with_cached_bank_is_bit_identical(self, n_mels):
        audio = tone(440.0, seconds=0.5)
        fresh = dsp.mel_filterbank.__wrapped__(n_mels)
        power = power_spectrum(frame_and_window(audio), dsp.N_FFT)
        want = np.log(np.maximum(power @ fresh.T, dsp.LOG_FLOOR))
        for _ in range(2):  # the first call may fill the cache, the second reads it
            np.testing.assert_array_equal(dsp._log_mel(audio, n_mels), want)


class TestExtractLms:
    def test_silence_hits_log_floor(self):
        audio = np.zeros(SAMPLE_RATE)
        lms = dsp._log_mel(audio, 80)
        np.testing.assert_allclose(lms, np.log(1e-10))

    def test_output_is_80_dim(self):
        lms = dsp._log_mel(tone(440.0), 80)
        assert lms.shape == (98, 80)

    def test_1khz_tone_peaks_at_matching_filter(self):
        lms = dsp._log_mel(tone(1000.0), 80)
        centers = mel_filter_centers(80)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        peak_bins = np.argmax(lms, axis=1)
        # Interior frames; allow the neighbor filter (overlapping triangles).
        assert np.all(np.abs(peak_bins[2:-2] - expected_bin) <= 1)

    def test_deterministic(self):
        audio = tone(523.0)
        a = dsp._log_mel(audio, 80)
        b = dsp._log_mel(audio, 80)
        assert np.array_equal(a, b)

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(-0.5, 0.5, SAMPLE_RATE)
        shifted = np.concatenate([rng.uniform(-0.5, 0.5, 160 * 3), base])
        a = dsp._log_mel(base, 80)
        b = dsp._log_mel(shifted, 80)
        np.testing.assert_allclose(b[3 : 3 + a.shape[0]], a, atol=1e-9)


class TestCmvn:
    def test_constant_feature_maps_to_zero(self):
        out = dsp._cmvn(np.full((50, 80), 3.7))
        # Rounding residue divided by the floored std stays tiny.
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            t_len = int(rng.integers(5, 400))
            x = rng.standard_normal((t_len, 4))
            out = dsp._cmvn(x, 1.0)
            w = int(round(1.0 / 0.010))
            for t in (0, t_len // 2, t_len - 1):
                lo, hi = cmvn_window_bounds(t, t_len, w)
                win = x[lo:hi]
                mean = win.mean(axis=0)
                std = np.sqrt(np.maximum(win.var(axis=0), 0.0))
                ref = (x[t] - mean) / np.maximum(std, 1e-8)
                np.testing.assert_allclose(out[t], ref, atol=1e-9)

    def test_default_window_is_300_frames(self):
        w = int(round(3.0 / dsp.FRAME_SHIFT))
        assert w == 300

    def test_interior_window_mean_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 3))
        out = dsp._cmvn(x, 0.2)
        # A frame whose window is fully interior has exactly the window stats.
        w = 20
        t = 40
        lo, hi = cmvn_window_bounds(t, 80, w)
        win = x[lo:hi]
        ref = (x[t] - win.mean(axis=0)) / np.maximum(win.std(axis=0), 1e-8)
        np.testing.assert_allclose(out[t], ref, atol=1e-6)
