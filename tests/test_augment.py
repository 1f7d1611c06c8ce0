"""Augmentation tests: SNR accuracy, determinism, edge cases."""

import numpy as np
import pytest

from amcrn.audio import SAMPLE_RATE
from amcrn.augment import ADDITIVE_KINDS, KINDS, augment
from amcrn.errors import ConfigError


def speechlike(seed=0, seconds=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return 0.3 * np.sin(2 * np.pi * 220 * t) + 0.05 * rng.standard_normal(len(t))


class TestSnr:
    @pytest.mark.parametrize("kind", ADDITIVE_KINDS)
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_realized_snr_matches_request(self, kind, snr_db):
        clean = speechlike()
        out = augment(clean, kind, snr_db, seed=42)
        noise = out - clean
        p_clean = np.mean(clean**2)
        p_noise = np.mean(noise**2)
        assert p_noise > 0.0
        realized = 10.0 * np.log10(p_clean / p_noise)
        # Clipping can nudge the realized value slightly.
        assert abs(realized - snr_db) < 0.5

    def test_infinite_snr_is_noop(self):
        clean = speechlike()
        out = augment(clean, "noise", np.inf, seed=1)
        assert np.array_equal(out, clean)
        assert out is not clean


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_output(self, kind):
        clean = speechlike()
        a = augment(clean, kind, 10.0, seed=7)
        b = augment(clean, kind, 10.0, seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_different_seed_different_output(self, kind):
        clean = speechlike()
        a = augment(clean, kind, 10.0, seed=7)
        b = augment(clean, kind, 10.0, seed=8)
        assert not np.array_equal(a, b)


class TestMisc:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            augment(speechlike(), "codec", 10.0, seed=0)

    def test_output_bounded(self):
        out = augment(speechlike(), "noise", -10.0, seed=0)
        assert np.all(np.abs(out) <= 1.0)

    def test_reverb_keeps_length_and_changes_signal(self):
        clean = speechlike()
        out = augment(clean, "reverb", 0.0, seed=3)
        assert len(out) == len(clean)
        assert not np.array_equal(out, clean)
