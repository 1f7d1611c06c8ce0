"""Persistence tests: the embedding store and model checkpoints must
round-trip exactly."""

import numpy as np
import pytest

from amcrn.errors import ConfigError, DuplicateId
from amcrn.model import (AmcrnModel, checkpoint_bytes, load_checkpoint,
                         restore_model, save_checkpoint, tiny_config)
from amcrn.store import EmbeddingStore


class TestEmbeddingStore:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        store = EmbeddingStore()
        vectors = {f"spk{i}": rng.standard_normal(16) for i in range(5)}
        for rec_id, vec in vectors.items():
            store.add(rec_id, vec, n_utterances=3)
        path = tmp_path / "store.tsv"
        store.save(path)
        loaded = EmbeddingStore(path)
        for rec_id, vec in vectors.items():
            assert np.array_equal(loaded.get(rec_id).vector, vec)

    def test_double_round_trip_identical_files(self, tmp_path):
        rng = np.random.default_rng(1)
        store = EmbeddingStore()
        for i in range(4):
            store.add(f"id{i}", rng.standard_normal(8) * 10.0 ** rng.integers(-5, 5))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        store.save(p1)
        EmbeddingStore(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extreme_values_survive(self, tmp_path):
        store = EmbeddingStore()
        vec = np.array([1e-300, -1e300, 0.1 + 0.2, np.pi, -0.0])
        store.add("x", vec)
        path = tmp_path / "s.tsv"
        store.save(path)
        got = EmbeddingStore(path).get("x").vector
        assert np.array_equal(got, vec)

    def test_duplicate_id_rejected_without_overwrite(self):
        store = EmbeddingStore()
        store.add("a", np.ones(3))
        with pytest.raises(DuplicateId):
            store.add("a", np.zeros(3))
        store.add("a", np.zeros(3), overwrite=True)
        assert np.array_equal(store.get("a").vector, np.zeros(3))

    def test_n_utterances_preserved(self, tmp_path):
        store = EmbeddingStore()
        store.add("a", np.ones(2), n_utterances=7)
        path = tmp_path / "s.tsv"
        store.save(path)
        assert EmbeddingStore(path).get("a").n_utterances == 7

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1\t0.5\nbroken line\n")
        with pytest.raises(ConfigError, match="2"):
            EmbeddingStore(path)

    def test_add_rejects_a_second_dimension(self, tmp_path):
        store = EmbeddingStore()
        store.add("a", np.ones(3))
        with pytest.raises(ConfigError):
            store.add("b", np.ones(4))
        store.add("a", np.ones(4), overwrite=True)  # replaces the only record
        path = tmp_path / "s.tsv"
        store.save(path)
        assert len(EmbeddingStore(path).get("a").vector) == 4

    @pytest.mark.parametrize("bad_line", [
        "b\t1\tnan 1.0",
        "b\t1\t0.5 inf",
        "b\t1\t-inf -inf",
        "b\t1\t",
        "b\t1\t0.5  1.0",
        "b\t1\t0.5 x",
        "b\tone\t0.5 1.0",
        "b\t1\t0.5",
        "b\t1\t0.5 1.0 2.0",
    ])
    def test_bad_value_line_reports_location(self, tmp_path, bad_line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\t1\t0.25 0.75\n{bad_line}\n")
        with pytest.raises(ConfigError, match=f"{path.name}:2: "):
            EmbeddingStore(path)

    def test_repeated_id_names_the_first_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1\t0.5 1.0\nb\t1\t0.25 0.75\na\t1\t-0.5 3.0\n")
        with pytest.raises(ConfigError, match=f"{path.name}:3: id 'a' repeats line 1"):
            EmbeddingStore(path)

    @pytest.mark.parametrize("rec_id", ["a\tb", "a\nb", "a\rb", "\t", "a\n"])
    def test_id_with_separator_rejected(self, rec_id):
        store = EmbeddingStore()
        with pytest.raises(ConfigError):
            store.add(rec_id, np.ones(3))
        assert rec_id not in store

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vector_rejected(self, bad):
        store = EmbeddingStore()
        with pytest.raises(ConfigError):
            store.add("a", np.array([0.5, bad, 1.0]))
        assert "a" not in store

    def test_contains(self):
        store = EmbeddingStore()
        store.add("a", np.ones(2))
        assert "a" in store and "b" not in store


class TestCheckpoint:
    def test_save_load_save_is_stable(self, tmp_path):
        model = AmcrnModel(tiny_config(), seed=4)
        blob1 = checkpoint_bytes(model)
        model2 = restore_model(blob1, model.config)
        blob2 = checkpoint_bytes(model2)
        assert blob1 == blob2

    def test_restored_model_reproduces_embeddings(self, tmp_path):
        cfg = tiny_config()
        model = AmcrnModel(cfg, seed=5)
        # Perturb the running stats so buffers are exercised too.
        model.initial_bn.running_mean += 0.25
        model.emb_norm.running_var *= 1.5
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(6).standard_normal((9, cfg.n_mels))
        ref = restore_model(checkpoint_bytes(model), cfg).embed(x).values
        assert np.array_equal(loaded.embed(x).values, ref)

    def test_config_sidecar_round_trips(self, tmp_path):
        cfg = tiny_config(n_scales=4, channels=32, standard_conv=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, AmcrnModel(cfg, seed=0))
        assert load_checkpoint(path).config == cfg

    def test_buffers_restored_exactly_as_float32(self, tmp_path):
        model = AmcrnModel(tiny_config(), seed=7)
        model.initial_bn.running_var[:] = np.pi
        blob = checkpoint_bytes(model)
        restored = restore_model(blob, model.config)
        expect = np.float64(np.float32(np.pi))
        np.testing.assert_array_equal(restored.initial_bn.running_var, expect)

    def test_bad_magic_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        blob = b"XX" + checkpoint_bytes(model)[2:]
        with pytest.raises(ConfigError):
            restore_model(blob, model.config)

    def test_truncated_entry_count_mismatch_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        blob = bytearray(checkpoint_bytes(model))
        blob[-4:] = (99).to_bytes(4, "little")
        with pytest.raises(ConfigError, match="entry count"):
            restore_model(bytes(blob), model.config)

    def test_wrong_config_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        blob = checkpoint_bytes(model)
        with pytest.raises(ConfigError):
            restore_model(blob, tiny_config(channels=32))


class TestCheckpointBounds:
    @pytest.fixture(scope="class")
    def blob(self):
        return checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))

    def test_every_truncation_raises_config_error(self, blob):
        # Every prefix below 64 bytes plus 50 evenly spaced longer ones.
        lengths = list(range(64)) + list(np.linspace(64, len(blob) - 1, 50).astype(int))
        cfg = tiny_config()
        for n in lengths:
            with pytest.raises(ConfigError):
                restore_model(blob[:n], cfg)

    def test_overlong_dims_raise_config_error(self, blob):
        # The first entry's first dimension sits after the magic, the u16
        # name length, the name and the u8 rank.
        name_len = int.from_bytes(blob[6:8], "little")
        dim_at = 6 + 2 + name_len + 1
        bad = bytearray(blob)
        bad[dim_at : dim_at + 4] = (2**31).to_bytes(4, "little")
        with pytest.raises(ConfigError):
            restore_model(bytes(bad), tiny_config())

    def test_undecodable_name_raises_config_error(self, blob):
        bad = bytearray(blob)
        bad[8] = 0xFF  # first byte of the first entry name
        with pytest.raises(ConfigError):
            restore_model(bytes(bad), tiny_config())
