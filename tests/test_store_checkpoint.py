"""Persistence tests: the embedding store and model checkpoints must
round-trip exactly, and every output file is written atomically."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from amcrn.audio import AudioBuffer, write_wav
from amcrn.errors import ConfigError, DuplicateId
from amcrn.model import (AmcrnModel, _atomic_write, checkpoint_bytes, load_checkpoint,
                         restore_model, save_checkpoint, tiny_config)
from amcrn.scoring import Trial, write_scored_trials
from amcrn.store import EmbeddingStore
from amcrn.training import EpochRecord, write_history_csv


def _write_fixed_wav(path):
    t = np.arange(1600)
    write_wav(path, AudioBuffer(0.5 * np.sin(2 * np.pi * 440 * t / 16000) + 0.7 * np.cos(t / 7.0)))


def _write_fixed_store(path):
    store = EmbeddingStore()
    store.add("zo\u00eb", [1e-300, 3.0, -0.0], n_utterances=1)
    store.add("alice", [0.1, -2.5, 1 / 3], n_utterances=2)
    store.save(path)


def _write_fixed_scores(path):
    write_scored_trials(path, [Trial(1, "a.wav", "b.wav"), Trial(0, "a.wav", "c d/\u00e9.wav")],
                        [0.25, -1 / 3])


def _write_fixed_history(path):
    write_history_csv(path, [EpochRecord(0, 1.5, 1 / 3, 0.005, 10),
                             EpochRecord(1, 2e-17, float("inf"), 1e-6, 10)])


# writer -> (SHA-256, size) of the file it writes, frozen from the
# per-writer temp-file code these writers replaced.
FIXED_OUTPUTS = {
    _write_fixed_wav: ("17a01b4b8802a79e599108f630476ccdae01c76b5545479209e2facf31ac3a9c", 3244),
    _write_fixed_store: ("fed92a00fcb284ed8b8e2c249da919264e21d44da72aef5a0e3e2f89bc928f35", 59),
    _write_fixed_scores: ("3dbeb7b607df74ec1a359a82044f278046d60e7797388d363052e00de48c462e", 58),
    _write_fixed_history: ("59ee61e5551ff9121858308f2f991cb11599b6e2001d58449c277184aa9d7377", 81),
}
WRITERS = [lambda path: _atomic_write(path, b"new bytes"), *FIXED_OUTPUTS]


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", list(FIXED_OUTPUTS), ids=lambda w: w.__name__)
    def test_bytes_unchanged(self, tmp_path, writer):
        path = tmp_path / "out"
        writer(path)
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == FIXED_OUTPUTS[writer]

    @pytest.mark.parametrize("writer", WRITERS, ids=["bytes", "wav", "store", "scores",
                                                     "history"])
    def test_failed_rename_keeps_old_bytes(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        path.write_bytes(b"old bytes")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            writer(path)
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["out"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"a much longer old file")
        _atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out"]


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


def truncation_lengths(blob):
    """Every prefix length below 64 bytes plus 50 evenly spaced longer ones."""
    return list(range(64)) + list(np.linspace(64, len(blob) - 1, 50).astype(int))


class TestCheckpointBounds:
    @pytest.fixture(scope="class")
    def blob(self):
        return checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))

    def test_every_truncation_raises_config_error(self, blob):
        cfg = tiny_config()
        for n in truncation_lengths(blob):
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


# SHA-256 and size of the checkpoint of AmcrnModel(tiny_config(), seed=0)
# with 0.25 added to initial_bn.running_mean, frozen from the writer that
# built the whole blob in memory before the entry-by-entry writer.
SEEDED_CHECKPOINT = ("a0e9327935f0893f9b96b62f135596960eb6fad641f3ce4b6cea0bba36b072e5", 45074)


def _seeded_model(**overrides):
    model = AmcrnModel(tiny_config(**overrides), seed=0)
    model.initial_bn.running_mean += 0.25
    return model


def _model_arrays(model):
    return [p.data for p in model.parameters()] + [getattr(o, a) for _, o, a in model.buffers()]


class TestStreamedCheckpoint:
    """`save_checkpoint` writes and `load_checkpoint` reads one entry at a
    time; the file bytes and every error stay those of the in-memory blob."""

    def test_seeded_file_bytes_frozen(self, tmp_path):
        model = _seeded_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == SEEDED_CHECKPOINT
        assert data == checkpoint_bytes(model)

    def test_truncated_files_fail_as_truncated_blobs(self, tmp_path):
        model = _seeded_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        for n in truncation_lengths(blob):
            with pytest.raises(ConfigError) as from_bytes:
                restore_model(blob[:n], model.config)
            path.write_bytes(blob[:n])
            with pytest.raises(ConfigError) as from_file:
                load_checkpoint(path)
            assert str(from_file.value) == str(from_bytes.value)
            assert str(from_file.value).startswith(("checkpoint truncated",
                                                    "checkpoint entry count mismatch",
                                                    "not a recognized checkpoint file"))

    @pytest.mark.parametrize("keep", [0, 5, 9, 200, -1])
    def test_truncated_file_exits_2_via_embed(self, tmp_path, capsys, keep):
        from amcrn.cli import main

        model = _seeded_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        with pytest.raises(ConfigError) as expected:
            restore_model(blob[:keep], model.config)
        path.write_bytes(blob[:keep])
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioBuffer(0.1 * np.sin(np.arange(8000) / 3.0)))
        assert main(["embed", "--checkpoint", str(path), str(wav)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {expected.value}\n"
        assert captured.out == ""

    # Python-side allowance on top of the arrays: names, Tensor objects,
    # headers, the temp file. The blob of the config below is 1 MB.
    SLACK = 128 * 1024

    def test_load_holds_model_and_one_entry(self, tmp_path):
        model = _seeded_model(n_mels=16, channels=64, hidden=64)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        arrays = _model_arrays(model)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checkpoint_bytes(loaded) == path.read_bytes()
        bound = sum(a.nbytes for a in arrays) + max(a.nbytes for a in arrays) + self.SLACK
        assert peak < bound, (peak, bound, path.stat().st_size)

    def test_save_holds_one_entry(self, tmp_path):
        model = _seeded_model(n_mels=16, channels=64, hidden=64)
        path = tmp_path / "m.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == checkpoint_bytes(model)
        bound = max(a.nbytes for a in _model_arrays(model)) + self.SLACK
        assert peak < bound, (peak, bound, path.stat().st_size)
