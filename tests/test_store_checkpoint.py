"""Persistence tests: the embedding store and model checkpoints must
round-trip exactly, and every output file is written atomically."""

import hashlib
import os
import tracemalloc
import zlib
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amcrn.audio import write_wav
from amcrn.errors import AmcrnError, ConfigError, DuplicateId
from amcrn.model import (AmcrnConfig, AmcrnModel, _atomic_write, _stored_values,
                         checkpoint_bytes, config_text, load_checkpoint, restore_model,
                         save_checkpoint, tiny_config)
from amcrn.scoring import Trial, write_scored_trials
from amcrn.store import EmbeddingStore
from amcrn.training import EpochRecord, write_history_csv


def _write_fixed_wav(path):
    t = np.arange(1600)
    write_wav(path, 0.5 * np.sin(2 * np.pi * 440 * t / 16000) + 0.7 * np.cos(t / 7.0))


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

    @pytest.mark.parametrize("count", [0, -7])
    def test_add_rejects_a_count_below_one(self, count):
        # A store saved with such a count would not load again.
        store = EmbeddingStore()
        with pytest.raises(ConfigError, match=f"utterance count {count} for 'a' is below 1"):
            store.add("a", np.ones(2), n_utterances=count)
        assert "a" not in store

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
        "b\t-7\t0.5 0.25",
        "b\t0\t0.5 0.25",
    ])
    def test_bad_value_line_reports_location(self, tmp_path, bad_line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\t1\t0.25 0.75\n{bad_line}\n")
        with pytest.raises(ConfigError, match=f"{path.name}:2: "):
            EmbeddingStore(path)

    def test_invalid_utf8_names_the_store(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a\t1\t0.5 1.0\n\xffb\t1\t0.25 0.75\n")
        with pytest.raises(ConfigError, match=f"{path.name}: not a UTF-8 store: "):
            EmbeddingStore(path)

    def test_repeated_id_names_the_first_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1\t0.5 1.0\nb\t1\t0.25 0.75\na\t1\t-0.5 3.0\n")
        with pytest.raises(ConfigError, match=f"{path.name}:3: id 'a' repeats line 1"):
            EmbeddingStore(path)

    def test_cut_last_line_refused(self, tmp_path):
        """`save` ends every line, so a last line without its end was cut
        short; it is refused, not read as a shorter vector."""
        path = tmp_path / "s.tsv"
        store = EmbeddingStore()
        store.add("a", [0.5, 1.0])
        store.add("b", [0.25, 0.75])
        store.save(path)
        path.write_bytes(path.read_bytes()[:-4])  # "b\t1\t0.25 0."
        with pytest.raises(ConfigError) as refused:
            EmbeddingStore(path)
        assert str(refused.value) == f"{path}:2: line cut short"

    def test_second_dimension_names_the_store(self, tmp_path):
        path = tmp_path / "s.tsv"
        store = EmbeddingStore(path)
        store.add("a", np.ones(3))
        store.save()
        with pytest.raises(ConfigError) as refused:
            EmbeddingStore(path).add("b", np.ones(4))
        assert str(refused.value) == f"{path}: embedding for 'b' has 4 values, the store holds 3"

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

    def test_save_without_a_path_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = EmbeddingStore()
        store.add("a", np.ones(2))
        with pytest.raises(ConfigError, match="the store has no path"):
            store.save()
        assert list(tmp_path.iterdir()) == []

    def test_contains(self):
        store = EmbeddingStore()
        store.add("a", np.ones(2))
        assert "a" in store and "b" not in store


@pytest.fixture(scope="module")
def store_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "s.tsv"
    _write_fixed_store(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch_store(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled") / "s.tsv"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mangled_store_bytes_load_or_raise_amcrn_error(scratch_store, store_bytes, data):
    """Up to four bytes of a valid store replaced, each by a separator, a
    sign, a digit or any byte, then a cut at any length: the store loads
    with positive counts and finite vectors, or raises an AmcrnError."""
    blob = bytearray(store_bytes)
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.one_of(st.sampled_from(b"\t\n -0.e"), st.integers(0, 255)))
    scratch_store.write_bytes(bytes(blob[: data.draw(st.integers(0, len(blob)))]))
    try:
        store = EmbeddingStore(scratch_store)
    except AmcrnError:
        return
    for rec in store.records.values():
        assert rec.n_utterances >= 1 and np.all(np.isfinite(rec.vector))


def _first_entry(blob):
    """Offset of a checkpoint's first entry: after the magic, the u32
    config length and the config text."""
    return 10 + int.from_bytes(blob[6:10], "little")


def _sealed(body):
    """A checkpoint body (everything before the CRC) with a valid CRC32."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


class TestCheckpoint:
    def test_save_load_save_is_stable(self, tmp_path):
        model = AmcrnModel(tiny_config(), seed=4)
        blob1 = checkpoint_bytes(model)
        model2 = restore_model(blob1)
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
        ref = restore_model(checkpoint_bytes(model)).embed(x)
        assert np.array_equal(loaded.embed(x), ref)

    def test_embedded_config_round_trips(self, tmp_path):
        """The config travels inside the one file, as `config_text`; no
        second file is written or read."""
        cfg = tiny_config(n_scales=4, channels=32, mcb_dilations=(1, 1, 1))
        model = AmcrnModel(cfg, seed=0)
        blob = checkpoint_bytes(model)
        assert blob[10:_first_entry(blob)].decode() == config_text(cfg)
        assert restore_model(blob).config == cfg
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        assert os.listdir(tmp_path) == ["m.ckpt"]
        assert load_checkpoint(path).config == cfg

    def test_config_sidecar_round_trips(self, tmp_path):
        """A stale <path>.cfg beside a checkpoint, left by the two-file
        layout, is not read: the config comes back from the file itself."""
        cfg = tiny_config(n_scales=4, channels=32, mcb_dilations=(1, 1, 1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, AmcrnModel(cfg, seed=0))
        (tmp_path / "m.ckpt.cfg").write_text(config_text(tiny_config()))
        assert load_checkpoint(path).config == cfg

    def test_wrong_config_rejected(self):
        """Entries saved under one config, sealed with another config's
        text and a valid CRC, are refused by shape; a config that needs
        more values than the file holds is refused before any layer is
        built."""
        blob = checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))
        for channels, message in ((8, "^shape mismatch for "),
                                  (32, "^checkpoint truncated: its config needs ")):
            text = config_text(tiny_config(channels=channels)).encode()
            body = (blob[:6] + len(text).to_bytes(4, "little") + text
                    + blob[_first_entry(blob):-4])
            with pytest.raises(ConfigError, match=message):
                restore_model(_sealed(body))

    def test_buffers_restored_exactly_as_float32(self, tmp_path):
        model = AmcrnModel(tiny_config(), seed=7)
        model.initial_bn.running_var[:] = np.pi
        blob = checkpoint_bytes(model)
        restored = restore_model(blob)
        expect = np.float64(np.float32(np.pi))
        np.testing.assert_array_equal(restored.initial_bn.running_var, expect)

    def test_bad_magic_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        blob = b"XX" + checkpoint_bytes(model)[2:]
        with pytest.raises(ConfigError, match="not a recognized checkpoint file"):
            restore_model(blob)

    def test_truncated_entry_count_mismatch_rejected(self):
        model = AmcrnModel(tiny_config(), seed=0)
        body = bytearray(checkpoint_bytes(model)[:-4])
        body[-4:] = (99).to_bytes(4, "little")
        with pytest.raises(ConfigError, match="entry count"):
            restore_model(_sealed(body))

    def test_amcrn1_file_rejected_naming_the_format(self):
        """The old layouts are refused with a message that says to retrain:
        AMCRN1 (magic, entries, count; config in a second file) and AMCRN2
        (this layout over a config with fields AmcrnConfig no longer has)."""
        blob = checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))
        for old in (b"AMCRN1" + blob[_first_entry(blob):-4], b"AMCRN2" + blob[6:]):
            with pytest.raises(ConfigError, match=f"^an {old[:6].decode()} checkpoint, .*retrain"
                                                  " the model to write an AMCRN3 checkpoint$"):
                restore_model(old)

    def test_skipped_entry_goes_through_the_checksum(self):
        """An entry the model has no array for is read past, not loaded;
        its bytes still count toward the CRC."""
        blob = checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))
        extra = (b"\x05\x00extra\x01\x03\x00\x00\x00"
                 + np.arange(3, dtype="<f4").tobytes())
        count = int.from_bytes(blob[-8:-4], "little") + 1
        sealed = _sealed(blob[:-8] + extra + count.to_bytes(4, "little"))
        assert checkpoint_bytes(restore_model(sealed)) == blob
        corrupt = bytearray(sealed)
        corrupt[-10] ^= 0x40  # a byte of the extra entry's values
        with pytest.raises(ConfigError, match="^checkpoint checksum mismatch$"):
            restore_model(bytes(corrupt))

    def test_bad_embedded_config_names_the_checkpoint(self, tmp_path):
        blob = checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))
        text = "use_blstm = flase\n".encode()
        body = (blob[:6] + len(text).to_bytes(4, "little") + text
                + blob[_first_entry(blob):-4])
        path = tmp_path / "m.ckpt"
        path.write_bytes(_sealed(body))
        with pytest.raises(ConfigError, match=f"^{path}:1: use_blstm: expected a boolean"):
            load_checkpoint(path)
        with pytest.raises(ConfigError, match="^checkpoint:1: use_blstm"):
            restore_model(_sealed(body))


def truncation_lengths(blob):
    """Every prefix length below 64 bytes plus 50 evenly spaced longer ones."""
    return list(range(64)) + list(np.linspace(64, len(blob) - 1, 50).astype(int))


class TestCheckpointBounds:
    @pytest.fixture(scope="class")
    def blob(self):
        return checkpoint_bytes(AmcrnModel(tiny_config(), seed=0))

    def test_every_truncation_raises_config_error(self, blob):
        for n in truncation_lengths(blob):
            with pytest.raises(ConfigError):
                restore_model(blob[:n])

    def test_overlong_dims_raise_config_error(self, blob):
        # The first entry's first dimension sits after the config block,
        # the u16 name length, the name and the u8 rank.
        first = _first_entry(blob)
        name_len = int.from_bytes(blob[first : first + 2], "little")
        dim_at = first + 2 + name_len + 1
        bad = bytearray(blob[:-4])
        bad[dim_at : dim_at + 4] = (2**31).to_bytes(4, "little")
        with pytest.raises(ConfigError, match="^checkpoint truncated"):
            restore_model(_sealed(bad))

    def test_undecodable_name_raises_config_error(self, blob):
        bad = bytearray(blob[:-4])
        bad[_first_entry(blob) + 2] = 0xFF  # first byte of the first entry name
        with pytest.raises(ConfigError, match="entry name .* is not UTF-8"):
            restore_model(_sealed(bad))

    @pytest.mark.parametrize("config", [
        AmcrnConfig(), tiny_config(), tiny_config(use_blstm=False),
        tiny_config(use_temporal_attention=False, n_scales=4),
        tiny_config(mcb_dilations=(1, 1, 1), n_scales=1),
        tiny_config(mcb_kernel=(3, 5), mcb_dilations=(1, 2))],
        ids=["full", "tiny", "no_blstm", "no_attention", "dilation_one_one_scale", "two_blocks"])
    def test_size_check_counts_every_stored_value(self, config):
        """The count the reader checks the file size against is exactly
        the number of values a checkpoint of the config holds, so no
        valid file is refused."""
        model = AmcrnModel.skeleton(config)
        stored = sum(a.size for a in _model_arrays(model))
        assert _stored_values(config) == stored

    @pytest.mark.parametrize("edit", ["hidden_commented_out", "wide_channels"])
    def test_config_larger_than_the_file_builds_nothing(self, blob, edit):
        """A config block that names a larger network than the file has
        values for is refused before any layer is built: one `#` in front
        of `blstm_hidden = 8` (the default H = 450 BLSTM, 52.5 MB of
        float64 parameters), or 2**20 channels (16 MB per bias and
        normalization array), each under a valid CRC."""
        first = _first_entry(blob)
        if edit == "hidden_commented_out":
            text = blob[10:first].replace(b"blstm_hidden = 8", b"#blstm_hidden = 8")
            assert b"#blstm" in text
        else:
            text = config_text(tiny_config(channels=2**20)).encode()
        bad = _sealed(blob[:6] + len(text).to_bytes(4, "little") + text + blob[first:-4])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^checkpoint truncated: its config needs "):
                restore_model(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_undecodable_config_raises_config_error(self, blob):
        bad = bytearray(blob[:-4])
        bad[10] = 0xFF  # first byte of the config text
        with pytest.raises(ConfigError, match="^checkpoint config at offset 10 is not UTF-8"):
            restore_model(_sealed(bad))


# SHA-256 and size of the AMCRN3 checkpoint of AmcrnModel(tiny_config(),
# seed=0) with 0.25 added to initial_bn.running_mean, and SHA-256 of its
# entries and entry count: the bytes between the config block and the CRC.
# The file hashes move with the magic and the config text; the entry
# hashes are those of the AMCRN2 files, whose config named a channel
# width per block, and move only when a stored value does. Each
# structural ablation holds a different set of entries; dilation 1 in
# every block changes only the config text.
SEEDED_CHECKPOINTS = {
    "default": ({}, ("538bf6120ee472d7182f659c6e8dc4a0637505efb1876b4adbbf5b546a0b8b97", 45383),
                "0851005268bf848c02905e87145c3c635a2868a507e21400a6bf63f431445745"),
    "no_blstm": (dict(use_blstm=False),
                 ("58e32afc3533c1c4640a78b54d22c96bf877f52c699260c59704a425a709c11c", 31072),
                 "78f7628a74f526a040d8ddaf137cd1e80e87a5b0f41694fa10062559c4fe5a35"),
    "no_temporal_attention": (
        dict(use_temporal_attention=False),
        ("02a0920e0ba165da8470fdd89c8adf4dbbc476326868783a8ce181c5144c20fe", 45060),
        "4c867e273f42d8ef84ada725df73d8c51c21fab5984a502c41981b69a0c11d96"),
    "dilation_one": (dict(mcb_dilations=(1, 1, 1)),
                     ("7d6ea2e84004deb35eeba282ab72905aa849e81fdb771b31e0ad3a136173fc6a", 45383),
                     "0851005268bf848c02905e87145c3c635a2868a507e21400a6bf63f431445745"),
}


def _seeded_model(**overrides):
    model = AmcrnModel(tiny_config(**overrides), seed=0)
    model.initial_bn.running_mean += 0.25
    return model


def _model_arrays(model):
    return [p.data for p in model.parameters()] + [getattr(o, a) for _, o, a in model.buffers()]


class TestStreamedCheckpoint:
    """`save_checkpoint` writes and `load_checkpoint` reads one entry at a
    time; the file bytes and every error stay those of the in-memory blob."""

    @pytest.mark.parametrize("variant", sorted(SEEDED_CHECKPOINTS))
    def test_seeded_file_bytes_frozen(self, tmp_path, variant):
        overrides, frozen, _ = SEEDED_CHECKPOINTS[variant]
        model = _seeded_model(**overrides)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == frozen
        assert data == checkpoint_bytes(model)

    @pytest.mark.parametrize("variant", sorted(SEEDED_CHECKPOINTS))
    def test_seeded_entries_frozen(self, variant):
        """A change to the config text, which re-pins the file hashes above,
        cannot hide a change to the stored values."""
        overrides, _, entries = SEEDED_CHECKPOINTS[variant]
        blob = checkpoint_bytes(_seeded_model(**overrides))
        assert hashlib.sha256(blob[_first_entry(blob):-4]).hexdigest() == entries

    def test_truncated_files_fail_as_truncated_blobs(self, tmp_path):
        model = _seeded_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        for n in truncation_lengths(blob):
            with pytest.raises(ConfigError) as from_bytes:
                restore_model(blob[:n])
            path.write_bytes(blob[:n])
            with pytest.raises(ConfigError) as from_file:
                load_checkpoint(path)
            assert str(from_file.value) == f"{path}: {from_bytes.value}"
            assert str(from_bytes.value).startswith(("checkpoint truncated",
                                                     "checkpoint entry count mismatch",
                                                     "not a recognized checkpoint file",
                                                     "checkpoint checksum mismatch"))

    @pytest.mark.parametrize("keep", [0, 5, 9, 200, -1])
    def test_truncated_file_exits_2_via_embed(self, tmp_path, capsys, keep):
        from amcrn.cli import main

        model = _seeded_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        with pytest.raises(ConfigError) as expected:
            restore_model(blob[:keep])
        path.write_bytes(blob[:keep])
        wav = tmp_path / "a.wav"
        write_wav(wav, 0.1 * np.sin(np.arange(8000) / 3.0))
        assert main(["embed", "--checkpoint", str(path), str(wav)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {expected.value}\n"
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


@cache
def _property_blobs():
    """Two checkpoints of different configs, for truncation, byte-change
    and splice properties."""
    return (checkpoint_bytes(_seeded_model()),
            checkpoint_bytes(AmcrnModel(tiny_config(channels=8, n_scales=4), seed=1)))


class TestCorruptCheckpointProperties:
    """Whatever happened to the file, a checkpoint that is not one of the
    files written raises ConfigError and nothing else. CRC32 detects every
    single-byte change, so each one is rejected."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_truncation_raises_config_error(self, data):
        blob = data.draw(st.sampled_from(_property_blobs()))
        n = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ConfigError):
            restore_model(blob[:n])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_change_raises_config_error(self, data):
        blob = data.draw(st.sampled_from(_property_blobs()))
        at = data.draw(st.integers(0, len(blob) - 1))
        bad = bytearray(blob)
        bad[at] ^= data.draw(st.integers(1, 255))
        with pytest.raises(ConfigError):
            restore_model(bytes(bad))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_splice_raises_config_error(self, data):
        """A prefix of one checkpoint followed by a suffix of the same or
        the other one."""
        a = data.draw(st.sampled_from(_property_blobs()))
        b = data.draw(st.sampled_from(_property_blobs()))
        spliced = (a[: data.draw(st.integers(0, len(a)))]
                   + b[data.draw(st.integers(0, len(b))):])
        assume(spliced not in _property_blobs())
        with pytest.raises(ConfigError):
            restore_model(spliced)
