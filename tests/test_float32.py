"""Float32 inference: the cosine-scored commands (`verify` and `eval`
with `--backend csm`) embed with float32 weights and features; every
other path stays float64 and bit-identical.

Stated tolerance of the float32 path against the float64 oracle: each
embedding within 1e-5 in L2 norm relative to the float64 embedding, and
each cosine score within 1e-7.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn.audio import read_wav
from amcrn.autodiff import Tensor
from amcrn.cli import main
from amcrn.model import (AmcrnConfig, AmcrnModel, checkpoint_bytes, load_checkpoint,
                         restore_model, save_checkpoint, tiny_config)
from amcrn.scoring import Trial, csm, embed_audio, load_plda, plda_score, run_trials
from amcrn.store import EmbeddingStore
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset

EMBEDDING_RTOL = 1e-5
CSM_ATOL = 1e-7

DURATIONS = (2.0, 3.0, 5.0, 20.0)
CONFIGS = {"tiny": lambda: tiny_config(n_mels=80), "full": AmcrnConfig}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def embeddings(request):
    """duration -> (float64 rows, float32 rows) of two speakers' utterances
    of that length, both from one checkpoint of the config."""
    blob = checkpoint_bytes(AmcrnModel(CONFIGS[request.param](), seed=3))
    models = restore_model(blob), restore_model(blob, np.float32)
    out = {}
    for seconds in DURATIONS:
        spec = ToySpeakerSpec(n_speakers=2, utterances_per_speaker=1,
                              utterance_seconds=seconds, seed=1)
        pairs = [(u.utterance_id, u.audio) for u in make_toy_dataset(spec)]
        out[seconds] = tuple(embed_audio(m, pairs) for m in models)
    return out


class TestAgainstFloat64Oracle:
    @pytest.mark.parametrize("seconds", DURATIONS)
    def test_embeddings_within_tolerance(self, embeddings, seconds):
        ref, got = embeddings[seconds]
        assert got.dtype == np.float64  # float32 values, returned as float64 rows
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= EMBEDDING_RTOL, rel
        assert rel.max() > 0.0  # the float32 path did run

    @pytest.mark.parametrize("seconds", DURATIONS)
    def test_cosine_scores_within_tolerance(self, embeddings, seconds):
        short_ref, short_got = embeddings[DURATIONS[0]]
        ref, got = embeddings[seconds]
        for a_ref, a_got in ((ref[0], got[0]), (short_ref[1], short_got[1])):
            assert abs(csm(a_got, got[1]) - csm(a_ref, ref[1])) <= CSM_ATOL


class TestFloat32Model:
    def test_weights_load_as_float32_and_save_the_same_bytes(self):
        model = AmcrnModel(tiny_config(), seed=2)
        model.initial_bn.running_var *= 1.5
        blob = checkpoint_bytes(model)
        loaded = restore_model(blob, np.float32)
        assert loaded.dtype == np.float32 and restore_model(blob).dtype == np.float64
        arrays = [p.data for p in loaded.parameters()]
        arrays += [getattr(owner, attr) for _, owner, attr in loaded.buffers()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        # Writable arrays of their own memory: no two overlap, and none is a
        # view of the checkpoint bytes (those would be read-only).
        assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays)
        assert not any(np.may_share_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])
        assert checkpoint_bytes(loaded) == blob

    def test_forward_builds_no_float64_tensor(self, monkeypatch):
        cfg = tiny_config()
        model = restore_model(checkpoint_bytes(AmcrnModel(cfg, seed=0)), np.float32)
        dtypes = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            dtypes.append(self.data.dtype)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        x = np.random.default_rng(0).standard_normal((2, 40, cfg.n_mels))
        model.embed(x.astype(np.float32))
        assert len(dtypes) > 50
        assert set(dtypes) == {np.dtype(np.float32)}

    def test_load_holds_no_float64_model(self, tmp_path):
        """A float32 load holds the float32 arrays and one entry's file
        values; the skeleton it fills takes no memory for its weights."""
        model = AmcrnModel(tiny_config(n_mels=16, channels=64, hidden=64), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        sizes = [p.data.size for p in model.parameters()]
        tracemalloc.start()
        try:
            load_checkpoint(path, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 4 * (sum(sizes) + max(sizes)) + 128 * 1024
        assert peak < bound, (peak, bound)


class TestTensorDtype:
    def test_grad_mode_makes_float32_float64(self):
        x = np.ones(3, dtype=np.float32)
        assert Tensor(x).data.dtype == np.float64
        assert Tensor(x, requires_grad=True).data.dtype == np.float64
        assert ad.relu(Tensor(x)).data.dtype == np.float64

    def test_no_grad_keeps_float32_and_makes_the_rest_float64(self):
        with ad.no_grad():
            assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
            for other in (np.ones(3, dtype=np.int64), np.ones(2, dtype=np.float16), 1, 0.5,
                          [1.0, 2.0]):
                assert Tensor(other).data.dtype == np.float64, other

    def test_tmean_and_tmax_keep_float32(self):
        x = np.random.default_rng(1).standard_normal((5, 6)).astype(np.float32)
        with ad.no_grad():
            for out in (ad.tmean(x, axis=-1), ad.tmax(x, axis=-1), ad.tmean(x)):
                assert out.data.dtype == np.float32
        np.testing.assert_allclose(ad.tmean(x, axis=-1).data, x.mean(axis=-1), rtol=1e-6)


def test_sigmoid_saturates_quietly_in_float32():
    """exp(-x) overflows in float32 beyond |x| = 88; 1 / (1 + inf) = 0 is
    the right value and no RuntimeWarning is printed."""
    x = np.array([-1000.0, -100.0, 0.0, 100.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ad.no_grad():
            y32 = ad.sigmoid(x.astype(np.float32)).data
        y64 = ad.sigmoid(x).data
    assert y32.dtype == np.float32
    np.testing.assert_array_equal(y32, [0.0, 0.0, 0.5, 1.0, 1.0])
    with np.errstate(over="ignore"):  # the float64 formula, bit for bit
        np.testing.assert_array_equal(y64, 1.0 / (1.0 + np.exp(-x)))


class TestCommandsByBackend:
    """`verify` and `eval` embed in float32 with the csm back end. `embed`,
    `enroll` and the plda back end embed in float64, bit for bit as the
    float64 model does in process."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("float32")
        data = root / "data"
        assert main(["toygen", "--spec", "speakers=3 utts=3 seconds=1.0",
                     "--out", str(data)]) == 0
        ckpt = root / "model.ckpt"
        cfg = tiny_config(n_mels=24, channels=32, n_scales=4, hidden=32,
                          embedding_dim=64, n_classes=3)
        save_checkpoint(ckpt, AmcrnModel(cfg, seed=0))
        trials = root / "trials.txt"
        trials.write_text("1 spk000/utt000.wav spk000/utt001.wav\n"
                          "0 spk000/utt000.wav spk001/utt000.wav\n"
                          "1 spk002/utt001.wav spk002/utt002.wav\n")
        plda = root / "plda.npz"
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                     "--audio-root", str(data), "--backend", "plda",
                     "--plda-train-dir", str(data), "--plda-file", str(plda),
                     "--out-prefix", str(root / "fit")]) == 0
        store = root / "speakers.tsv"
        wavs = [data / "spk000" / "utt000.wav", data / "spk000" / "utt002.wav"]
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", *map(str, wavs)]) == 0
        return root, data, ckpt, trials, plda, store, wavs

    @staticmethod
    def _embed(ckpt, paths, dtype=np.float64):
        return embed_audio(load_checkpoint(ckpt, dtype), [(p, read_wav(p)) for p in paths])

    def test_float32_differs_from_float64(self, work):
        _, _, ckpt, _, _, _, wavs = work
        assert not np.array_equal(self._embed(ckpt, wavs, np.float32), self._embed(ckpt, wavs))

    def test_enroll_store_bytes_are_float64(self, work, tmp_path):
        _, _, ckpt, _, _, store, wavs = work
        want = EmbeddingStore()
        vecs = self._embed(ckpt, wavs)
        want.add("alice", vecs.mean(axis=0), n_utterances=len(vecs))
        want.save(tmp_path / "want.tsv")
        assert store.read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_embed_output_is_float64(self, work, capsys):
        _, _, ckpt, _, _, _, wavs = work
        capsys.readouterr()
        assert main(["embed", "--checkpoint", str(ckpt), str(wavs[1])]) == 0
        (want,) = self._embed(ckpt, wavs[1:])
        assert capsys.readouterr().out == " ".join(repr(float(v)) for v in want) + "\n"

    def _verify(self, work, backend, capsys):
        _, data, ckpt, _, plda, store, _ = work
        wav = data / "spk000" / "utt001.wav"
        capsys.readouterr()
        main(["verify", "--checkpoint", str(ckpt), "--store", str(store), "--id", "alice",
              "--backend", backend, "--plda-file", str(plda), str(wav)])
        return float(capsys.readouterr().out.split()[1]), wav

    def test_verify_plda_score_is_float64(self, work, capsys):
        ckpt, plda, store = work[2], work[4], work[5]
        score, wav = self._verify(work, "plda", capsys)
        enrolled = EmbeddingStore(store).get("alice").vector
        (test,) = self._embed(ckpt, [wav])
        assert score == plda_score(load_plda(plda, len(enrolled)), enrolled, test)

    def test_verify_csm_score_is_float32(self, work, capsys):
        ckpt, store = work[2], work[5]
        score, wav = self._verify(work, "csm", capsys)
        enrolled = EmbeddingStore(store).get("alice").vector
        (test32,) = self._embed(ckpt, [wav], np.float32)
        (test64,) = self._embed(ckpt, [wav])
        assert score == csm(enrolled, test32)
        assert abs(score - csm(enrolled, test64)) <= CSM_ATOL

    def _eval_scores(self, work, backend, tmp_path):
        _, data, ckpt, trials, plda, _, _ = work
        prefix = tmp_path / backend
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                     "--audio-root", str(data), "--backend", backend,
                     "--plda-file", str(plda), "--out-prefix", str(prefix)]) == 0
        got = [float(line.split()[3]) for line in (tmp_path / f"{backend}.scores").open()]
        rows = [Trial(int(a), b, c) for a, b, c in map(str.split, trials.open())]
        return got, rows

    def _in_process(self, work, rows, backend, dtype):
        _, data, ckpt, _, plda, _, _ = work
        model = load_checkpoint(ckpt, dtype)
        plda_model = (load_plda(plda, model.config.embedding_dim) if backend == "plda"
                      else None)
        scores, _ = run_trials(model, rows, lambda ref: read_wav(data / ref), plda_model)
        return scores

    def test_eval_plda_scores_are_float64(self, work, tmp_path):
        got, rows = self._eval_scores(work, "plda", tmp_path)
        assert got == self._in_process(work, rows, "plda", np.float64)

    def test_eval_csm_scores_are_float32(self, work, tmp_path):
        got, rows = self._eval_scores(work, "csm", tmp_path)
        assert got == self._in_process(work, rows, "csm", np.float32)
        want = self._in_process(work, rows, "csm", np.float64)
        np.testing.assert_allclose(got, want, rtol=0, atol=CSM_ATOL)
