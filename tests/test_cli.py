"""End-to-end command-line tests driving `amcrn.cli.main` in process."""

import io
import os

import numpy as np
import pytest

from amcrn.audio import read_wav
from amcrn.cli import main
from amcrn.model import load_checkpoint

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained tiny checkpoint plus generated WAV data, shared by all
    CLI tests in this module."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    ckpt = root / "model.ckpt"
    cfg_file = root / "run.cfg"
    cfg_file.write_text(
        "crop_seconds = 1.0\n"
        "augment_copies = 0\n"
        "val_fraction = 0.2\n"
        "lr_start = 0.001\n"
        "lr_end = 0.0005\n"
    )
    assert main(["toygen", "--spec", "speakers=3 utts=4 seconds=1.0",
                 "--out", str(data_dir)]) == 0
    assert main(["train", "--toy", "speakers=3 utts=4 seconds=1.0",
                 "--config", str(cfg_file), "--epochs", "1",
                 "--out", str(ckpt)]) == 0
    return root, data_dir, ckpt


class TestToygen:
    def test_layout_and_format(self, workspace):
        _, data_dir, _ = workspace
        speakers = sorted(os.listdir(data_dir))
        assert speakers == ["spk000", "spk001", "spk002"]
        wavs = sorted(os.listdir(data_dir / "spk000"))
        assert len(wavs) == 4
        audio = read_wav(data_dir / "spk000" / wavs[0])
        assert len(audio) == 16000

    def test_offset_generates_distinct_audio(self, workspace, tmp_path):
        _, data_dir, _ = workspace
        held = tmp_path / "held"
        assert main(["toygen", "--spec", "speakers=3 utts=1 seconds=1.0",
                     "--offset", "100", "--out", str(held)]) == 0
        a = read_wav(data_dir / "spk000" / "utt000.wav")
        b = read_wav(held / "spk000" / "utt100.wav")
        assert not np.array_equal(a.samples, b.samples)


class TestTrain:
    def test_outputs_exist(self, workspace):
        root, _, ckpt = workspace
        assert ckpt.exists()
        assert (root / "model.ckpt.cfg").exists()
        assert (root / "model.ckpt.loss.csv").exists()

    def test_checkpoint_loads_and_embeds(self, workspace):
        _, data_dir, ckpt = workspace
        model = load_checkpoint(ckpt)
        audio = read_wav(data_dir / "spk000" / "utt000.wav")
        from amcrn.dsp import FrameSpec, apply_cmvn, extract_lms
        feats = apply_cmvn(extract_lms(audio, FrameSpec(n_mels=model.config.n_mels)))
        emb = model.embed(feats.values)
        assert np.all(np.isfinite(emb.values))

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        assert main(["train", "--toy", "speakers=2 utts=2 seconds=0.5",
                     "--config", str(bad), "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_missing_data_is_usage_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "m.ckpt")]) == 2


class TestEmbed:
    def test_prints_vector(self, workspace, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt000.wav")
        assert main(["embed", "--checkpoint", str(ckpt), wav]) == 0
        out = capsys.readouterr().out.strip().split()
        assert len(out) == load_checkpoint(ckpt).config.embedding_dim
        vec = np.array([float(v) for v in out])
        assert np.all(np.isfinite(vec))

    def test_deterministic_across_invocations(self, workspace, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk001" / "utt001.wav")
        main(["embed", "--checkpoint", str(ckpt), wav])
        first = capsys.readouterr().out
        main(["embed", "--checkpoint", str(ckpt), wav])
        assert capsys.readouterr().out == first

    def test_missing_wav_is_data_error(self, workspace):
        _, _, ckpt = workspace
        assert main(["embed", "--checkpoint", str(ckpt), "/nonexistent.wav"]) == 2

    def test_truncated_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        _, data_dir, ckpt = workspace
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:20])
        (tmp_path / "cut.ckpt.cfg").write_bytes(ckpt.with_name(ckpt.name + ".cfg").read_bytes())
        wav = str(data_dir / "spk000" / "utt000.wav")
        assert main(["embed", "--checkpoint", str(cut), wav]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestEnrollVerify:
    @pytest.fixture(scope="class")
    def store(self, workspace, tmp_path_factory):
        _, data_dir, ckpt = workspace
        path = tmp_path_factory.mktemp("store") / "speakers.tsv"
        wavs = [str(data_dir / "spk000" / f"utt{i:03d}.wav") for i in range(3)]
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(path),
                     "--id", "alice", *wavs]) == 0
        return path

    def test_same_speaker_accepts(self, workspace, store, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt003.wav")
        code = main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", "--threshold", "-1.0", wav])
        assert code == 0
        assert "accept" in capsys.readouterr().out

    def test_impossible_threshold_rejects(self, workspace, store, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt003.wav")
        code = main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", "--threshold", "2.0", wav])
        assert code == 1
        assert "reject" in capsys.readouterr().out

    def test_unknown_speaker_is_data_error(self, workspace, store):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt000.wav")
        assert main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "mallory", wav]) == 2

    def test_id_with_tab_is_data_error_and_store_untouched(self, workspace, tmp_path):
        _, data_dir, ckpt = workspace
        path = tmp_path / "speakers.tsv"
        wav = str(data_dir / "spk001" / "utt000.wav")
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(path),
                     "--id", "bob", wav]) == 0
        before = path.read_bytes()
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(path),
                     "--id", "a\tb", wav]) == 2
        assert path.read_bytes() == before

    @pytest.mark.parametrize("backend", ["csm", "plda"])
    def test_store_dimension_mismatch_is_data_error(self, workspace, tmp_path, capsys,
                                                    backend):
        _, data_dir, ckpt = workspace
        dim = load_checkpoint(ckpt).config.embedding_dim
        path = tmp_path / "five.tsv"
        path.write_text("alice\t1\t0.1 0.2 0.3 0.4 0.5\n")
        wav = str(data_dir / "spk000" / "utt003.wav")
        assert main(["verify", "--checkpoint", str(ckpt), "--store", str(path),
                     "--id", "alice", "--backend", backend,
                     "--plda-file", str(tmp_path / "plda.npz"), wav]) == 2
        err = capsys.readouterr().err
        assert f"{path}: id 'alice' holds a 5-d vector" in err
        assert f"the checkpoint embeds {dim}-d" in err

    def test_duplicate_enroll_needs_overwrite(self, workspace, store):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk001" / "utt000.wav")
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", wav]) == 2
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", "--overwrite", wav]) == 0


class TestEval:
    @pytest.fixture(scope="class")
    def trial_file(self, workspace, tmp_path_factory):
        _, data_dir, _ = workspace
        path = tmp_path_factory.mktemp("trials") / "trials.txt"
        lines = []
        for i in range(2):
            lines.append(f"1 spk000/utt{i:03d}.wav spk000/utt{i + 2:03d}.wav")
            lines.append(f"0 spk000/utt{i:03d}.wav spk001/utt{i:03d}.wav")
            lines.append(f"0 spk001/utt{i:03d}.wav spk002/utt{i:03d}.wav")
            lines.append(f"1 spk002/utt{i:03d}.wav spk002/utt{i + 2:03d}.wav")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_csm_eval_writes_artifacts(self, workspace, trial_file, capsys):
        _, data_dir, ckpt = workspace
        prefix = str(trial_file) + ".csm"
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--out-prefix", prefix]) == 0
        out = capsys.readouterr().out
        assert "eer=" in out and "min_dcf=" in out
        assert os.path.exists(prefix + ".scores")
        assert os.path.exists(prefix + ".report")
        assert os.path.exists(prefix + ".sweep.csv")
        scores = open(prefix + ".scores").read().splitlines()
        assert len(scores) == 8

    def test_truncated_eval_runs(self, workspace, trial_file):
        _, data_dir, ckpt = workspace
        prefix = str(trial_file) + ".t"
        # 1 s utterances are shorter than 2 s, so audio passes through whole;
        # the pipeline must still run end to end.
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--truncate", "2",
                     "--out-prefix", prefix]) == 0

    def test_plda_eval_trains_and_saves_backend(self, workspace, trial_file, tmp_path):
        _, data_dir, ckpt = workspace
        plda_file = str(tmp_path / "plda.npz")
        prefix = str(trial_file) + ".plda"
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--backend", "plda",
                     "--plda-train-dir", str(data_dir), "--plda-file", plda_file,
                     "--out-prefix", prefix]) == 0
        assert os.path.exists(plda_file)
        # Second run must reuse the saved backend.
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--backend", "plda",
                     "--plda-file", plda_file, "--out-prefix", prefix]) == 0

    def test_plda_without_backend_source_is_usage_error(self, workspace, trial_file):
        _, data_dir, ckpt = workspace
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--backend", "plda"]) == 2

    def test_missing_audio_is_data_error(self, workspace, tmp_path):
        _, _, ckpt = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("1 missing_a.wav missing_b.wav\n0 missing_a.wav missing_c.wav\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(bad)]) == 2


def _write_plda(path, dim, drop=None, **override):
    arrays = {"mu": np.zeros(dim), "between": np.eye(dim), "within": np.eye(dim),
              "center": np.zeros(dim), "length_norm": np.bool_(True)}
    arrays.update(override)
    arrays.pop(drop, None)
    np.savez(path, **arrays)


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _nan_within(dim):
    within = np.eye(dim)
    within[0, 1] = np.nan
    return within


# name -> writes a bad PLDA file for a checkpoint with `dim`-d embeddings
BAD_PLDA_FILES = {
    "missing_within": lambda p, d: _write_plda(p, d, drop="within"),
    "missing_center": lambda p, d: _write_plda(p, d, drop="center"),
    "not_a_zip": lambda p, d: p.write_bytes(b"not a numpy archive"),
    "empty": lambda p, d: p.write_bytes(b""),
    "truncated_zip": lambda p, d: (_write_plda(p, d), p.write_bytes(p.read_bytes()[:200])),
    "bare_npy": lambda p, d: p.write_bytes(_npy_bytes(np.zeros(d))),
    "mu_shape": lambda p, d: _write_plda(p, d, mu=np.zeros(d + 1)),
    "between_shape": lambda p, d: _write_plda(p, d, between=np.eye(d)[:, :-1]),
    "within_shape": lambda p, d: _write_plda(p, d, within=np.zeros(d)),
    "center_shape": lambda p, d: _write_plda(p, d, center=np.zeros((d, 1))),
    "non_finite_within": lambda p, d: _write_plda(p, d, within=_nan_within(d)),
    "non_finite_mu": lambda p, d: _write_plda(p, d, mu=np.full(d, np.inf)),
    "other_dim": lambda p, d: _write_plda(p, d + 1),
}


class TestPldaBackend:
    @pytest.fixture(scope="class")
    def setup(self, workspace, tmp_path_factory):
        """A store enrolling one utterance as "alice", a two-trial list
        whose first trial is alice's utterance against utt003, and a
        PLDA back end fitted through `eval`."""
        _, data_dir, ckpt = workspace
        root = tmp_path_factory.mktemp("plda")
        store = root / "speakers.tsv"
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", str(data_dir / "spk000" / "utt000.wav")]) == 0
        trials = root / "trials.txt"
        trials.write_text("1 spk000/utt000.wav spk000/utt003.wav\n"
                          "0 spk000/utt000.wav spk001/utt000.wav\n")
        plda = root / "plda.npz"
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                     "--audio-root", str(data_dir), "--backend", "plda",
                     "--plda-train-dir", str(data_dir), "--plda-file", str(plda),
                     "--out-prefix", str(root / "fit")]) == 0
        return store, trials, plda

    def _eval(self, workspace, setup, plda, prefix):
        _, data_dir, ckpt = workspace
        _, trials, _ = setup
        return main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                     "--audio-root", str(data_dir), "--backend", "plda",
                     "--plda-file", str(plda), "--out-prefix", str(prefix)])

    def _verify(self, workspace, setup, plda):
        _, data_dir, ckpt = workspace
        store, _, _ = setup
        return main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", "--backend", "plda", "--plda-file", str(plda),
                     "--threshold=-1e300", str(data_dir / "spk000" / "utt003.wav")])

    def test_verify_prints_the_eval_score(self, workspace, setup, tmp_path, capsys):
        _, _, plda = setup
        assert self._eval(workspace, setup, plda, tmp_path / "run") == 0
        first = (tmp_path / "run.scores").read_text().splitlines()[0]
        eval_score = float(first.split()[3])
        capsys.readouterr()
        assert self._verify(workspace, setup, plda) == 0
        verify_score = float(capsys.readouterr().out.split()[1])
        # One row and a stack of rows round differently in the matrix products.
        assert verify_score == pytest.approx(eval_score, rel=1e-9, abs=0)

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("case", sorted(BAD_PLDA_FILES))
    def test_bad_plda_file_is_data_error(self, workspace, setup, tmp_path, capsys,
                                         command, case):
        _, _, ckpt = workspace
        bad = tmp_path / "bad.npz"
        BAD_PLDA_FILES[case](bad, load_checkpoint(ckpt).config.embedding_dim)
        if command == "eval":
            code = self._eval(workspace, setup, bad, tmp_path / "run")
        else:
            code = self._verify(workspace, setup, bad)
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_well_formed_plda_file_is_accepted(self, workspace, setup, tmp_path, command):
        _, _, ckpt = workspace
        good = tmp_path / "good.npz"
        _write_plda(good, load_checkpoint(ckpt).config.embedding_dim)
        if command == "eval":
            assert self._eval(workspace, setup, good, tmp_path / "run") == 0
        else:
            assert self._verify(workspace, setup, good) == 0


class TestProfile:
    def test_default_report(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "macs@2s" in out and "macs@5s" in out

    def test_csv_output(self, tmp_path, capsys):
        csv_path = str(tmp_path / "costs.csv")
        assert main(["profile", "--durations", "1,2", "--csv", csv_path]) == 0
        capsys.readouterr()
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "layer,params,macs_1s,macs_2s"
