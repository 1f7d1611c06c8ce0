"""End-to-end command-line tests driving `amcrn.cli.main` in process."""

import argparse
import io
import os
import re
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest

from amcrn import cli
from amcrn.audio import read_wav, write_wav
from amcrn.cli import build_parser, main
from amcrn.dsp import featurize
from amcrn.errors import AmcrnError, ConfigError, NumericalError
from amcrn.model import AmcrnConfig, AmcrnModel, load_checkpoint, parse_config
from amcrn.scoring import (load_plda, plda_from_covariances, plda_score, plda_train,
                           read_trial_list, run_trials, save_plda)
from amcrn.store import EmbeddingStore
from amcrn.training import TrainConfig
from test_store_checkpoint import _body, _config_block, _entries, _first_entry, _sealed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
        assert not np.array_equal(a, b)


class TestTrain:
    def test_outputs_exist(self, workspace):
        root, _, ckpt = workspace
        assert ckpt.exists()
        assert not (root / "model.ckpt.cfg").exists()
        assert (root / "model.ckpt.loss.csv").exists()

    def test_checkpoint_loads_and_embeds(self, workspace):
        _, data_dir, ckpt = workspace
        model = load_checkpoint(ckpt)
        audio = read_wav(data_dir / "spk000" / "utt000.wav")
        emb = model.embed(featurize(audio, model.config.n_mels))
        assert np.all(np.isfinite(emb))

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        assert main(["train", "--toy", "speakers=2 utts=2 seconds=0.5",
                     "--config", str(bad), "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_missing_data_is_usage_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_non_finite_validation_loss_is_a_numerical_error(self, tmp_path, capsys):
        """A finite but huge learning rate drives the weights to NaN: the
        run exits 3 naming the epoch and writes no checkpoint or loss CSV."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr_start = 1e300\nlr_end = 1e300\n")
        out = tmp_path / "m.ckpt"
        with np.errstate(all="ignore"):
            code = main(["train", "--toy", "speakers=2 utts=3 seconds=0.5", "--config", str(cfg),
                         "--epochs", "1", "--out", str(out)])
        assert code == 3
        assert "numerical error: epoch 0: validation loss is nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_short_toy_utterance_is_named(self, tmp_path, capsys):
        """0.02 s toy utterances (320 samples) are shorter than the two
        frames (560 samples) a crop needs: a data error naming the first."""
        out = tmp_path / "m.ckpt"
        assert main(["train", "--toy", "speakers=2 utts=3 seconds=0.02", "--epochs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'spk000_utt000'" in err and "320 samples" in err and "560" in err
        assert not out.exists()

    def test_validation_taking_every_utterance_is_a_usage_error(self, tmp_path, capsys,
                                                                monkeypatch):
        """`val_fraction = 0.9` of two utterances puts both in validation:
        exit 2 naming the key and the counts, before anything is featurized."""
        def no_featurizing(*_):
            raise AssertionError("featurized before the split was checked")

        monkeypatch.setattr("amcrn.training.featurize", no_featurizing)
        cfg = tmp_path / "split.cfg"
        cfg.write_text("val_fraction = 0.9\n")
        out = tmp_path / "m.ckpt"
        assert main(["train", "--toy", "speakers=2 utts=1 seconds=0.5", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "val_fraction 0.9 puts all 2 utterances in validation" in err
        assert not out.exists()

    def test_short_wav_in_data_is_named(self, tmp_path, capsys):
        data = tmp_path / "data"
        for spk in ("a", "b"):
            (data / spk).mkdir(parents=True)
            write_wav(data / spk / "long.wav", 0.1 * np.sin(np.arange(8000) * 0.05))
        write_wav(data / "b" / "short.wav", np.zeros(300))
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--epochs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'b/short.wav'" in err and "300 samples" in err
        assert not out.exists()


# A bad config line -> what stderr says after `<path>:<line>: `.
BAD_CONFIG_LINES = {
    "unknown_key": ("not_a_key = 1", "unknown key 'not_a_key'"),
    "no_equals": ("use_blstm true", "expected key = value"),
    "bad_bool": ("use_blstm = flase", "use_blstm: expected a boolean, got 'flase'"),
    "bad_int": ("channels = three", "channels: expected an integer, got 'three'"),
    "bad_float": ("blstm_dropout = 0.2.1", "blstm_dropout: expected a number, got '0.2.1'"),
    "bad_tuple": ("mcb_dilations = 2,3,four",
                  "mcb_dilations: expected comma-separated integers, got '2,3,four'"),
}


def _with_config(blob, edit):
    """The checkpoint `blob` with its embedded config replaced by
    `edit(config)` and a valid CRC32, as if a writer had put it there."""
    text = edit(blob[10:_first_entry(blob)].decode()).encode()
    return _sealed(_body(_config_block(text), _entries(blob)))


def _config_run(command, workspace, tmp_path, edit):
    """(the file errors must name, argv) for a config read by `train
    --config`, `profile --config` or from inside an `embed` checkpoint.
    `edit(text)` gives the config from the text its file holds now: the
    trained checkpoint's config for `embed`, "" for a new config file."""
    _, data_dir, ckpt = workspace
    if command == "embed":
        copy = tmp_path / "m.ckpt"
        copy.write_bytes(_with_config(ckpt.read_bytes(), edit))
        return copy, ["embed", "--checkpoint", str(copy),
                      str(data_dir / "spk000" / "utt000.wav")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(edit(""))
    if command == "train":
        return cfg, ["train", "--toy", "speakers=2 utts=2 seconds=0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")]
    return cfg, ["profile", "--config", str(cfg)]


@pytest.mark.parametrize("command", ["train", "profile", "embed"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIG_LINES))
def test_bad_config_line_is_located(workspace, tmp_path, capsys, command, case):
    """Every bad line exits 2 naming its file and line, whether it comes
    through `--config` or inside a checkpoint (with a valid checksum)."""
    line, message = BAD_CONFIG_LINES[case]
    path, argv = _config_run(command, workspace, tmp_path,
                             lambda kept: f"# edited by hand\n{line}\n" + kept)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{path}:2: {message}" in captured.err
    assert captured.out == ""


# A config whose every line parses but whose values fail the config's own
# checks, or that names a kernel size, which the paper fixes and the config
# no longer has -> (the commands that check them, what stderr says after
# `<path>: `, or after `<path>:<line>: ` for an unknown key).
INVALID_CONFIGS = {
    "block_lists": ("mcb_kernel = 3,3", ("train", "profile", "embed"),
                    "unknown key 'mcb_kernel'"),
    "no_scales": ("n_scales = 0", ("train", "profile", "embed"), "n_scales must be >= 1"),
    "initial_kernel_even": ("initial_kernel = 4", ("train", "profile", "embed"),
                            "unknown key 'initial_kernel'"),
    "mcb_kernel_even": ("mcb_kernel = 3,4,3", ("train", "profile", "embed"),
                        "unknown key 'mcb_kernel'"),
    "ta_kernel_even": ("ta_kernel = 6", ("train", "profile", "embed"),
                       "unknown key 'ta_kernel'"),
    "fusion_kernel_even": ("fusion_kernel = 2", ("train", "profile", "embed"),
                           "unknown key 'fusion_kernel'"),
    "dropout_one": ("blstm_dropout = 1.0", ("train", "profile", "embed"),
                    "blstm_dropout must be in [0, 1), got 1.0"),
    "dropout_nan": ("blstm_dropout = nan", ("train", "profile", "embed"),
                    "blstm_dropout must be in [0, 1), got nan"),
    "dropout_negative": ("blstm_dropout = -0.5", ("train", "profile", "embed"),
                         "blstm_dropout must be in [0, 1), got -0.5"),
    "aam_margin_inf": ("aam_margin = inf", ("train", "profile", "embed"),
                       "aam_margin must be finite, got inf"),
    "aam_scale_zero": ("aam_scale = 0", ("train", "profile", "embed"),
                       "aam_scale must be a finite number > 0, got 0.0"),
    "aam_scale_nan": ("aam_scale = nan", ("train", "profile", "embed"),
                      "aam_scale must be a finite number > 0, got nan"),
    "epochs": ("epochs = 0", ("train", "profile"), "epochs must be at least 1, got 0"),
    "batch_size": ("batch_size = 0", ("train", "profile"),
                   "batch_size must be at least 1, got 0"),
    "lr_end": ("lr_end = 5", ("train", "profile"), "need 0 < lr_end <= lr_start"),
    "lr_start_inf": ("lr_start = inf", ("train", "profile"), "lr_start must be finite, got inf"),
    "crop_nan": ("crop_seconds = nan", ("train", "profile"),
                 "crop_seconds must be a finite number >= 0.035 (two frames), got nan"),
    "crop_zero": ("crop_seconds = 0", ("train", "profile"),
                  "crop_seconds must be a finite number >= 0.035 (two frames), got 0.0"),
    "crop_negative": ("crop_seconds = -1", ("train", "profile"),
                      "crop_seconds must be a finite number >= 0.035 (two frames), got -1.0"),
    "crop_one_shift": ("crop_seconds = 0.01", ("train", "profile"),
                       "crop_seconds must be a finite number >= 0.035 (two frames), got 0.01"),
    "crop_one_frame": ("crop_seconds = 0.03", ("train", "profile"),
                       "crop_seconds must be a finite number >= 0.035 (two frames), got 0.03"),
    "crop_overflow": ("crop_seconds = 1e308", ("train", "profile"),
                      "crop_seconds 1e+308: too many samples to count"),
    "augment_negative": ("augment_copies = -1", ("train", "profile"),
                         "augment_copies must be >= 0, got -1"),
    "grad_clip_negative": ("grad_clip = -1", ("train", "profile"),
                           "grad_clip must be a finite number >= 0 (0: no clipping), got -1.0"),
    "grad_clip_nan": ("grad_clip = nan", ("train", "profile"),
                      "grad_clip must be a finite number >= 0 (0: no clipping), got nan"),
    "seed_negative": ("seed = -1", ("train", "profile"), "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("command, case", [(command, case) for case, (_, commands, _)
                                           in sorted(INVALID_CONFIGS.items())
                                           for command in commands])
def test_invalid_config_names_its_file(workspace, tmp_path, capsys, command, case):
    """Values that each parse but fail validation exit 2 with the file's
    path in front of the config's own message; a key the config does not
    have exits 2 with the path and the line, the last of the config."""
    line, _, message = INVALID_CONFIGS[case]
    configs = []

    def append_line(kept):
        configs.append(kept + f"{line}\n")
        return configs[0]

    path, argv = _config_run(command, workspace, tmp_path, append_line)
    assert main(argv) == 2
    captured = capsys.readouterr()
    last_line = len(configs[0].splitlines())
    where = f"{path}:{last_line}" if message.startswith("unknown key") else path
    assert f"error: {where}: {message}\n" == captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, field", [(["--epochs", "0"], "epochs"), ([], "batch_size")])
def test_training_counts_below_one_are_usage_errors(tmp_path, capsys, flag, field):
    """`--epochs 0` (no config file to name) and `batch_size = 0` in a
    config file exit 2 naming the field, not with a traceback."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size = 0\n" if field == "batch_size" else "")
    argv = ["train", "--toy", "speakers=2 utts=2 seconds=0.5", "--config", str(cfg),
            "--out", str(tmp_path / "m.ckpt"), *flag]
    assert main(argv) == 2
    assert f"{field} must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


# Each subcommand's options: the ones it reads, and no others.
COMMAND_OPTIONS = {
    "train": {"--seed", "--config", "--data", "--toy", "--epochs", "--preset", "--out",
              "--loss-csv"},
    "embed": {"--checkpoint", "--out"},
    "enroll": {"--checkpoint", "--store", "--id", "--overwrite"},
    "verify": {"--checkpoint", "--store", "--id", "--backend", "--plda-file", "--threshold"},
    "eval": {"--seed", "--checkpoint", "--trials", "--audio-root", "--backend", "--plda-file",
             "--plda-train-dir", "--truncate", "--out-prefix"},
    "profile": {"--config", "--durations", "--include-head", "--csv"},
    "toygen": {"--seed", "--spec", "--offset", "--out"},
}


def test_each_command_offers_exactly_its_options():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands) == set(COMMAND_OPTIONS)
    for name, sub in commands.items():
        offered = {opt for action in sub._actions for opt in action.option_strings}
        assert offered - {"-h", "--help"} == COMMAND_OPTIONS[name], name


@pytest.mark.parametrize("argv, option", [
    (["train", "--toy", "speakers=2 utts=2 seconds=0.5", "--seed", "-1"], "--seed"),
    (["eval", "--checkpoint", "m.ckpt", "--trials", "t.txt", "--seed", "-1"], "--seed"),
    (["toygen", "--seed", "-1"], "--seed"),
    (["toygen", "--offset", "-1"], "--offset"),
], ids=["train_seed", "eval_seed", "toygen_seed", "toygen_offset"])
def test_negative_count_names_the_option(tmp_path, capsys, argv, option):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--out-prefix" if argv[0] == "eval" else "--out", str(out)])
    assert exited.value.code == 2
    assert (f"argument {option}: expected a non-negative integer, got '-1'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc", "0.034", "1e308"])
def test_bad_truncation_names_the_option(workspace, tmp_path, capsys, value):
    """`--truncate` takes whole or a finite number of seconds that spans two
    frames; anything else exits 2 naming the option, before any output.
    Text that is not a number is argparse's "invalid truncation value"."""
    _, data_dir, ckpt = workspace
    trials = tmp_path / "trials.txt"
    trials.write_text("1 spk000/utt000.wav spk000/utt001.wav\n")
    with pytest.raises(SystemExit) as exited:
        main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
              "--audio-root", str(data_dir), "--truncate", value,
              "--out-prefix", str(tmp_path / "run")])
    assert exited.value.code == 2
    reason = (f"invalid truncation value: {value!r}" if value == "abc" else
              "expected whole or a finite number of seconds >= 0.035 (two frames), "
              f"got {value!r}")
    assert f"argument --truncate: {reason}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["trials.txt"]


# A bad toy spec -> the start of its error: the item that does not parse,
# or the field whose value is out of range.
_EXPECTED_ITEM = "expected speakers=N, "
BAD_TOY_SPECS = {
    "unknown_key": ("speaker=2 utts=2 seconds=0.5", f"toy spec item 'speaker=2': {_EXPECTED_ITEM}"),
    "no_equals": ("speakers=2 utts", f"toy spec item 'utts': {_EXPECTED_ITEM}"),
    "bad_int": ("speakers=two", f"toy spec item 'speakers=two': {_EXPECTED_ITEM}"),
    "bad_float": ("speakers=2,seconds=half", f"toy spec item 'seconds=half': {_EXPECTED_ITEM}"),
    "no_utterances": ("speakers=2 utts=0", "utterances_per_speaker must be >= 1, got 0"),
    "zero_seconds": ("speakers=2 seconds=0", "utterance_seconds must be a finite number > 0"),
    "negative_seconds": ("speakers=2 seconds=-1",
                         "utterance_seconds must be a finite number > 0, got -1.0"),
    "infinite_seconds": ("speakers=2 seconds=inf", "utterance_seconds must be a finite number"),
    "nan_seconds": ("speakers=2 seconds=nan", "utterance_seconds must be a finite number"),
    "overflowing_seconds": ("speakers=2 utts=1 seconds=1e308",
                            "utterance_seconds 1e+308: too many samples to count"),
}


@pytest.mark.parametrize("command", ["toygen", "train"])
@pytest.mark.parametrize("case", sorted(BAD_TOY_SPECS))
def test_bad_toy_spec_names_the_item(tmp_path, capsys, command, case):
    """`--spec` and `--toy` accept only speakers=N, utts=N and seconds=S
    with at least one utterance of a finite positive length; anything else
    exits 2 naming the item or the field, before anything is written."""
    spec, message = BAD_TOY_SPECS[case]
    out = tmp_path / "out"
    argv = (["toygen", "--spec", spec, "--out", str(out)] if command == "toygen"
            else ["train", "--toy", spec, "--epochs", "1", "--out", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    """scipy is imported only where augmentation, toy data or a PLDA model
    needs it, so `embed`, `enroll` and `verify` start without it."""
    code = ("import sys, amcrn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


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
        wav = str(data_dir / "spk000" / "utt000.wav")
        assert main(["embed", "--checkpoint", str(cut), wav]) == 2
        assert "checkpoint" in capsys.readouterr().err


# A corrupt copy of a good checkpoint -> how the error it raises begins.
CORRUPT_CHECKPOINTS = {
    "cut": (lambda blob: blob[: len(blob) // 2], "checkpoint truncated"),
    "flipped": (lambda blob: blob[:-40] + bytes([blob[-40] ^ 0x10]) + blob[-39:],
                "checkpoint checksum mismatch"),
    "amcrn1": (lambda blob: b"AMCRN1" + blob[_first_entry(blob):-4], "an AMCRN1 checkpoint"),
    "amcrn2": (lambda blob: b"AMCRN2" + blob[6:], "an AMCRN2 checkpoint"),
    "amcrn3": (lambda blob: b"AMCRN3" + blob[6:], "an AMCRN3 checkpoint"),
    "amcrn4": (lambda blob: b"AMCRN4" + blob[6:], "an AMCRN4 checkpoint"),
}


@pytest.mark.parametrize("command", ["embed", "enroll", "verify", "eval"])
@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_is_data_error(workspace, tmp_path, capsys, command, case):
    """Each command that loads a checkpoint exits 2 on a cut, changed,
    AMCRN1, AMCRN2, AMCRN3 or AMCRN4 file, with the reader's message and
    no output file."""
    _, data_dir, ckpt = workspace
    corrupt, begins = CORRUPT_CHECKPOINTS[case]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(ckpt.read_bytes()))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}: {begins}") as expected:
        load_checkpoint(bad)
    wav = str(data_dir / "spk000" / "utt000.wav")
    store = str(tmp_path / "speakers.tsv")
    trials = tmp_path / "trials.txt"
    trials.write_text("1 spk000/utt000.wav spk000/utt001.wav\n"
                      "0 spk000/utt000.wav spk001/utt000.wav\n")
    argv = {"embed": ["embed", "--out", str(tmp_path / "emb.txt"), wav],
            "enroll": ["enroll", "--store", store, "--id", "alice", wav],
            "verify": ["verify", "--store", store, "--id", "alice", wav],
            "eval": ["eval", "--trials", str(trials), "--audio-root", str(data_dir),
                     "--out-prefix", str(tmp_path / "run")]}[command]
    assert main([*argv, "--checkpoint", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected.value}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.ckpt", "trials.txt"]


@pytest.fixture(scope="module")
def enrolled(workspace, tmp_path_factory):
    """A store with alice enrolled, a PLDA file fitted on the data and a
    trial list, all made with the good checkpoint."""
    _, data_dir, ckpt = workspace
    root = tmp_path_factory.mktemp("enrolled")
    store, plda, trials = root / "speakers.tsv", root / "plda.npz", root / "trials.txt"
    trials.write_text("1 spk000/utt000.wav spk000/utt001.wav\n"
                      "0 spk000/utt000.wav spk001/utt000.wav\n")
    assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store), "--id", "alice",
                 str(data_dir / "spk000" / "utt000.wav")]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                 "--audio-root", str(data_dir), "--backend", "plda",
                 "--plda-train-dir", str(data_dir), "--plda-file", str(plda),
                 "--out-prefix", str(root / "fit")]) == 0
    return store, plda, trials


# Each way a command that reads a checkpoint writes or prints something,
# with `{tmp}` the directory holding the store, PLDA file and trial list.
_EVAL = ["eval", "--trials", "{tmp}/trials.txt", "--audio-root", "{data}",
         "--out-prefix", "{tmp}/run"]
GATED_RUNS = {
    "embed_out": ["embed", "--out", "{tmp}/emb.txt", "{wav}"],
    "enroll": ["enroll", "--store", "{tmp}/speakers.tsv", "--id", "bob", "{wav}"],
    "verify_csm": ["verify", "--store", "{tmp}/speakers.tsv", "--id", "alice", "{wav}"],
    "verify_plda": ["verify", "--store", "{tmp}/speakers.tsv", "--id", "alice",
                    "--backend", "plda", "--plda-file", "{tmp}/plda.npz", "{wav}"],
    "eval_csm": _EVAL,
    "eval_plda_file": [*_EVAL, "--backend", "plda", "--plda-file", "{tmp}/plda.npz"],
    "eval_plda_fit": [*_EVAL, "--backend", "plda", "--plda-train-dir", "{data}",
                      "--plda-file", "{tmp}/fitted.npz"],
}


@pytest.mark.parametrize("case", sorted(GATED_RUNS))
def test_checksum_gates_every_output(workspace, enrolled, tmp_path, capsys, case):
    """A checkpoint with one value changed by one ulp passes every
    structural check and embeds as usual; the commands wait for its CRC
    only after the forward pass. Each still exits 2 with the checksum
    error, prints nothing, leaves the store and the PLDA file byte for
    byte as they were and writes no scores, report, sweep or PLDA file."""
    _, data_dir, ckpt = workspace
    for path in enrolled:
        shutil.copy(path, tmp_path)
    blob = ckpt.read_bytes()
    at = blob.index(_entries(blob)[0][2])  # the first value's lowest byte
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    fill = {"tmp": tmp_path, "data": data_dir, "wav": data_dir / "spk000" / "utt002.wav"}
    argv = [arg.format(**fill) for arg in GATED_RUNS[case]]
    assert main([*argv, "--checkpoint", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: checkpoint checksum mismatch\n"
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# A damaged copy of a good WAV -> how the error after "error: <path>: " begins.
CORRUPT_WAVS = {
    "byte_1": (lambda blob: blob[:1] + bytes([blob[1] ^ 0x01]) + blob[2:],
               "not a readable WAV file: file does not start with RIFF id"),
    "header_cut": (lambda blob: blob[:30], "not a readable WAV file"),
    "data_cut_odd": (lambda blob: blob[:101], "the data chunk holds 57 of "),
    "data_cut_even": (lambda blob: blob[:100], "the data chunk holds 56 of "),
}


@pytest.mark.parametrize("command", ["embed", "verify"])
@pytest.mark.parametrize("case", sorted(CORRUPT_WAVS))
def test_corrupt_wav_is_data_error(workspace, tmp_path, capsys, command, case):
    """A damaged WAV exits 2 and names the file; for `verify`, exit 1
    would read as a reject."""
    _, data_dir, ckpt = workspace
    good = data_dir / "spk000" / "utt000.wav"
    damage, begins = CORRUPT_WAVS[case]
    bad = tmp_path / "bad.wav"
    bad.write_bytes(damage(good.read_bytes()))
    store = tmp_path / "speakers.tsv"
    assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                 "--id", "alice", str(good)]) == 0
    capsys.readouterr()
    argv = {"embed": ["embed", str(bad)],
            "verify": ["verify", "--store", str(store), "--id", "alice", str(bad)]}[command]
    assert main([*argv, "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: {begins}"), captured.err
    assert captured.out == ""


def _change_byte(blob, rng):
    """`blob` with one of its first 200 bytes changed."""
    i = int(rng.integers(min(len(blob), 200)))
    return blob[:i] + bytes([blob[i] ^ int(rng.integers(1, 256))]) + blob[i + 1:]


# cut name -> the damaged bytes of a good file
CUTS = {
    "half": lambda blob, rng: blob[: len(blob) // 2],
    "empty": lambda blob, rng: b"",
    "non_utf8": lambda blob, rng: b"\xff\xfe\xc3\x28" + blob[4:],
    "random_64": lambda blob, rng: rng.bytes(64),
    "byte_changed": _change_byte,
}

# input kind -> the subcommands that read it
READ_BY = {
    "checkpoint": ["embed", "enroll", "verify", "eval"],
    "store": ["enroll", "verify"],
    "plda": ["verify_plda", "eval_plda"],
    "trials": ["eval"],
    "wav": ["embed", "enroll", "verify", "eval"],
    "config": ["train", "profile"],
}


@pytest.fixture(scope="module")
def good_inputs(workspace, tmp_path_factory):
    """kind -> the bytes of a good input of that kind: the tiny
    checkpoint, a store enrolling "alice", a fitted PLDA file, a trial
    list over probe.wav, a WAV and a `--config` file."""
    root, data_dir, ckpt = workspace
    work = tmp_path_factory.mktemp("good")
    store = work / "speakers.tsv"
    assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(store),
                 "--id", "alice", str(data_dir / "spk000" / "utt000.wav")]) == 0
    trials = work / "trials.txt"
    trials.write_text("1 spk000/utt000.wav spk000/utt003.wav\n"
                      "0 spk000/utt000.wav spk001/utt000.wav\n")
    plda = work / "plda.npz"
    assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials),
                 "--audio-root", str(data_dir), "--backend", "plda",
                 "--plda-train-dir", str(data_dir), "--plda-file", str(plda),
                 "--out-prefix", str(work / "fit")]) == 0
    return {"checkpoint": ckpt.read_bytes(), "store": store.read_bytes(),
            "plda": plda.read_bytes(),
            "trials": b"1 probe.wav a.wav\n0 probe.wav b.wav\n",
            "wav": (data_dir / "spk000" / "utt001.wav").read_bytes(),
            "config": (root / "run.cfg").read_bytes()}


def _read(kind, path, dim):
    """Read `path` as an input of `kind` with the library's own reader."""
    readers = {
        "checkpoint": load_checkpoint,
        "store": EmbeddingStore,
        "plda": lambda p: load_plda(str(p), dim),
        "trials": read_trial_list,
        "wav": read_wav,
        "config": lambda p: parse_config(p, (AmcrnConfig, TrainConfig)),
    }
    readers[kind](path)


@pytest.mark.parametrize("kind, command", [(k, c) for k in READ_BY for c in READ_BY[k]])
@pytest.mark.parametrize("cut", sorted(CUTS))
def test_damaged_input_never_escapes(workspace, good_inputs, tmp_path, capsys,
                                     kind, command, cut):
    """One damaged input per run, through every subcommand that reads it:
    when the input's own reader refuses it, the command exits 2 (3 for a
    NumericalError) with an error line; otherwise it may run on, but no
    exception ever escapes `main`."""
    _, data_dir, good_ckpt = workspace
    files = {"checkpoint": "model.ckpt", "store": "speakers.tsv", "plda": "plda.npz",
             "trials": "trials.txt", "wav": "probe.wav", "config": "run.cfg"}
    for other, name in files.items():
        (tmp_path / name).write_bytes(good_inputs[other])
    for name, utt in (("a.wav", "spk000/utt002.wav"), ("b.wav", "spk001/utt000.wav")):
        (tmp_path / name).write_bytes((data_dir / utt).read_bytes())
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{cut}".encode()))
    bad = tmp_path / files[kind]
    bad.write_bytes(CUTS[cut](good_inputs[kind], rng))
    try:
        _read(kind, bad, load_checkpoint(good_ckpt).config.embedding_dim)
        refused = None
    except (AmcrnError, OSError, ValueError) as exc:
        refused = exc
    paths = {k: str(tmp_path / name) for k, name in files.items()}
    ckpt = ["--checkpoint", paths["checkpoint"]]
    plda = ["--backend", "plda", "--plda-file", paths["plda"]]
    verify = ["verify", *ckpt, "--store", paths["store"], "--id", "alice", paths["wav"]]
    evaluate = ["eval", *ckpt, "--trials", paths["trials"], "--audio-root", str(tmp_path),
                "--out-prefix", str(tmp_path / "run")]
    argv = {
        "embed": ["embed", *ckpt, "--out", str(tmp_path / "emb.txt"), paths["wav"]],
        "enroll": ["enroll", *ckpt, "--store", paths["store"], "--id", "bob", paths["wav"]],
        "verify": verify,
        "verify_plda": [*verify, *plda],
        "eval": evaluate,
        "eval_plda": [*evaluate, *plda],
        "train": ["train", "--toy", "speakers=2 utts=2 seconds=0.5", "--epochs", "1",
                  "--config", paths["config"], "--out", str(tmp_path / "out.ckpt")],
        "profile": ["profile", "--config", paths["config"]],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    if refused is not None:
        assert code == (3 if isinstance(refused, NumericalError) else 2), err
        assert str(bad) in err, err
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.startswith("error: "), err
    if code == 3:
        assert err.startswith("numerical error: "), err


@pytest.mark.parametrize("argv", [
    ["train", "--toy", "speakers=2", "--out", "never.ckpt"],
    ["verify", "--checkpoint", "m.ckpt", "--store", "s.tsv", "--id", "alice", "t.wav"],
], ids=["train", "verify"])
def test_memory_error_is_usage_error(monkeypatch, capsys, argv):
    """A MemoryError (say, from a config that asks for a huge layer) exits
    2, not as a traceback with exit 1, which `verify` uses for a reject."""
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 93.1 TiB")

    monkeypatch.setitem(cli._COMMANDS, argv[0], out_of_memory)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 93.1 TiB\n"


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

    def test_nan_threshold_is_usage_error(self, workspace, store, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt003.wav")
        code = main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "alice", "--threshold", "nan", wav])
        assert code == 2
        assert capsys.readouterr().err == "error: threshold is NaN\n"

    def test_unknown_speaker_is_data_error(self, workspace, store, capsys):
        _, data_dir, ckpt = workspace
        wav = str(data_dir / "spk000" / "utt000.wav")
        assert main(["verify", "--checkpoint", str(ckpt), "--store", str(store),
                     "--id", "mallory", wav]) == 2
        assert capsys.readouterr().err == f"error: {store}: unknown speaker 'mallory'\n"

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

    def test_enrolled_vector_is_the_per_file_mean(self, workspace, tmp_path):
        _, data_dir, ckpt = workspace
        wavs = [str(data_dir / "spk000" / f"utt{i:03d}.wav") for i in range(3)]
        path = tmp_path / "speakers.tsv"
        assert main(["enroll", "--checkpoint", str(ckpt), "--store", str(path),
                     "--id", "alice", *wavs]) == 0
        model = load_checkpoint(ckpt)
        # Oracle: each file embedded on its own by the taped eval-mode pass.
        vecs = [model.embed_tensor(featurize(read_wav(wav), model.config.n_mels),
                                   mode="eval").data for wav in wavs]
        got = EmbeddingStore(path).get("alice").vector
        np.testing.assert_allclose(got, np.mean(vecs, axis=0), rtol=0, atol=1e-12)

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

    def test_any_truncation_of_two_frames_runs(self, workspace, trial_file):
        """`--truncate 0.5` scores random 0.5 s segments of the 1 s test
        utterances: the scores `run_trials` gives at that truncation on the
        float32 model a csm `eval` loads, not those of the whole utterances."""
        _, data_dir, ckpt = workspace
        prefix = str(trial_file) + ".half"
        argv = ["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                "--audio-root", str(data_dir), "--truncate", "0.5", "--out-prefix", prefix]
        assert main(argv) == 0
        assert main(argv[:-4] + ["--out-prefix", prefix + ".whole"]) == 0
        got = [float(line.split()[-1]) for line in open(prefix + ".scores")]
        whole = [float(line.split()[-1]) for line in open(prefix + ".whole.scores")]
        scores, _ = run_trials(load_checkpoint(ckpt, np.float32), read_trial_list(trial_file),
                               lambda ref: read_wav(data_dir / ref), truncation=0.5)
        np.testing.assert_array_equal(got, scores)
        assert got != whole

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

    def test_missing_plda_file_is_named(self, workspace, trial_file, tmp_path, capsys):
        _, data_dir, ckpt = workspace
        missing = tmp_path / "missing.npz"
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(trial_file),
                     "--audio-root", str(data_dir), "--backend", "plda",
                     "--plda-file", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file" in err

    @pytest.mark.parametrize("samples", [320, 400])
    def test_too_short_ref_is_named(self, workspace, tmp_path, capsys, samples):
        # 320 samples make no frame; 400 make one, too few to pool.
        _, data_dir, ckpt = workspace
        write_wav(str(tmp_path / "blip.wav"), np.full(samples, 0.01))
        good = data_dir / "spk000" / "utt000.wav"
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1 {good} {good}\n0 {good} blip.wav\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(bad),
                     "--audio-root", str(tmp_path)]) == 2
        assert "'blip.wav'" in capsys.readouterr().err

    def test_missing_audio_is_data_error(self, workspace, tmp_path):
        _, _, ckpt = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("1 missing_a.wav missing_b.wav\n0 missing_a.wav missing_c.wav\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--trials", str(bad)]) == 2


def _write_plda(path, dim, drop=None, **override):
    arrays = {"mu": np.zeros(dim), "q": -np.eye(dim), "p": 0.5 * np.eye(dim),
              "c": np.float64(0.0), "center": np.zeros(dim), "length_norm": np.bool_(True)}
    arrays.update(override)
    arrays.pop(drop, None)
    np.savez(path, **arrays)


def _write_old_plda(path, dim):
    """A file in the covariance-only layout that preceded the stored terms."""
    np.savez(path, mu=np.zeros(dim), between=np.eye(dim), within=np.eye(dim),
             center=np.zeros(dim), length_norm=np.bool_(True))


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _nan_q(dim):
    q = -np.eye(dim)
    q[0, 1] = np.nan
    return q


# name -> writes a bad PLDA file for a checkpoint with `dim`-d embeddings
BAD_PLDA_FILES = {
    "missing_q": lambda p, d: _write_plda(p, d, drop="q"),
    "missing_center": lambda p, d: _write_plda(p, d, drop="center"),
    "not_a_zip": lambda p, d: p.write_bytes(b"not a numpy archive"),
    "empty": lambda p, d: p.write_bytes(b""),
    "truncated_zip": lambda p, d: (_write_plda(p, d), p.write_bytes(p.read_bytes()[:200])),
    "bare_npy": lambda p, d: p.write_bytes(_npy_bytes(np.zeros(d))),
    "mu_shape": lambda p, d: _write_plda(p, d, mu=np.zeros(d + 1)),
    "q_shape": lambda p, d: _write_plda(p, d, q=-np.eye(d)[:, :-1]),
    "p_shape": lambda p, d: _write_plda(p, d, p=np.zeros(d)),
    "center_shape": lambda p, d: _write_plda(p, d, center=np.zeros((d, 1))),
    "non_finite_q": lambda p, d: _write_plda(p, d, q=_nan_q(d)),
    "non_finite_mu": lambda p, d: _write_plda(p, d, mu=np.full(d, np.inf)),
    "other_dim": lambda p, d: _write_plda(p, d + 1),
    "old_layout": _write_old_plda,
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

    def test_old_layout_names_the_refit(self, workspace, setup, tmp_path, capsys):
        _, _, ckpt = workspace
        old = tmp_path / "old.npz"
        _write_old_plda(old, load_checkpoint(ckpt).config.embedding_dim)
        assert self._verify(workspace, setup, old) == 2
        assert "--plda-train-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_q_not_negative_definite_is_numerical_error(self, workspace, setup, tmp_path,
                                                        capsys, command):
        _, _, ckpt = workspace
        dim = load_checkpoint(ckpt).config.embedding_dim
        bad = tmp_path / "bad.npz"
        q = -np.eye(dim)
        q[dim - 1, dim - 1] = 0.5
        _write_plda(bad, dim, q=q)
        if command == "eval":
            code = self._eval(workspace, setup, bad, tmp_path / "run")
        else:
            code = self._verify(workspace, setup, bad)
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing_flag", "bad_file"])
    def test_verify_checks_the_backend_before_embedding(self, workspace, setup, tmp_path,
                                                        monkeypatch, capsys, case):
        _, data_dir, ckpt = workspace
        store, _, _ = setup

        def no_forward_pass(self, *args, **kwargs):
            raise AssertionError("verify embedded before checking its PLDA file")

        monkeypatch.setattr(AmcrnModel, "embed", no_forward_pass)
        argv = ["verify", "--checkpoint", str(ckpt), "--store", str(store), "--id", "alice",
                "--backend", "plda", str(data_dir / "spk000" / "utt003.wav")]
        if case == "missing_flag":
            assert main(argv) == 2
            assert "PLDA backend needs --plda-file" in capsys.readouterr().err
        else:
            bad = tmp_path / "bad.npz"
            bad.write_bytes(b"not a numpy archive")
            assert main(argv + ["--plda-file", str(bad)]) == 2
            assert f"{bad}: unreadable PLDA file" in capsys.readouterr().err

    def test_plda_scoring_loads_no_scipy(self, workspace, setup, tmp_path):
        """`verify` and `eval` with a stored back end run in a fresh
        interpreter without importing scipy."""
        _, data_dir, ckpt = workspace
        store, trials, plda = setup
        code = (
            "import sys\n"
            "from amcrn.cli import main\n"
            f"verify = main(['verify', '--checkpoint', {str(ckpt)!r}, '--store', {str(store)!r},"
            " '--id', 'alice', '--backend', 'plda', '--plda-file', "
            f"{str(plda)!r}, '--threshold=-1e300', "
            f"{str(data_dir / 'spk000' / 'utt003.wav')!r}])\n"
            f"evaluate = main(['eval', '--checkpoint', {str(ckpt)!r}, '--trials', {str(trials)!r},"
            f" '--audio-root', {str(data_dir)!r}, '--backend', 'plda', '--plda-file', "
            f"{str(plda)!r}, '--out-prefix', {str(tmp_path / 'run')!r}])\n"
            "print(verify, evaluate, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 0 []"


def test_plda_file_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((5, 16))
    labels = np.repeat(np.arange(5), 4)
    embs = centers[labels] + 0.3 * rng.standard_normal((20, 16))
    fitted = plda_train(embs, labels)
    path = tmp_path / "plda.npz"
    save_plda(str(path), fitted)
    loaded = load_plda(str(path), 16)
    for name in ("mu", "q", "p", "center"):
        want, got = getattr(fitted, name), getattr(loaded, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert np.float64(loaded.c).tobytes() == np.float64(fitted.c).tobytes()
    assert loaded.length_norm is True
    with np.load(path) as data:
        assert sorted(data.files) == ["c", "center", "length_norm", "mu", "p", "q"]
    a, b = rng.standard_normal((2, 30, 16))
    assert np.array_equal(plda_score(loaded, a, b), plda_score(fitted, a, b))


def test_hand_built_plda_file_round_trips(tmp_path):
    """A model built from covariances, which scores raw vectors, is saved
    and loaded back with the same fields and scores."""
    built = plda_from_covariances(np.zeros(4), np.eye(4), np.eye(4), np.zeros(4))
    path = tmp_path / "plda.npz"
    save_plda(str(path), built)
    loaded = load_plda(str(path), 4)
    for name in ("mu", "q", "p", "center"):
        assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes(), name
    assert loaded.c == built.c and loaded.length_norm is False
    a, b = np.random.default_rng(8).standard_normal((2, 10, 4))
    assert np.array_equal(plda_score(loaded, a, b), plda_score(built, a, b))


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

    # A duration that is not a positive number, that is shorter than the
    # two frames the network embeds, or whose frame count overflows -> the
    # end of its message.
    UNUSABLE_DURATIONS = {**dict.fromkeys(["inf", "-1", "0", "nan"], "expected a finite number > 0"),
                          **dict.fromkeys(["0.001", "0.034"], "expected at least 0.035 s (two frames)"),
                          "1e308": "too many frames to count"}

    @pytest.mark.parametrize("duration", sorted(UNUSABLE_DURATIONS))
    def test_unusable_duration_is_usage_error(self, capsys, duration):
        assert main(["profile", "--durations", f"2,{duration}"]) == 2
        assert capsys.readouterr().err == (f"error: duration {float(duration)!r} s: "
                                           f"{self.UNUSABLE_DURATIONS[duration]}\n")

    def test_two_frames_is_the_shortest_duration(self, capsys):
        assert main(["profile", "--durations", "0.035"]) == 0
        assert "macs@0.035s" in capsys.readouterr().out

    @pytest.mark.parametrize("durations, item", [("", ""), ("2,,3", ""), ("2,x", "x")],
                             ids=["empty", "empty_item", "word"])
    def test_non_numeric_duration_is_usage_error(self, capsys, durations, item):
        assert main(["profile", "--durations", durations]) == 2
        assert capsys.readouterr().err == (f"error: --durations item {item!r}: "
                                           "expected a number of seconds\n")
