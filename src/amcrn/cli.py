"""Command-line entry point.

Subcommands: train, enroll, verify, embed, eval, profile, toygen.
Exit codes: 0 success/accept, 1 reject, 2 usage or data error,
3 numerical error.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import profiling, scoring, toydata, training
from .audio import read_wav, wav_length, write_wav
from .errors import AmcrnError, ConfigError, NumericalError
from .model import (AmcrnConfig, AmcrnModel, _atomic_write, build_config,
                    load_checkpoint, parse_config, tiny_config)
from .store import EmbeddingStore

def _load_dataset_dir(root):
    """One subdirectory per speaker, WAV files inside, as LazyUtterances:
    each file is checked and its samples counted now, and read again, and
    checked to be unchanged in length, whenever its audio is read."""
    out = []
    for speaker in sorted(os.listdir(root)):
        spk_dir = os.path.join(root, speaker)
        if not os.path.isdir(spk_dir):
            continue
        for name in sorted(os.listdir(spk_dir)):
            if name.lower().endswith(".wav"):
                path = os.path.join(spk_dir, name)
                n_samples = wav_length(path)
                out.append(toydata.LazyUtterance(speaker, f"{speaker}/{name}", n_samples,
                                                 functools.partial(read_wav, path, n_samples)))
    if not out:
        raise AmcrnError(f"no speaker-labeled WAV files under {root}")
    return out


def _parse_toy(arg, seed):
    """A ToySpeakerSpec from `speakers=N utts=N seconds=S` items, split by
    spaces or commas; any other item raises ConfigError naming it."""
    fields = {"speakers": "n_speakers", "utts": "utterances_per_speaker",
              "seconds": "utterance_seconds"}
    kwargs = {"n_speakers": 8, "utterances_per_speaker": 6, "utterance_seconds": 3.0}
    for item in arg.replace(",", " ").split():
        key, _, value = item.partition("=")
        try:
            field = fields[key]
            kwargs[field] = type(kwargs[field])(value)
        except (KeyError, ValueError):
            raise ConfigError(f"toy spec item {item!r}: expected speakers=N, utts=N or "
                              "seconds=S (N an integer, S a number)") from None
    return toydata.ToySpeakerSpec(**kwargs, seed=seed)


def _run_config(args, **train_defaults):
    """(AmcrnConfig kwargs, checked TrainConfig) from `--config`, if given;
    `train_defaults` fill the trainer keys the file leaves out."""
    model_kv, train_kv = (parse_config(args.config, (AmcrnConfig, training.TrainConfig))
                          if args.config else ({}, {}))
    return model_kv, build_config(args.config, training.TrainConfig,
                                  **{**train_defaults, **train_kv})


def _build_model_config(args, n_classes, model_kv):
    if args.preset == "full":
        preset = AmcrnConfig()
    else:
        preset = tiny_config(n_mels=24, channels=32, n_scales=4, hidden=32, embedding_dim=64)
    return dataclasses.replace(preset, **{**model_kv, "n_classes": n_classes})


def cmd_train(args):
    model_kv, tcfg = _run_config(args, seed=args.seed)
    if args.epochs is not None:
        tcfg = dataclasses.replace(tcfg, epochs=args.epochs)
    if args.toy:
        dataset = toydata.toy_utterances(_parse_toy(args.toy, args.seed))
    elif args.data:
        dataset = _load_dataset_dir(args.data)
    else:
        raise AmcrnError("train needs --data or --toy")
    n_classes = len({u.speaker_id for u in dataset})
    config = build_config(args.config, _build_model_config, args, n_classes, model_kv)
    model = AmcrnModel(config, seed=args.seed)
    result = training.train(model, dataset, tcfg)
    _atomic_write(args.out, result.best_checkpoint)
    training.write_history_csv(args.loss_csv or args.out + ".loss.csv", result.history)
    print(f"best epoch {result.best_epoch}  val_loss {result.best_val_loss!r}")
    return 0


# The dtype each back end embeds in. Cosine scores move by about 1e-9 when
# the embeddings are computed in float32. A PLDA fit on a few utterances
# amplifies embedding error by about 5e5, so every embedding that can
# reach PLDA (`enroll`, `embed` and the plda back end) stays float64.
_BACKEND_DTYPE = {"csm": np.float32, "plda": np.float64}


def _embed_wavs(model, paths):
    """One embedding row per WAV file, equal-length files batched; each
    file is read only when its turn to be featurized comes."""
    return scoring.embed_audio(model, ((path, read_wav(path)) for path in paths))


def cmd_embed(args):
    model = load_checkpoint(args.checkpoint)
    (vec,) = _embed_wavs(model, [args.wav])
    out = " ".join(repr(float(v)) for v in vec)
    if args.out:
        _atomic_write(args.out, (out + "\n").encode())
    else:
        print(out)
    return 0


def cmd_enroll(args):
    model = load_checkpoint(args.checkpoint)
    store = EmbeddingStore(args.store)
    vecs = _embed_wavs(model, args.wavs)
    store.add(args.id, vecs.mean(axis=0), n_utterances=len(vecs),
              overwrite=args.overwrite)
    store.save(args.store)
    print(f"enrolled {args.id} from {len(vecs)} utterance(s)")
    return 0


def cmd_verify(args):
    model = load_checkpoint(args.checkpoint, _BACKEND_DTYPE[args.backend])
    store = EmbeddingStore(args.store)
    if args.id not in store:
        raise ConfigError(f"{args.store}: unknown speaker {args.id!r}")
    enrolled = store.get(args.id).vector
    dim = model.config.embedding_dim
    if len(enrolled) != dim:
        raise ConfigError(f"{args.store}: id {args.id!r} holds a {len(enrolled)}-d vector, "
                          f"the checkpoint embeds {dim}-d")
    # The back end is read and checked before the forward pass, so a bad
    # --plda-file fails without embedding anything.
    if args.backend == "plda" and not args.plda_file:
        raise AmcrnError("PLDA backend needs --plda-file")
    plda = scoring.load_plda(args.plda_file, dim) if args.backend == "plda" else None
    (test,) = _embed_wavs(model, [args.wav])
    score = (scoring.csm(enrolled, test) if plda is None
             else scoring.plda_score(plda, enrolled, test))
    decision = scoring.decide(score, args.threshold)
    print(f"score {score!r}  {decision}")
    return 0 if decision == "accept" else 1


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint, _BACKEND_DTYPE[args.backend])
    trials = scoring.read_trial_list(args.trials)
    root = args.audio_root or "."

    def resolve(ref):
        path = os.path.join(root, ref)
        if not os.path.exists(path):
            raise KeyError(ref)
        return read_wav(path)

    plda = None
    if args.backend == "plda":
        # An existing file is read, else the train dir is fitted; a file
        # given alone goes to load_plda even if missing, which names it.
        if args.plda_file and (os.path.exists(args.plda_file) or not args.plda_train_dir):
            plda = scoring.load_plda(args.plda_file, model.config.embedding_dim)
        elif args.plda_train_dir:
            data = _load_dataset_dir(args.plda_train_dir)
            embs = scoring.embed_audio(model, ((u.utterance_id, u.audio) for u in data))
            plda = scoring.plda_train(embs, [u.speaker_id for u in data])
            if args.plda_file:
                scoring.save_plda(args.plda_file, plda)
        else:
            raise AmcrnError("PLDA backend needs --plda-file or --plda-train-dir")
    truncation = None if args.truncate in (None, "whole") else float(args.truncate)
    scores, report = scoring.run_trials(model, trials, resolve, plda, truncation=truncation,
                                        seed=args.seed)
    prefix = args.out_prefix or args.trials
    scoring.write_scored_trials(prefix + ".scores", trials, scores)
    sweep = scoring.det_sweep([t.label for t in trials], scores)
    _atomic_write(prefix + ".report", report.to_text().encode())
    sweep_csv = "threshold,far,frr\n" + "".join(
        f"{t!r},{far!r},{frr!r}\n" for t, far, frr in sweep)
    _atomic_write(prefix + ".sweep.csv", sweep_csv.encode())
    print(report.to_text(), end="")
    return 0


def cmd_profile(args):
    config = build_config(args.config, AmcrnConfig, **_run_config(args)[0])
    durations = []
    for item in args.durations.split(","):
        try:
            durations.append(float(item))
        except ValueError:
            raise ConfigError(f"--durations item {item!r}: expected a number of seconds") from None
    reports = profiling.emit_cost_report(config, durations, include_head=args.include_head)
    print(profiling.format_report_table(reports), end="")
    if args.csv:
        _atomic_write(args.csv, profiling.format_report_csv(reports).encode())
    return 0


def cmd_toygen(args):
    spec = _parse_toy(args.spec, args.seed)
    dataset = toydata.toy_utterances(spec, utterance_offset=args.offset)
    for utt in dataset:
        spk_dir = os.path.join(args.out, utt.speaker_id)
        os.makedirs(spk_dir, exist_ok=True)
        write_wav(os.path.join(spk_dir, utt.utterance_id.split("_", 1)[1] + ".wav"),
                  utt.audio)
    print(f"wrote {len(dataset)} utterances under {args.out}")
    return 0


def _non_negative_int(text):
    """argparse type for an integer >= 0, so the error names the option."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(prog="amcrn",
                                     description="Speaker verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--data", help="directory with one subdirectory per speaker")
    p.add_argument("--toy", help="toy dataset spec, e.g. 'speakers=8 utts=6'")
    p.add_argument("--epochs", type=int)
    p.add_argument("--preset", choices=["tiny", "full"], default="tiny")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-csv")

    p = sub.add_parser("embed", help="dump one embedding")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.add_argument("wav")

    p = sub.add_parser("enroll", help="enroll a speaker into the store")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("wavs", nargs="+")

    p = sub.add_parser("verify", help="verify a claimed identity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--backend", choices=["csm", "plda"], default="csm")
    p.add_argument("--plda-file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("wav")

    p = sub.add_parser("eval", help="score a trial list")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--audio-root")
    p.add_argument("--backend", choices=["csm", "plda"], default="csm")
    p.add_argument("--plda-file")
    p.add_argument("--plda-train-dir")
    p.add_argument("--truncate", choices=["2", "3", "5", "whole"], default="whole")
    p.add_argument("--out-prefix")

    p = sub.add_parser("profile", help="parameter/MAC cost report")
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--durations", default="2,3,5")
    p.add_argument("--include-head", action="store_true")
    p.add_argument("--csv")

    p = sub.add_parser("toygen", help="generate a synthetic dataset")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--spec", default="speakers=8 utts=6")
    p.add_argument("--offset", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "train": cmd_train,
    "embed": cmd_embed,
    "enroll": cmd_enroll,
    "verify": cmd_verify,
    "eval": cmd_eval,
    "profile": cmd_profile,
    "toygen": cmd_toygen,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (AmcrnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
