"""Command-line entry point.

Subcommands: train, enroll, verify, embed, eval, profile, toygen.
Exit codes: 0 success/accept, 1 reject, 2 usage or data error,
3 numerical error.
"""

import argparse
import dataclasses
import io
import os
import sys
import zipfile

import numpy as np

from . import profiling, scoring, toydata, training
from .audio import read_wav, write_wav
from .dsp import FrameSpec, apply_cmvn, extract_lms
from .errors import AmcrnError, ConfigError, NumericalError
from .model import (AmcrnConfig, AmcrnModel, _atomic_write, load_checkpoint,
                    tiny_config)
from .store import EmbeddingStore

_AMCRN_FIELDS = {f.name for f in dataclasses.fields(AmcrnConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(training.TrainConfig)}


def _parse_run_config(path):
    """Flat `key = value` file with `#` comments; unknown keys rejected."""
    model_kv, train_kv = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise AmcrnError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in _AMCRN_FIELDS:
                model_kv[key] = val
            elif key in _TRAIN_FIELDS:
                train_kv[key] = val
            else:
                raise AmcrnError(f"{path}:{lineno}: unknown key {key!r}")
    return model_kv, train_kv


def _coerce(cls, kv):
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in kv:
            continue
        val = kv[f.name]
        default = f.default
        if isinstance(default, bool):
            kwargs[f.name] = val.lower() in ("1", "true", "yes")
        elif isinstance(default, int):
            kwargs[f.name] = int(val)
        elif isinstance(default, float):
            kwargs[f.name] = float(val)
        else:
            kwargs[f.name] = tuple(int(x) for x in val.split(","))
    return kwargs


def _load_dataset_dir(root):
    """One subdirectory per speaker, WAV files inside."""
    out = []
    for speaker in sorted(os.listdir(root)):
        spk_dir = os.path.join(root, speaker)
        if not os.path.isdir(spk_dir):
            continue
        for name in sorted(os.listdir(spk_dir)):
            if name.lower().endswith(".wav"):
                audio = read_wav(os.path.join(spk_dir, name))
                out.append(toydata.ToyUtterance(speaker, f"{speaker}/{name}", audio))
    if not out:
        raise AmcrnError(f"no speaker-labeled WAV files under {root}")
    return out


def _parse_toy(arg, seed):
    kv = dict(part.split("=", 1) for part in arg.replace(",", " ").split())
    return toydata.ToySpeakerSpec(
        n_speakers=int(kv.get("speakers", 8)),
        utterances_per_speaker=int(kv.get("utts", 6)),
        utterance_seconds=float(kv.get("seconds", 3.0)),
        seed=seed,
    )


def _build_model_config(args, n_classes, train_kv_model):
    if args.preset == "full":
        base = {}
    else:
        cfg = tiny_config(n_mels=24, channels=32, n_scales=4, hidden=32,
                          embedding_dim=64, n_classes=n_classes)
        base = {f: getattr(cfg, f) for f in _AMCRN_FIELDS}
    base.update(_coerce(AmcrnConfig, train_kv_model))
    base["n_classes"] = n_classes
    return AmcrnConfig(**base)


def cmd_train(args):
    model_kv, train_kv = ({}, {})
    if args.config:
        model_kv, train_kv = _parse_run_config(args.config)
    if args.toy:
        dataset = toydata.make_toy_dataset(_parse_toy(args.toy, args.seed))
    elif args.data:
        dataset = _load_dataset_dir(args.data)
    else:
        raise AmcrnError("train needs --data or --toy")
    n_classes = len({u.speaker_id for u in dataset})
    config = _build_model_config(args, n_classes, model_kv)
    tkwargs = _coerce(training.TrainConfig, train_kv)
    tkwargs.setdefault("seed", args.seed)
    if args.epochs is not None:
        tkwargs["epochs"] = args.epochs
    tcfg = training.TrainConfig(**tkwargs)
    model = AmcrnModel(config, seed=args.seed)
    result = training.train(model, dataset, tcfg)
    _atomic_write(args.out, result.best_checkpoint)
    _atomic_write(args.out + ".cfg", config.to_text().encode())
    training.write_history_csv(args.loss_csv or args.out + ".loss.csv", result.history)
    print(f"best epoch {result.best_epoch}  val_loss {result.best_val_loss!r}")
    return 0


def _embed_wav(model, path):
    audio = read_wav(path)
    feats = apply_cmvn(extract_lms(audio, FrameSpec(n_mels=model.config.n_mels)))
    return model.embed(feats.values).values


def cmd_embed(args):
    model = load_checkpoint(args.checkpoint)
    vec = _embed_wav(model, args.wav)
    out = " ".join(repr(float(v)) for v in vec)
    if args.out:
        _atomic_write(args.out, (out + "\n").encode())
    else:
        print(out)
    return 0


def cmd_enroll(args):
    model = load_checkpoint(args.checkpoint)
    store = EmbeddingStore(args.store)
    vecs = [_embed_wav(model, w) for w in args.wavs]
    store.add(args.id, np.mean(vecs, axis=0), n_utterances=len(vecs),
              overwrite=args.overwrite)
    store.save(args.store)
    print(f"enrolled {args.id} from {len(vecs)} utterance(s)")
    return 0


def cmd_verify(args):
    model = load_checkpoint(args.checkpoint)
    store = EmbeddingStore(args.store)
    if args.id not in store:
        print(f"error: unknown speaker {args.id!r}", file=sys.stderr)
        return 2
    enrolled = store.get(args.id).vector
    dim = model.config.embedding_dim
    if len(enrolled) != dim:
        raise ConfigError(f"{args.store}: id {args.id!r} holds a {len(enrolled)}-d vector, "
                          f"the checkpoint embeds {dim}-d")
    test = _embed_wav(model, args.wav)
    if args.backend == "plda":
        plda = _load_plda(args.plda_file, dim)
        score = scoring.plda_score(plda, enrolled, test)
    else:
        score = scoring.csm(enrolled, test)
    decision = scoring.decide(score, args.threshold)
    print(f"score {score!r}  {decision}")
    return 0 if decision == "accept" else 1


def _load_plda(path, dim):
    """Read a back end written by `_save_plda` for `dim`-d embeddings."""
    if not path:
        raise AmcrnError("PLDA backend needs --plda-file")
    shapes = {"mu": (dim,), "between": (dim, dim), "within": (dim, dim), "center": (dim,)}
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path}: not a PLDA .npz archive")
        with data:
            arrays = {name: np.asarray(data[name], dtype=np.float64) for name in shapes}
            length_norm = bool(data["length_norm"])
    except KeyError as exc:
        raise ConfigError(f"{path}: PLDA file lacks array {exc}") from exc
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable PLDA file: {exc}") from exc
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ConfigError(f"{path}: {name} has shape {arrays[name].shape}, expected "
                              f"{shape} for the checkpoint's {dim}-d embeddings")
        if not np.all(np.isfinite(arrays[name])):
            raise ConfigError(f"{path}: {name} has non-finite values")
    return scoring.PldaModel(**arrays, length_norm=length_norm)


def _save_plda(path, plda):
    buf = io.BytesIO()
    np.savez(buf, mu=plda.mu, between=plda.between, within=plda.within,
             center=plda.center, length_norm=np.bool_(plda.length_norm))
    _atomic_write(path, buf.getvalue())


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)
    trials = scoring.read_trial_list(args.trials)
    root = args.audio_root or "."

    def resolve(ref):
        path = os.path.join(root, ref)
        if not os.path.exists(path):
            raise KeyError(ref)
        return read_wav(path)

    plda = None
    if args.backend == "plda":
        if args.plda_file and os.path.exists(args.plda_file):
            plda = _load_plda(args.plda_file, model.config.embedding_dim)
        elif args.plda_train_dir:
            data = _load_dataset_dir(args.plda_train_dir)
            embs = [_embed_wav_buffer(model, u.audio) for u in data]
            plda = scoring.plda_train(embs, [u.speaker_id for u in data])
            if args.plda_file:
                _save_plda(args.plda_file, plda)
        else:
            raise AmcrnError("PLDA backend needs --plda-file or --plda-train-dir")
    truncation = None if args.truncate in (None, "whole") else float(args.truncate)
    scores, report = scoring.run_trials(model, trials, resolve, backend=args.backend,
                                        plda_model=plda, truncation=truncation,
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


def _embed_wav_buffer(model, audio):
    feats = apply_cmvn(extract_lms(audio, FrameSpec(n_mels=model.config.n_mels)))
    return model.embed(feats.values).values


def cmd_profile(args):
    if args.config:
        model_kv, _ = _parse_run_config(args.config)
        config = AmcrnConfig(**_coerce(AmcrnConfig, model_kv)) if model_kv else AmcrnConfig()
    else:
        config = AmcrnConfig()
    durations = tuple(float(d) for d in args.durations.split(","))
    reports = profiling.emit_cost_report(config, durations, include_head=args.include_head)
    print(profiling.format_report_table(reports), end="")
    if args.csv:
        _atomic_write(args.csv, profiling.format_report_csv(reports).encode())
    return 0


def cmd_toygen(args):
    spec = _parse_toy(args.spec, args.seed)
    dataset = toydata.make_toy_dataset(spec, utterance_offset=args.offset)
    for utt in dataset:
        spk_dir = os.path.join(args.out, utt.speaker_id)
        os.makedirs(spk_dir, exist_ok=True)
        write_wav(os.path.join(spk_dir, utt.utterance_id.split("_", 1)[1] + ".wav"),
                  utt.audio)
    print(f"wrote {len(dataset)} utterances under {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="amcrn",
                                     description="Speaker verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="flat key=value configuration file")

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", help="directory with one subdirectory per speaker")
    p.add_argument("--toy", help="toy dataset spec, e.g. 'speakers=8 utts=6'")
    p.add_argument("--epochs", type=int)
    p.add_argument("--preset", choices=["tiny", "full"], default="tiny")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-csv")

    p = sub.add_parser("embed", help="dump one embedding")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.add_argument("wav")

    p = sub.add_parser("enroll", help="enroll a speaker into the store")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("wavs", nargs="+")

    p = sub.add_parser("verify", help="verify a claimed identity")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--backend", choices=["csm", "plda"], default="csm")
    p.add_argument("--plda-file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("wav")

    p = sub.add_parser("eval", help="score a trial list")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--audio-root")
    p.add_argument("--backend", choices=["csm", "plda"], default="csm")
    p.add_argument("--plda-file")
    p.add_argument("--plda-train-dir")
    p.add_argument("--truncate", choices=["2", "3", "5", "whole"], default="whole")
    p.add_argument("--out-prefix")

    p = sub.add_parser("profile", help="parameter/MAC cost report")
    common(p)
    p.add_argument("--durations", default="2,3,5")
    p.add_argument("--include-head", action="store_true")
    p.add_argument("--csv")

    p = sub.add_parser("toygen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--spec", default="speakers=8 utts=6")
    p.add_argument("--offset", type=int, default=0)
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


if __name__ == "__main__":
    sys.exit(main())
