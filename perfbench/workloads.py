"""The three benchmark workloads: `verify`, `eval` and `train`.

Each workload writes its inputs from the seed in `setup`, then exposes a
fixed cycle of requests. A request drives the program only through
`amcrn.cli.main` with the argv a user would type; files on disk are the
only state carried from one call to the next.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from amcrn import cli
from amcrn.audio import write_wav
from amcrn.model import AmcrnConfig, AmcrnModel, save_checkpoint, tiny_config
from amcrn.scoring import compute_eer, compute_mindcf
from amcrn.toydata import ToySpeakerSpec, make_toy_dataset

from oracle import compare


class CallFailed(Exception):
    """A CLI call exited with a failure code or printed unparsable output."""


def invoke(argv):
    """Run `amcrn <argv>` in-process; return (exit code, stdout, seconds).

    An exception escaping `cli.main` propagates to the caller, which
    counts it as a failed call.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    elapsed = perf_counter() - start
    if code not in (0, 1):
        raise CallFailed(f"amcrn {argv[0]} exited {code}: {err.getvalue().strip()}")
    return code, out.getvalue(), elapsed


def _write_dataset(root, utterances):
    """One directory per speaker, one WAV per utterance; returns the
    (speaker, path relative to root) of each file."""
    refs = []
    for utt in utterances:
        rel = f"{utt.speaker_id}/{utt.utterance_id.split('_', 1)[1]}.wav"
        os.makedirs(os.path.join(root, utt.speaker_id), exist_ok=True)
        write_wav(os.path.join(root, rel), utt.audio)
        refs.append((utt.speaker_id, rel))
    return refs


def _toy(seed, n_speakers, utts, seconds, offset=0):
    spec = ToySpeakerSpec(n_speakers=n_speakers, utterances_per_speaker=utts,
                          utterance_seconds=seconds, seed=seed)
    return make_toy_dataset(spec, utterance_offset=offset)


def acceptance_preset(n_classes):
    """The acceptance-test network: 80 mels, 64 channels, 4 scales,
    BLSTM hidden 64, 256-d embedding."""
    return tiny_config(n_mels=80, channels=64, n_scales=4, hidden=64,
                       embedding_dim=256, n_classes=n_classes)


class Verify:
    """Interactive path: one `amcrn verify` per request against an
    untrained full paper-size checkpoint (load + forward dominate)."""

    name = "verify"
    DURATIONS = (2.0, 3.0, 5.0)  # the paper's truncation lengths
    SPEAKERS = 2
    ENROLL_SECONDS = 2.0
    THRESHOLD = 0.99
    # Latency has one mode per duration. With at least 36 requests the
    # tail percentile (ten samples beyond it) falls among the 5 s requests.
    MIN_REQUESTS = 36

    def setup(self, root, seed):
        self.root = root
        self.ckpt = os.path.join(root, "full.ckpt")
        self.store = os.path.join(root, "speakers.tsv")
        enroll = _write_dataset(os.path.join(root, "enroll"),
                                _toy(seed, self.SPEAKERS, 1, self.ENROLL_SECONDS))
        tests = {}
        for j, seconds in enumerate(self.DURATIONS):
            utts = _toy(seed, self.SPEAKERS, 1, seconds, offset=1 + j)
            for spk, rel in _write_dataset(os.path.join(root, f"test{seconds:g}"), utts):
                tests[spk, seconds] = os.path.join(root, f"test{seconds:g}", rel)
        save_checkpoint(self.ckpt, AmcrnModel(AmcrnConfig(), seed=seed))
        calls = 0
        for spk, rel in enroll:
            invoke(["enroll", "--checkpoint", self.ckpt, "--store", self.store,
                    "--id", spk, os.path.join(root, "enroll", rel)])
            calls += 1
        speakers = sorted({spk for spk, _ in enroll})
        # Six requests: every duration once as a target and once as a
        # nontarget claim, against both enrolled speakers.
        self.cycle = []
        for i in range(6):
            seconds = self.DURATIONS[i % 3]
            claim = speakers[(i // 3) % 2]
            target = i % 2 == 0
            test_spk = claim if target else speakers[1 - speakers.index(claim)]
            self.cycle.append((claim, tests[test_spk, seconds]))
        return calls

    def request(self, index):
        claim, wav = self.cycle[index]
        code, out, seconds = invoke(["verify", "--checkpoint", self.ckpt,
                                     "--store", self.store, "--id", claim,
                                     "--threshold", repr(self.THRESHOLD), wav])
        fields = out.split()
        if len(fields) != 3 or fields[0] != "score":
            raise CallFailed(f"unexpected verify output {out!r}")
        score, decision = float(fields[1]), fields[2]
        if (decision == "accept") != (code == 0):
            raise CallFailed(f"verify printed {decision} but exited {code}")
        return seconds, 1, {"score": score, "decision": decision}


class Eval:
    """Batch scoring path: a session is `amcrn eval --backend csm` then
    `amcrn eval --backend plda` over every ordered pair of K short
    utterances. K is sized so that embedding dominates the csm pass and
    per-trial PLDA scoring is most of the plda pass."""

    name = "eval"
    SPEAKERS = 4
    UTTS = 3  # K = SPEAKERS * UTTS = 12 utterances, 132 trials
    SECONDS = 0.5
    MIN_REQUESTS = 1

    def setup(self, root, seed):
        self.root = root
        self.ckpt = os.path.join(root, "toy.ckpt")
        self.plda = os.path.join(root, "plda.npz")
        self.audio = os.path.join(root, "eval")
        plda_dir = os.path.join(root, "plda_train")
        refs = _write_dataset(self.audio, _toy(seed, self.SPEAKERS, self.UTTS, self.SECONDS))
        held_out = _write_dataset(plda_dir, _toy(seed, self.SPEAKERS, self.UTTS,
                                                 self.SECONDS, offset=self.UTTS))
        self.trials = os.path.join(root, "trials.txt")
        self.labels = []
        with open(self.trials, "w", encoding="utf-8") as fh:
            for spk_a, a in refs:
                for spk_b, b in refs:
                    if a != b:
                        self.labels.append(int(spk_a == spk_b))
                        fh.write(f"{self.labels[-1]} {a} {b}\n")
        save_checkpoint(self.ckpt, AmcrnModel(acceptance_preset(self.SPEAKERS), seed=seed))
        # The PLDA fit goes through the CLI as a user would: an eval call
        # on a two-trial list that trains on the held-out utterances.
        fit_trials = os.path.join(root, "fit_trials.txt")
        # held_out lists speakers in order, UTTS files each.
        (_, u0), (_, u1), (_, v0) = held_out[0], held_out[1], held_out[self.UTTS]
        with open(fit_trials, "w", encoding="utf-8") as fh:
            fh.write(f"1 {u0} {u1}\n0 {u0} {v0}\n")
        invoke(["eval", "--checkpoint", self.ckpt, "--trials", fit_trials,
                "--audio-root", plda_dir, "--backend", "plda",
                "--plda-train-dir", plda_dir, "--plda-file", self.plda,
                "--out-prefix", os.path.join(root, "fit")])
        self.split_seconds = []
        self.cycle = [None]
        return 1

    def _score(self, backend):
        prefix = os.path.join(self.root, backend)
        argv = ["eval", "--checkpoint", self.ckpt, "--trials", self.trials,
                "--audio-root", self.audio, "--backend", backend,
                "--out-prefix", prefix]
        if backend == "plda":
            argv += ["--plda-file", self.plda]
        _, _, seconds = invoke(argv)
        with open(prefix + ".scores", encoding="utf-8") as fh:
            scores = [float(line.split()[3]) for line in fh]
        with open(prefix + ".report", encoding="utf-8") as fh:
            report = dict(line.strip().split("=", 1) for line in fh if "=" in line)
        if len(scores) != len(self.labels):
            raise CallFailed(f"{backend}: {len(scores)} scores for {len(self.labels)} trials")
        got = {"eer": float(report["eer"]), "min_dcf": float(report["min_dcf"])}
        # The report must agree with the metrics of the scores it came with.
        problems = compare(got, {"eer": compute_eer(self.labels, scores)[0],
                                 "min_dcf": compute_mindcf(self.labels, scores)})
        if problems:
            raise CallFailed(f"{backend} report: {problems[0]}")
        return seconds, {"scores": scores, **got}

    def request(self, index):
        csm_s, csm = self._score("csm")
        plda_s, plda = self._score("plda")
        self.split_seconds.append((csm_s, plda_s))
        return csm_s + plda_s, 2 * len(self.labels), {"csm": csm, "plda": plda}


class Train:
    """Training path: one `amcrn train --epochs 1` per request with the
    acceptance preset, 2 s crops and one augmented copy per utterance;
    the only workload that runs backward, Adam and checkpoint writes."""

    name = "train"
    SPEAKERS = 2
    UTTS = 3
    SECONDS = 2.5
    MIN_REQUESTS = 1
    SETTINGS = {"crop_seconds": 2.0, "augment_copies": 1, "batch_size": 4,
                "val_fraction": 0.2, "lr_start": 2e-3, "lr_end": 2e-4}

    def setup(self, root, seed):
        self.root = root
        self.seed = seed
        self.data = os.path.join(root, "data")
        _write_dataset(self.data, _toy(seed, self.SPEAKERS, self.UTTS, self.SECONDS))
        self.config = os.path.join(root, "train.cfg")
        # `amcrn train` sets n_classes from the data, overriding the file.
        settings = "".join(f"{k} = {v!r}\n" for k, v in self.SETTINGS.items())
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(acceptance_preset(self.SPEAKERS).to_text() + settings)
        n = self.SPEAKERS * self.UTTS
        n_val = max(1, int(round(self.SETTINGS["val_fraction"] * n)))
        self.crops = (n - n_val) * (1 + self.SETTINGS["augment_copies"])
        self.cycle = [None]
        return 0

    def request(self, index):
        _, out, seconds = invoke(["train", "--data", self.data, "--config", self.config,
                                  "--epochs", "1", "--seed", self.seed,
                                  "--out", os.path.join(self.root, "model.ckpt")])
        fields = out.split()
        if len(fields) != 5 or fields[3] != "val_loss":
            raise CallFailed(f"unexpected train output {out!r}")
        return seconds, self.crops, {"val_loss": float(fields[4])}


WORKLOADS = {w.name: w for w in (Verify, Eval, Train)}
