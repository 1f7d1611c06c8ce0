"""Span tracing from outside the program, and the per-layer metrics
computed from the spans.

`install` wraps the public functions of each `amcrn` module and the
network's block objects; the `undo()` of what it returns puts the
originals back. Spans are kept in memory. A span records its name,
start, end, parent span, request id, whether it raised, and counts taken
where the work happens (frames, Tensor nodes, trial references).
"""

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

from amcrn import autodiff, cli, model, profiling, scoring, store

STAGES = ("initial", "mcb0", "mcb1", "mcb2", "rblstm", "pool", "emb")

# metric -> (span name, "total" or "self"); self time excludes the part
# of the span covered by its child spans.
SPAN_METRICS = {
    "audio.read_wav_ms": ("audio.read_wav", "total"),
    "dsp.extract_lms_ms": ("dsp.extract_lms", "total"),
    "dsp.apply_cmvn_ms": ("dsp.apply_cmvn", "total"),
    "augment.augment_ms": ("augment.augment", "total"),
    "model.load_ms": ("model.load_checkpoint", "total"),
    "model.embed_ms": ("model.embed", "total"),
    **{f"model.{s}_ms": (f"model.{s}", "self") for s in STAGES},
    "model.classify_loss_ms": ("model.classify_loss", "total"),
    "model.checkpoint_ms": ("model.checkpoint", "total"),
    "autodiff.backward_ms": ("autodiff.backward", "total"),
    "training.optimizer_ms": ("training.optimizer", "total"),
    "training.validation_ms": ("training.validation", "total"),
    "training.train_self_ms": ("training.train", "self"),
    "scoring.csm_ms": ("scoring.csm", "total"),
    "scoring.plda_score_ms": ("scoring.plda_score", "total"),
    "scoring.sweep_ms": ("scoring.sweep", "total"),
    "scoring.run_trials_self_ms": ("scoring.run_trials", "self"),
    "store.load_ms": ("store.load", "total"),
    "cli.self_ms": ("cli.main", "self"),
}


class AnalyticMismatch(Exception):
    """`profiling.layer_costs` rows and the measured stages do not pair up."""


def stage_of(row_name):
    """The network stage a `profiling.layer_costs` row belongs to."""
    head = row_name.split(".", 1)[0]
    if head == "embed":
        return "emb"
    return head if head in STAGES else None


class Tracer:
    """Single-threaded span recorder (the benchmark pins AMCRN_THREADS=1)."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.tensors = 0
        self._stack = []
        self._stage_macs = {}

    def call(self, name, fn, args, kwargs):
        """Run `fn(*args, **kwargs)` inside a span; returns (span, result)."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "request": self.request, "raised": True}
        self.spans.append(span)
        self._stack.append(span)
        nodes = self.tensors
        span["start"] = perf_counter()
        try:
            out = fn(*args, **kwargs)
            span["raised"] = False
            return span, out
        finally:
            span["end"] = perf_counter()
            span["nodes"] = self.tensors - nodes
            self._stack.pop()

    def stage_macs(self, config, frames):
        """Analytic MACs per stage for one forward pass of `frames` frames."""
        key = (config.to_text(), frames)
        if key not in self._stage_macs:
            if profiling.frames_for(frames / 100) != frames:
                raise AnalyticMismatch(f"frames_for({frames / 100}) != {frames}")
            macs = dict.fromkeys(STAGES, 0)
            has_rows = set()
            for row in profiling.layer_costs(config, frames / 100):
                stage = stage_of(row.name)
                if stage is None:
                    raise AnalyticMismatch(f"analytic row {row.name!r} has no measured stage")
                macs[stage] += row.macs
                has_rows.add(stage)
            if has_rows != set(STAGES):
                raise AnalyticMismatch(f"stages without analytic rows: {set(STAGES) - has_rows}")
            self._stage_macs[key] = macs
        return self._stage_macs[key]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Patches:
    def __init__(self):
        self.saved = []
        self.missing = []  # targets the program no longer has; their metrics read 0

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original, wrapper):
        """Rebind every `amcrn` module global that names `original`, so
        that calls through `from .x import f` copies are seen too."""
        for name, module in list(sys.modules.items()):
            if name == "amcrn" or name.startswith("amcrn."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, attr, wrapper)

    def undo(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def install(tracer):
    """Install the wrappers; returns an object whose `undo()` removes them."""
    from amcrn import audio, dsp, training
    augment = importlib.import_module("amcrn.augment")  # `amcrn.augment` is the function

    patches = _Patches()

    def span_fn(module, attr, name, after=None):
        original = getattr(module, attr, None)
        if original is None:
            patches.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, out = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(span, args, out)
            return out
        patches.function(original, wrapper)

    def frames(span, args, out):
        span["frames"] = out.n_frames
        span["frames_for"] = profiling.frames_for(len(args[0]) / args[0].sample_rate)

    def unique_refs(span, args, out):
        span["unique_refs"] = len({r for t in args[1] for r in (t.enroll_ref, t.test_ref)})

    span_fn(audio, "read_wav", "audio.read_wav")
    span_fn(dsp, "extract_lms", "dsp.extract_lms", frames)
    span_fn(dsp, "apply_cmvn", "dsp.apply_cmvn")
    span_fn(augment, "augment", "augment.augment")
    span_fn(model, "load_checkpoint", "model.load_checkpoint")
    span_fn(model, "restore_model", "model.checkpoint")
    span_fn(model, "checkpoint_bytes", "model.checkpoint")
    span_fn(training, "clip_gradients", "training.optimizer")
    span_fn(training, "adam_step", "training.optimizer")
    span_fn(training, "validation_loss", "training.validation")
    span_fn(training, "train", "training.train")
    span_fn(scoring, "csm", "scoring.csm")
    span_fn(scoring, "plda_score", "scoring.plda_score")
    for sweep in ("compute_eer", "compute_mindcf", "det_sweep"):
        span_fn(scoring, sweep, "scoring.sweep")
    span_fn(scoring, "run_trials", "scoring.run_trials", unique_refs)
    span_fn(cli, "main", "cli.main")

    # Only the checkpoint write counts as a layer; other output writes
    # stay in the CLI's self time.
    atomic_write = getattr(model, "_atomic_write", None)
    if atomic_write is None:
        patches.missing.append("amcrn.model._atomic_write")
    else:
        def write_checkpoint(path, payload):
            if payload[:len(model.CHECKPOINT_MAGIC)] != model.CHECKPOINT_MAGIC:
                return atomic_write(path, payload)
            return tracer.call("model.checkpoint", atomic_write, (path, payload), {})[1]
        patches.function(atomic_write, write_checkpoint)

    def method(cls, attr, name_of, after=None):
        original = getattr(cls, attr, None)
        if original is None:
            patches.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            name = name_of(self, args, kwargs)
            if name is None:
                return original(self, *args, **kwargs)
            span, out = tracer.call(name, original, (self,) + args, kwargs)
            if after is not None:
                after(span, self, args, kwargs)
            return out
        patches.set(cls, attr, wrapper)

    def const(name):
        return lambda self, args, kwargs: name

    def forward_macs(span, self, args, kwargs):
        span["macs"] = tracer.stage_macs(self.config, args[0].shape[0])

    def loss_attrs(span, self, args, kwargs):
        span["mode"] = kwargs.get("mode", args[2] if len(args) > 2 else "train")

    method(model.AmcrnModel, "embed", const("model.embed"))
    method(model.AmcrnModel, "embed_tensor", const("model.forward"), forward_macs)
    method(model.AmcrnModel, "classify_loss", const("model.classify_loss"), loss_attrs)
    method(autodiff.Tensor, "backward", const("autodiff.backward"))
    method(model.Conv1d, "__call__", lambda self, a, k:
           "model.initial" if self.kernel.name.startswith("initial.") else None)
    method(model.BatchNorm, "__call__", lambda self, a, k:
           "model.initial" if self.name.startswith("initial.") else None)
    method(model.McbBlock, "__call__", lambda self, a, k:
           "model." + self.conv_pre.kernel.name.split(".", 1)[0])
    method(model.ResidualBlstm, "__call__", const("model.rblstm"))
    method(model.AttentiveStatPool, "__call__", const("model.pool"))
    method(model.Linear, "__call__", lambda self, a, k:
           "model.emb" if self.weight.name.startswith("embed.") else None)
    method(model.VectorNorm, "__call__", const("model.emb"))
    method(store.EmbeddingStore, "_load", const("store.load"))

    # Count Tensor nodes so that each span knows how many it created.
    tensor_init = autodiff.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.tensors += 1
        tensor_init(self, *args, **kwargs)
    patches.set(autodiff.Tensor, "__init__", counting_init)
    return patches


def self_seconds(spans):
    """Span id -> duration minus the union of its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(spans, n_requests):
    """Per-layer metrics from the spans of `n_requests` timed requests.

    Times and counts are per request; `gmac_per_s` divides the analytic
    MACs of each forward pass by the stage's self time.
    """
    own = self_seconds(spans)
    seconds = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        seconds[span["name"], "total"] += span["end"] - span["start"]
        seconds[span["name"], "self"] += own[span["id"]]
    metrics = {metric: (1000.0 * seconds[key] / n_requests, "ms")
               for metric, key in SPAN_METRICS.items()}

    lms = by_name["dsp.extract_lms"]
    metrics["dsp.frames"] = (sum(s["frames"] for s in lms) / n_requests, "count")
    gap = [s["frames_for"] - s["frames"] for s in lms]
    metrics["profiling.frame_gap"] = (sum(gap) / len(gap) if gap else 0.0, "count")
    refs = sum(s["unique_refs"] for s in by_name["scoring.run_trials"])
    embeds = len(by_name["model.embed"])
    metrics["model.embed_calls"] = (embeds / n_requests, "count")
    metrics["scoring.unique_refs"] = (refs / n_requests, "count")
    metrics["scoring.useful_embed_share"] = (refs / embeds if refs else 0.0, "fraction")
    crops = [s["nodes"] for s in by_name["model.classify_loss"] if s["mode"] == "train"]
    metrics["autodiff.nodes_per_crop"] = (sum(crops) / len(crops) if crops else 0.0, "count")

    macs = dict.fromkeys(STAGES, 0)
    stage_children = defaultdict(set)
    for span in spans:
        if span["name"].startswith("model.") and span["name"][6:] in STAGES:
            stage_children[span["parent"]].add(span["name"][6:])
    for span in by_name["model.forward"]:
        if stage_children[span["id"]] != set(STAGES):
            raise AnalyticMismatch(f"forward pass measured stages "
                                   f"{sorted(stage_children[span['id']])}, expected {STAGES}")
        for stage in STAGES:
            macs[stage] += span["macs"][stage]
    for stage in STAGES:
        busy = seconds[f"model.{stage}", "self"]
        metrics[f"model.{stage}.gmac_per_s"] = (macs[stage] / busy / 1e9 if busy else 0.0,
                                               "GMAC/s")
    return metrics
