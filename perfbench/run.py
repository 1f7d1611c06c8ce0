"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. `--trace 0` prints the end-to-end
metrics; `--trace 1` runs the same workload with span wrappers installed
and prints the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exit code 2 means the benchmark
could not run (no `src/amcrn` next to it, bad arguments, too many
threads); no result line is printed then.
"""

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Pinned before numpy is imported: one BLAS thread and one embedding
# worker, so that a run is one closed-loop client on one core.
THREADS = {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1, "MKL_NUM_THREADS": 1,
           "AMCRN_THREADS": 1}
# An untraced run sets up at least SETUPS times and for at least
# SETUP_SECONDS; setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 3.0
# Requests run before timing starts: the first request of a process is
# slower (lazy imports, first-touch allocations, cold file cache).
WARMUP = 1


class Refused(Exception):
    """The benchmark cannot run here."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare():
    """Pin threads and import `amcrn` from this checkout's `src`."""
    if max(THREADS.values()) > nproc():
        raise Refused(f"pinned threads {THREADS} exceed nproc = {nproc()}")
    for var, n in THREADS.items():
        os.environ[var] = str(n)
    if not os.path.isfile(os.path.join(SRC, "amcrn", "__init__.py")):
        raise Refused(f"no amcrn sources under {SRC}")
    sys.path.insert(0, SRC)
    import amcrn
    if os.path.dirname(os.path.dirname(os.path.abspath(amcrn.__file__))) != SRC:
        raise Refused(f"imported amcrn from {amcrn.__file__}, not from {SRC}")


def machine_record():
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            **{var: os.environ[var] for var in THREADS}}


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it. Below 22 samples that percentile would not
    lie above the median, so the nearest-rank 90th percentile is given
    instead (the maximum below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 22 else math.ceil(0.9 * n) - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State of one benchmark run: the workload, its oracle and counts."""

    def __init__(self, workload, seed, oracle):
        self.workload = workload
        self.seed = seed
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = None

    def setup(self, directory):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        gc.collect()  # the previous set-up's garbage, outside the timing
        start = perf_counter()
        self.attempted += self.workload.setup(directory, self.seed)
        return perf_counter() - start

    def request(self, n):
        """Run the n-th request of a loop and check its outputs; returns
        (seconds, items)."""
        index = n % len(self.workload.cycle)
        self.attempted += 1
        # A CLI user starts each call in a fresh process; collecting the
        # previous call's garbage here keeps it out of the timed call.
        gc.collect()
        began = perf_counter()
        try:
            elapsed, items, outputs = self.workload.request(index)
        except Exception as exc:  # a failed call is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return perf_counter() - began, 0
        if self.outputs is None:
            self.outputs = outputs
        if not self.oracle.check(index, outputs):
            self.failed += 1
        return elapsed, items

    def loop(self, seconds, min_requests=1):
        """Closed loop over the request cycle for `seconds` and at least
        `min_requests` requests, after WARMUP untimed requests; returns
        per-request (seconds, items)."""
        for n in range(WARMUP):
            self.request(n)
        results = []
        start = perf_counter()
        while len(results) < min_requests or perf_counter() - start < seconds:
            results.append(self.request(len(results)))
        return results

    def traced_loop(self, seconds, tracer):
        """Like `loop`, but every other request runs with the span wrappers
        installed, so that drift of the host's speed cancels out of the
        traced-minus-untraced overhead. Returns (traced, untraced, wrapper
        targets the program lacks)."""
        from spans import install

        for n in range(WARMUP):
            self.request(n)
        traced, untraced = [], []
        start = perf_counter()
        n = 0
        while n < 2 or perf_counter() - start < seconds:
            if n % 2:
                untraced.append(self.request(n))
            else:
                patches = install(tracer)
                tracer.request = n
                try:
                    traced.append(self.request(n))
                finally:
                    patches.undo()
            n += 1
        return traced, untraced, patches.missing


def cycle_rates(results, cycle):
    """Items per second of each complete pass over the request cycle."""
    passes = [results[i:i + cycle] for i in range(0, len(results) - cycle + 1, cycle)]
    return [sum(n for _, n in p) / sum(t for t, _ in p) for p in passes]


def end_to_end(results, setup_times, cycle):
    times = [t for t, _ in results]
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_ms": (1000.0 * statistics.median(times), "ms"),
        "tail_ms": (1000.0 * value, "ms"),
        "items_per_s": (statistics.median(cycle_rates(results, cycle)), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {"requests": len(times), "warmup_requests": WARMUP, "tail_percentile": pct,
             "tail_beyond": beyond, "setups": len(setup_times)}
    return metrics, notes


def quality(workload, outputs):
    """Accuracy outputs of the first request, as regression oracles."""
    metrics = {name: (0.0, unit) for name, unit in (
        ("scoring.eer_csm", "fraction"), ("scoring.min_dcf_csm", "fraction"),
        ("scoring.eer_plda", "fraction"), ("scoring.min_dcf_plda", "fraction"),
        ("training.best_val_loss", "nats"))}
    if workload.name == "eval" and outputs:
        for backend in ("csm", "plda"):
            metrics[f"scoring.eer_{backend}"] = (outputs[backend]["eer"], "fraction")
            metrics[f"scoring.min_dcf_{backend}"] = (outputs[backend]["min_dcf"], "fraction")
    if workload.name == "train" and outputs:
        metrics["training.best_val_loss"] = (outputs["val_loss"], "nats")
    return metrics


def eval_split(workload, sessions=slice(None)):
    """Trials/s of the csm and the plda eval calls, the median over the
    selected timed eval sessions (0 for other workloads)."""
    split = getattr(workload, "split_seconds", [])[WARMUP:][sessions]
    trials = len(getattr(workload, "labels", ()))
    return {f"cli.eval_{backend}_trials_per_s":
            (statistics.median(trials / s[i] for s in split) if split else 0.0, "1/s")
            for i, backend in enumerate(("csm", "plda"))}


def run(args, base):
    """Set up in `base`, measure, print the result; `base` holds the inputs."""
    import spans
    from oracle import TOLERANCE, Oracle, load_reference
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    state = Run(workload, args.seed, Oracle(load_reference(args.workload, args.seed)))
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    setup_times = [state.setup(base)]
    while not args.trace and (len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS):
        setup_times.append(state.setup(base))  # the last set-up's inputs are used

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_record()}
    if not args.trace:
        results = state.loop(args.seconds, workload.MIN_REQUESTS)
        metrics, notes = end_to_end(results, setup_times, len(workload.cycle))
        record["request_ms"] = [1000.0 * t for t, _ in results]
        record["details"] = {**notes, **{k: v for k, (v, _) in
                                         {**eval_split(workload),
                                          **quality(workload, state.outputs)}.items()}}
    else:
        tracer = spans.Tracer()
        traced, untraced, missing = state.traced_loop(args.seconds, tracer)
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics.update(eval_split(workload, slice(1, None, 2)))  # untraced sessions
        traced_ms = 1000.0 * statistics.median(t for t, _ in traced)
        untraced_ms = 1000.0 * statistics.median(t for t, _ in untraced)
        metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
        metrics.update(quality(workload, state.outputs))
        record["details"] = {"traced_requests": len(traced),
                             "untraced_requests": len(untraced),
                             "unwrapped": missing,
                             "frame_counts": sorted({(s["frames"], s["frames_for"])
                                                     for s in tracer.spans
                                                     if s["name"] == "dsp.extract_lms"})}
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"))

    record["oracle"] = {"reference": state.oracle.source, "checked": state.oracle.checked,
                        "mismatches": state.oracle.mismatches, "errors": state.errors[:5],
                        "tolerance": f"{TOLERANCE:g} x max(1, |reference|)"}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("machine " + json.dumps(record["machine"]))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in record["details"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"oracle reference={state.oracle.source} checked={state.oracle.checked} "
          f"mismatches={len(state.oracle.mismatches)} failed={state.failed}/{state.attempted}")
    for problem in state.oracle.mismatches[:5] + state.errors[:5]:
        print(f"  {problem}")
    print(json.dumps({"correct": state.failed == 0, "attempted": state.attempted,
                      "failed": state.failed, "metrics": record["metrics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "eval", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        prepare()
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    base = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
