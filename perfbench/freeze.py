"""Freeze the output oracle's reference outputs.

    python3 perfbench/freeze.py --seeds 0-19 [--workloads verify,eval,train]

For each seed and workload, runs every request of the workload's cycle
once at the current commit and stores the outputs in
`perfbench/reference.json`, keeping the entries of other seeds. Run it
only at a commit whose outputs are known to be right: every later run
of the benchmark on these seeds is checked against them.
"""

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", default="verify,eval,train")
    args = parser.parse_args(argv)
    try:
        run.prepare()
    except run.Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from oracle import REFERENCE
    from workloads import WORKLOADS

    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    for name in args.workloads.split(","):
        for seed in args.seeds:
            workload = WORKLOADS[name]()
            directory = os.path.join(run.WORK, f"freeze-{name}-{seed}-{os.getpid()}")
            os.makedirs(directory)
            try:
                workload.setup(directory, seed)
                outputs = [workload.request(i)[2] for i in range(len(workload.cycle))]
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            reference.setdefault(name, {})[str(seed)] = outputs
            print(f"froze {name} seed {seed}", flush=True)
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
