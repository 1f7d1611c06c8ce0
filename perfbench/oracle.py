"""Output oracle: every request's outputs are compared with reference
outputs frozen from a known-good commit (`reference.json`, written by
`freeze.py`).

Tolerance: a number matches when it is within TOLERANCE * max(1, |ref|)
of the reference; strings must be equal. A fast path must match the slow
path within this tolerance. For a seed with no frozen reference, each
request is compared with the first run of the same request in this
process instead (seeded runs must be repeatable).
"""

import json
import os

TOLERANCE = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def compare(got, want, where="output"):
    """List of mismatch descriptions; empty when `got` matches `want`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for key in want for m in compare(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, (int, float)) and abs(got - want) <= TOLERANCE * max(1.0, abs(want)):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def load_reference(workload, seed, path=REFERENCE):
    """Frozen outputs for one workload and seed (a list, one entry per
    request of the cycle), or None."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Oracle:
    def __init__(self, reference):
        self.reference = reference
        self.first = {}
        self.checked = 0
        self.mismatches = []

    @property
    def source(self):
        return "frozen" if self.reference is not None else "first-run"

    def check(self, index, outputs):
        """Compare one request's outputs; True when they match."""
        if self.reference is not None:
            want = self.reference[index]
        else:
            want = self.first.setdefault(index, outputs)
        problems = compare(outputs, want)
        self.checked += 1
        self.mismatches.extend(problems[:3])
        return not problems
