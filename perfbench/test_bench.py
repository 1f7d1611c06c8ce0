"""Self-tests of the benchmark; the program's own suite lives in `tests/`.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.prepare()

from amcrn import profiling  # noqa: E402
from oracle import compare  # noqa: E402
from spans import STAGES, self_seconds, stage_of  # noqa: E402
from workloads import acceptance_preset  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_schema():
    spec = bench()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
               for arg in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) for p in spec["paths"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == ["verify", "eval", "train"]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 31)) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)
    # Below 22 samples the ten-beyond percentile would not exceed the
    # median; the nearest-rank 90th percentile stands in.
    assert run.tail(range(1, 13)) == (11, 100.0 * 11 / 12, 1)


def test_items_per_s_is_taken_over_complete_cycles():
    results = [(1.0, 1), (3.0, 1), (2.0, 4), (2.0, 4), (9.0, 9)]
    assert run.cycle_rates(results, 2) == [0.5, 2.0]


def test_self_time_subtracts_the_union_of_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},
             {"id": 3, "parent": 2, "start": 3.5, "end": 4.5}]
    assert self_seconds(spans) == {0: 6.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_oracle_tolerance():
    assert compare({"a": [1.0, "x"]}, {"a": [1.0 + 5e-7, "x"]}) == []
    assert compare({"a": [2e6]}, {"a": [2e6 + 1.0]}) == []
    assert compare({"a": [1.0]}, {"a": [1.0 + 2e-6]})
    assert compare({"a": ["accept"]}, {"a": ["reject"]})


@pytest.mark.parametrize("config", [profiling.AmcrnConfig(), acceptance_preset(4)])
def test_every_analytic_row_has_a_measured_stage(config):
    rows = profiling.layer_costs(config, 2.98)
    assert all(stage_of(row.name) is not None for row in rows)
    assert {stage_of(row.name) for row in rows} == set(STAGES)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verify", "eval", "train"])
def test_smoke_run_passes_the_frozen_oracle(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "oracle reference=frozen" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "train", "--seed", "0", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
