"""BENCHMARK.json is well formed and run.py prints exactly the metrics it names."""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(bench, trace, section):
    proc = _run("survey-small", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in bench[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in result["metrics"].values())
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)} +n=", proc.stdout, re.M)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("survey-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_op_p90_is_the_mean_of_each_inputs_p90():
    import run

    # Pool of 2, op j ran input j % 2: input 0 took 1..10, input 1 always 5.
    totals = [t for k in range(1, 11) for t in (float(k), 5.0)]
    assert run.per_input_p90(totals, 2) == pytest.approx((9.1 + 5.0) / 2)
    assert run.per_input_p90([3.0, 4.0], 2) == pytest.approx(3.5)
