"""The experiment scripts run end to end on tiny inputs, so a renamed public
function cannot break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args,header",
    [
        (
            "survey_random_determinants.py",
            ["--n", "3"],
            "3 random determinants, M=3, Ne=3, seeds 0..2",
        ),
        ("optimal_axis_tilt.py", [], "determinant: random GCHF (M=3, Ne=3, seed=7)"),
    ],
)
def test_script_runs(script, args, header):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "0"], "argument --n: must be at least 1, got 0"),
        (["--m", "0"], "argument --m: must be at least 1, got 0"),
        (["--ne", "0"], "argument --ne: must be at least 1, got 0"),
        (["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    ],
    ids=["n", "m", "ne", "seed"],
)
def test_survey_rejects_out_of_range_counts_as_a_usage_error(args, message):
    # Before, --n 0 got as far as indexing an empty table and crashed with a traceback.
    proc = _run_script("survey_random_determinants.py", args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(message)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--m", "0"], "argument --m: must be at least 1, got 0"),
        (["--ne", "0"], "argument --ne: must be at least 1, got 0"),
        (["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    ],
    ids=["m", "ne", "seed"],
)
def test_tilt_rejects_out_of_range_counts_as_a_usage_error(args, message):
    proc = _run_script("optimal_axis_tilt.py", args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(message)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script, args, error",
    [
        ("survey_random_determinants.py", ["--n", "2", "--m", "1", "--ne", "3"],
         "error: DimensionMismatch: 3 electrons do not fit in 2 spin-orbitals"),
        ("optimal_axis_tilt.py", ["--m", "1", "--ne", "3"],
         "error: DimensionMismatch: 3 electrons do not fit in 2 spin-orbitals"),
        ("optimal_axis_tilt.py", ["--input", str(ROOT / "no-such-determinant.json")], "error: ParseError: cannot read "),
    ],
    ids=["survey-too-many-electrons", "tilt-too-many-electrons", "tilt-missing-input"],
)
def test_scripts_report_a_spincol_error_as_the_cli_does(script, args, error):
    # Before, each ended in a traceback of the exception.
    proc = _run_script(script, args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(error)
