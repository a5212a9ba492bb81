"""The experiment scripts run end to end on tiny inputs, so a renamed public
function cannot break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
