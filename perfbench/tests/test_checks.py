"""The checker accepts the program's real reports and flags corrupted ones."""

import contextlib
import copy
import io
import json

import checks
import inputs
import numpy as np
import pytest
from spincol.cli import run


def _report(tmp_path, kind, m=5, ne=4, case=None):
    if case is None:
        case = inputs.make_case(np.random.default_rng(3), "t", kind, m, ne)
    path = str(tmp_path / f"{kind}.json")
    inputs.write_json(case, path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["analyze", path, "--json", "--align-optimal"]) == 0
    return json.loads(buf.getvalue()), case.expect()


@pytest.mark.parametrize("kind", inputs.CLASSES)
def test_real_reports_pass(tmp_path, kind):
    report, expect = _report(tmp_path, kind)
    assert checks.check_analysis(report, expect).failures == []


def test_sign_flipped_col_is_flagged(tmp_path):
    report, expect = _report(tmp_path, "random")
    assert report["collinearity"]["col"] > 0.01
    bad = copy.deepcopy(report)
    bad["collinearity"]["col"] = -bad["collinearity"]["col"]
    verdict = checks.check_analysis(bad, expect)
    assert not verdict.ok
    assert any("col" in f for f in verdict.failures)


def test_dropped_decomposition_term_is_flagged(tmp_path):
    report, expect = _report(tmp_path, "random")
    bad = copy.deepcopy(report)
    assert bad["decomposition"]["spin_contamination"] > 0.01
    bad["decomposition"]["spin_contamination"] = 0.0
    verdict = checks.check_analysis(bad, expect)
    assert any("decomposition terms vs total" in f for f in verdict.failures)


def test_wrong_known_spin_is_flagged(tmp_path):
    report, expect = _report(tmp_path, "rohf", ne=5)
    expect = dict(expect, s_exact=1.5)
    verdict = checks.check_analysis(report, expect)
    assert any("s(s+1)" in f for f in verdict.failures)


def test_wrong_axis_of_a_tilted_collinear_case_is_flagged(tmp_path):
    rng = np.random.default_rng(5)
    case = inputs.tilt(inputs.make_case(rng, "t", "dods", 8, 6, excess=2), inputs.random_axis(rng))
    report, expect = _report(tmp_path, "dods", case=case)
    assert checks.check_analysis(report, expect).failures == []
    report["collinearity"]["optimal_axis"] = [0.0, 0.0, 1.0]
    verdict = checks.check_analysis(report, expect)
    assert any("optimal axis" in f for f in verdict.failures)


def test_negative_variance_is_counted_but_does_not_fail_the_op(tmp_path):
    report, expect = _report(tmp_path, "random")
    bad = copy.deepcopy(report)
    bad["collinearity"]["col"] = bad["collinearity"]["eigenvalues"][0] = -1e-12
    aligned = bad["aligned_decomposition"]
    # Move the aligned z term into spin contamination so the terms still sum to the total.
    aligned["spin_contamination"] += aligned["z_noncollinearity"] + 1e-12
    aligned["z_noncollinearity"] = -1e-12
    verdict = checks.check_analysis(bad, expect)
    assert verdict.ok
    assert ("col", -1e-12) in verdict.negative_variances


def test_oracle_output_checks():
    good = "<Sz>  formula +0.5  oracle +0.5  |dev| 1.0e-16\nmax deviation: 3.331e-16\n"
    assert checks.check_oracle_output(0, good).ok
    assert not checks.check_oracle_output(0, good.replace("3.331e-16", "2.000e-09")).ok
    assert not checks.check_oracle_output(1, good).ok
    assert not checks.check_oracle_output(0, "nothing printed\n").ok
