"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances are pinned here, not configurable.
"""

import itertools
import json
import time

import numpy as np
import pytest

import helpers
from spincol import (
    SpinRotation,
    a_matrix,
    align_to_axis,
    analyze_collinearity,
    build_overlap_blocks,
    decompose_s2,
    expect_s2,
    expect_sminus_splus,
    expect_splus,
    expect_splus_sminus,
    expect_sz,
    expect_sz2,
    gen_random_gchf,
    min_collinearity,
    oracle_expectation,
    spin_vector,
    su2_rotate,
)
from spincol.cli import run
from spincol.reference import (
    H2OPLUS_A_MATRIX,
    H2OPLUS_COL,
    H2OPLUS_N_ALPHA,
    H2OPLUS_N_BETA,
    H2OPLUS_OPTIMAL_AXIS,
    H2OPLUS_ROHF_TERM,
    H2OPLUS_S2_TOTAL,
    H2OPLUS_SPIN_CONTAMINATION,
    H2OPLUS_XY_PERPENDICULARITY,
    H2OPLUS_Z_NONCOLLINEARITY,
    rohf_term_from_counts,
)

# Half a unit in the sixth decimal: the print precision of the published data.
SIX_DECIMAL_HALF_UNIT = 5e-7


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _random_sweep_dets():
    """200 seeded random determinants, M in {2,3,4}, Ne in 1..min(4, 2M)."""
    combos = [(m, ne) for m in (2, 3, 4) for ne in range(1, min(4, 2 * m) + 1)]
    dets = []
    seed = 0
    while len(dets) < 200:
        m, ne = combos[len(dets) % len(combos)]
        dets.append(gen_random_gchf(m, ne, seed))
        seed += 1
    return dets


def test_criterion_1_reference_eigenproblem():
    result = min_collinearity(H2OPLUS_A_MATRIX)
    col_dev = abs(result.col - H2OPLUS_COL)
    axis_dev = min(
        np.max(np.abs(result.optimal_axis - H2OPLUS_OPTIMAL_AXIS)),
        np.max(np.abs(result.optimal_axis + H2OPLUS_OPTIMAL_AXIS)),
    )
    n_timed = 100
    start = time.perf_counter()
    for _ in range(n_timed):
        min_collinearity(H2OPLUS_A_MATRIX)
    per_call = (time.perf_counter() - start) / n_timed
    ok = col_dev <= 5e-6 and axis_dev <= 1e-3 and per_call < 1e-3
    _report(
        "1",
        ok,
        f"col dev {col_dev:.2e} (tol 5e-6), axis dev {axis_dev:.2e} (tol 1e-3), "
        f"runtime {per_call * 1e6:.0f} us/call (limit 1 ms)",
    )
    assert col_dev <= 5e-6
    assert axis_dev <= 1e-3
    assert per_call < 1e-3


def test_criterion_2a_component_sum():
    component_sum = (
        H2OPLUS_ROHF_TERM
        + H2OPLUS_Z_NONCOLLINEARITY
        + H2OPLUS_SPIN_CONTAMINATION
        + H2OPLUS_XY_PERPENDICULARITY
    )
    dev = abs(component_sum - H2OPLUS_S2_TOTAL)
    _report("2a", dev <= 2e-6, f"component sum {component_sum:.6f} vs {H2OPLUS_S2_TOTAL}, "
            f"dev {dev:.2e} (tol 2e-6)")
    assert dev <= 2e-6


def test_criterion_2b_rohf_term_recompute():
    """The published ROHF term is s(s+1) of the published occupations, to print rounding.

    Every value is printed to six decimals, so each occupation may be off by
    up to h = 5e-7 and Na - Nb by up to 2h.  With d[s(s+1)]/d(Na - Nb) =
    s + 1/2 ~ 1 the recomputed term may be off by ~1e-6 and the printed target
    by another h: a correct formula on correctly rounded data can land up to
    1.4995e-6 away (here it lands 1.206e-6 away).  The exact consistency
    condition is that some unrounded occupations that round to the printed
    ones give an s(s+1) that rounds to the printed term.  s(s+1) is monotone
    in Na - Nb >= 0, so the reachable values are [lo, hi], evaluated through
    ``rohf_term_from_counts`` at the extreme differences, and that interval
    must meet [term - h, term + h].  A wrong main term (s^2 gives 0.2495,
    dropping the 1/2 gives 1.997) misses it by far.
    """
    h = SIX_DECIMAL_HALF_UNIT
    lo = rohf_term_from_counts(H2OPLUS_N_ALPHA - h, H2OPLUS_N_BETA + h)
    hi = rohf_term_from_counts(H2OPLUS_N_ALPHA + h, H2OPLUS_N_BETA - h)
    target_lo = H2OPLUS_ROHF_TERM - h
    target_hi = H2OPLUS_ROHF_TERM + h
    ok = lo <= target_hi and target_lo <= hi
    _report(
        "2b",
        ok,
        f"s(s+1) reachable from the rounded occupations [{lo:.10f}, {hi:.10f}] "
        f"vs published {H2OPLUS_ROHF_TERM} +- h = [{target_lo:.10f}, {target_hi:.10f}] "
        f"(h {h:.0e}, half a unit in the sixth decimal)",
    )
    assert lo <= target_hi
    assert target_lo <= hi


def _reachable(form, values):
    """[min, max] of ``form`` over inputs within h of ``values``.

    Each form below is monotone in each input on that box (N_alpha - N_beta
    stays near 1), so its extremes are at the box's corners.
    """
    h = SIX_DECIMAL_HALF_UNIT
    corners = [form(*(v + d for v, d in zip(values, signs))) for signs in itertools.product((-h, h), repeat=len(values))]
    return min(corners), max(corners)


_A = H2OPLUS_A_MATRIX
RECORD_FORMS = {
    "z = A_zz": (H2OPLUS_Z_NONCOLLINEARITY, lambda a_zz: a_zz, (_A[2, 2],)),
    "contamination = A_xx + A_yy - |Na - Nb|/2": (
        H2OPLUS_SPIN_CONTAMINATION,
        lambda a_xx, a_yy, n_a, n_b: a_xx + a_yy - abs(n_a - n_b) / 2.0,
        (_A[0, 0], _A[1, 1], H2OPLUS_N_ALPHA, H2OPLUS_N_BETA),
    ),
    "<S^2> = tr A + s_z^2 + perpendicularity": (
        H2OPLUS_S2_TOTAL,
        lambda a_xx, a_yy, a_zz, n_a, n_b, perp: a_xx + a_yy + a_zz + ((n_a - n_b) / 2.0) ** 2 + perp,
        (_A[0, 0], _A[1, 1], _A[2, 2], H2OPLUS_N_ALPHA, H2OPLUS_N_BETA, H2OPLUS_XY_PERPENDICULARITY),
    ),
}


@pytest.mark.parametrize("name", list(RECORD_FORMS))
def test_criterion_2c_published_values_obey_the_record_forms(name):
    """The published terms are the record forms of the published A and occupations, to print rounding.

    As in criterion 2b, each printed input may be off by h = 5e-7: the values
    the form reaches from inputs within h of the printed ones must meet
    [published - h, published + h].  The bound is the data's print precision
    and is fixed.
    """
    published, form, values = RECORD_FORMS[name]
    h = SIX_DECIMAL_HALF_UNIT
    lo, hi = _reachable(form, values)
    ok = lo <= published + h and published - h <= hi
    _report("2c", ok, f"{name}: reachable [{lo:.10f}, {hi:.10f}] vs published {published} +- h (h {h:.0e})")
    assert lo <= published + h
    assert published - h <= hi


def test_criterion_3_oracle_equivalence_sweep():
    start = time.perf_counter()
    max_dev = 0.0
    dets = _random_sweep_dets()
    for det in dets:
        blocks = build_overlap_blocks(det)
        scalars = {
            "Sz": expect_sz(blocks),
            "Sz2": expect_sz2(blocks),
            "S-S+": expect_sminus_splus(blocks),
            "S+S-": expect_splus_sminus(blocks),
            "S+": expect_splus(blocks),
            "S2": expect_s2(blocks),
        }
        exact = oracle_expectation(det)
        for which, value in scalars.items():
            max_dev = max(max_dev, abs(value - exact[which]))
        a = a_matrix(blocks)
        s = spin_vector(blocks).as_array()
        for i, mu in enumerate("xyz"):
            for j, nu in enumerate("xyz"):
                oracle = exact[f"S{mu}S{nu}"].real
                max_dev = max(max_dev, abs(a[i, j] + s[i] * s[j] - oracle))
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-10 and elapsed < 60.0
    _report(
        "3",
        ok,
        f"{len(dets)} determinants, max |formula - oracle| {max_dev:.2e} (tol 1e-10), "
        f"sweep {elapsed:.1f} s (limit 60 s)",
    )
    assert max_dev <= 1e-10
    assert elapsed < 60.0


def test_criterion_4_class_reductions():
    worst_dods = worst_amos = 0.0
    for seed in range(50):
        na, nb = 3, 2
        det = helpers.random_dods(4, na, nb, seed)
        d = decompose_s2(build_overlap_blocks(det))
        worst_dods = max(worst_dods, abs(d.z_noncollinearity), abs(d.xy_perpendicularity))
        psi_a = det.coeff_alpha[:, :na]
        psi_b = det.coeff_beta[:, na:]
        cross = psi_a.conj().T @ psi_b
        amos_hall = min(na, nb) - float(np.vdot(cross, cross).real)
        worst_amos = max(worst_amos, abs(d.spin_contamination - amos_hall))

    worst_rohf = 0.0
    for seed in range(50):
        det = helpers.random_rohf(4, 1, 1, seed)
        d = decompose_s2(build_overlap_blocks(det))
        worst_rohf = max(worst_rohf, abs(d.total - d.s_effective * (d.s_effective + 1.0)))

    worst_rhf = 0.0
    for seed in range(10):
        det = helpers.random_rhf(4, 2, seed)
        worst_rhf = max(worst_rhf, abs(expect_s2(build_overlap_blocks(det))))

    ok = worst_dods < 1e-12 and worst_amos < 1e-12 and worst_rohf < 1e-12 and worst_rhf < 1e-12
    _report(
        "4",
        ok,
        f"DODS noncol/perp {worst_dods:.2e}, Amos-Hall dev {worst_amos:.2e}, "
        f"ROHF dev {worst_rohf:.2e}, RHF dev {worst_rhf:.2e} (all tol 1e-12)",
    )
    assert worst_dods < 1e-12
    assert worst_amos < 1e-12
    assert worst_rohf < 1e-12
    assert worst_rhf < 1e-12


def _covariance_pairs():
    rng = np.random.default_rng(77)
    for k in range(100):
        m = int(rng.integers(2, 5))
        ne = int(rng.integers(1, min(4, 2 * m) + 1))
        det = gen_random_gchf(m, ne, 10_000 + k)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        yield det, SpinRotation(axis, float(rng.uniform(0.0, 2.0 * np.pi)))


def test_criterion_5_rotation_covariance():
    worst = {"s2": 0.0, "vector": 0.0, "matrix": 0.0, "col": 0.0}
    for det, rot in _covariance_pairs():
        rotated = su2_rotate(det, rot)
        r = rot.so3()
        b1, b2 = build_overlap_blocks(det), build_overlap_blocks(rotated)
        worst["s2"] = max(worst["s2"], abs(expect_s2(b1) - expect_s2(b2)))
        worst["vector"] = max(
            worst["vector"],
            float(np.max(np.abs(r @ spin_vector(b1).as_array() - spin_vector(b2).as_array()))),
        )
        worst["matrix"] = max(
            worst["matrix"], float(np.max(np.abs(r @ a_matrix(b1) @ r.T - a_matrix(b2))))
        )
        worst["col"] = max(
            worst["col"], abs(analyze_collinearity(b1).col - analyze_collinearity(b2).col)
        )
    ok = all(v <= 1e-10 for v in worst.values())
    _report(
        "5",
        ok,
        "100 pairs, worst devs "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (tol 1e-10)",
    )
    for key, value in worst.items():
        assert value <= 1e-10, key


def test_criterion_6_trace_identity_everywhere():
    dets = _random_sweep_dets()
    for seed in range(50):
        dets.append(helpers.random_dods(4, 3, 2, seed))
        dets.append(helpers.random_rohf(4, 1, 1, seed))
    for seed in range(10):
        dets.append(helpers.random_rhf(4, 2, seed))
    for det, rot in _covariance_pairs():
        dets.append(su2_rotate(det, rot))
    worst = 0.0
    for det in dets:
        blocks = build_overlap_blocks(det)
        gap = abs(
            float(np.trace(a_matrix(blocks)))
            + spin_vector(blocks).norm_sq()
            - expect_s2(blocks)
        )
        worst = max(worst, gap)
    ok = worst <= 1e-10
    _report("6", ok, f"{len(dets)} determinants, worst |tr A + |<S>|^2 - <S^2>| {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_7_alignment_closure():
    worst = 0.0
    for seed in range(50):
        m = 2 + seed % 3
        ne = 1 + seed % min(4, 2 * m)
        det = gen_random_gchf(m, ne, 20_000 + seed)
        result = analyze_collinearity(build_overlap_blocks(det))
        aligned = align_to_axis(det, result.optimal_axis)
        post = decompose_s2(build_overlap_blocks(aligned))
        worst = max(worst, abs(post.z_noncollinearity - result.col))
    ok = worst <= 1e-10
    _report("7", ok, f"50 determinants, worst |post z-noncol - col| {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_8_cli_contract(tmp_path, capsys):
    fixture_rc = run(["paper-fixture"])
    capsys.readouterr()

    gen_path = str(tmp_path / "gen.json")
    gen_rc = run(["gen", "--kind", "random", "--m", "4", "--ne", "3", "--seed", "9",
                  "--out", gen_path])
    capsys.readouterr()
    oracle_rc = run(["oracle-check", gen_path])
    oracle_out = capsys.readouterr().out
    max_dev = float(oracle_out.strip().splitlines()[-1].split()[-1])

    bad_path = tmp_path / "broken.json"
    bad_path.write_text("{not json", encoding="utf-8")
    bad_rc = run(["analyze", str(bad_path)])
    bad_err = capsys.readouterr().err

    shape_doc = {
        "basis_dim": 1,
        "n_electrons": 3,
        "coeff_alpha": [[[1, 0], [0, 0], [0, 0]]],
        "coeff_beta": [[[0, 0], [1, 0], [0, 0]]],
    }
    shape_path = tmp_path / "shape.json"
    shape_path.write_text(json.dumps(shape_doc), encoding="utf-8")
    shape_rc = run(["analyze", str(shape_path)])
    shape_err = capsys.readouterr().err

    ok = (
        fixture_rc == 0
        and gen_rc == 0
        and oracle_rc == 0
        and max_dev < 1e-10
        and bad_rc == 1
        and "ParseError" in bad_err
        and shape_rc == 1
        and "ShapeError" in shape_err
    )
    _report(
        "8",
        ok,
        f"paper-fixture rc {fixture_rc}, oracle-check rc {oracle_rc} with max dev {max_dev:.2e}, "
        f"malformed-input rcs {bad_rc}/{shape_rc} with ParseError/ShapeError diagnostics",
    )
    assert fixture_rc == 0
    assert gen_rc == 0
    assert oracle_rc == 0
    assert max_dev < 1e-10
    assert bad_rc == 1 and "ParseError" in bad_err
    assert shape_rc == 1 and "ShapeError" in shape_err
