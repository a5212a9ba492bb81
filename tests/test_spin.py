"""Spin expectation values and the <S^2> decomposition.

Expected values for the random-determinant fixtures were computed once with
the Fock-space brute force (tests also re-derive them live); the frozen
numbers guard against the formulas and the oracle drifting together.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spincol import (
    NonHermitianResult,
    SpinorDeterminant,
    a_matrix,
    analyze_collinearity,
    build_overlap_blocks,
    decompose_s2,
    electron_counts,
    expect_s2,
    expect_sminus_splus,
    expect_splus,
    expect_splus_sminus,
    expect_sz,
    expect_sz2,
    gen_random_gchf,
    gen_rhf,
    oracle_expectation,
    spin_vector,
)

# Computed via oracle_expectation on gen_random_gchf(m, ne, seed).  <Sx>,
# <Sy> and the nine Re<SmSn> come from the earlier oracle, which re-expanded
# the determinant and applied an operator chain for each observable; they pin
# the single-expansion oracle to its values.
FROZEN_ORACLE = {
    (3, 3, 7): {
        "Sz": -0.144189952792380,
        "Sz2": +0.263667736562288,
        "S-S+": +0.809897780872703,
        "S+S-": +0.521517875287944,
        "S+": complex(+0.139222636002569, -0.004443246948167),
        "S2": +0.929375564642611,
        "Sx": +0.139222636002569,
        "Sy": -0.004443246948167,
        "SxSx": +0.329873935687201,
        "SxSy": +0.025103593477799,
        "SxSz": +0.015786066043483,
        "SySx": +0.025103593477799,
        "SySy": +0.335833892393122,
        "SySz": -0.014051802623131,
        "SzSx": +0.015786066043483,
        "SzSy": -0.014051802623131,
        "SzSz": +0.263667736562288,
    },
    (4, 3, 11): {
        "Sz": +0.178415308667589,
        "Sz2": +0.579947156792026,
        "S-S+": +0.731895321104165,
        "S+S-": +1.088725938439343,
        "S+": complex(-0.051790819172752, +0.255505588679886),
        "S2": +1.490257786563781,
        "Sx": -0.051790819172752,
        "Sy": +0.255505588679886,
        "SxSx": +0.464533535858625,
        "SxSy": +0.105360614211765,
        "SxSz": +0.042288925821780,
        "SySx": +0.105360614211765,
        "SySy": +0.445777093913130,
        "SySz": -0.034315115157539,
        "SzSx": +0.042288925821780,
        "SzSy": -0.034315115157539,
        "SzSz": +0.579947156792026,
    },
}


def _all_expectations(blocks):
    return {
        "Sz": expect_sz(blocks),
        "Sz2": expect_sz2(blocks),
        "S-S+": expect_sminus_splus(blocks),
        "S+S-": expect_splus_sminus(blocks),
        "S+": expect_splus(blocks),
        "S2": expect_s2(blocks),
    }


def test_pure_alpha_one_electron():
    blocks = build_overlap_blocks(helpers.pure_alpha_one_electron())
    values = _all_expectations(blocks)
    assert values["Sz"] == pytest.approx(0.5)
    assert values["Sz2"] == pytest.approx(0.25)
    assert values["S-S+"] == pytest.approx(0.0, abs=1e-15)
    assert values["S+S-"] == pytest.approx(1.0)
    assert values["S+"] == pytest.approx(0.0, abs=1e-15)
    assert values["S2"] == pytest.approx(0.75)


def test_pure_beta_one_electron():
    blocks = build_overlap_blocks(helpers.pure_beta_one_electron())
    assert expect_sminus_splus(blocks) == pytest.approx(1.0)
    assert expect_splus_sminus(blocks) == pytest.approx(0.0, abs=1e-15)
    assert expect_sz(blocks) == pytest.approx(-0.5)


def test_x_polarized_one_electron():
    blocks = build_overlap_blocks(helpers.x_polarized_one_electron())
    values = _all_expectations(blocks)
    assert values["Sz"] == pytest.approx(0.0, abs=1e-15)
    assert values["Sz2"] == pytest.approx(0.25)
    assert values["S-S+"] == pytest.approx(0.5)
    assert values["S+S-"] == pytest.approx(0.5)
    assert values["S+"] == pytest.approx(0.5)
    assert values["S2"] == pytest.approx(0.75)


def test_x_polarized_decomposition():
    blocks = build_overlap_blocks(helpers.x_polarized_one_electron())
    d = decompose_s2(blocks)
    assert d.rohf_term == pytest.approx(0.0, abs=1e-12)
    assert d.z_noncollinearity == pytest.approx(0.25, abs=1e-12)
    assert d.spin_contamination == pytest.approx(0.25, abs=1e-12)
    assert d.xy_perpendicularity == pytest.approx(0.25, abs=1e-12)
    assert d.total == pytest.approx(0.75, abs=1e-12)


def test_s2_closed_shell_singlet():
    det = gen_rhf(np.array([[1.0], [0.0]]))
    assert expect_s2(build_overlap_blocks(det)) == pytest.approx(0.0, abs=1e-12)


def test_s2_two_alpha_triplet():
    det = SpinorDeterminant(2, 2, np.eye(2), np.zeros((2, 2)))
    assert expect_s2(build_overlap_blocks(det)) == pytest.approx(2.0)


def _frozen_closed_forms(blocks):
    """Closed forms of every frozen key: Re<SmSn> is A + s s^T."""
    values = _all_expectations(blocks)
    s = spin_vector(blocks).as_array()
    a = a_matrix(blocks)
    values["Sx"], values["Sy"] = s[0], s[1]
    for i, mu in enumerate("xyz"):
        for j, nu in enumerate("xyz"):
            values[f"S{mu}S{nu}"] = a[i, j] + s[i] * s[j]
    return values


@pytest.mark.parametrize("key", sorted(FROZEN_ORACLE))
def test_frozen_fixture_values(key):
    m, ne, seed = key
    det = gen_random_gchf(m, ne, seed)
    values = _frozen_closed_forms(build_overlap_blocks(det))
    exact = oracle_expectation(det)
    for which, frozen in FROZEN_ORACLE[key].items():
        assert values[which] == pytest.approx(frozen, abs=1e-10), which
        live = exact[which] if which == "S+" else exact[which].real
        assert live == pytest.approx(frozen, abs=1e-10), f"oracle drift for {which}"


@pytest.mark.parametrize("m,ne,seed", [(2, 2, 0), (3, 3, 1), (4, 3, 2), (4, 4, 3), (2, 1, 4)])
def test_expectations_match_oracle(m, ne, seed):
    det = gen_random_gchf(m, ne, seed)
    values = _all_expectations(build_overlap_blocks(det))
    exact = oracle_expectation(det)
    for which, value in values.items():
        oracle = exact[which] if which == "S+" else exact[which].real
        assert value == pytest.approx(oracle, abs=1e-10), which


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    ne=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_decomposition_identity(m, ne, seed):
    ne = min(ne, 2 * m)
    blocks = build_overlap_blocks(gen_random_gchf(m, ne, seed))
    d = decompose_s2(blocks)
    assert d.total == pytest.approx(sum(d.terms()), abs=1e-12)
    assert d.total == pytest.approx(expect_s2(blocks), abs=1e-12)
    assert d.xy_perpendicularity >= -1e-12
    assert d.total >= -1e-10


def test_sz2_exceeds_sz_squared():
    # The variance of Sz cannot be negative.
    for seed in range(10):
        blocks = build_overlap_blocks(gen_random_gchf(3, 2, seed))
        assert expect_sz2(blocks) >= expect_sz(blocks) ** 2 - 1e-12


def test_dods_reduction_and_amos_hall():
    for seed in range(12):
        n_alpha, n_beta = 3, 2
        det = helpers.random_dods(4, n_alpha, n_beta, seed)
        d = decompose_s2(build_overlap_blocks(det))
        assert abs(d.z_noncollinearity) < 1e-12
        assert abs(d.xy_perpendicularity) < 1e-12
        # Amos-Hall from the orthonormalized orbital sets the generator embeds.
        psi_a = det.coeff_alpha[:, :n_alpha]
        psi_b = det.coeff_beta[:, n_alpha:]
        cross = psi_a.conj().T @ psi_b
        amos_hall = min(n_alpha, n_beta) - float(np.vdot(cross, cross).real)
        assert d.spin_contamination == pytest.approx(amos_hall, abs=1e-12)


def test_rohf_reduction():
    for seed in range(12):
        det = helpers.random_rohf(4, 1, 2, seed)
        d = decompose_s2(build_overlap_blocks(det))
        assert d.total == pytest.approx(d.s_effective * (d.s_effective + 1.0), abs=1e-12)
        assert abs(d.z_noncollinearity) < 1e-12
        assert abs(d.spin_contamination) < 1e-12
        assert abs(d.xy_perpendicularity) < 1e-12
        assert d.s_effective == pytest.approx(1.0, abs=1e-12)


def test_rhf_gives_zero():
    for seed in range(6):
        det = helpers.random_rhf(4, 2, seed)
        assert expect_s2(build_overlap_blocks(det)) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    column=st.integers(min_value=0, max_value=2),
    angle=st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
)
def test_global_phase_invariance(seed, column, angle):
    det = gen_random_gchf(3, 3, seed)
    phase = np.exp(1j * angle)
    ca = det.coeff_alpha.copy()
    cb = det.coeff_beta.copy()
    ca[:, column] *= phase
    cb[:, column] *= phase
    rephased = SpinorDeterminant(3, 3, ca, cb)
    base = _all_expectations(build_overlap_blocks(det))
    shifted = _all_expectations(build_overlap_blocks(rephased))
    for which in base:
        assert abs(base[which] - shifted[which]) < 1e-12, which


def test_decomposition_invariant_under_spin_swap():
    for seed in range(6):
        det = gen_random_gchf(3, 3, seed)
        swapped = SpinorDeterminant(3, 3, det.coeff_beta, det.coeff_alpha)
        d1, d2 = decompose_s2(build_overlap_blocks(det)), decompose_s2(build_overlap_blocks(swapped))
        assert d1.rohf_term == pytest.approx(d2.rohf_term, abs=1e-12)
        assert d1.z_noncollinearity == pytest.approx(d2.z_noncollinearity, abs=1e-12)
        assert d1.spin_contamination == pytest.approx(d2.spin_contamination, abs=1e-12)
        assert d1.xy_perpendicularity == pytest.approx(d2.xy_perpendicularity, abs=1e-12)


def _reported_numbers(det):
    """N_alpha, N_beta, <S>, A, col, the four terms of <S^2> and their total."""
    blocks = build_overlap_blocks(det)
    d = decompose_s2(blocks)
    return np.array(
        [
            *electron_counts(blocks),
            *spin_vector(blocks).as_array(),
            *a_matrix(blocks).ravel(),
            analyze_collinearity(blocks).col,
            *d.terms(),
            d.total,
        ]
    )


def _invariance_case(seed, m, fill, with_metric):
    """A random GCHF determinant over M spatial functions, holding a share ``fill`` of 2M electrons (at least one).

    It is over a random metric if asked; the generator is returned for the transformation's draws.
    """
    det = gen_random_gchf(m, max(1, round(fill * 2 * m)), seed)
    rng = np.random.default_rng(seed)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, m))
    return det, rng


def _assert_same_numbers(det, transformed):
    # c = 16 was fixed before the run; a failure is a defect, not a reason to widen it.
    ne = det.n_electrons
    deviation = np.max(np.abs(_reported_numbers(transformed) - _reported_numbers(det)))
    assert deviation <= 16 * ne * helpers.EPS * max(1, ne)


_INVARIANCE_CASES = given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=40),
    fill=st.floats(min_value=0.0, max_value=1.0),
    with_metric=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@_INVARIANCE_CASES
def test_every_number_is_invariant_under_orbital_mixing(seed, m, fill, with_metric):
    # C -> C U with U a Haar unitary: the same state, so the same numbers.
    det, rng = _invariance_case(seed, m, fill, with_metric)
    u = helpers.haar_unitary(rng, det.n_electrons)
    mixed = SpinorDeterminant(m, det.n_electrons, det.coeff_alpha @ u, det.coeff_beta @ u, det.ao_overlap)
    _assert_same_numbers(det, mixed)


@settings(max_examples=40, deadline=None)
@_INVARIANCE_CASES
def test_every_number_is_invariant_under_a_change_of_spatial_basis(seed, m, fill, with_metric):
    # (C, S) -> (V^-1 C, V^H S V) with V = Q diag(d), Q a Haar unitary and d in [0.5, 2].
    det, rng = _invariance_case(seed, m, fill, with_metric)
    q, d = helpers.haar_unitary(rng, m), rng.uniform(0.5, 2.0, m)
    v, v_inv = q * d, q.conj().T / d[:, None]
    s = np.eye(m) if det.ao_overlap is None else det.ao_overlap
    s_new = v.conj().T @ s @ v
    s_new = 0.5 * (s_new + s_new.conj().T)
    changed = SpinorDeterminant(m, det.n_electrons, v_inv @ det.coeff_alpha, v_inv @ det.coeff_beta, s_new)
    _assert_same_numbers(det, changed)


def _imaginary_diagonal(block, epsilon):
    """gen_random_gchf(3, 4, seed=6)'s blocks, unvalidated, with epsilon·i added to the diagonal of ``block``.

    Its Hermiticity residual is 2·epsilon and its trace's imaginary part 4·epsilon.
    """
    good = build_overlap_blocks(gen_random_gchf(3, 4, seed=6))
    arrays = {name: getattr(good, name) for name in ("o_aa", "o_ab", "o_bb")}
    arrays[block] = arrays[block] + epsilon * 1j * np.eye(4)
    return helpers.stack_blocks(**arrays)


def test_imaginary_residue_raises():
    # Within the Hermiticity gate (8e-13), beyond the occupation's (1.6e-12).
    for block, name in (("o_aa", "N_alpha"), ("o_bb", "N_beta")):
        corrupt = _imaginary_diagonal(block, 4e-13)
        with pytest.raises(NonHermitianResult, match=f"^imaginary part of {name} 1.600e-12 is not within 1e-12$"):
            corrupt.validate()


def test_validate_gates_the_imaginary_trace_at_1e_12():
    good = build_overlap_blocks(gen_random_gchf(3, 4, seed=6))
    below = _imaginary_diagonal("o_aa", 0.24e-12)
    below.validate()
    # No reader gates again; each takes the real parts of N_alpha and N_beta, which the corruption left as they were.
    assert electron_counts(below) == electron_counts(good)
    assert decompose_s2(below).s_effective == decompose_s2(good).s_effective
    with pytest.raises(NonHermitianResult, match="N_alpha 1.040e-12"):
        _imaginary_diagonal("o_aa", 0.26e-12).validate()
