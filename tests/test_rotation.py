"""Spin-frame rotations, axis alignment, and the determinant generators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import spincol.determinant
from spincol import (
    DimensionMismatch,
    LinearlyDependent,
    NotUnitVector,
    SpincolError,
    SpinorDeterminant,
    SpinRotation,
    align_to_axis,
    analyze_collinearity,
    a_matrix,
    build_overlap_blocks,
    col_along,
    decompose_s2,
    electron_counts,
    expect_s2,
    gen_dods,
    gen_random_gchf,
    gen_rhf,
    gen_rohf,
    oracle_expectation,
    orthonormalize,
    spin_vector,
    su2_rotate,
)

Z = np.array([0.0, 0.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    angle=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_su2_matrix_is_special_unitary(seed, angle):
    rng = np.random.default_rng(seed)
    rot = SpinRotation(helpers.random_unit_vector(rng), angle)
    u = rot.su2()
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
    r = rot.so3()
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_zero_angle_is_identity():
    det = gen_random_gchf(3, 2, seed=0)
    same = su2_rotate(det, SpinRotation(Z, 0.0))
    assert np.max(np.abs(same.coeff_alpha - det.coeff_alpha)) == 0.0
    assert np.max(np.abs(same.coeff_beta - det.coeff_beta)) == 0.0


def test_quarter_turn_about_y_makes_x_polarized():
    det = su2_rotate(
        helpers.pure_alpha_one_electron(),
        SpinRotation(np.array([0.0, 1.0, 0.0]), np.pi / 2),
    )
    r = 1.0 / np.sqrt(2.0)
    assert det.coeff_alpha[0, 0] == pytest.approx(r, abs=1e-15)
    assert det.coeff_beta[0, 0] == pytest.approx(r, abs=1e-15)


def test_rotation_preserves_orthonormality():
    rng = np.random.default_rng(1)
    det = helpers.random_metric_determinant(3, 3, seed=2)
    rot = SpinRotation(helpers.random_unit_vector(rng), 1.234)
    assert su2_rotate(det, rot).orthonormality_residual() < 1e-12


def test_rotation_axis_must_be_unit():
    with pytest.raises(NotUnitVector):
        SpinRotation(np.array([1.0, 1.0, 0.0]), 0.5)


def test_rotation_axis_rejects_nan():
    with pytest.raises(NotUnitVector):
        SpinRotation(np.array([np.nan, 0.0, 0.0]), 0.5)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rotation_angle_must_be_finite(angle):
    # cos and sin of a non-finite angle warn and give NaN; the rotation refuses it up front.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpincolError, match=r"rotation angle -?(nan|inf) is not finite"):
            SpinRotation(Z, angle)


@pytest.mark.parametrize("seed", range(8))
def test_rotation_covariance(seed):
    rng = np.random.default_rng(1000 + seed)
    det = gen_random_gchf(3, 3, seed)
    rot = SpinRotation(helpers.random_unit_vector(rng), float(rng.uniform(0, 2 * np.pi)))
    rotated = su2_rotate(det, rot)
    r = rot.so3()
    b1, b2 = build_overlap_blocks(det), build_overlap_blocks(rotated)
    assert expect_s2(b2) == pytest.approx(expect_s2(b1), abs=1e-10)
    assert np.max(np.abs(spin_vector(b2).as_array() - r @ spin_vector(b1).as_array())) < 1e-10
    assert np.max(np.abs(a_matrix(b2) - r @ a_matrix(b1) @ r.T)) < 1e-10
    c1, c2 = analyze_collinearity(b1), analyze_collinearity(b2)
    assert c2.col == pytest.approx(c1.col, abs=1e-10)
    if c1.eigenvalues[1] - c1.eigenvalues[0] > 1e-6:
        mapped = r @ c1.optimal_axis
        dev = min(
            np.max(np.abs(mapped - c2.optimal_axis)), np.max(np.abs(mapped + c2.optimal_axis))
        )
        assert dev < 1e-8


def test_spin_vector_rotates_like_oracle():
    det = gen_random_gchf(2, 2, seed=11)
    rot = SpinRotation(np.array([0.0, 1.0, 0.0]), 0.7)
    rotated = su2_rotate(det, rot)
    exact = oracle_expectation(rotated)
    for k, mu in enumerate("xyz"):
        formula = spin_vector(build_overlap_blocks(rotated)).as_array()[k]
        assert formula == pytest.approx(exact[f"S{mu}"].real, abs=1e-10)


CLASSES = {
    "rhf": lambda seed: helpers.random_rhf(4, 2, seed),
    "rohf": lambda seed: helpers.random_rohf(4, 1, 2, seed),
    "dods": lambda seed: helpers.random_dods(4, 3, 1, seed),
    "random": lambda seed: gen_random_gchf(4, 4, seed),
}
EPS = np.finfo(float).eps


TILT = 1e-7
DIRECTIONS = {
    "random": None,
    "near +z": (np.sin(TILT), 0.0, np.cos(TILT)),
    "near -z": (0.0, np.sin(TILT), -np.cos(TILT)),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
    "x": (1.0, 0.0, 0.0),
    "xy-plane": (0.6, -0.8, 0.0),
}


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("with_metric", [False, True])
@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("seed", range(3))
def test_seeded_rotated_blocks_match_direct(kind, with_metric, direction, seed):
    # su2_rotate seeds the rotated record and gate values from the parent's; the arrays
    # match those of a determinant built on the same coefficients and a copy of the metric.
    rng = np.random.default_rng(700 + seed)
    det = CLASSES[kind](seed)
    norm = 1.0
    if with_metric:
        metric = helpers.random_pd_metric(rng, det.basis_dim)
        det = helpers.over_metric(det, metric)
        norm = np.linalg.norm(metric, 2)
    u = DIRECTIONS[direction]
    u = helpers.random_unit_vector(rng) if u is None else np.array(u)
    rotated = align_to_axis(det, u)
    direct = SpinorDeterminant(
        det.basis_dim,
        det.n_electrons,
        rotated.coeff_alpha,
        rotated.coeff_beta,
        None if det.ao_overlap is None else np.array(det.ao_overlap),
    )
    seeded, computed = build_overlap_blocks(rotated), build_overlap_blocks(direct)
    helpers.check_seeded_against_arrays(seeded)
    bound = 16 * det.n_electrons * EPS * max(1.0, norm)
    for name in ("o_aa", "o_ab", "o_bb"):
        assert np.max(np.abs(getattr(seeded, name) - getattr(computed, name))) <= bound


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ne=st.sampled_from([1, 2, 7, 40, 200]),
    with_metric=st.booleans(),
)
def test_seeded_scalars_match_after_three_chained_alignments(seed, ne, with_metric):
    rng = np.random.default_rng(seed)
    m = max(ne // 2 + 1, 2) if ne < 200 else 100
    det = gen_random_gchf(m, ne, seed)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, m))
    chain = [det]
    for _ in range(3):
        chain.append(align_to_axis(chain[-1], helpers.random_unit_vector(rng)))
    # Each builds its arrays from its own coefficients, in any order.
    for rotated in reversed(chain[1:]):
        helpers.check_seeded_against_arrays(rotated._blocks)
    assert build_overlap_blocks(chain[-1]) is chain[-1]._blocks


def _class_determinant(kind, with_metric, rng, seed):
    """A determinant of class ``kind``, over a random metric if asked, and the metric's 2-norm (1 without)."""
    det = CLASSES[kind](seed)
    if not with_metric:
        return det, 1.0
    metric = helpers.random_pd_metric(rng, det.basis_dim)
    return helpers.over_metric(det, metric), np.linalg.norm(metric, 2)


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("seed", range(3))
def test_rotated_record_is_the_parent_record_mapped_by_r(kind, with_metric, seed):
    # <S>' = R <S> and A' = R A R^T, and both match a determinant built afresh on the
    # rotated coefficients and a copy of the metric, whose blocks come from GEMMs.
    rng = np.random.default_rng(800 + seed)
    det, norm = _class_determinant(kind, with_metric, rng, seed)
    rot = SpinRotation(helpers.random_unit_vector(rng), rng.uniform(-4.0, 4.0))
    r = rot.so3()
    rotated = su2_rotate(det, rot)
    metric = None if det.ao_overlap is None else np.array(det.ao_overlap)
    fresh = SpinorDeterminant(det.basis_dim, det.n_electrons, rotated.coeff_alpha, rotated.coeff_beta, metric)
    parent, seeded, direct = (build_overlap_blocks(d) for d in (det, rotated, fresh))
    ne = det.n_electrons
    bound = 16 * ne * EPS * ne * max(1.0, norm)
    s, s_seeded, s_direct = (spin_vector(b).as_array() for b in (parent, seeded, direct))
    a, a_seeded, a_direct = (a_matrix(b) for b in (parent, seeded, direct))
    assert np.max(np.abs(s_seeded - r @ s)) <= bound
    assert np.max(np.abs(a_seeded - r @ a @ r.T)) <= bound
    assert np.array_equal(a_seeded, a_seeded.T)
    assert np.max(np.abs(s_seeded - s_direct)) <= bound
    assert np.max(np.abs(a_seeded - a_direct)) <= bound
    assert np.max(np.abs(np.subtract(electron_counts(seeded), electron_counts(direct)))) <= bound


def _validation_outcome(det):
    try:
        build_overlap_blocks(det)
    except SpincolError as error:
        return f"{type(error).__name__}: {error}"
    return "valid"


@pytest.mark.parametrize(
    "axis, angle, im_n",
    [([1, 0, 0], 0.0, "N_alpha 1.470e-12"), ([1, 0, 0], 1e-3, "N_alpha 1.470e-12"),
     ([1, 0, 0], 0.5, "N_alpha 1.380e-12"), ([1, 0, 0], 1.3, None), ([1, 0, 0], np.pi, "N_beta 1.470e-12"),
     ([0, 0, 1], 2.0, "N_alpha 1.470e-12"), ([0.6, 0.8, 0], 1.0, "N_alpha 1.132e-12")],
    ids=["x-0", "x-1e-3", "x-0.5", "x-1.3", "x-pi", "z-2", "xy-1"],
)
def test_a_rotation_passes_validation_exactly_when_a_fresh_copy_does(axis, angle, im_n):
    # The metric (1 + 4.9e-13i)·I leaves Im N_alpha = 1.47e-12, over the 1e-12 gate, and
    # Im N_beta = 0. A rotation moves that residue between the occupations by |u[s, t]|²:
    # about x by 0 it stays on N_alpha, by pi it moves wholly to N_beta. Seeding both with
    # its average would pass determinants a fresh build rejects.
    rohf = gen_rohf(np.zeros((4, 0)), np.random.default_rng(3).standard_normal((4, 3)))
    det = SpinorDeterminant(4, 3, rohf.coeff_alpha, rohf.coeff_beta, (1 + 4.9e-13j) * np.eye(4))
    rotated = su2_rotate(det, SpinRotation(axis, angle))
    outcome = _validation_outcome(rotated)
    fresh = SpinorDeterminant(4, 3, rotated.coeff_alpha, rotated.coeff_beta, np.array(det.ao_overlap))
    assert outcome == _validation_outcome(fresh)
    assert outcome == ("valid" if im_n is None else f"NonHermitianResult: imaginary part of {im_n} is not within 1e-12")
    blocks = rotated._blocks
    n_alpha, n_beta = blocks._record[:2]
    assert abs(n_alpha.imag - np.trace(blocks.o_aa).imag) <= 1e-15
    assert abs(n_beta.imag - np.trace(blocks.o_bb).imag) <= 1e-15


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("seed", range(3))
def test_aligned_decomposition_is_the_eigen_split_of_a(kind, with_metric, seed):
    # Along the optimal axis u, with A's eigenvalues l0 <= l1 <= l2: z = col = l0, the spin
    # contamination is l1 + l2 - |u.s| and the xy-perpendicularity |s|^2 - (u.s)^2.
    rng = np.random.default_rng(900 + seed)
    det, _ = _class_determinant(kind, with_metric, rng, seed)
    det = su2_rotate(det, SpinRotation(helpers.random_unit_vector(rng), rng.uniform(-4.0, 4.0)))
    blocks = build_overlap_blocks(det)
    collin = analyze_collinearity(blocks)
    s = spin_vector(blocks).as_array()
    u = collin.optimal_axis
    aligned = decompose_s2(build_overlap_blocks(align_to_axis(det, u)))
    ne = det.n_electrons
    bound = 16 * ne * EPS * ne
    lowest, middle, highest = collin.eigenvalues
    assert abs(aligned.z_noncollinearity - collin.col) <= bound
    assert abs(aligned.spin_contamination - (middle + highest - abs(u @ s))) <= bound
    assert abs(aligned.xy_perpendicularity - (s @ s - (u @ s) ** 2)) <= bound
    assert abs(aligned.s_effective - abs(u @ s)) <= bound


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("ne", [1, 5, 70])
def test_rotated_blocks_are_the_mixing_weights_times_the_block_stack(with_metric, ne):
    # o'_st = sum_ij conj(u[s, i]) u[t, j] o_ij over the stack [o_aa, o_ab, o_ab^H, o_bb], to rounding:
    # the rotated blocks are built from the rotated coefficients, not mixed from the parent's.
    rng = np.random.default_rng(400 + ne)
    det = gen_random_gchf(40, ne, seed=ne)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, 40))
    rot = SpinRotation(helpers.random_unit_vector(rng), rng.uniform(-4.0, 4.0))
    b = build_overlap_blocks(det)
    stack = np.stack([b.o_aa, b.o_ab, b.o_ab.conj().T, b.o_bb]).reshape(4, ne * ne)
    u = rot.su2()
    weights = np.array(
        [
            [u[0, 0].conj() * u[0, 0], u[0, 0].conj() * u[0, 1], u[0, 1].conj() * u[0, 0], u[0, 1].conj() * u[0, 1]],
            [u[0, 0].conj() * u[1, 0], u[0, 0].conj() * u[1, 1], u[0, 1].conj() * u[1, 0], u[0, 1].conj() * u[1, 1]],
            [u[1, 0].conj() * u[1, 0], u[1, 0].conj() * u[1, 1], u[1, 1].conj() * u[1, 0], u[1, 1].conj() * u[1, 1]],
        ]
    )
    expected = (weights @ stack).reshape(3, ne, ne)
    rotated = su2_rotate(det, rot)
    blocks = build_overlap_blocks(rotated)
    for k, name in enumerate(("o_aa", "o_ab", "o_bb")):
        assert np.max(np.abs(getattr(blocks, name) - expected[k])) <= 16 * ne * EPS, name
    assert np.array_equal(rotated.stacked(), (u @ det.stacked().reshape(2, -1)).reshape(80, ne))


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("chain", [1, 3, 1500])
def test_rotated_blocks_are_a_fresh_determinants_bit_for_bit(with_metric, chain):
    # A rotated determinant's blocks are built from its coefficients by the code that builds every
    # determinant's, so they equal those of a fresh determinant on the same coefficients and metric.
    rng = np.random.default_rng(500 + chain)
    det = gen_random_gchf(12, 7, seed=chain)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, 12))
    rotated = det
    for _ in range(chain):
        rotated = su2_rotate(rotated, SpinRotation(helpers.random_unit_vector(rng), rng.uniform(-4.0, 4.0)))
    metric = None if det.ao_overlap is None else np.array(det.ao_overlap)
    fresh = SpinorDeterminant(12, 7, np.array(rotated.coeff_alpha), np.array(rotated.coeff_beta), metric)
    blocks, fresh_blocks = build_overlap_blocks(rotated), build_overlap_blocks(fresh)
    for name in ("o_aa", "o_ab", "o_ba", "o_bb"):
        assert getattr(blocks, name).tobytes() == getattr(fresh_blocks, name).tobytes(), name


def test_rotated_blocks_and_coefficients_are_sealed():
    det = helpers.random_metric_determinant(4, 3, seed=12)
    rotated = align_to_axis(det, [0.6, 0.0, 0.8])
    blocks = build_overlap_blocks(rotated)
    arrays = [rotated.coeff_alpha, rotated.coeff_beta]
    arrays += [getattr(blocks, name) for name in ("o_aa", "o_ab", "o_bb")]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_metric_is_diagonalized_and_applied_once(monkeypatch):
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    # The metric is applied only in _block_stack, so one block build is one application.
    applied = _count_calls(monkeypatch, spincol.determinant, "_block_stack")
    rng = np.random.default_rng(3)
    det = helpers.over_metric(gen_random_gchf(5, 3, seed=3), helpers.random_pd_metric(rng, 5))
    for _ in range(3):
        det = align_to_axis(det, helpers.random_unit_vector(rng))
    decompose_s2(build_overlap_blocks(det))
    assert len(eigvalsh) == 1
    assert len(applied) == 1


def test_constructor_validates_every_metric_and_derived_determinants_share_it(monkeypatch):
    det = helpers.random_metric_determinant(3, 2, seed=5)
    calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    args = (det.basis_dim, det.n_electrons, det.coeff_alpha, det.coeff_beta)
    for metric in (det.ao_overlap, det.ao_overlap.copy()):
        assert SpinorDeterminant(*args, metric).ao_overlap is not metric
    assert len(calls) == 2
    assert align_to_axis(det, [0.6, 0.0, 0.8]).ao_overlap is det.ao_overlap
    assert orthonormalize(det).ao_overlap is det.ao_overlap
    assert len(calls) == 2


def test_metric_made_writeable_and_changed_still_fails_validation():
    det = helpers.random_metric_determinant(3, 2, seed=6)
    args = (det.basis_dim, det.n_electrons, det.coeff_alpha, det.coeff_beta)
    metric = det.ao_overlap
    metric.setflags(write=True)
    metric[...] = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(SpincolError, match="smallest eigenvalue"):
        SpinorDeterminant(*args, metric)
    metric[0, 1] = 0.5
    with pytest.raises(SpincolError, match="Hermiticity"):
        SpinorDeterminant(*args, metric)


def test_inherited_metric_must_still_match_the_basis():
    det = helpers.random_metric_determinant(3, 2, seed=7)
    with pytest.raises(DimensionMismatch, match="ao_overlap"):
        SpinorDeterminant(2, 2, np.eye(2), np.zeros((2, 2)), det.ao_overlap)


def test_align_to_z_is_identity():
    det = gen_random_gchf(2, 2, seed=3)
    aligned = align_to_axis(det, Z)
    assert np.max(np.abs(aligned.coeff_alpha - det.coeff_alpha)) == 0.0


def test_align_x_polarized_to_x():
    det = align_to_axis(helpers.x_polarized_one_electron(), np.array([1.0, 0.0, 0.0]))
    d = decompose_s2(build_overlap_blocks(det))
    assert d.rohf_term == pytest.approx(0.75, abs=1e-12)
    assert d.z_noncollinearity == pytest.approx(0.0, abs=1e-12)
    assert d.spin_contamination == pytest.approx(0.0, abs=1e-12)
    assert d.xy_perpendicularity == pytest.approx(0.0, abs=1e-12)


def test_align_antipodal_direction():
    det = align_to_axis(helpers.pure_beta_one_electron(), np.array([0.0, 0.0, -1.0]))
    d = decompose_s2(build_overlap_blocks(det))
    assert d.rohf_term == pytest.approx(0.75, abs=1e-12)
    assert d.total == pytest.approx(0.75, abs=1e-12)


def test_align_requires_unit_vector():
    with pytest.raises(NotUnitVector):
        align_to_axis(helpers.pure_alpha_one_electron(), np.array([0.0, 0.0, 2.0]))


def test_align_rejects_nan_direction():
    # The gate must catch it, not the finiteness check on the rotated coefficients.
    with pytest.raises(NotUnitVector):
        align_to_axis(helpers.pure_alpha_one_electron(), np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("seed", range(6))
def test_alignment_closure(seed):
    det = gen_random_gchf(3, 2, seed)
    blocks = build_overlap_blocks(det)
    result = analyze_collinearity(blocks)
    aligned = align_to_axis(det, result.optimal_axis)
    post = decompose_s2(build_overlap_blocks(aligned))
    assert post.z_noncollinearity == pytest.approx(result.col, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_alignment_moves_col_to_z(seed):
    # Aligning to any direction u makes the new z-variance equal col(u).
    rng = np.random.default_rng(500 + seed)
    det = gen_random_gchf(3, 3, seed)
    u = helpers.random_unit_vector(rng)
    original = col_along(build_overlap_blocks(det), u)
    post = decompose_s2(build_overlap_blocks(align_to_axis(det, u)))
    assert post.z_noncollinearity == pytest.approx(original, abs=1e-10)


def test_gen_rhf_single_orbital():
    det = gen_rhf(np.array([[1.0]]))
    assert expect_s2(build_overlap_blocks(det)) == pytest.approx(0.0, abs=1e-14)


def test_gen_rohf_pure_open_shell_triplet():
    det = gen_rohf(np.zeros((3, 0)), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert expect_s2(build_overlap_blocks(det)) == pytest.approx(2.0, abs=1e-12)


def test_generated_dods_counts_are_integers():
    det = helpers.random_dods(4, 3, 1, seed=2)
    na, nb = electron_counts(build_overlap_blocks(det))
    assert na == pytest.approx(3.0, abs=1e-12)
    assert nb == pytest.approx(1.0, abs=1e-12)


def test_gen_random_gchf_valid_and_matches_oracle():
    det = gen_random_gchf(3, 3, seed=7)
    assert det.orthonormality_residual() < 1e-12
    blocks = build_overlap_blocks(det)
    d = decompose_s2(blocks)
    assert d.total == pytest.approx(oracle_expectation(det)["S2"].real, abs=1e-10)


def test_gen_random_gchf_deterministic():
    a = gen_random_gchf(3, 2, seed=123)
    b = gen_random_gchf(3, 2, seed=123)
    assert np.array_equal(a.coeff_alpha, b.coeff_alpha)
    assert np.array_equal(a.coeff_beta, b.coeff_beta)


@pytest.mark.parametrize("seed", [None, [1, 2], (3,), 2**70], ids=["none", "list", "tuple", "big"])
def test_gen_random_gchf_accepts_every_seed_numpy_does(seed):
    assert build_overlap_blocks(gen_random_gchf(3, 2, seed)).n_electrons == 2


def test_generators_reject_dependent_orbitals():
    col = np.array([[1.0], [0.0]])
    with pytest.raises(LinearlyDependent):
        gen_rhf(np.hstack([col, col]))
    with pytest.raises(LinearlyDependent):
        gen_rohf(col, col)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: gen_rhf([[np.nan], [1.0]]), SpincolError, "^orbitals has a non-finite entry"),
        (lambda: gen_dods([[np.inf], [1.0]], [[1.0], [0.0]]), SpincolError, "^alpha_orbitals has a non-finite"),
        (lambda: gen_dods([[1.0], [0.0]], [[0.0], [-np.inf]]), SpincolError, "^beta_orbitals has a non-finite"),
        (lambda: gen_rohf([[np.nan], [1.0]], [[0.0], [1.0]]), SpincolError, "^closed has a non-finite entry"),
        (lambda: gen_rohf([[0.0], [1.0]], [[np.inf], [1.0]]), SpincolError, "^open_ has a non-finite entry"),
        # Finite entries whose Gram matrix overflows: the eigenvalue gate reports it.
        (lambda: gen_rohf([[1e200], [1.0]], [[0.0], [1.0]]), LinearlyDependent, "smallest eigenvalue nan"),
        (lambda: gen_rhf([[1e200, 1e200], [1.0, -1.0]]), LinearlyDependent, "smallest eigenvalue nan"),
    ],
    ids=["nan-rhf", "inf-dods-alpha", "inf-dods-beta", "nan-rohf", "inf-rohf-open", "overflow-rohf", "overflow-rhf"],
)
def test_generators_reject_non_finite_orbitals_without_a_warning(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["axis", "antipode"])
@pytest.mark.parametrize("flip", [False, True], ids=["plain", "pi-flipped"])
@pytest.mark.parametrize("theta", [1e-7, 1e-6, 1.3e-6, 1e-3])
def test_alignment_closure_near_the_poles(theta, flip, sign):
    # A collinear determinant tilted slightly off z has its optimal axis
    # within theta of a pole; aligning to it (or to its antipode) must still
    # apply the true rotation, so the new z-noncollinearity is col.
    det = helpers.random_dods(4, 2, 1, seed=5)
    x = np.array([1.0, 0.0, 0.0])
    if flip:
        det = su2_rotate(det, SpinRotation(x, np.pi))
    det = su2_rotate(det, SpinRotation(x, theta))
    result = analyze_collinearity(build_overlap_blocks(det))
    aligned = align_to_axis(det, sign * result.optimal_axis)
    post = decompose_s2(build_overlap_blocks(aligned))
    # Fixed before the run: rounding of Ne^2 terms of size eps, times 16.
    tol = 16 * det.n_electrons * np.finfo(float).eps * det.n_electrons
    assert abs(post.z_noncollinearity - result.col) <= tol
