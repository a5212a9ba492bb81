"""Spin covariance matrix, col(u), and the minimal-collinearity eigenproblem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spincol import (
    FockVector,
    NotSymmetric,
    NotUnitVector,
    SpinorDeterminant,
    SpinRotation,
    a_matrix,
    analyze_collinearity,
    apply_spin,
    build_overlap_blocks,
    col_along,
    decompose_s2,
    expand,
    expect_s2,
    gen_random_gchf,
    gen_rhf,
    min_collinearity,
    oracle_expectation,
    orthonormalize,
    spin_vector,
    su2_rotate,
)
from spincol.collinearity import _sign
from spincol.reference import H2OPLUS_A_MATRIX, H2OPLUS_COL, H2OPLUS_OPTIMAL_AXIS

X, Y, Z = np.eye(3)


def test_spin_vector_trivials():
    v = spin_vector(build_overlap_blocks(helpers.x_polarized_one_electron()))
    assert (v.sx, v.sy, v.sz) == pytest.approx((0.5, 0.0, 0.0))
    v = spin_vector(build_overlap_blocks(helpers.pure_alpha_one_electron()))
    assert (v.sx, v.sy, v.sz) == pytest.approx((0.0, 0.0, 0.5))


def test_spin_vector_y_polarized():
    r = 1.0 / np.sqrt(2.0)
    det = helpers.SpinorDeterminant(1, 1, [[r]], [[1j * r]])
    v = spin_vector(build_overlap_blocks(det))
    assert (v.sx, v.sy, v.sz) == pytest.approx((0.0, 0.5, 0.0), abs=1e-15)


@pytest.mark.parametrize("m,ne,seed", [(2, 2, 0), (3, 3, 5), (4, 2, 9)])
def test_spin_vector_matches_oracle(m, ne, seed):
    det = gen_random_gchf(m, ne, seed)
    v = spin_vector(build_overlap_blocks(det)).as_array()
    exact = oracle_expectation(det)
    for k, mu in enumerate("xyz"):
        assert v[k] == pytest.approx(exact[f"S{mu}"].real, abs=1e-10)


def test_a_matrix_x_polarized():
    a = a_matrix(build_overlap_blocks(helpers.x_polarized_one_electron()))
    assert np.allclose(a, np.diag([0.0, 0.25, 0.25]), atol=1e-12)


def test_a_matrix_closed_shell_is_zero():
    det = gen_rhf(np.array([[1.0], [0.0]]))
    assert np.max(np.abs(a_matrix(build_overlap_blocks(det)))) < 1e-12


@pytest.mark.parametrize("m,ne,seed", [(2, 2, 1), (3, 3, 2), (4, 3, 3)])
def test_a_matrix_matches_oracle_products(m, ne, seed):
    det = gen_random_gchf(m, ne, seed)
    blocks = build_overlap_blocks(det)
    a = a_matrix(blocks)
    s = spin_vector(blocks).as_array()
    assert np.max(np.abs(a - a.T)) == 0.0
    exact = oracle_expectation(det)
    for i, mu in enumerate("xyz"):
        for j, nu in enumerate("xyz"):
            re_smn = exact[f"S{mu}S{nu}"].real
            assert a[i, j] + s[i] * s[j] == pytest.approx(re_smn, abs=1e-10)


def _explicit_a(blocks) -> np.ndarray:
    """Ne/4 minus the Gram matrix Re tr(T_mu T_nu) of explicitly built Pauli compressions."""
    x, d = blocks.o_ab, blocks.o_aa - blocks.o_bb
    t = (0.5 * (x + x.conj().T), 0.5j * (x.conj().T - x), 0.5 * d)
    gram = np.array([[np.trace(t_mu @ t_nu).real for t_nu in t] for t_mu in t])
    return np.eye(3) * (blocks.n_electrons / 4.0) - gram


def _near_collinear(m, n_alpha, n_beta, seed):
    # A DODS determinant with a 1e-3 admixture of random spinors, re-orthonormalized.
    rng = np.random.default_rng(seed)
    det = helpers.random_dods(m, n_alpha, n_beta, seed)
    ne = n_alpha + n_beta
    return orthonormalize(
        SpinorDeterminant(
            m,
            ne,
            det.coeff_alpha + 1e-3 * helpers.random_complex(rng, m, ne),
            det.coeff_beta + 1e-3 * helpers.random_complex(rng, m, ne),
        )
    )


def _tilted_dods(m, n_alpha, n_beta, seed):
    rng = np.random.default_rng(seed)
    rot = SpinRotation(helpers.random_unit_vector(rng), rng.uniform(0.1, 3.0))
    return su2_rotate(helpers.random_dods(m, n_alpha, n_beta, seed), rot)


A_FAMILIES = {
    "random": lambda m, ne, seed: gen_random_gchf(m, ne, seed),
    "tilted dods": lambda m, ne, seed: _tilted_dods(m, ne - ne // 3, ne // 3, seed),
    "near-collinear": lambda m, ne, seed: _near_collinear(m, ne - ne // 3, ne // 3, seed),
}


@pytest.mark.parametrize("family", sorted(A_FAMILIES))
@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("m,ne", [(2, 1), (3, 2), (8, 7), (20, 25), (45, 60)])
def test_a_matrix_matches_the_gram_of_explicit_compressions(family, with_metric, m, ne):
    det = A_FAMILIES[family](m, ne, seed=m + ne)
    if with_metric:
        rng = np.random.default_rng(ne)
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, m))
    blocks = build_overlap_blocks(det)
    a = a_matrix(blocks)
    assert np.array_equal(a, a.T)
    assert np.max(np.abs(a - _explicit_a(blocks))) <= 1e-13 * max(1, ne)
    if family == "tilted dods":
        assert abs(analyze_collinearity(blocks).col) <= 1e-13 * max(1, ne)


def test_col_along_trivials():
    blocks = build_overlap_blocks(helpers.x_polarized_one_electron())
    assert col_along(blocks, X) == pytest.approx(0.0, abs=1e-12)
    assert col_along(blocks, Z) == pytest.approx(0.25, abs=1e-12)


def test_col_along_z_equals_z_noncollinearity():
    for seed in range(10):
        blocks = build_overlap_blocks(gen_random_gchf(3, 3, seed))
        assert col_along(blocks, Z) == pytest.approx(
            decompose_s2(blocks).z_noncollinearity, abs=1e-12
        )


def test_col_along_rejects_non_unit():
    blocks = build_overlap_blocks(helpers.pure_alpha_one_electron())
    with pytest.raises(NotUnitVector):
        col_along(blocks, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(NotUnitVector):
        col_along(blocks, np.array([1.0, 0.0]))


def test_col_along_rejects_nan_direction():
    # NaN passes a "deviation > tol" gate.
    blocks = build_overlap_blocks(helpers.pure_alpha_one_electron())
    with pytest.raises(NotUnitVector):
        col_along(blocks, [np.nan, 0.0, 0.0])


def test_reference_matrix_z_variance():
    z_noncol = float(Z @ H2OPLUS_A_MATRIX @ Z)
    assert z_noncol == pytest.approx(0.000461, abs=1e-12)


def test_min_collinearity_reference_matrix():
    result = min_collinearity(H2OPLUS_A_MATRIX)
    assert result.col == pytest.approx(H2OPLUS_COL, abs=5e-6)
    dev = min(
        np.max(np.abs(result.optimal_axis - H2OPLUS_OPTIMAL_AXIS)),
        np.max(np.abs(result.optimal_axis + H2OPLUS_OPTIMAL_AXIS)),
    )
    assert dev < 1e-3
    assert not result.degenerate
    assert result.eigenvalues[0] <= result.eigenvalues[1] <= result.eigenvalues[2]
    for k in range(3):
        residual = H2OPLUS_A_MATRIX @ result.eigenvectors[:, k] - (
            result.eigenvalues[k] * result.eigenvectors[:, k]
        )
        assert np.max(np.abs(residual)) < 1e-11
    gram = result.eigenvectors.T @ result.eigenvectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_min_collinearity_simple_diagonal():
    result = min_collinearity(np.diag([0.0, 0.25, 0.25]))
    assert result.col == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(result.optimal_axis, X)
    assert not result.degenerate


def test_min_collinearity_zero_matrix_degeneracy_rule():
    result = min_collinearity(np.zeros((3, 3)))
    assert result.col == 0.0
    assert result.degenerate
    # Ordering key (|z|, |x|, |y|) picks the z axis among the identity vectors.
    assert np.allclose(result.optimal_axis, Z)


def test_min_collinearity_rejects_asymmetry():
    bad = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        min_collinearity(bad)
    with pytest.raises(NotSymmetric):
        min_collinearity(np.zeros((2, 2)))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_min_collinearity_rejects_nan(entry):
    a = np.eye(3)
    a[entry] = a[entry[::-1]] = np.nan
    with pytest.raises(NotSymmetric):
        min_collinearity(a)


@pytest.mark.parametrize("seed", range(4))
def test_tilted_closed_shell_reports_z(seed):
    # A closed shell has A = 0 in every frame; the fully degenerate
    # eigenspace projects e_z onto itself.
    det = helpers.random_rhf(4, 2, seed)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        rot = SpinRotation(helpers.random_unit_vector(rng), float(rng.uniform(0.1, np.pi)))
        result = analyze_collinearity(build_overlap_blocks(su2_rotate(det, rot)))
        assert result.degenerate
        assert np.max(np.abs(result.optimal_axis - Z)) < 1e-12


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("seed", range(20))
def test_two_fold_cluster_gives_the_projection_of_z(seed):
    rng = np.random.default_rng(seed)
    rot = _random_rotation(rng)
    low = float(rng.uniform(0.0, 0.5))
    high = low + float(rng.uniform(0.05, 0.5))
    a = rot @ np.diag([low, low, high]) @ rot.T
    result = min_collinearity(0.5 * (a + a.T))
    assert result.degenerate
    assert result.col == pytest.approx(low, abs=1e-12)
    # The eigenspace is the plane orthogonal to n = rot[:, 2]; its largest
    # reachable |z| is sqrt(1 - n_z^2), attained by the projection of e_z.
    n = rot[:, 2]
    projection = Z - n[2] * n
    projection /= np.linalg.norm(projection)
    axis = result.optimal_axis
    assert abs(axis[2]) == pytest.approx(np.sqrt(1.0 - n[2] ** 2), abs=1e-12)
    assert min(np.max(np.abs(axis - projection)), np.max(np.abs(axis + projection))) < 1e-12
    assert axis[np.argmax(np.abs(axis))] > 0


@pytest.mark.parametrize("seed", range(8))
def test_xy_plane_cluster_falls_through_to_x(seed):
    # Built through a detour rotation so the z couplings carry rounding noise:
    # the projection of e_z is then at rounding level and must be ignored.
    rng = np.random.default_rng(seed)
    detour = _random_rotation(rng)
    angle = rng.uniform(0.0, np.pi)
    c, s = np.cos(angle), np.sin(angle)
    about_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    inner = detour @ np.diag([0.1, 0.1, 0.4]) @ detour.T
    a = about_z @ detour.T @ inner @ detour @ about_z.T
    result = min_collinearity(0.5 * (a + a.T))
    assert result.degenerate
    assert np.max(np.abs(result.optimal_axis - X)) < 1e-12


def _former_sign_normalize(vec):
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def _former_min_collinearity(a):
    """min_collinearity's fields as its former numpy loop made them: one sign flip per column, then copies."""
    sym = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(sym)
    for k in range(3):
        vectors[:, k] = _former_sign_normalize(vectors[:, k])
    degenerate = bool(values[1] - values[0] < 1e-10)
    if degenerate:
        cluster = vectors[:, values - values[0] < 1e-10]
        projector = cluster @ cluster.T
        k = next((k for k in (2, 0) if np.linalg.norm(projector[:, k]) > 1e-8), 1)
        axis = _former_sign_normalize(projector[:, k] / np.linalg.norm(projector[:, k]))
    else:
        axis = vectors[:, 0]
    return [np.array(x, dtype=float) for x in (sym, values, vectors, axis)], float(values[0]), degenerate


def _former_cases():
    rng = np.random.default_rng(41)
    # Eigenvectors (1, -1, 0)/sqrt(2), (1, 1, 0)/sqrt(2) and z: |x| and |y| tie.
    q = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
    tied = q @ np.diag([0.3, 0.7, 0.5]) @ q.T
    cases = [np.zeros((3, 3)), np.eye(3), np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 1.0, 1.0]),
             np.diag([1.0, 2.0, 1.0]), np.diag([0.25, 0.25, 0.25 + 1e-11]), tied]
    for _ in range(100):
        x = rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 1))
        cases += [x + x.T, v @ v.T]
    return cases


def test_the_sign_rule_takes_the_first_largest_magnitude_entry():
    ties = [(1.0, -1.0, 0.0), (-1.0, 1.0, 0.0), (0.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (-0.0, 0.0, -1.0)]
    for vec in (np.array(t) / np.linalg.norm(t) for t in ties):
        assert (_sign(vec.tolist()) * vec).tobytes() == _former_sign_normalize(vec).tobytes(), vec


def test_min_collinearity_keeps_every_bit_of_the_former_sign_loop():
    for a in _former_cases():
        result = min_collinearity(a)
        arrays, col, degenerate = _former_min_collinearity(a)
        fields = (result.a_matrix, result.eigenvalues, result.eigenvectors, result.optimal_axis)
        for value, former in zip(fields, arrays):
            assert value.tobytes() == former.tobytes() and value.flags.c_contiguous == former.flags.c_contiguous
            assert not value.flags.writeable
        assert (result.col, result.degenerate) == (col, degenerate)
        assert type(result.col) is float and type(result.degenerate) is bool


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_min_collinearity_agrees_with_numpy(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 3)) * float(rng.uniform(0.1, 10.0))
    a = 0.5 * (x + x.T)
    result = min_collinearity(a)
    vals, vecs = result.eigenvalues, result.eigenvectors
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a))) < 1e-12 * scale
    for k in range(3):
        assert np.max(np.abs(a @ vecs[:, k] - vals[k] * vecs[:, k])) < 1e-11 * scale
        assert vecs[np.argmax(np.abs(vecs[:, k])), k] > 0
    assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-12
    axis = result.optimal_axis
    assert np.max(np.abs(a @ axis - result.col * axis)) < 1e-11 * scale
    assert axis[np.argmax(np.abs(axis))] > 0


def test_variance_identity_against_oracle(rng):
    # col(u) must equal the brute force <(u.S)^2> - <u.S>^2.
    checked = 0
    for seed in range(10):
        det = gen_random_gchf(3, 2, seed)
        blocks = build_overlap_blocks(det)
        vec = expand(det)
        parts = [apply_spin(vec, f"S{mu}").amplitudes for mu in "xyz"]
        for _ in range(100):
            u = helpers.random_unit_vector(rng)
            projected = FockVector(3, 2, u[0] * parts[0] + u[1] * parts[1] + u[2] * parts[2])
            second_moment = projected.inner(projected).real
            first_moment = vec.inner(projected).real
            variance = second_moment - first_moment**2
            assert col_along(blocks, u) == pytest.approx(variance, abs=1e-9)
            checked += 1
    assert checked == 1000


def test_optimal_axis_minimality(rng):
    for seed in range(5):
        blocks = build_overlap_blocks(gen_random_gchf(3, 3, seed))
        result = analyze_collinearity(blocks)
        best = col_along(blocks, result.optimal_axis)
        assert best == pytest.approx(result.col, abs=1e-11)
        for _ in range(100):
            u = helpers.random_unit_vector(rng)
            assert best <= col_along(blocks, u) + 1e-12


def test_trace_identity_and_psd():
    for seed in range(15):
        blocks = build_overlap_blocks(gen_random_gchf(4, 3, seed))
        result = analyze_collinearity(blocks)
        norm_sq = spin_vector(blocks).norm_sq()
        assert float(np.trace(result.a_matrix)) + norm_sq == pytest.approx(
            expect_s2(blocks), abs=1e-10
        )
        assert result.eigenvalues.min() >= -1e-10


def test_analyze_collinearity_uses_the_block_matrix():
    blocks = build_overlap_blocks(gen_random_gchf(3, 3, seed=4))
    result = analyze_collinearity(blocks)
    assert np.max(np.abs(result.a_matrix - a_matrix(blocks))) < 1e-15
