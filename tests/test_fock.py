"""The brute-force Fock-space machinery is the oracle for everything else,
so it gets validated first and on its own terms: expansion amplitudes against
hand-countable cases, unit norm via Cauchy-Binet, operator algebra via the
su(2) commutation relations, and Hermiticity of the matrix elements."""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import spincol.fock
from spincol import (
    DimensionMismatch,
    FockVector,
    SpinorDeterminant,
    TooLarge,
    apply_spin,
    build_overlap_blocks,
    expand,
    expect_s2,
    gen_random_gchf,
    gen_rhf,
    oracle_expectation,
    to_identity_metric,
)


def _masks(m, ne):
    """Occupation bitmask of each pattern, in the order of FockVector.amplitudes.

    Bit p is spin-orbital p of the stacked coefficients: (p+1)a for p < M,
    (p+1-M)b above.
    """
    return [sum(1 << r for r in rows) for rows in combinations(range(2 * m), ne)]


def _amp(vec, mask):
    return vec.amplitudes[_masks(vec.m_spatial, vec.n_electrons).index(mask)]


def _vector(m, ne, by_mask):
    """FockVector from {bitmask: amplitude}; absent patterns are zero."""
    return FockVector(m, ne, [by_mask.get(mask, 0.0) for mask in _masks(m, ne)])


def _nonzero(vec):
    """{bitmask: amplitude} of the nonzero amplitudes."""
    masks = _masks(vec.m_spatial, vec.n_electrons)
    return {mask: a for mask, a in zip(masks, vec.amplitudes) if a != 0}


def test_expand_pure_alpha_single_pattern():
    vec = expand(helpers.pure_alpha_one_electron())
    assert len(vec.amplitudes) == comb(2, 1)
    assert _amp(vec, 0b01) == pytest.approx(1.0)
    assert _amp(vec, 0b10) == pytest.approx(0.0)


def test_expand_x_polarized_two_patterns():
    vec = expand(helpers.x_polarized_one_electron())
    r = 1.0 / np.sqrt(2.0)
    assert _amp(vec, 0b01) == pytest.approx(r)
    assert _amp(vec, 0b10) == pytest.approx(r)


def test_expand_elementary_determinant_and_column_swap_sign():
    # Spinors equal to the first two alpha spin-orbitals: amplitude one on
    # that pattern; swapping the columns flips the sign of the minor.
    straight = SpinorDeterminant(2, 2, [[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
    swapped = SpinorDeterminant(2, 2, [[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
    mask = 0b0011
    assert _amp(expand(straight), mask) == pytest.approx(1.0)
    assert _amp(expand(swapped), mask) == pytest.approx(-1.0)


def test_expand_counts_all_patterns():
    det = gen_random_gchf(3, 2, seed=5)
    vec = expand(det)
    assert len(vec.amplitudes) == comb(6, 2)


# The cofactor expansion's error bound, fixed before any run: c * Ne^2 * eps with c = 1.
EPS = np.finfo(float).eps


def _minor_bound(ne):
    return ne**2 * EPS


def _leibniz(w, rows):
    """Exact minor of the float matrix ``w`` on ``rows``, as (real, imag) Fractions: Leibniz sum."""
    entries = [[(Fraction(z.real), Fraction(z.imag)) for z in w[r]] for r in rows]
    total_re = total_im = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        re, im = Fraction(1), Fraction(0)
        for i, j in enumerate(perm):
            er, ei = entries[i][j]
            re, im = re * er - im * ei, re * ei + im * er
        total_re, total_im = (total_re - re, total_im - im) if inversions % 2 else (total_re + re, total_im + im)
    return total_re, total_im


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expand_amplitudes_are_the_exact_minors(m):
    for ne in range(1, 2 * m + 1):
        det = gen_random_gchf(m, ne, seed=10 * m + ne)
        w = det.stacked()
        amplitudes = expand(det).amplitudes
        for k, rows in enumerate(combinations(range(2 * m), ne)):
            re, im = _leibniz(w, rows)
            error = abs(complex(float(Fraction(amplitudes[k].real) - re), float(Fraction(amplitudes[k].imag) - im)))
            assert error <= _minor_bound(ne), (m, ne, rows, error)


@pytest.mark.parametrize("metric", [False, True])
@pytest.mark.parametrize("m", range(1, 7))
def test_expand_amplitudes_match_lapack_minors(m, metric):
    for ne in range(1, 2 * m + 1):
        seed = 100 * m + ne
        det = helpers.random_metric_determinant(m, ne, seed) if metric else gen_random_gchf(m, ne, seed)
        w = to_identity_metric(det).stacked()
        expected = np.linalg.det(w[np.array(list(combinations(range(2 * m), ne)))])
        error = np.max(np.abs(expand(det).amplitudes - expected))
        assert error <= _minor_bound(ne), (m, ne, error)


def test_expand_norm_cauchy_binet():
    det = gen_random_gchf(3, 2, seed=1)
    assert expand(det).norm() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    ne=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_expand_norm_is_one_for_any_orthonormal_determinant(m, ne, seed):
    if ne > 2 * m:
        ne = 2 * m
    det = gen_random_gchf(m, ne, seed)
    assert expand(det).norm() == pytest.approx(1.0, abs=1e-10)


def test_expand_applies_the_metric():
    # expand re-expresses the coefficients over an orthonormal basis itself.
    det = helpers.random_metric_determinant(2, 2, seed=3)
    psi = expand(det)
    assert np.array_equal(psi.amplitudes, expand(to_identity_metric(det)).amplitudes)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    plain = gen_random_gchf(3, 3, seed=4)
    explicit = SpinorDeterminant(3, 3, plain.coeff_alpha, plain.coeff_beta, np.eye(3))
    assert np.array_equal(expand(explicit).amplitudes, expand(plain).amplitudes)


def test_expand_guard_rail():
    det = gen_random_gchf(8, 8, seed=0)
    with pytest.raises(TooLarge):
        expand(det)


def test_expand_guard_counts_the_largest_cofactor_level():
    # M=8, Ne=15 has 16 patterns, but its eighth level holds C(16, 8) = 12870 minors.
    with pytest.raises(TooLarge, match="12870"):
        expand(gen_random_gchf(8, 15, seed=0))
    assert expand(gen_random_gchf(7, 13, seed=0)).norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m,ne", [(100, 1), (40, 2)])
def test_expand_runs_on_a_wide_basis_with_few_electrons(m, ne):
    det = gen_random_gchf(m, ne, seed=3)
    w = det.stacked()
    vec = expand(det)
    if ne == 1:
        assert np.array_equal(vec.amplitudes, w[:, 0])
    else:
        i, j = np.array(list(combinations(range(2 * m), 2))).T
        expected = w[i, 0] * w[j, 1] - w[j, 0] * w[i, 1]
        assert np.max(np.abs(vec.amplitudes - expected)) <= _minor_bound(ne)
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 7))
def test_cofactor_tables_equal_a_brute_force_map(m):
    # Entry (j, s) of level k's sub table is the index of S without S_j in level k-1,
    # shifted by C(2M, k-1) into [minors, -minors] where (-1)**(j+k-1) is negative.
    for k in range(2, 2 * m + 1):
        below = {rows: index for index, rows in enumerate(combinations(range(2 * m), k - 1))}
        rows, sub = spincol.fock._level(m, k)
        subsets = list(combinations(range(2 * m), k))
        assert np.array_equal(rows, np.array(subsets).T), (m, k)
        expected = [[below[s[:j] + s[j + 1:]] + len(below) * ((j + k - 1) % 2) for s in subsets] for j in range(k)]
        assert np.array_equal(sub, expected), (m, k)


@pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (3, 3), (6, 6)])
def test_cached_cofactor_tables_are_read_only(m, k):
    for table in spincol.fock._level(m, k):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_oracle_guard_rail_on_basis_size():
    det = gen_random_gchf(7, 1, seed=0)
    with pytest.raises(TooLarge):
        oracle_expectation(det)


def test_apply_sz_is_diagonal():
    vec = _vector(1, 1, {0b01: 1.0})
    out = apply_spin(vec, "Sz")
    assert _nonzero(out) == {0b01: 0.5}


def test_apply_splus_raises_beta():
    vec = _vector(1, 1, {0b10: 1.0})
    out = apply_spin(vec, "S+")
    assert _nonzero(out) == {0b01: 1.0}
    assert _nonzero(apply_spin(out, "S+")) == {}


def test_apply_sminus_lowers_alpha():
    vec = _vector(1, 1, {0b01: 1.0})
    assert _nonzero(apply_spin(vec, "S-")) == {0b10: 1.0}


def test_ladder_signs_count_the_modes_passed():
    # M = 2, bits 1a 2a 1b 2b.  0b0110 is (2a, 1b): moving 1b to 1a passes the
    # occupied 2a.  From 0b0011 = (1a, 2a), 1a -> 1b passes 2a, 2a -> 2b passes nothing.
    assert _nonzero(apply_spin(_vector(2, 2, {0b0110: 1.0}), "S+")) == {0b0011: -1.0}
    assert _nonzero(apply_spin(_vector(2, 2, {0b0011: 1.0}), "S-")) == {0b0110: -1.0, 0b1001: 1.0}


def test_splus_annihilates_closed_shell():
    det = gen_rhf(np.array([[1.0]]))
    vec = expand(det)
    raised = apply_spin(vec, "S+")
    assert all(abs(a) < 1e-15 for a in raised.amplitudes)


def _random_fock_vector(rng, m, ne):
    n_patterns = comb(2 * m, ne)
    amps = rng.standard_normal(n_patterns) + 1j * rng.standard_normal(n_patterns)
    return FockVector(m, ne, amps / np.linalg.norm(amps))


def _max_amp_diff(u, v):
    return np.max(np.abs(u - v))


def _ladder_by_loop(vec, from_offset, to_offset):
    """Reference for S+ and S-: sum_p a+_{p,to} a_{p,from}, pattern by pattern on bitmasks."""
    m, ne = vec.m_spatial, vec.n_electrons
    out = {}
    for mask, amp in zip(_masks(m, ne), vec.amplitudes):
        for p in range(m):
            src, dst = p + from_offset, p + to_offset
            if not (mask >> src) & 1 or (mask >> dst) & 1:
                continue
            cleared = mask & ~(1 << src)
            below = (mask & ((1 << src) - 1)).bit_count() + (cleared & ((1 << dst) - 1)).bit_count()
            target = cleared | (1 << dst)
            out[target] = out.get(target, 0.0) + (-1) ** below * amp
    return _vector(m, ne, out)


def test_ladders_match_the_bitmask_loop(rng):
    # Each target sums at most M signed amplitudes of a unit vector, in another order.
    for m in range(1, 5):
        for ne in range(1, 2 * m + 1):
            v = _random_fock_vector(rng, m, ne)
            for op, offsets in (("S+", (m, 0)), ("S-", (0, m))):
                expected = _ladder_by_loop(v, *offsets).amplitudes
                deviation = _max_amp_diff(apply_spin(v, op).amplitudes, expected)
                assert deviation <= m * np.finfo(float).eps, (m, ne, op)


def _spin_by_orbital_loop(vec):
    """Reference for the cached sector tables: S+, S- and Sz as the former per-orbital loop applied them."""
    m, ne = vec.m_spatial, vec.n_electrons
    occupied = np.zeros((comb(2 * m, ne), 2 * m), dtype=bool)
    for k, rows in enumerate(combinations(range(2 * m), ne)):
        occupied[k, list(rows)] = True

    def ladder(from_offset, to_offset):
        out = np.zeros_like(vec.amplitudes)
        for p in range(m):
            src, dst = p + from_offset, p + to_offset
            lo, hi = sorted((src, dst))
            movers = occupied[:, src] & ~occupied[:, dst]
            landed = occupied[:, dst] & ~occupied[:, src]
            passed = occupied[movers, lo + 1 : hi].sum(axis=1)
            out[landed] += np.where(passed % 2, -1.0, 1.0) * vec.amplitudes[movers]
        return out

    n_alpha, n_beta = occupied[:, :m].sum(axis=1), occupied[:, m:].sum(axis=1)
    return {"S+": ladder(m, 0), "S-": ladder(0, m), "Sz": 0.5 * (n_alpha - n_beta) * vec.amplitudes}


@pytest.mark.parametrize("m,ne", [(m, ne) for m in range(1, 4) for ne in range(2 * m + 1)] + [(6, 1), (6, 3), (6, 6)])
def test_ladders_and_sz_equal_the_per_orbital_loop_bit_for_bit(rng, m, ne):
    # bincount adds each target's terms in the loop's order, from 0.0, so nothing may differ,
    # including on the empty tables of Ne = 0 and Ne = 2M.
    psi, phi = _random_fock_vector(rng, m, ne), _random_fock_vector(rng, m, ne)
    for op, expected in _spin_by_orbital_loop(psi).items():
        assert np.array_equal(apply_spin(psi, op).amplitudes, expected), op
    assert phi.inner(apply_spin(psi, "S+")) == pytest.approx(apply_spin(phi, "S-").inner(psi), abs=1e-12)


@pytest.mark.parametrize("m,ne", [(1, 0), (2, 2), (3, 3)])
def test_cached_sector_tables_are_read_only_and_inputs_are_left_alone(rng, m, ne):
    for table in spincol.fock._sector(m, ne):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    psi = _random_fock_vector(rng, m, ne)
    before = psi.amplitudes.copy()
    for op in ("S+", "S-", "Sz", "Sx", "Sy"):
        apply_spin(psi, op)
    assert np.array_equal(psi.amplitudes, before)


def test_the_oracle_builds_its_own_vectors_without_revalidating_them(rng, monkeypatch):
    # Only vectors from outside go through the checking constructor; every result keeps its sector.
    psi = _random_fock_vector(rng, 3, 2)
    det = gen_random_gchf(3, 2, seed=4)
    checks = []
    original = FockVector.__post_init__
    monkeypatch.setattr(FockVector, "__post_init__", lambda self: checks.append(self) or original(self))
    for op in ("S+", "S-", "Sz", "Sx", "Sy"):
        result = apply_spin(psi, op)
        assert isinstance(result, FockVector) and (result.m_spatial, result.n_electrons) == (3, 2)
        assert result.amplitudes.dtype == np.complex128 and result.amplitudes.shape == psi.amplitudes.shape
        rebuilt = FockVector(3, 2, result.amplitudes)
        assert rebuilt.amplitudes.tobytes() == result.amplitudes.tobytes()
    assert len(checks) == 5  # the five rebuilt vectors
    oracle_expectation(det)
    assert len(checks) == 6  # and the expansion of det


def test_fock_vector_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        FockVector(2, 2, np.zeros(5))


@pytest.mark.parametrize("left,right", [((2, 1, 4), (2, 3, 4)), ((1, 2, 1), (1, 0, 1)), ((2, 1, 4), (1, 1, 2))])
def test_inner_product_needs_one_sector(left, right):
    # Different electron counts, or different bases, are not one space: no number is returned.
    u, v = (FockVector(m, ne, np.ones(n)) for m, ne, n in (left, right))
    for a, b in ((u, v), (v, u)):
        with pytest.raises(DimensionMismatch, match=rf"\({a.m_spatial}, {a.n_electrons}\).*\({b.m_spatial}, {b.n_electrons}\)"):
            a.inner(b)
    assert u.inner(u) == left[2]


def test_su2_commutators_on_random_vectors(rng):
    for _ in range(50):
        m = int(rng.integers(1, 4))
        ne = int(rng.integers(1, 2 * m + 1))
        v = _random_fock_vector(rng, m, ne)

        plus_minus = apply_spin(apply_spin(v, "S-"), "S+").amplitudes
        minus_plus = apply_spin(apply_spin(v, "S+"), "S-").amplitudes
        commutator = plus_minus - minus_plus
        assert _max_amp_diff(commutator, 2.0 * apply_spin(v, "Sz").amplitudes) < 1e-12

        for op, sign in (("S+", 1.0), ("S-", -1.0)):
            left = apply_spin(apply_spin(v, op), "Sz").amplitudes
            right = apply_spin(apply_spin(v, "Sz"), op).amplitudes
            assert _max_amp_diff(left - right, sign * apply_spin(v, op).amplitudes) < 1e-12


def test_spin_operators_hermitian(rng):
    for op in ("Sz", "Sx", "Sy"):
        v = _random_fock_vector(rng, 3, 2)
        w = _random_fock_vector(rng, 3, 2)
        lhs = v.inner(apply_spin(w, op))
        rhs = w.inner(apply_spin(v, op))
        assert lhs == pytest.approx(rhs.conjugate(), abs=1e-12)


def test_ladder_operators_adjoint(rng):
    v = _random_fock_vector(rng, 2, 2)
    w = _random_fock_vector(rng, 2, 2)
    assert v.inner(apply_spin(w, "S+")) == pytest.approx(
        apply_spin(v, "S-").inner(w), abs=1e-12
    )


ORACLE_KEYS = {"Sz", "Sx", "Sy", "S+", "S-", "Sz2", "S-S+", "S+S-", "S2"} | {
    f"S{a}S{b}" for a in "xyz" for b in "xyz"
}


@pytest.mark.parametrize("metric", [False, True])
@pytest.mark.parametrize("m,ne,seed", [(2, 2, 0), (3, 3, 1), (4, 3, 2)])
def test_oracle_values_obey_spin_algebra(m, ne, seed, metric):
    det = helpers.random_metric_determinant(m, ne, seed) if metric else gen_random_gchf(m, ne, seed)
    v = oracle_expectation(det)
    assert set(v) == ORACLE_KEYS
    assert abs(v["S2"] - (v["SxSx"] + v["SySy"] + v["SzSz"])) < 1e-12
    assert abs(v["S+"] - (v["Sx"] + 1j * v["Sy"])) < 1e-12
    assert abs(v["S-"] - v["S+"].conjugate()) < 1e-12
    for a in "xyz":
        for b in "xyz":
            assert abs(v[f"S{a}S{b}"] - v[f"S{b}S{a}"].conjugate()) < 1e-12
    assert abs(v["S-S+"] + v["S+S-"] - 2 * (v["SxSx"] + v["SySy"])) < 1e-12


def test_oracle_s2_trivials():
    assert oracle_expectation(helpers.pure_alpha_one_electron())["S2"].real == pytest.approx(0.75)
    triplet = SpinorDeterminant(2, 2, [[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
    assert oracle_expectation(triplet)["S2"].real == pytest.approx(2.0)


def test_oracle_handles_metric_by_transforming():
    det = helpers.random_metric_determinant(2, 2, seed=9)
    blocks = build_overlap_blocks(det)
    assert oracle_expectation(det)["S2"].real == pytest.approx(expect_s2(blocks), abs=1e-10)


def test_unknown_operator_rejected():
    vec = _vector(1, 1, {0b01: 1.0})
    with pytest.raises(ValueError):
        apply_spin(vec, "S?")
