"""Determinant model: overlap blocks, occupation traces, orthonormalization."""

import copy
import gc
import pickle
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import spincol.cli
import spincol.determinant
from spincol import (
    DimensionMismatch,
    FockVector,
    LinearlyDependent,
    NonHermitianResult,
    NotOrthonormal,
    NotSymmetric,
    NotUnitVector,
    OverlapBlocks,
    SpincolError,
    SpinorDeterminant,
    SpinRotation,
    a_matrix,
    align_to_axis,
    analyze_collinearity,
    build_overlap_blocks,
    decompose_s2,
    electron_counts,
    expect_s2,
    expect_sz2,
    gen_random_gchf,
    gen_rhf,
    load_determinant,
    min_collinearity,
    orthonormalize,
    save_determinant,
    spin_vector,
    su2_rotate,
    to_identity_metric,
)
from spincol.cli import build_report, oracle_rows
from spincol.collinearity import SpinVector


def test_blocks_pure_alpha():
    blocks = build_overlap_blocks(helpers.pure_alpha_one_electron())
    assert blocks.o_aa[0, 0] == pytest.approx(1.0)
    for name in ("o_ab", "o_ba", "o_bb"):
        assert getattr(blocks, name)[0, 0] == pytest.approx(0.0)


def test_blocks_x_polarized():
    blocks = build_overlap_blocks(helpers.x_polarized_one_electron())
    for name in ("o_aa", "o_ab", "o_ba", "o_bb"):
        assert getattr(blocks, name)[0, 0] == pytest.approx(0.5)


def test_blocks_match_direct_recomputation():
    # Independent route: plain elementwise loops instead of matrix products.
    det = gen_random_gchf(3, 3, seed=42)
    blocks = build_overlap_blocks(det)
    ca, cb = det.coeff_alpha, det.coeff_beta
    for i in range(3):
        for j in range(3):
            o_aa = sum(ca[k, i].conjugate() * ca[k, j] for k in range(3))
            o_ab = sum(ca[k, i].conjugate() * cb[k, j] for k in range(3))
            o_bb = sum(cb[k, i].conjugate() * cb[k, j] for k in range(3))
            assert blocks.o_aa[i, j] == pytest.approx(o_aa, abs=1e-12)
            assert blocks.o_ab[i, j] == pytest.approx(o_ab, abs=1e-12)
            assert blocks.o_bb[i, j] == pytest.approx(o_bb, abs=1e-12)
    assert np.max(np.abs(blocks.o_aa + blocks.o_bb - np.eye(3))) < 1e-12
    assert np.max(np.abs(blocks.o_ba - blocks.o_ab.conj().T)) == 0.0


def test_electron_counts_trivials():
    assert electron_counts(build_overlap_blocks(helpers.pure_alpha_one_electron())) == (1.0, 0.0)
    na, nb = electron_counts(build_overlap_blocks(helpers.x_polarized_one_electron()))
    assert na == pytest.approx(0.5)
    assert nb == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    ne=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_counts_sum_to_electron_number(m, ne, seed):
    ne = min(ne, 2 * m)
    blocks = build_overlap_blocks(gen_random_gchf(m, ne, seed))
    na, nb = electron_counts(blocks)
    assert na + nb == pytest.approx(ne, abs=1e-10)


def test_block_eigenvalues_within_unit_interval():
    for seed in range(8):
        blocks = build_overlap_blocks(gen_random_gchf(4, 3, seed))
        for name in ("o_aa", "o_bb"):
            vals = np.linalg.eigvalsh(getattr(blocks, name))
            assert vals.min() > -1e-10
            assert vals.max() < 1.0 + 1e-10


def test_orthonormalize_idempotent():
    det = gen_random_gchf(3, 3, seed=17)
    again = orthonormalize(det)
    assert np.max(np.abs(again.coeff_alpha - det.coeff_alpha)) < 1e-12
    assert np.max(np.abs(again.coeff_beta - det.coeff_beta)) < 1e-12


def test_orthonormalize_duplicate_columns_rejected():
    col = np.array([[1.0], [0.5]])
    det = SpinorDeterminant(2, 2, np.hstack([col, col]), np.zeros((2, 2)))
    with pytest.raises(LinearlyDependent):
        orthonormalize(det)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_orthonormalize_random_columns(seed):
    rng = np.random.default_rng(seed)
    det = SpinorDeterminant(
        3, 2, helpers.random_complex(rng, 3, 2), helpers.random_complex(rng, 3, 2)
    )
    ortho = orthonormalize(det)
    w = ortho.stacked()
    gram = w.conj().T @ w
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(5)
    det = SpinorDeterminant(
        3, 2, helpers.random_complex(rng, 3, 2), helpers.random_complex(rng, 3, 2)
    )
    ortho = orthonormalize(det)
    w_old, w_new = det.stacked(), ortho.stacked()
    projector = w_new @ w_new.conj().T
    assert np.max(np.abs(projector @ w_old - w_old)) < 1e-10


def test_orthonormalize_under_metric():
    det = helpers.random_metric_determinant(3, 2, seed=8)
    assert det.orthonormality_residual() < 1e-12
    blocks = build_overlap_blocks(det)
    assert np.max(np.abs(blocks.o_aa + blocks.o_bb - np.eye(2))) < 1e-10


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("seed", range(4))
def test_orthonormalized_blocks_match_a_rebuild(with_metric, seed):
    # orthonormalize derives the new blocks from the parent's as G^(-1/2) o G^(-1/2);
    # a determinant built on the new coefficients and a fresh metric copy computes them by GEMM.
    rng = np.random.default_rng(900 + seed)
    metric = helpers.random_pd_metric(rng, 6) if with_metric else None
    coeffs = helpers.random_complex(rng, 6, 5), helpers.random_complex(rng, 6, 5)
    raw = SpinorDeterminant(6, 5, *coeffs, metric)
    ortho = orthonormalize(raw)
    rebuilt = SpinorDeterminant(
        6, 5, ortho.coeff_alpha, ortho.coeff_beta, None if metric is None else metric.copy()
    )
    seeded, computed = build_overlap_blocks(ortho), build_overlap_blocks(rebuilt)
    for name in ("o_aa", "o_ab", "o_bb"):
        assert np.max(np.abs(getattr(seeded, name) - getattr(computed, name))) <= 1e-12


def test_to_identity_metric_preserves_blocks():
    det = helpers.random_metric_determinant(3, 2, seed=21)
    plain = to_identity_metric(det)
    assert plain.ao_overlap is None
    b1, b2 = build_overlap_blocks(det), build_overlap_blocks(plain)
    for name in ("o_aa", "o_ab", "o_ba", "o_bb"):
        assert np.max(np.abs(getattr(b1, name) - getattr(b2, name))) < 1e-12


def test_constructor_shape_errors():
    with pytest.raises(DimensionMismatch):
        SpinorDeterminant(2, 2, np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        SpinorDeterminant(1, 3, np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        SpinorDeterminant(0, 1, np.zeros((0, 1)), np.zeros((0, 1)))


def test_constructor_metric_errors():
    bad_hermitian = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SpincolError):
        SpinorDeterminant(2, 1, np.eye(2)[:, :1], np.zeros((2, 1)), bad_hermitian)
    not_pd = np.diag([1.0, -0.5])
    with pytest.raises(SpincolError):
        SpinorDeterminant(2, 1, np.eye(2)[:, :1], np.zeros((2, 1)), not_pd)


@pytest.mark.parametrize("field", ["coeff_alpha", "coeff_beta", "ao_overlap"])
def test_constructor_rejects_non_finite(field):
    args = {"coeff_alpha": np.eye(2)[:, :1], "coeff_beta": np.zeros((2, 1)), "ao_overlap": np.eye(2)}
    args[field] = args[field].copy()
    args[field][0, 0] = np.nan
    with pytest.raises(SpincolError, match=field):
        SpinorDeterminant(2, 1, **args)


@pytest.mark.parametrize(
    "entry", [complex(0.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)], ids=["nan-imag", "+inf", "-inf"]
)
@pytest.mark.parametrize("field", ["coeff_alpha", "coeff_beta"])
def test_constructor_rejects_each_kind_of_non_finite_entry(field, entry):
    args = {"coeff_alpha": np.eye(3, 2, dtype=complex), "coeff_beta": np.zeros((3, 2), dtype=complex)}
    args[field][2, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpincolError, match=f"{field} has a non-finite entry"):
            SpinorDeterminant(3, 2, **args)


def _count_elementwise_scans(monkeypatch) -> list:
    """The shapes of the arrays ``np.isfinite`` is called on from now on (scalars are not counted)."""
    scans, isfinite = [], np.isfinite

    def counting(x, *args, **kwargs):
        if np.ndim(x):
            scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return scans


@pytest.mark.parametrize(
    "value, scanned",
    [(0.5, False), (1e200, True), (1.7e308, True), (5e-324, False), (2.5e-310, False)],
    ids=["plain", "norm-overflows", "near-max", "smallest-subnormal", "subnormal"],
)
def test_constructor_accepts_finite_entries_of_any_magnitude(monkeypatch, value, scanned):
    # ||C||² is finite for ordinary input, so no entry-by-entry scan runs; when it overflows,
    # the exact scan decides, and finite entries pass it.
    coeffs = np.full((3, 2), complex(value, -value))
    scans = _count_elementwise_scans(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det = SpinorDeterminant(3, 2, coeffs, coeffs[::-1])
    assert det.coeff_alpha.tobytes() == coeffs.tobytes()
    assert scans == ([(3, 2), (3, 2)] if scanned else [])


def test_a_nan_in_a_transposed_sealed_metric_is_rejected():
    metric = np.eye(3, dtype=complex)
    metric[0, 2] = metric[2, 0] = complex(np.nan, 0.0)
    metric.setflags(write=False)
    # A read-only, non-contiguous view is copied like any other metric, and the NaN is found in the copy.
    assert not metric.T.flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpincolError, match="ao_overlap has a non-finite entry"):
            SpinorDeterminant(3, 1, np.eye(3, 1), np.zeros((3, 1)), metric.T)


def test_build_rejects_non_orthonormal():
    det = SpinorDeterminant(1, 1, [[2.0]], [[0.0]])
    with pytest.raises(NotOrthonormal):
        build_overlap_blocks(det)


def test_blocks_validate_catches_corruption():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=1))
    tampered = OverlapBlocks(
        o_aa=good.o_aa + np.diag([0.1j, 0.0]),
        o_ab=good.o_ab,
        o_bb=good.o_bb,
    )
    # The residuals are computed once per blocks object but checked on every call.
    for _ in range(3):
        with pytest.raises(NonHermitianResult, match="o_aa Hermiticity"):
            tampered.validate()


def test_hermiticity_residuals_are_computed_once_per_blocks_object(monkeypatch):
    prop = OverlapBlocks.__dict__["_hermiticity_residuals"]
    calls = []
    original = prop.func

    def counting(blocks):
        calls.append(blocks)
        return original(blocks)

    monkeypatch.setattr(prop, "func", counting)
    dets = [gen_random_gchf(3, 2, seed) for seed in range(2)]
    for _ in range(3):
        for det in dets:
            build_overlap_blocks(det)
    assert len(calls) == 2
    assert {id(blocks) for blocks in calls} == {id(det._blocks) for det in dets}


def test_arrays_are_frozen():
    det = gen_random_gchf(2, 2, seed=0)
    with pytest.raises(ValueError):
        det.coeff_alpha[0, 0] = 0.0
    blocks = build_overlap_blocks(det)
    with pytest.raises(ValueError):
        blocks.o_aa[0, 0] = 0.0


def test_every_build_returns_the_determinants_one_blocks():
    det = gen_random_gchf(3, 2, seed=0)
    blocks = build_overlap_blocks(det)
    assert build_overlap_blocks(det) is blocks
    for name in ("o_aa", "o_ab", "o_bb"):
        block = getattr(blocks, name)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block.setflags(write=True)


def test_hand_built_blocks_copy_a_writeable_array():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=1))
    o_aa = np.array(good.o_aa)
    blocks = OverlapBlocks(o_aa=o_aa, o_ab=good.o_ab, o_bb=good.o_bb)
    assert o_aa.flags.writeable
    o_aa[0, 0] += 1.0
    assert blocks.o_aa[0, 0] == good.o_aa[0, 0]
    blocks.validate()


def test_hand_built_blocks_of_the_wrong_shape_are_rejected():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=1))
    with pytest.raises(DimensionMismatch, match="o_ab must be 2x2"):
        OverlapBlocks(o_aa=good.o_aa, o_ab=good.o_ab[:, :1], o_bb=good.o_bb)
    with pytest.raises(DimensionMismatch, match="o_aa must be 2x2"):
        OverlapBlocks(o_aa=good.o_aa[:, :1], o_ab=good.o_ab, o_bb=good.o_bb)


@pytest.mark.parametrize(
    "block", [1.0, np.ones(3), np.zeros((0, 0)), np.ones((2, 3))], ids=["scalar", "1-d", "0x0", "non-square"]
)
def test_hand_built_blocks_must_be_square_with_at_least_one_electron(block):
    # Each raises the typed error naming o_aa: not an IndexError, nor a 0x0 stack that
    # validate() or the spin formulas would fail on, or report zeros for.
    with pytest.raises(DimensionMismatch, match="o_aa must be"):
        OverlapBlocks(block, block, block)


_RAGGED = [[1.0], [0.0, 1.0]]
_COLUMN = [[1.0], [0.0]]


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: SpinorDeterminant(2, 1, _RAGGED, _COLUMN), DimensionMismatch, "coeff_alpha"),
        (lambda: SpinorDeterminant(2, 1, _COLUMN, _COLUMN, _RAGGED), DimensionMismatch, "ao_overlap"),
        (lambda: OverlapBlocks(_RAGGED, [[1.0]], [[1.0]]), DimensionMismatch, "o_aa"),
        (lambda: SpinorDeterminant(1, 1, [[1.0]], [["a"]]), DimensionMismatch, "coeff_beta"),
        (lambda: SpinorDeterminant(1, 1, [[1.0]], [[0.0]], [["a"]]), DimensionMismatch, "ao_overlap"),
        (lambda: OverlapBlocks([[1.0]], [["a"]], [[0.0]]), DimensionMismatch, "o_ab"),
        (lambda: SpinorDeterminant(1, 1, [[None]], [[0.0]]), DimensionMismatch, "coeff_alpha"),
        (lambda: SpinorDeterminant(1.0, 1, [[1.0]], [[0.0]]), DimensionMismatch, "basis_dim"),
        (lambda: SpinRotation([0.0, 0.0, 1.0], "x"), SpincolError, "rotation angle"),
        (lambda: align_to_axis(gen_random_gchf(2, 1, seed=1), ["a", "b", "c"]), NotUnitVector, "direction"),
        (lambda: align_to_axis(gen_random_gchf(2, 1, seed=1), [1j, 0.0, 0.0]), NotUnitVector, "direction"),
        (lambda: min_collinearity([["a"] * 3] * 3), NotSymmetric, "A"),
        (lambda: gen_rhf(_RAGGED), DimensionMismatch, "orbitals"),
        (lambda: FockVector(1, 1, ["a", "b"]), DimensionMismatch, "amplitudes"),
        (lambda: FockVector(1, 1, _RAGGED), DimensionMismatch, "amplitudes"),
    ],
    ids=[
        "ragged-coefficients", "ragged-metric", "ragged-block", "string-coefficient", "string-metric",
        "string-block", "none-coefficient", "float-dimension", "string-angle", "string-direction",
        "complex-direction", "string-a", "ragged-orbitals", "string-amplitudes", "ragged-amplitudes",
    ],
)
def test_malformed_library_input_raises_a_typed_error_naming_the_field(call, error, field):
    # Not numpy's ValueError or TypeError, and not a "non-finite" report for a None entry.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{field} ") as raised:
            call()
    assert "non-finite" not in str(raised.value)


@pytest.mark.parametrize("ne", [1, 63, 64, 65, 200])
def test_panel_hermiticity_residual_is_the_full_matrix_maximum(ne):
    rng = np.random.default_rng(ne)
    hermitian = helpers.random_complex(rng, ne, ne)
    hermitian = hermitian + hermitian.conj().T
    for block in (helpers.random_complex(rng, ne, ne), hermitian + 1e-13 * helpers.random_complex(rng, ne, ne)):
        expected = np.max(np.abs(block - block.conj().T))
        assert spincol.determinant._hermiticity_residual(block) == expected


@pytest.mark.parametrize("where", [(0, 0), (3, 150), (150, 3), (199, 199)])
def test_nan_in_a_hand_built_block_fails_validation(where):
    # Python's max() drops a NaN that arrives after a number; the panel maximum must not.
    good = build_overlap_blocks(gen_random_gchf(200, 200, seed=3))
    o_aa = np.array(good.o_aa)
    o_aa[where] = np.nan
    tampered = OverlapBlocks(o_aa=o_aa, o_ab=good.o_ab, o_bb=good.o_bb)
    with pytest.raises(NonHermitianResult, match="o_aa Hermiticity residual nan"):
        tampered.validate()


@pytest.mark.parametrize("seed", range(3))
def test_identity_deviation_is_the_full_matrix_maximum(seed):
    raw = SpinorDeterminant(5, 3, *(helpers.random_complex(np.random.default_rng(seed), 5, 3) for _ in "ab"))
    for det in (raw, orthonormalize(raw), helpers.random_metric_determinant(6, 4, seed)):
        blocks = det._blocks
        expected = np.max(np.abs(blocks.o_aa + blocks.o_bb - np.eye(det.n_electrons)))
        assert det.orthonormality_residual() == expected


SEEDED = (*helpers.SEEDED, "_hermiticity_residuals")


def _count_computations(monkeypatch, names):
    """Record, per cached property in ``names``, the id of every blocks object it is computed for."""
    calls = {name: [] for name in names}
    for name in names:
        prop = OverlapBlocks.__dict__[name]

        def counting(blocks, original=prop.func, seen=calls[name]):
            seen.append(id(blocks))
            return original(blocks)

        monkeypatch.setattr(prop, "func", counting)
    return calls


def _run_every_formula(*all_blocks):
    for _ in range(3):
        for b in all_blocks:
            decompose_s2(b)
            expect_s2(b)
            spin_vector(b)
            a_matrix(b)
            analyze_collinearity(b)
            electron_counts(b)


def test_the_record_is_computed_once_when_first_read(monkeypatch):
    calls = _count_computations(monkeypatch, ("_record",))
    det = helpers.random_metric_determinant(5, 4, seed=11)
    blocks = build_overlap_blocks(det)
    # Validation reads none of it.
    assert calls == {"_record": []}
    _run_every_formula(blocks)
    assert calls == {"_record": [id(blocks)]}


def test_the_record_is_the_closed_forms_of_the_blocks_bit_for_bit():
    # One X = o_ab and one D = o_aa - o_bb give the traces and four reductions; N_alpha,
    # N_beta, <S>, A, <Sz^2> and the z-noncollinearity come out of the record unchanged.
    det = helpers.random_metric_determinant(6, 5, seed=13)
    blocks = build_overlap_blocks(det)
    x, d = blocks.o_ab, blocks.o_aa - blocks.o_bb
    t_aa, t_ab, t_bb = np.trace(blocks.o_aa), np.trace(x), np.trace(blocks.o_bb)
    d_sq, x_sq = np.vdot(d, d).real, np.vdot(x, x).real
    tau, x_d = np.einsum("ij,ji->", x, x), np.vdot(x, d)
    g = 0.5 * np.array(
        [
            [x_sq + tau.real, tau.imag, x_d.real],
            [tau.imag, x_sq - tau.real, -x_d.imag],
            [x_d.real, -x_d.imag, 0.5 * d_sq],
        ]
    )
    assert a_matrix(blocks).tobytes() == (np.eye(3) * 1.25 - g).tobytes()
    sz = ((t_aa - t_bb) / 2.0).real
    assert electron_counts(blocks) == (t_aa.real, t_bb.real)
    assert spin_vector(blocks) == SpinVector(t_ab.real, t_ab.imag, sz)
    assert decompose_s2(blocks).z_noncollinearity == 0.25 * (5 - d_sq)
    assert expect_sz2(blocks) == sz * sz + 0.25 * (5 - d_sq)


def test_rotated_blocks_compute_no_scalar_from_arrays(monkeypatch):
    # A rotation seeds the record and the gate values from the parent's; none is computed from
    # the rotated arrays, and each seeded value is within rounding of the one they give.
    calls = _count_computations(monkeypatch, SEEDED)
    det = helpers.random_metric_determinant(7, 5, seed=11)
    blocks = build_overlap_blocks(det)
    rotated = build_overlap_blocks(su2_rotate(det, SpinRotation([0.0, 0.6, 0.8], 1.1)))
    _run_every_formula(blocks, rotated)
    assert calls == {name: [id(blocks)] for name in SEEDED}
    helpers.check_seeded_against_arrays(rotated)


def _count_calls(monkeypatch, name) -> list:
    """Record the first argument of every call of the module function ``spincol.determinant.<name>``."""
    calls, original = [], getattr(spincol.determinant, name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(spincol.determinant, name, counting)
    return calls


def test_the_tilted_determinant_builds_no_blocks_and_mixes_no_coefficients(monkeypatch):
    # The analyze-large op and `analyze --align-optimal` read only the tilted determinant's seeded
    # record: the one block build is the input's, and no coefficient is mixed.
    rng = np.random.default_rng(16)
    det = helpers.over_metric(gen_random_gchf(8, 6, seed=16), helpers.random_pd_metric(rng, 8))
    builds = _count_calls(monkeypatch, "_block_stack")
    mixes = _count_calls(monkeypatch, "_rotated_coefficients")
    blocks = build_overlap_blocks(det)
    decompose_s2(blocks)
    spin_vector(blocks)
    tilted = align_to_axis(det, analyze_collinearity(blocks).optimal_axis)
    decompose_s2(build_overlap_blocks(tilted))
    build_report(det, "det.json", "0" * 64, align_optimal=True)
    assert len(builds) == 1 and builds[0] is det._coeffs and mixes == []
    # Reading a block builds the tilted determinant's own, after mixing its coefficients once.
    assert tilted._blocks.o_aa.shape == (6, 6)
    assert len(builds) == 2 and len(mixes) == 1
    assert builds[1].tobytes() == tilted._coeffs.tobytes()


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("coefficients_first", [True, False], ids=["coefficients-first", "blocks-first"])
def test_a_rotated_determinant_mixes_once_for_its_coefficients_and_its_blocks(
    monkeypatch, with_metric, coefficients_first
):
    det = gen_random_gchf(6, 4, seed=24)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(np.random.default_rng(24), 6))
    mixes = _count_calls(monkeypatch, "_rotated_coefficients")
    scans = _count_calls(monkeypatch, "_check_finite")
    rotated = align_to_axis(det, [0.6, 0.0, 0.8])
    reads = [rotated.stacked, lambda: rotated._blocks.o_aa]
    for read in reads if coefficients_first else reads[::-1]:
        read()
        assert len(mixes) == 1 and scans == ONE_SCAN
    # The blocks are those of a fresh determinant on the same coefficients, bit for bit.
    metric = None if det.ao_overlap is None else np.array(det.ao_overlap)
    fresh = SpinorDeterminant(6, 4, np.array(rotated.coeff_alpha), np.array(rotated.coeff_beta), metric)
    assert rotated._blocks._stack.tobytes() == fresh._blocks._stack.tobytes()


def test_a_reader_that_missed_the_stored_stack_returns_it():
    # Two threads reading a rotated block both run the stack's getter (no lock on Python 3.12).
    det = helpers.random_metric_determinant(6, 5, seed=18)
    build = OverlapBlocks.__dict__["_stack"].func
    rotated = build_overlap_blocks(align_to_axis(det, [0.6, 0.0, 0.8]))
    first = build(rotated)
    # One that built its own stack after the other stored one returns the stored stack.
    assert build(rotated) is first
    assert rotated.o_aa.base is first.base


def test_threads_reading_one_pending_block_share_its_stack():
    det = gen_random_gchf(120, 200, seed=19)
    rotated = build_overlap_blocks(align_to_axis(det, [0.48, 0.6, 0.64]))
    barrier, seen, errors = threading.Barrier(4), [], []

    def read():
        barrier.wait()
        try:
            seen.append(rotated.o_aa)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert all(np.array_equal(o_aa, rotated.o_aa) for o_aa in seen)


def test_a_dropped_rotated_determinant_is_freed_without_the_collector():
    # A rotated determinant and its blocks hold no reference to each other in a cycle:
    # reference counting frees both, read or not, while the cyclic collector is off.
    det = helpers.random_metric_determinant(6, 5, seed=22)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for read in (False, True):
            rotated = align_to_axis(align_to_axis(det, [0.6, 0.0, 0.8]), [0.0, 0.6, 0.8])
            if read:
                assert build_overlap_blocks(rotated).o_ba.shape == (5, 5) and rotated.stacked().shape == (12, 5)
            refs = [weakref.ref(rotated), weakref.ref(rotated._blocks)]
            del rotated
            assert [ref() for ref in refs] == [None, None], read
    finally:
        if collecting:
            gc.enable()


def test_rotated_coefficients_are_not_mixed_along_the_analysis_path(monkeypatch):
    # The analyze-large op and `analyze --align-optimal` read only the seeded record of the tilted
    # determinant, which keeps its parent's buffer and an SU(2) matrix in place of its own.
    det = helpers.random_metric_determinant(8, 6, seed=21)
    blocks = build_overlap_blocks(det)
    decompose_s2(blocks)
    spin_vector(blocks)
    tilted = align_to_axis(det, analyze_collinearity(blocks).optimal_axis)
    decompose_s2(build_overlap_blocks(tilted))
    tilted_in_report = []

    def recording_align(*args):
        tilted_in_report.append(align_to_axis(*args))
        return tilted_in_report[-1]

    monkeypatch.setattr(spincol.cli, "align_to_axis", recording_align)
    build_report(det, "det.json", "0" * 64, align_optimal=True)
    assert len(tilted_in_report) == 1
    for rotated in (tilted_in_report[0], tilted):
        pending = rotated.__dict__["_pending"]
        assert "_coeffs" not in rotated.__dict__ and rotated._blocks._source[0] is pending
        u, root = pending.args
        assert root.base is det.stacked().base
    # The first read mixes them by one GEMM and stores them; the pending mix keeps that buffer for the blocks.
    assert tilted.stacked().tobytes() == (u @ det.stacked().reshape(2, -1)).reshape(16, 6).tobytes()
    assert pending.coeffs is tilted.__dict__["_coeffs"] and pending.args[1] is root


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
@pytest.mark.parametrize("chain", [1, 3, 1500])
def test_rotated_coefficients_are_u_times_the_parents_and_a_chain_is_the_product(with_metric, chain):
    # One rotation's coefficients are u times its parent's, bit for bit; a chain of rotations
    # equals the sequential product of its SU(2) matrices on the first determinant's coefficients.
    rng = np.random.default_rng(22 + chain)
    det = gen_random_gchf(6, 5, seed=22)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(rng, 6))
    rotated, sequential = det, det.stacked().reshape(2, -1)
    for _ in range(chain):
        rot = SpinRotation(helpers.random_unit_vector(rng), rng.uniform(-4.0, 4.0))
        parent, rotated = rotated, su2_rotate(rotated, rot)
        sequential = rot.su2() @ sequential
        assert rotated.ao_overlap is det.ao_overlap
    assert rotated.stacked().tobytes() == (rot.su2() @ parent.stacked().reshape(2, -1)).tobytes()
    assert np.max(np.abs(rotated.stacked() - sequential.reshape(12, 5))) <= 1e-13
    assert np.array_equal(rotated.coeff_beta, rotated.stacked()[6:])


def test_threads_reading_one_pending_coefficient_buffer_share_it():
    det = gen_random_gchf(300, 200, seed=23)
    rotated = align_to_axis(det, [0.48, 0.6, 0.64])
    barrier, seen, errors = threading.Barrier(4), [], []

    def read():
        barrier.wait()
        try:
            seen.append(rotated.coeff_beta)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [] and len(seen) == 4
    buffer = rotated.__dict__["_coeffs"]
    assert all(coeff_beta.base is buffer.base for coeff_beta in seen)


def test_overflowing_rotated_coefficients_fail_when_read():
    # Entries of 1.5e308 pass the constructor (||C||² overflows, the exact scan finds every entry
    # finite); a 90° turn about y adds the two components past the largest double.
    big = np.full((2, 2), 1.5e308, dtype=complex)
    rot = SpinRotation([0.0, 1.0, 0.0], np.pi / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det = SpinorDeterminant(2, 2, big, big)
        rotated = su2_rotate(det, rot)
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = (rot.su2() @ det.stacked().reshape(2, -1)).reshape(2, 2, 2)
        with pytest.raises(SpincolError, match="non-finite") as eager:
            SpinorDeterminant(2, 2, *mixed)
        for read in (lambda: rotated.coeff_alpha, lambda: rotated.coeff_beta, rotated.stacked):
            with pytest.raises(SpincolError, match="non-finite") as lazy:
                read()
            assert str(lazy.value) == str(eager.value)
        # The parent's Gram matrix has overflowed, so the seeded orthonormality gate fails first.
        with pytest.raises(NotOrthonormal):
            build_overlap_blocks(rotated)
    # No failed buffer is recorded as checked, so each read mixes and scans again.
    _assert_every_recorded_buffer_is_finite()


def _assert_every_recorded_buffer_is_finite():
    assert all(np.isfinite(owner).all() for owner in list(spincol.determinant._CHECKED.values()))


# The names _check_finite is called with to scan one coefficient buffer.
ONE_SCAN = ["coeff_alpha", "coeff_beta"]


def _callers_read_only_buffer(m, ne, seed) -> np.ndarray:
    """A read-only (2, m, ne) array the caller owns, holding an orthonormal determinant's halves."""
    det = gen_random_gchf(m, ne, seed)
    buf = np.array([det.coeff_alpha, det.coeff_beta])
    buf.setflags(write=False)
    return buf


def test_a_callers_read_only_buffer_is_copied_and_scanned_on_every_construction(monkeypatch):
    buf = _callers_read_only_buffer(4, 3, seed=25)
    scans = _count_calls(monkeypatch, "_check_finite")
    for k in (1, 2):
        det = SpinorDeterminant(4, 3, *buf)
        assert scans == ONE_SCAN * k
        assert not np.shares_memory(det.stacked(), buf)
    # A NaN in one half is found on the first construction and again on the next, on the same halves.
    bad = np.array(buf)
    bad[1, 2, 1] = complex(np.nan, 0.0)
    bad.setflags(write=False)
    for _ in range(2):
        with pytest.raises(SpincolError, match="coeff_beta has a non-finite entry"):
            SpinorDeterminant(4, 3, *bad)


def test_a_spincol_buffer_made_writeable_again_is_copied_and_scanned(monkeypatch):
    det = gen_random_gchf(4, 3, seed=26)
    owner = det.coeff_alpha.base
    owner.setflags(write=True)
    scans = _count_calls(monkeypatch, "_check_finite")
    again = SpinorDeterminant(4, 3, det.coeff_alpha, det.coeff_beta)
    assert scans == ONE_SCAN and not np.shares_memory(again.stacked(), owner)
    owner[0, 1, 2] = np.inf
    with pytest.raises(SpincolError, match="coeff_alpha has a non-finite entry"):
        SpinorDeterminant(4, 3, det.coeff_alpha, det.coeff_beta)


def test_a_nan_written_later_to_a_callers_buffer_never_reaches_its_determinant(monkeypatch):
    buf = _callers_read_only_buffer(4, 3, seed=27)
    det = SpinorDeterminant(4, 3, *buf)
    kept = det.stacked().tobytes()
    # The caller may write to its own array again; the determinant holds a copy.
    buf.setflags(write=True)
    buf[0, 0, 0] = complex(np.nan, 0.0)
    buf.setflags(write=False)
    scans = _count_calls(monkeypatch, "_check_finite")
    rotated = [align_to_axis(det, [0.6, 0.0, 0.8]), su2_rotate(det, SpinRotation([0.0, 0.6, 0.8], 1.1))]
    assert scans == [] and det.stacked().tobytes() == kept
    for k, each in enumerate(rotated, start=1):
        assert np.isfinite(each.stacked()).all() and np.isfinite(build_overlap_blocks(each).o_aa).all()
        # Reading them scans only their own mix, once.
        assert scans == ONE_SCAN * k


def test_rotations_of_a_loaded_determinant_scan_nothing(tmp_path, monkeypatch):
    path = tmp_path / "det.json"
    save_determinant(helpers.random_metric_determinant(8, 6, seed=28), path)
    det = load_determinant(path)
    scans = _count_calls(monkeypatch, "_check_finite")
    rotated = su2_rotate(det, SpinRotation([0.0, 0.6, 0.8], 1.1))
    blocks = build_overlap_blocks(det)
    tilted = align_to_axis(det, analyze_collinearity(blocks).optimal_axis)
    decompose_s2(build_overlap_blocks(tilted))
    build_report(det, "det.json", "0" * 64, align_optimal=True)
    assert scans == []
    # A rotated determinant's coefficients are scanned once, when first read.
    for _ in range(2):
        assert rotated.coeff_alpha.shape == rotated.coeff_beta.shape == (8, 6)
        assert rotated.stacked().shape == (16, 6)
    assert scans == ONE_SCAN
    # They are recorded, so rotating the rotated determinant scans nothing more.
    su2_rotate(rotated, SpinRotation([1.0, 0.0, 0.0], 0.3))
    assert scans == ONE_SCAN


def test_orthonormalize_scans_its_buffer_once_and_its_rotations_scan_nothing(monkeypatch):
    rng = np.random.default_rng(29)
    raw = SpinorDeterminant(5, 3, helpers.random_complex(rng, 5, 3), helpers.random_complex(rng, 5, 3))
    scans = _count_calls(monkeypatch, "_check_finite")
    ortho = orthonormalize(raw)
    assert scans == ONE_SCAN
    align_to_axis(ortho, [0.48, 0.6, 0.64])
    su2_rotate(ortho, SpinRotation([0.0, 0.0, 1.0], 2.0))
    assert scans == ONE_SCAN


def test_copies_scan_nothing_while_pickles_and_fresh_arrays_are_scanned_once(monkeypatch):
    det = gen_random_gchf(4, 3, seed=30)
    scans = _count_calls(monkeypatch, "_check_finite")
    assert copy.copy(det).coeff_alpha.base is det.coeff_alpha.base
    assert scans == []
    pickle.loads(pickle.dumps(det))
    assert scans == ONE_SCAN
    SpinorDeterminant(4, 3, np.array(det.coeff_alpha), np.array(det.coeff_beta))
    assert scans == ONE_SCAN * 2


def test_threads_rotating_and_constructing_on_one_parent_agree():
    # The parent's own coefficients are pending, so the threads also race to mix and record them.
    parent = align_to_axis(gen_random_gchf(300, 200, seed=31), [0.48, 0.6, 0.64])
    rot = SpinRotation([0.0, 0.6, 0.8], 1.1)
    barrier, seen, errors = threading.Barrier(4), [], []

    def work():
        barrier.wait()
        try:
            rotated = su2_rotate(parent, rot)
            made = SpinorDeterminant(300, 200, parent.coeff_alpha, parent.coeff_beta)
            seen.append((rotated.stacked().tobytes(), made.stacked().tobytes()))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [] and len(seen) == 4
    assert len(set(seen)) == 1
    assert seen[0] == (su2_rotate(parent, rot).stacked().tobytes(), parent.stacked().tobytes())
    _assert_every_recorded_buffer_is_finite()


@pytest.mark.parametrize("tampered", ["o_aa", "o_bb"])
def test_rotating_a_non_hermitian_parent_still_fails_validation(tampered):
    det = gen_random_gchf(4, 3, seed=2)
    good = det._blocks
    parts = {"o_aa": good.o_aa, "o_ab": good.o_ab, "o_bb": good.o_bb}
    parts[tampered] = parts[tampered] + np.diag([1e-11j, 0.0, 0.0])
    det.__dict__["_blocks"] = OverlapBlocks(**parts)
    residuals = det._blocks._hermiticity_residuals
    larger = residuals[tampered]
    assert larger == max(residuals.values()) and larger > 1e-12
    for u in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.48, 0.6, 0.64]):
        rotated = align_to_axis(det, u)
        # The gate checks the parent's larger residual, seeded for both blocks, not arrays built afresh.
        with pytest.raises(NonHermitianResult, match=f"o_aa Hermiticity residual {larger:.3e} "):
            build_overlap_blocks(rotated)
        assert rotated._blocks._hermiticity_residuals == {"o_aa": larger, "o_bb": larger}


def test_rotating_an_overflowing_parent_still_fails_orthonormality():
    big = 1e200
    coeff_alpha = np.array([[big, big], [big * (1 + 1j), -big * (1 + 1j)]])
    det = SpinorDeterminant(2, 2, coeff_alpha, np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8]):
            with pytest.raises(NotOrthonormal, match="nan"):
                build_overlap_blocks(align_to_axis(det, u))


@pytest.mark.parametrize("with_metric", [False, True], ids=["identity", "metric"])
def test_orthonormalize_and_oracle_rows_of_a_rotated_determinant_match_a_fresh_copy(with_metric):
    det = gen_random_gchf(4, 3, seed=17)
    if with_metric:
        det = helpers.over_metric(det, helpers.random_pd_metric(np.random.default_rng(17), 4))
    rotated = align_to_axis(det, [0.48, 0.6, 0.64])
    metric = None if det.ao_overlap is None else np.array(det.ao_overlap)
    fresh = SpinorDeterminant(4, 3, np.array(rotated.coeff_alpha), np.array(rotated.coeff_beta), metric)
    # oracle_rows reads only the seeded record; orthonormalize reads the arrays and builds them.
    rows, fresh_rows = oracle_rows(rotated), oracle_rows(fresh)
    assert "_stack" not in rotated._blocks.__dict__
    for (label, formula, oracle, _), (_, want, want_oracle, _) in zip(rows, fresh_rows):
        assert abs(formula - want) <= 1e-12, label
        assert oracle == want_oracle, label
    ortho, fresh_ortho = orthonormalize(rotated), orthonormalize(fresh)
    assert "_stack" in rotated._blocks.__dict__
    assert np.max(np.abs(ortho.stacked() - fresh_ortho.stacked())) <= 1e-12
    b, fresh_b = build_overlap_blocks(ortho), build_overlap_blocks(fresh_ortho)
    for name in ("o_aa", "o_ab", "o_ba", "o_bb"):
        assert np.max(np.abs(getattr(b, name) - getattr(fresh_b, name))) <= 1e-12, name


def test_determinant_blocks_are_views_of_one_stack():
    blocks = build_overlap_blocks(helpers.random_metric_determinant(5, 4, seed=12))
    stack = blocks._stack
    assert stack.shape == (3, 4, 4) and not stack.flags.writeable
    for k, name in enumerate(("o_aa", "o_ab", "o_bb")):
        assert getattr(blocks, name).__array_interface__ == stack[k].__array_interface__
    # o_ba is the exact conjugate transpose of o_ab, bit for bit, computed once and read-only.
    assert blocks.o_ba.tobytes() == np.ascontiguousarray(blocks.o_ab.conj().T).tobytes()
    assert blocks.o_ba is blocks.o_ba and not blocks.o_ba.flags.writeable


def test_constructor_copies_writeable_coefficients_into_one_buffer():
    rng = np.random.default_rng(13)
    ca, cb = helpers.random_complex(rng, 4, 3), helpers.random_complex(rng, 4, 3)
    det = SpinorDeterminant(4, 3, ca, cb)
    kept = det.coeff_alpha.copy(), det.coeff_beta.copy()
    ca[0, 0] += 1.0
    cb[...] = 0.0
    assert np.array_equal(det.coeff_alpha, kept[0]) and np.array_equal(det.coeff_beta, kept[1])
    stacked = det.stacked()
    assert not stacked.flags.writeable
    assert np.array_equal(stacked, np.vstack(kept))
    assert np.shares_memory(stacked, det.coeff_alpha) and np.shares_memory(stacked, det.coeff_beta)


def test_derived_determinants_share_their_buffer_without_a_copy():
    det = helpers.random_metric_determinant(4, 3, seed=14)
    for derived in (su2_rotate(det, SpinRotation([1.0, 0.0, 0.0], 0.7)), orthonormalize(det)):
        ca, cb = derived.coeff_alpha, derived.coeff_beta
        assert ca.base is cb.base and not ca.base.flags.writeable
        assert np.shares_memory(derived.stacked(), ca)
        again = SpinorDeterminant(4, 3, ca, cb)
        assert again.coeff_alpha is not ca
        assert again.coeff_alpha.__array_interface__ == ca.__array_interface__
        assert again.coeff_beta.__array_interface__ == cb.__array_interface__
        # Sealed views that are not alpha then beta of one buffer are copied.
        for pair in ((cb, ca), (ca, det.coeff_beta)):
            copied = SpinorDeterminant(4, 3, *pair)
            assert not np.shares_memory(copied.stacked(), ca)


def test_copied_and_unpickled_determinants_are_frozen_with_one_buffer():
    det = helpers.random_metric_determinant(4, 3, seed=15)
    for clone in (copy.copy(det), copy.deepcopy(det), pickle.loads(pickle.dumps(det))):
        assert np.array_equal(clone.stacked(), det.stacked())
        assert np.array_equal(clone.ao_overlap, det.ao_overlap)
        for arr in (clone.coeff_alpha, clone.coeff_beta, clone.ao_overlap):
            assert not arr.flags.writeable
        assert np.shares_memory(clone.stacked(), clone.coeff_alpha)
        assert np.shares_memory(clone.stacked(), clone.coeff_beta)
