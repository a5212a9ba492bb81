"""Spin vector, 3x3 spin covariance matrix, and the optimal quantization axis.

The collinearity of a determinant along a unit direction u is measured by the
variance of the projected spin, col(u) = <(u.S)^2> - <u.S>^2.  Collecting the
variances and covariances of Sx, Sy, Sz gives a real symmetric 3x3 matrix A
with col(u) = u^T A u; its lowest eigenvalue is the best achievable value and
the corresponding eigenvector is the optimal quantization axis.

A and <S> are the overlap blocks' record, computed once; a spin rotation R
maps it to R <S> and R A R^T without a reduction.  With the Hermitian Ne x Ne
compressions T_mu[k, i] = <phi_k | S_mu phi_i>,

    A[mu, nu] = delta(mu, nu) * Ne / 4 - G[mu, nu],   G[mu, nu] = Re tr(T_mu T_nu),

where the <S_mu><S_nu> cross terms cancel exactly.  The compressions are
T_x = (X + X^H) / 2, T_y = i (X^H - X) / 2 and T_z = D / 2, with X = o_ab and
D = o_aa - o_bb, so G needs none of them built: with tau = tr(X X) and
<P, Q> = sum_ij conj(P_ij) Q_ij,

    G_xx = (||X||^2 + Re tau) / 2      G_yy = (||X||^2 - Re tau) / 2
    G_zz = ||D||^2 / 4                 G_xy = Im tau / 2
    G_xz = Re <X, D> / 2               G_yz = -Im <X, D> / 2.

The 3x3 eigenproblem goes to ``np.linalg.eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinant import OverlapBlocks, _numbers
from .errors import NotSymmetric, NotUnitVector, check_within
from .spin import expect_splus, expect_sz

UNIT_VECTOR_TOL = 1e-10
SYMMETRY_TOL = 1e-10
DEGENERACY_GAP = 1e-10
# About sqrt(machine epsilon); see min_collinearity.
PROJECTION_FLOOR = 1e-8


@dataclass(frozen=True)
class SpinVector:
    """Cartesian spin expectation values (<Sx>, <Sy>, <Sz>)."""

    sx: float
    sy: float
    sz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])

    def norm_sq(self) -> float:
        return self.sx**2 + self.sy**2 + self.sz**2


@dataclass(frozen=True)
class CollinearityResult:
    """Eigen-analysis of the spin covariance matrix.

    ``eigenvalues`` ascend; ``eigenvectors[:, k]`` is the unit eigenvector of
    ``eigenvalues[k]``, sign-normalized so its largest-magnitude component is
    positive.  ``col`` is the lowest eigenvalue and ``optimal_axis`` its
    eigenvector, sign-normalized the same way; ``degenerate`` flags a lowest
    eigenvalue shared within 1e-10.  In that case the axis is the unit vector
    of the lowest eigenspace maximizing the key (|z|, |x|, |y|), see
    :func:`min_collinearity`; it depends on A alone and need not be one of
    the ``eigenvectors`` columns.  ``degenerate`` covers only the lowest
    pair: the columns of a degenerate pair of higher eigenvalues are an
    arbitrary orthonormal basis of their eigenspace, which a rounding-level
    change in A may rotate within it.
    """

    a_matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    col: float
    optimal_axis: np.ndarray
    degenerate: bool

    def __post_init__(self):
        for name in ("a_matrix", "eigenvalues", "eigenvectors", "optimal_axis"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def spin_vector(blocks: OverlapBlocks) -> SpinVector:
    """<Sx>, <Sy>, <Sz> from the ladder and z expectations."""
    ladder = expect_splus(blocks)
    return SpinVector(sx=ladder.real, sy=ladder.imag, sz=expect_sz(blocks))


def a_matrix(blocks: OverlapBlocks) -> np.ndarray:
    """Real symmetric 3x3 spin covariance matrix A with col(u) = u^T A u (a copy of the blocks' record)."""
    return blocks._record.a.copy()


def _check_unit(u) -> np.ndarray:
    u = _numbers(u, "direction", NotUnitVector, real=True).astype(float, copy=False)
    if u.shape != (3,):
        raise NotUnitVector(f"direction must be a 3-vector, got shape {u.shape}")
    norm = math.sqrt(u.dot(u))
    check_within(abs(norm - 1.0), UNIT_VECTOR_TOL, "direction |norm - 1|", NotUnitVector)
    return u


def col_along(blocks: OverlapBlocks, u) -> float:
    """Variance of the spin component along the unit direction u."""
    u = _check_unit(u)
    return float(u @ a_matrix(blocks) @ u)


def _sign(vec: list[float]) -> float:
    """-1.0 if the first largest-magnitude entry of ``vec`` is negative, else 1.0."""
    return -1.0 if max(vec, key=abs) < 0 else 1.0


def min_collinearity(a) -> CollinearityResult:
    """Diagonalize the spin covariance matrix and pick the optimal axis.

    The axis is the eigenvector of the lowest eigenvalue.  When that
    eigenvalue is degenerate within 1e-10 the axis is a function of A alone,
    not of the eigensolver's basis: the unit vector of the lowest eigenspace
    whose key (|z|, |x|, |y|) is lexicographically largest.  That is the
    normalized projection of e_z onto the eigenspace; if the projection is
    no longer than 1e-8 (rounding level, about sqrt(machine epsilon)) the
    eigenspace is taken to be orthogonal to z and the projection of e_x,
    then of e_y, is used instead.  A fully degenerate A thus gives z, and an
    eigenspace equal to the xy-plane gives x.

    Raises ``NotSymmetric`` if ``a`` is not a real 3x3 matrix, deviates from
    symmetry beyond 1e-10 or has a non-finite entry.
    """
    a = _numbers(a, "A", NotSymmetric, real=True).astype(float, copy=False)
    if a.shape != (3, 3):
        raise NotSymmetric(f"expected a 3x3 matrix, got shape {a.shape}")
    # A non-finite entry makes the asymmetry NaN, which fails the gate.
    check_within(np.abs(a - a.T).max(), SYMMETRY_TOL, "matrix asymmetry", NotSymmetric)
    sym = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(sym)
    vectors *= [_sign(column) for column in vectors.T.tolist()]
    lowest, second, _ = values.tolist()
    degenerate = second - lowest < DEGENERACY_GAP
    if degenerate:
        cluster = vectors[:, values - lowest < DEGENERACY_GAP]
        # Column k is the projection of e_k onto the lowest eigenspace.
        projector = cluster @ cluster.T
        k = next((k for k in (2, 0) if np.linalg.norm(projector[:, k]) > PROJECTION_FLOOR), 1)
        axis = projector[:, k] / np.linalg.norm(projector[:, k])
        axis *= _sign(axis.tolist())
    else:
        axis = vectors[:, 0].copy()
    # Every array here is new, so it is frozen in place instead of copied by __post_init__.
    result = CollinearityResult.__new__(CollinearityResult)
    result.__dict__.update(
        a_matrix=sym, eigenvalues=values, eigenvectors=vectors, col=lowest, optimal_axis=axis, degenerate=degenerate
    )
    for arr in (sym, values, vectors, axis):
        arr.setflags(write=False)
    return result


def analyze_collinearity(blocks: OverlapBlocks) -> CollinearityResult:
    """Build the covariance matrix from overlap blocks and diagonalize it."""
    return min_collinearity(a_matrix(blocks))
