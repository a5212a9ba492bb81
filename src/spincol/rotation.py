"""Global SU(2) spin-frame rotations and canonical determinant generators.

Rotating every spinor by the same 2x2 unitary tilts the spin quantization
axis without touching the spatial parts; expectation values transform by the
corresponding SO(3) rotation.  The generators build the standard determinant
classes used throughout the test suite: closed-shell (paired spins, shared
orbitals), restricted open-shell (paired plus extra pure-alpha), different
orbitals for different spins, and fully general random spinors drawn from the
Haar measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collinearity import _check_unit
from .determinant import SpinorDeterminant, _numbers, lowdin_orthonormalize
from .errors import DimensionMismatch, SpincolError

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SpinRotation:
    """Rotation of the spin frame by ``angle`` radians about unit ``axis``."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = _check_unit(self.axis).copy()
        axis.setflags(write=False)
        angle = _numbers(self.angle, "rotation angle", SpincolError, real=True)
        if angle.shape != ():
            raise SpincolError(f"rotation angle must be a scalar, got shape {angle.shape}")
        angle = float(angle)
        if not math.isfinite(angle):
            raise SpincolError(f"rotation angle {angle} is not finite")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    def su2(self) -> np.ndarray:
        """The 2x2 unitary cos(t/2) I - i sin(t/2) (n . sigma), det = 1."""
        half = 0.5 * self.angle
        n = self.axis
        n_dot_sigma = n[0] * _SIGMA_X + n[1] * _SIGMA_Y + n[2] * _SIGMA_Z
        return np.cos(half) * np.eye(2, dtype=complex) - 1.0j * np.sin(half) * n_dot_sigma

    def so3(self) -> np.ndarray:
        """The matching 3x3 rotation (Rodrigues form)."""
        n = self.axis
        c, s = np.cos(self.angle), np.sin(self.angle)
        cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)


def su2_rotate(det: SpinorDeterminant, rot: SpinRotation) -> SpinorDeterminant:
    """Apply the same SU(2) matrix to the (alpha, beta) pair of every spinor.

    The result keeps ``det``'s coefficient buffer, the SU(2) matrix and
    ``det``'s validated metric, and mixes its coefficients by one GEMM, once,
    when they or its block arrays are first read; if ``det`` is rotated
    itself, its own are mixed here first.  Nothing else costs O(M·Ne):
    ``det``'s buffer was made by spincol and checked for finiteness then, so
    it is shared without a scan.  The blocks seed the spin record (<S> and A
    mapped by ``rot.so3()``) and both gate values in O(1) (see
    :meth:`SpinorDeterminant._rotated`); their arrays are built from the
    rotated coefficients, as any determinant's are, only when first read.
    """
    return det._rotated(rot.su2(), rot.so3())


def align_to_axis(det: SpinorDeterminant, u) -> SpinorDeterminant:
    """Rotate the spin frame so the unit direction ``u`` becomes the new z axis.

    With u = (sin t cos p, sin t sin p, cos t) the rotation is by
    t = atan2(hypot(u_x, u_y), u_z) about the unit axis (sin p, -cos p, 0),
    p = atan2(u_y, u_x), which carries u onto z.  The axis is a unit vector
    for every u, the poles included, so one formula covers all directions.
    After alignment the z-noncollinearity of the result equals the original
    col(u).
    """
    u = _check_unit(u)
    theta = np.arctan2(np.hypot(u[0], u[1]), u[2])
    phi = np.arctan2(u[1], u[0])
    return su2_rotate(det, SpinRotation(np.array([np.sin(phi), -np.cos(phi), 0.0]), theta))


def _orthonormal_columns(columns, what: str) -> np.ndarray:
    cols = np.array(_numbers(columns, what), dtype=complex)
    if cols.ndim != 2:
        raise DimensionMismatch(f"{what} must be a 2-d matrix")
    if cols.shape[1] == 0:
        return cols
    return lowdin_orthonormalize(cols, cols.conj().T @ cols)


def _collinear(psi_a: np.ndarray, psi_b: np.ndarray) -> SpinorDeterminant:
    """Determinant of the pure-alpha spinors [psi_a, 0] followed by the pure-beta [0, psi_b]."""
    if psi_a.shape[0] != psi_b.shape[0]:
        raise DimensionMismatch("alpha and beta orbital blocks must share the basis dimension")
    m = psi_a.shape[0]
    p, q = psi_a.shape[1], psi_b.shape[1]
    if p + q < 1:
        raise DimensionMismatch("need at least one orbital")
    return SpinorDeterminant(
        basis_dim=m,
        n_electrons=p + q,
        coeff_alpha=np.hstack([psi_a, np.zeros((m, q), dtype=complex)]),
        coeff_beta=np.hstack([np.zeros((m, p), dtype=complex), psi_b]),
    )


def gen_rhf(orbitals) -> SpinorDeterminant:
    """Closed-shell determinant: each orbital doubly occupied (alpha and beta)."""
    psi = _orthonormal_columns(orbitals, "orbitals")
    return _collinear(psi, psi)


def gen_rohf(closed, open_) -> SpinorDeterminant:
    """Spin-equivalence-restricted determinant.

    ``closed`` orbitals are occupied with both spins, ``open_`` ones with
    alpha only; the combined orbital set is orthonormalized jointly.
    """
    closed = np.array(_numbers(closed, "closed"), dtype=complex)
    open_ = np.array(_numbers(open_, "open_"), dtype=complex)
    if closed.ndim != 2 or open_.ndim != 2 or closed.shape[0] != open_.shape[0]:
        raise DimensionMismatch("closed and open orbital blocks must share the basis dimension")
    psi = _orthonormal_columns(np.hstack([closed, open_]), "orbitals")
    return _collinear(psi, psi[:, : closed.shape[1]])


def gen_dods(alpha_orbitals, beta_orbitals) -> SpinorDeterminant:
    """Different-orbitals-for-different-spins determinant.

    The alpha and beta orbital sets are orthonormalized independently; the
    two sets need not be orthogonal to each other.
    """
    return _collinear(
        _orthonormal_columns(alpha_orbitals, "alpha_orbitals"),
        _orthonormal_columns(beta_orbitals, "beta_orbitals"),
    )


def gen_random_gchf(m: int, n_electrons: int, seed: int) -> SpinorDeterminant:
    """Random general determinant: columns of a Haar-distributed 2M x 2M unitary.

    Haar sampling follows the QR recipe: QR-factor a complex Gaussian matrix
    and absorb the phases of the R diagonal into Q.
    """
    if n_electrons > 2 * m:
        raise DimensionMismatch(f"{n_electrons} electrons do not fit in {2 * m} spin-orbitals")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((2 * m, 2 * m)) + 1j * rng.standard_normal((2 * m, 2 * m)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    w = q[:, :n_electrons]
    return SpinorDeterminant(
        basis_dim=m, n_electrons=n_electrons, coeff_alpha=w[:m], coeff_beta=w[m:]
    )
