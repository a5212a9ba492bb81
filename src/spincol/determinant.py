"""Spinor determinant data model and the overlap blocks all spin formulas consume.

A determinant of ``n_electrons`` two-component spinors over an ``basis_dim``
dimensional spatial basis is stored as two complex coefficient matrices, one
per spin component, the two halves of one (2, M, Ne) buffer.  Every spin
quantity computed elsewhere in this package is a function of the spinor
overlap blocks

    o_st[i, j] = <phi_i^s | phi_j^t>,   s, t in {alpha, beta},

where the bracket is the spatial inner product under the (optional) AO overlap
metric.  o_aa, o_ab and o_bb are computed; o_ba is the conjugate transpose of
o_ab.  This module builds and validates those blocks.

A determinant is immutable, so its products are computed once, on first use,
as its one :class:`OverlapBlocks`, shared by the orthonormality gate,
:func:`build_overlap_blocks` and :func:`orthonormalize`.  A determinant
derived from another (rotated or orthonormalized) shares its parent's
validated metric and derives its blocks from the parent's, so the metric is
applied once per input determinant.  A rotation costs O(1) for every spin
quantity, which its blocks take from the parent's <S> and compression Gram
matrix, plus one finiteness check of the coefficient buffer it is built on.
Its coefficients and its block arrays are mixed, each by one GEMM from the
root of its chain of rotations, only when first read.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DimensionMismatch,
    LinearlyDependent,
    NonHermitianResult,
    NotOrthonormal,
    SpincolError,
    check_within,
)

# Input determinants may carry print rounding, hence the loose acceptance
# threshold.  Explicit orthonormalization leaves a residual of about
# cond(G)·eps, with G the spinor Gram matrix, so it does not always get under it.
ORTHONORMALITY_INPUT_TOL = 1e-8
HERMITICITY_TOL = 1e-12
METRIC_MIN_EIGENVALUE = 1e-10
GRAM_MIN_EIGENVALUE = 1e-12
# Quantities that must be real are checked, never silently truncated.
IMAG_TOL = 1e-12
# Rows per panel of the Hermiticity residual: a 64-row panel of an Ne x Ne
# block and the matching column panel stay in cache together.
_PANEL = 64


def _sealed(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr``, frozen in place, that cannot be made writeable again."""
    arr.setflags(write=False)
    return arr.view()


def _is_sealed(arr) -> bool:
    """Whether ``arr`` is a read-only complex128 view of a frozen array."""
    base = getattr(arr, "base", None)
    return (
        isinstance(base, np.ndarray)
        and not base.flags.writeable
        and not arr.flags.writeable
        and arr.dtype == np.complex128
    )


def _frozen_complex(a) -> np.ndarray:
    """``a`` as a read-only complex128 array; a sealed view is kept as is, anything else copied."""
    if _is_sealed(a):
        return a
    arr = np.array(a, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def _shared_buffer(ca: np.ndarray, cb: np.ndarray) -> np.ndarray | None:
    """The frozen (2, M, Ne) array whose two halves are the sealed views ``ca`` and ``cb``, or None."""
    base = ca.base
    if not (
        _is_sealed(ca)
        and _is_sealed(cb)
        and cb.base is base
        and base.flags.c_contiguous
        and base.size == 2 * ca.size
    ):
        return None
    buf = base.reshape(2, *ca.shape)
    halves = (ca.__array_interface__, cb.__array_interface__)
    return buf if halves == (buf[0].__array_interface__, buf[1].__array_interface__) else None


def _hermiticity_residual(block: np.ndarray) -> float:
    """max|block - block^H|, from the upper triangle, one row panel at a time.

    |o_ij - conj(o_ji)| and |o_ji - conj(o_ij)| are the same number, so each
    row panel is compared with the matching column panel from the diagonal
    on.  ``np.maximum`` carries a NaN through, where Python's ``max`` may drop it.
    """
    residual = 0.0
    for start in range(0, block.shape[0], _PANEL):
        rows = block[start : start + _PANEL, start:]
        cols = block[start:, start : start + _PANEL]
        residual = np.maximum(residual, np.max(np.abs(rows - cols.T.conj())))
    return float(residual)


def _sealed_stack(stack: np.ndarray) -> np.ndarray:
    """``stack`` sealed, after writing o_ab^H (the conjugate transpose of slot 1) into slot 2."""
    np.conjugate(stack[1].T, out=stack[2])
    return _sealed(stack)


# The stack's slots; the mixing weights' rows are the stored pairs aa, ab and bb (s <= t).
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _mixing_weights(u: np.ndarray) -> np.ndarray:
    """The 3x4 matrix conj(u[s, i]) u[t, j] that mixes the stack into the blocks rotated by ``u``."""
    return np.array([[u[s, i].conj() * u[t, j] for i, j in _PAIRS] for s, t in _PAIRS if s <= t])


def _check_finite(name: str, arr: np.ndarray) -> None:
    """Raise unless every entry of the complex array ``arr`` is finite.

    ||arr||² is finite whenever every entry is and the sum does not overflow,
    and ``np.vdot`` reads ``arr`` once; only when it is not finite (a NaN, an
    infinity, or entries above about 1e154) does the exact scan decide.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.vdot(arr, arr)):
            return
    if not np.isfinite(arr).all():
        raise SpincolError(f"{name} has a non-finite entry (NaN or infinity)")


def _checked_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """The (2, M, Ne) buffer ``coeffs``, after checking that both halves are finite."""
    _check_finite("coeff_alpha", coeffs[0])
    _check_finite("coeff_beta", coeffs[1])
    return coeffs


def _mixed_once(obj, name: str, pending_name: str, mix) -> np.ndarray:
    """``obj``'s array ``name``, made by ``mix(*pending)`` from its pending rotation ``pending_name``.

    The array is stored before the pending rotation is dropped, so a second
    thread that gets here (``functools.cached_property`` has no lock on
    Python 3.12) finds one or the other, and every thread returns the array
    stored first.
    """
    state = obj.__dict__
    pending = state.get(pending_name)
    if pending is None:
        return state[name]
    value = state.setdefault(name, mix(*pending))
    state.pop(pending_name, None)
    return value


def _rotated_coefficients(u: np.ndarray, root: np.ndarray) -> np.ndarray:
    """u times the (2, M·Ne) view of the frozen buffer ``root``, one GEMM, sealed and checked.

    Overflow is not warned about; it leaves an infinity that the check reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _sealed(u @ root.reshape(2, -1)).reshape(root.shape)
    return _checked_coefficients(coeffs)


def _rotated_stack(u: np.ndarray, root: OverlapBlocks) -> np.ndarray:
    """The stack of ``root``'s blocks rotated by ``u``: one 3x4 mixing GEMM over ``root``'s stack."""
    ne = root.n_electrons
    mixed = _mixing_weights(u) @ root._stack.reshape(4, ne * ne)
    stack = np.empty((4, ne, ne), dtype=np.complex128)
    stack[0], stack[1], stack[3] = mixed.reshape(3, ne, ne)
    return _sealed_stack(stack)


def _real(value: complex, what: str) -> float:
    """The real part of ``value``, after gating its imaginary part at ``IMAG_TOL``."""
    value = complex(value)
    check_within(abs(value.imag), IMAG_TOL, f"imaginary part of {what}", NonHermitianResult)
    return value.real


def _validated_metric(s, m: int) -> np.ndarray:
    """A frozen copy of ``s``, checked to be a Hermitian, positive-definite m x m metric."""
    s = _frozen_complex(s)
    if s.shape != (m, m):
        raise DimensionMismatch(f"ao_overlap must be {m}x{m}, got {s.shape}")
    _check_finite("ao_overlap", s)
    check_within(_hermiticity_residual(s), HERMITICITY_TOL, "ao_overlap Hermiticity residual")
    lowest = np.linalg.eigvalsh(s).min()
    if not lowest > METRIC_MIN_EIGENVALUE:
        raise SpincolError(
            f"ao_overlap smallest eigenvalue {lowest:.3e} is not above {METRIC_MIN_EIGENVALUE:g}"
        )
    return s


def _metric_applied(det: "SpinorDeterminant") -> tuple[np.ndarray, np.ndarray]:
    """S @ coeff_alpha and S @ coeff_beta; the coefficients themselves without a metric."""
    if det.ao_overlap is None:
        return det.coeff_alpha, det.coeff_beta
    return det.ao_overlap @ det.coeff_alpha, det.ao_overlap @ det.coeff_beta


class SpinorDeterminant:
    """Single determinant of two-component spinors.

    Column ``i`` of ``coeff_alpha`` / ``coeff_beta`` holds the spatial
    expansion of the alpha / beta component of spinor ``i``.  ``ao_overlap``
    is the Hermitian positive-definite metric of the spatial basis; ``None``
    means identity (orthonormal basis).  A determinant is immutable.

    Construction validates shapes, finiteness and the metric, which it
    copies and freezes.  The coefficients are copied into one frozen
    (2, M, Ne) buffer, alpha then beta, and ``coeff_alpha`` and
    ``coeff_beta`` are read-only views of its halves; two views that already
    are the halves of one frozen buffer (a derived determinant's) are kept
    without a copy.  A rotated determinant (:meth:`_rotated`) holds the
    buffer it was built on and an SU(2) matrix instead, and mixes its own
    buffer from them when a coefficient is first read.
    Orthonormality of the spinors is checked where it is consumed
    (``build_overlap_blocks``) so that raw, not-yet-orthonormal coefficient
    sets can be represented and passed to :func:`orthonormalize`.

    The overlap blocks are computed on first use and kept for the
    determinant's lifetime (4·Ne² complex numbers, o_ba included).
    """

    def __init__(self, basis_dim: int, n_electrons: int, coeff_alpha, coeff_beta, ao_overlap=None):
        m, ne = basis_dim, n_electrons
        if m < 1 or ne < 1:
            raise DimensionMismatch(f"need basis_dim >= 1 and n_electrons >= 1, got {m}, {ne}")
        if ne > 2 * m:
            raise DimensionMismatch(f"{ne} electrons do not fit in {2 * m} spin-orbitals")
        ca, cb = np.asarray(coeff_alpha), np.asarray(coeff_beta)
        if ca.shape != (m, ne) or cb.shape != (m, ne):
            raise DimensionMismatch(
                f"coefficient matrices must be {m}x{ne}, got {ca.shape} and {cb.shape}"
            )
        coeffs = _shared_buffer(ca, cb)
        if coeffs is None:
            coeffs = np.empty((2, m, ne), dtype=np.complex128)
            coeffs[0], coeffs[1] = ca, cb
            coeffs = _sealed(coeffs)
        _checked_coefficients(coeffs)
        if ao_overlap is not None:
            ao_overlap = _validated_metric(ao_overlap, m)
        self.__dict__.update(basis_dim=m, n_electrons=ne, ao_overlap=ao_overlap, _coeffs=coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"SpinorDeterminant is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SpinorDeterminant is immutable; cannot delete {name!r}")

    def __repr__(self):
        return (
            f"SpinorDeterminant(basis_dim={self.basis_dim!r}, n_electrons={self.n_electrons!r}, "
            f"coeff_alpha={self.coeff_alpha!r}, coeff_beta={self.coeff_beta!r}, "
            f"ao_overlap={self.ao_overlap!r})"
        )

    def __reduce__(self):
        # Copies and unpickled determinants go through the constructor, so they are
        # frozen and hold their coefficients in one buffer too.
        args = self.basis_dim, self.n_electrons, self.coeff_alpha, self.coeff_beta, self.ao_overlap
        return SpinorDeterminant, args

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:
        """The coefficients as one frozen (2, M, Ne) buffer, alpha then beta.

        Only a rotated determinant computes it here, by one 2x2 GEMM over the
        buffer at the root of its chain of rotations, checked for finiteness
        as the constructor checks its input; every other determinant is given
        its buffer when it is made.
        """
        return _mixed_once(self, "_coeffs", "_rotation", _rotated_coefficients)

    coeff_alpha = property(lambda self: self._coeffs[0], doc="Alpha components, one spinor per column (read-only).")
    coeff_beta = property(lambda self: self._coeffs[1], doc="Beta components, one spinor per column (read-only).")

    def stacked(self) -> np.ndarray:
        """Coefficients as one read-only 2M x Ne matrix, alpha rows on top (a view, no copy)."""
        return self._coeffs.reshape(2 * self.basis_dim, self.n_electrons)

    def _rotated(self, u: np.ndarray, blocks: OverlapBlocks) -> SpinorDeterminant:
        """This determinant with every spinor rotated by the SU(2) matrix ``u``; ``blocks`` are its products.

        The constructor checks the buffer at the root of this determinant's
        chain of rotations (its own, unless its coefficients are still
        pending), which the result keeps with the composed matrix u u_0
        instead of a mixed buffer: its coefficients wait until they are read,
        and those of any chain of rotations take one GEMM.
        """
        pending = self.__dict__.get("_rotation")
        u, root = (u, self._coeffs) if pending is None else (u @ pending[0], pending[1])
        rotated = _derived(self, root, blocks)
        rotated.__dict__["_rotation"] = (u, rotated.__dict__.pop("_coeffs"))
        return rotated

    @functools.cached_property
    def _blocks(self) -> OverlapBlocks:
        """The overlap blocks: one metric application and three GEMMs, written into one stack.

        Overflow is not warned about here; it leaves a non-finite product
        that the orthonormality gate, or :func:`orthonormalize`, reports.
        """
        ne = self.n_electrons
        stack = np.empty((4, ne, ne), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            sa, sb = _metric_applied(self)
            ca_h, cb_h = (c.T for c in self._coeffs.conj())
            np.matmul(ca_h, sa, out=stack[0])
            np.matmul(ca_h, sb, out=stack[1])
            np.matmul(cb_h, sb, out=stack[3])
        return OverlapBlocks._of_stack(stack)

    def orthonormality_residual(self) -> float:
        """Max absolute deviation of the spinor Gram matrix from identity."""
        return self._blocks._identity_deviation


class OverlapBlocks:
    """The Ne x Ne spinor-component overlap matrices o_aa, o_ab and o_bb.

    ``o_aa`` and ``o_bb`` are Hermitian, ``o_ba`` is the conjugate transpose
    of ``o_ab``, and for an orthonormal determinant ``o_aa + o_bb`` is the
    identity.  :func:`build_overlap_blocks` returns the determinant's own
    blocks, validated.  A blocks object is immutable.

    The blocks are read-only views of one frozen (4, Ne, Ne) stack
    [o_aa, o_ab, o_ba, o_bb], the operand of the SU(2) mixing GEMM.  A
    determinant's blocks are computed into such a stack; blocks built by
    hand are copied into one (so a caller's writeable array stays its own).
    What the spin formulas read are O(1) scalars, each computed at most once,
    when first read: the three traces tr o_aa, tr o_ab and tr o_bb, and, with
    X = o_ab and D = o_aa - o_bb, the four reductions ||D||², ||X||², tr(X X)
    and <X, D>.

    Blocks of a rotated determinant (:meth:`_rotated`) get every one of
    those scalars, and both gate values, from the parent's in O(1); their
    stack is mixed, from the stack of the first determinant in their chain
    of rotations, only when first read.
    """

    def __init__(self, o_aa, o_ab, o_bb):
        blocks = [np.asarray(block) for block in (o_aa, o_ab, o_bb)]
        ne = blocks[0].shape[0]
        for name, block in zip(("o_aa", "o_ab", "o_bb"), blocks):
            if block.shape != (ne, ne):
                raise DimensionMismatch(f"{name} must be {ne}x{ne}")
        stack = np.empty((4, ne, ne), dtype=np.complex128)
        stack[0], stack[1], stack[3] = blocks
        self.__dict__.update(n_electrons=ne, _stack=_sealed_stack(stack))

    def __setattr__(self, name, value):
        raise AttributeError(f"OverlapBlocks is immutable; cannot set {name!r}")

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> OverlapBlocks:
        """Blocks that are views of ``stack`` (o_aa, o_ab and o_bb in slots 0, 1 and 3), which they keep."""
        blocks = cls.__new__(cls)
        blocks.__dict__.update(n_electrons=stack.shape[1], _stack=_sealed_stack(stack))
        return blocks

    @functools.cached_property
    def _stack(self) -> np.ndarray:
        """[o_aa, o_ab, o_ba, o_bb] as one frozen (4, Ne, Ne) array.

        Only rotated blocks compute it here, by one 3x4 mixing GEMM over the
        stack of the blocks at the root of their chain of rotations; every
        other blocks object is given its stack when it is made.
        """
        return _mixed_once(self, "_stack", "_mixing", _rotated_stack)

    o_aa = property(lambda self: self._stack[0], doc="<phi_i^alpha | phi_j^alpha>, slot 0 of the stack.")
    o_ab = property(lambda self: self._stack[1], doc="<phi_i^alpha | phi_j^beta>, slot 1 of the stack.")
    o_ba = property(lambda self: self._stack[2], doc="o_ab^H, slot 2 of the stack.")
    o_bb = property(lambda self: self._stack[3], doc="<phi_i^beta | phi_j^beta>, slot 3 of the stack.")

    def _rotated(self, u: np.ndarray, r: np.ndarray) -> OverlapBlocks:
        """The blocks after every spinor is rotated by the SU(2) matrix ``u``, whose SO(3) image is ``r``.

        With s, t in {alpha, beta} they are o'_st = sum_ij conj(u[s, i]) u[t, j] o_ij,
        one 3x4 mixing GEMM over this stack, which waits until they are read.
        If this object is itself a pending rotation by u_0 of a root's blocks,
        the new one is the rotation by u u_0 of that root, so reading the last
        blocks of any chain of rotations takes one GEMM.  Every scalar is
        seeded in O(1) instead:

        - the compression Gram matrix (see :meth:`_compression_gram`) becomes
          G' = r G r^T, and gives ||D'||² = 4 G'_zz, ||X'||² = G'_xx + G'_yy,
          tr(X' X') = G'_xx - G'_yy + 2i G'_xy and <X', D'> = 2 G'_xz - 2i G'_yz;
        - s = (Re tr X, Im tr X, (tr o_aa - tr o_bb) / 2), which is <S>, becomes
          s' = r s, and with n = tr(o_aa + o_bb) the traces are n/2 + s'_z,
          s'_x + i s'_y and n/2 - s'_z;
        - o'_aa + o'_bb = sum_ij (u^H u)_ij o_ij = o_aa + o_bb, so the
          deviation from the identity is this object's;
        - since o_ba is exactly o_ab^H, o'_ss - o'_ss^H is
          |u[s, 0]|² (o_aa - o_aa^H) + |u[s, 1]|² (o_bb - o_bb^H), so each
          Hermiticity residual is at most |u[s, 0]|² r_aa + |u[s, 1]|² r_bb,
          the value the rotated blocks check.

        A non-finite value among this object's scalars (an overflowed Gram
        matrix) carries through as NaN or infinity, so the gates still fail.
        """
        pending = self.__dict__.get("_mixing")
        mixing = (u, self) if pending is None else (u @ pending[0], pending[1])
        with np.errstate(over="ignore", invalid="ignore"):
            t_aa, t_ab, t_bb = self._traces
            sx, sy, sz = r @ np.array([t_ab.real, t_ab.imag, ((t_aa - t_bb) / 2.0).real])
            half_n = (t_aa + t_bb) / 2.0
            g = r @ self._compression_gram() @ r.T
            r_aa, r_bb = self._hermiticity_residuals["o_aa"], self._hermiticity_residuals["o_bb"]
            w = np.abs(u) ** 2
            residuals = {name: float(w[s, 0] * r_aa + w[s, 1] * r_bb) for s, name in enumerate(("o_aa", "o_bb"))}
        rotated = OverlapBlocks.__new__(OverlapBlocks)
        rotated.__dict__.update(
            n_electrons=self.n_electrons,
            _mixing=mixing,
            _traces=(half_n + sz, complex(sx, sy), half_n - sz),
            _d_norm_sq=float(4.0 * g[2, 2]),
            _x_norm_sq=float(g[0, 0] + g[1, 1]),
            _x_trace_sq=complex(g[0, 0] - g[1, 1], 2.0 * g[0, 1]),
            _x_dot_d=complex(2.0 * g[0, 2], -2.0 * g[1, 2]),
            _identity_deviation=self._identity_deviation,
            _hermiticity_residuals=residuals,
        )
        return rotated

    def _gram(self) -> np.ndarray:
        """Gram matrix of the spinors under the metric, o_aa + o_bb."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.o_aa + self.o_bb

    @functools.cached_property
    def _identity_deviation(self) -> float:
        """max|o_aa + o_bb - I|, read by the orthonormality gate and by :meth:`validate`."""
        deviation = self._gram()
        deviation.reshape(-1)[:: self.n_electrons + 1] -= 1.0
        return float(np.max(np.abs(deviation)))

    @functools.cached_property
    def _hermiticity_residuals(self) -> dict[str, float]:
        """max|o - o^H| of o_aa and o_bb, computed once and checked by every :meth:`validate`."""
        return {name: _hermiticity_residual(getattr(self, name)) for name in ("o_aa", "o_bb")}

    @functools.cached_property
    def _traces(self) -> tuple[complex, complex, complex]:
        """tr o_aa, tr o_ab and tr o_bb."""
        return np.trace(self.o_aa), np.trace(self.o_ab), np.trace(self.o_bb)

    @functools.cached_property
    def _d_reductions(self) -> tuple[float, complex]:
        """||D||_F^2 and <o_ab, D>, both from one D = o_aa - o_bb, which is not kept."""
        d = self.o_aa - self.o_bb
        return float(np.vdot(d, d).real), complex(np.vdot(self.o_ab, d))

    @functools.cached_property
    def _d_norm_sq(self) -> float:
        """||o_aa - o_bb||_F^2."""
        return self._d_reductions[0]

    @functools.cached_property
    def _x_norm_sq(self) -> float:
        """||o_ab||_F^2."""
        return float(np.vdot(self.o_ab, self.o_ab).real)

    @functools.cached_property
    def _x_trace_sq(self) -> complex:
        """tr(o_ab o_ab) = sum_ij o_ab[i, j] o_ab[j, i]."""
        return complex(np.einsum("ij,ji->", self.o_ab, self.o_ab))

    @functools.cached_property
    def _x_dot_d(self) -> complex:
        """<o_ab, o_aa - o_bb> = sum_ij conj(o_ab[i, j]) (o_aa - o_bb)[i, j]."""
        return self._d_reductions[1]

    def _compression_gram(self) -> np.ndarray:
        """G[mu, nu] = Re tr(T_mu T_nu) of the spin compressions, from the four reductions.

        See :mod:`spincol.collinearity` for the formula; each off-diagonal
        entry is computed once, so G is exactly symmetric.
        """
        x_sq, tau, x_d = self._x_norm_sq, self._x_trace_sq, self._x_dot_d
        g_xx, g_yy = 0.5 * (x_sq + tau.real), 0.5 * (x_sq - tau.real)
        g_zz = 0.25 * self._d_norm_sq
        g_xy, g_xz, g_yz = 0.5 * tau.imag, 0.5 * x_d.real, -0.5 * x_d.imag
        return np.array([[g_xx, g_xy, g_xz], [g_xy, g_yy, g_yz], [g_xz, g_yz, g_zz]])

    def validate(self) -> None:
        """Check both Hermiticity residuals and the deviation from the identity.

        Every blocks object is square by construction; a rotated one checks
        the values it was seeded with, so its arrays are not mixed here.
        """
        for name, residual in self._hermiticity_residuals.items():
            check_within(
                residual, HERMITICITY_TOL, f"{name} Hermiticity residual", NonHermitianResult
            )
        what = "o_aa + o_bb deviation from identity"
        check_within(self._identity_deviation, ORTHONORMALITY_INPUT_TOL, what, NotOrthonormal)


def build_overlap_blocks(det: SpinorDeterminant) -> OverlapBlocks:
    """The spinor overlap blocks o_aa, o_ab and o_bb of a determinant, validated.

    Every call returns the determinant's one :class:`OverlapBlocks`.

    Raises
    ------
    NotOrthonormal
        If the spinors deviate from orthonormality by more than
        ``ORTHONORMALITY_INPUT_TOL`` (run :func:`orthonormalize` first in that case).
    """
    check_within(
        det.orthonormality_residual(),
        ORTHONORMALITY_INPUT_TOL,
        "spinor orthonormality residual",
        NotOrthonormal,
        hint="; orthonormalize first",
    )
    blocks = det._blocks
    blocks.validate()
    return blocks


def electron_counts(blocks: OverlapBlocks) -> tuple[float, float]:
    """Metric-weighted alpha and beta occupation numbers (trace of o_aa, o_bb).

    Both are generally non-integer for a spin-mixed determinant; their sum is
    the (integer) electron count.
    """
    t_aa, _, t_bb = blocks._traces
    return _real(t_aa, "N_alpha"), _real(t_bb, "N_beta")


def _inverse_sqrt(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """The Hermitian gram**(-1/2) and the smallest eigenvalue of ``gram``, after gating it."""
    w, v = np.linalg.eigh(gram)
    lowest = w.min()
    if not lowest > GRAM_MIN_EIGENVALUE:
        raise LinearlyDependent(
            f"Gram matrix smallest eigenvalue {lowest:.3e} is not above {GRAM_MIN_EIGENVALUE:g}"
        )
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T, lowest


def lowdin_orthonormalize(columns: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization of ``columns`` given their Gram matrix.

    Returns ``columns @ gram**(-1/2)``; the column span is preserved and the
    result is the orthonormal set closest to the input in least-squares sense.
    """
    return columns @ _inverse_sqrt(gram)[0]


def _derived(parent: SpinorDeterminant, coeffs: np.ndarray, blocks: OverlapBlocks) -> SpinorDeterminant:
    """A determinant on ``parent``'s basis with the sealed (2, M, Ne) coefficients ``coeffs``.

    It keeps ``coeffs`` as its buffer without a copy, shares ``parent``'s
    already validated metric array and takes ``blocks`` as its products
    (derived exactly from the parent's).
    """
    det = SpinorDeterminant(parent.basis_dim, parent.n_electrons, *coeffs)
    det.__dict__.update(ao_overlap=parent.ao_overlap, _blocks=blocks)
    return det


def orthonormalize(det: SpinorDeterminant) -> SpinorDeterminant:
    """Return a determinant with the same spinor span and orthonormal spinors.

    The coefficients become C G^(-1/2), with G the spinor Gram matrix, and
    the new blocks follow from the parent's as G^(-1/2) o_st G^(-1/2), so the
    metric is not applied again.  The result's orthonormality residual is
    about cond(G)·eps, not a fixed bound.

    Raises ``NotOrthonormal`` when the spinor Gram matrix is not finite
    (its entries overflow) or when the result's residual still exceeds
    ``ORTHONORMALITY_INPUT_TOL`` (G is nearly singular; the message names
    its smallest eigenvalue), and ``LinearlyDependent`` when the spinors do
    not span an ``n_electrons``-dimensional space at tolerance.
    """
    blocks = det._blocks
    gram = blocks._gram()
    if not np.isfinite(gram).all():
        raise NotOrthonormal(
            "spinor Gram matrix is not finite (its entries overflow); rescale the coefficients"
        )
    inv_sqrt, lowest = _inverse_sqrt(gram)
    m, ne = det.basis_dim, det.n_electrons
    coeffs = _sealed(det.stacked() @ inv_sqrt).reshape(2, m, ne)
    stack = np.empty((4, ne, ne), dtype=np.complex128)
    for k, o in zip((0, 1, 3), (blocks.o_aa, blocks.o_ab, blocks.o_bb)):
        np.matmul(inv_sqrt @ o, inv_sqrt, out=stack[k])
    ortho = _derived(det, coeffs, OverlapBlocks._of_stack(stack))
    check_within(
        ortho._blocks._identity_deviation,
        ORTHONORMALITY_INPUT_TOL,
        "spinor orthonormality residual after orthonormalization",
        NotOrthonormal,
        hint=f"; the spinor Gram matrix's smallest eigenvalue is {lowest:.3e}, "
        "so the spinors are nearly linearly dependent",
    )
    return ortho


def to_identity_metric(det: SpinorDeterminant) -> SpinorDeterminant:
    """Re-express the determinant over an orthonormal spatial basis.

    Multiplies the coefficients by the Hermitian square root of the metric,
    which leaves every overlap block (and hence every spin quantity)
    unchanged.  Returns ``det`` itself when it carries no metric.
    """
    if det.ao_overlap is None:
        return det
    w, v = np.linalg.eigh(det.ao_overlap)
    sqrt_s = (v * np.sqrt(w)) @ v.conj().T
    return SpinorDeterminant(
        basis_dim=det.basis_dim,
        n_electrons=det.n_electrons,
        coeff_alpha=sqrt_s @ det.coeff_alpha,
        coeff_beta=sqrt_s @ det.coeff_beta,
        ao_overlap=None,
    )
