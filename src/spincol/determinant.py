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
:func:`build_overlap_blocks` and :func:`orthonormalize`; the spin formulas
read one record the blocks compute once: N_alpha, N_beta, <S> and the spin
covariance matrix A.  A coefficient buffer is shared without a copy only if
this module made it: checked once, when made, and recorded.  A derived
determinant (rotated or orthonormalized) shares its parent's validated
metric.  A rotation maps the parent's record in O(1) and mixes its
coefficients from the parent's, by one GEMM, only when they or its block
arrays are first read, and then only once.
"""

from __future__ import annotations

import functools
import operator
import weakref
from typing import NamedTuple

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
# N_alpha and N_beta must be real: validate checks them, never silently truncates.
IMAG_TOL = 1e-12


def _numbers(value, what: str, error: type[SpincolError] = DimensionMismatch, real: bool = False) -> np.ndarray:
    """``value`` as a numpy array (no copy where numpy allows), after checking that it holds only numbers.

    Ragged nesting, strings, ``None`` and other objects raise ``error``
    naming ``what``; so does a complex entry when ``real`` is set.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in ("biuf" if real else "biufc"):
        raise error(f"{what} must hold {'real ' if real else ''}numbers only")
    return arr


def _dimensions(basis_dim, n_electrons) -> tuple[int, int]:
    """``basis_dim`` and ``n_electrons`` as ints, after checking 1 <= n_electrons <= 2 * basis_dim."""
    dims = []
    for name, value in (("basis_dim", basis_dim), ("n_electrons", n_electrons)):
        try:
            dims.append(operator.index(value))
        except TypeError:
            raise DimensionMismatch(f"{name} must be an integer, got {value!r}") from None
    m, ne = dims
    if m < 1 or ne < 1:
        raise DimensionMismatch(f"need basis_dim >= 1 and n_electrons >= 1, got {m}, {ne}")
    if ne > 2 * m:
        raise DimensionMismatch(f"{ne} electrons do not fit in {2 * m} spin-orbitals")
    return m, ne


def _sealed(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr``, frozen in place, that cannot be made writeable again."""
    arr.setflags(write=False)
    return arr.view()


def _hermiticity_residual(block: np.ndarray) -> float:
    """max|block - block^H|; ``np.max`` carries a NaN through, where Python's ``max`` may drop it."""
    return float(np.max(np.abs(block - block.conj().T)))


def _check_finite(name: str, arr: np.ndarray) -> None:
    """Raise unless every entry of ``arr`` is finite: one ``np.isfinite`` pass over it."""
    if not np.isfinite(arr).all():
        raise SpincolError(f"{name} has a non-finite entry (NaN or infinity)")


# The coefficient arrays this module allocated, sealed and found finite, keyed by id.
# An ndarray is unhashable, so a WeakSet cannot hold them; an entry goes with its array.
_CHECKED: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _checked_owner(owner: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """The new array ``owner``, sealed, viewed as the (2, M, Ne) buffer ``shape``, checked and recorded.

    Only an array this module allocated comes here, and it is recorded only
    after both halves pass, so views of it are shared and not scanned again.
    """
    coeffs = _sealed(owner).reshape(shape)
    _check_finite("coeff_alpha", coeffs[0])
    _check_finite("coeff_beta", coeffs[1])
    _CHECKED[id(owner)] = owner
    return coeffs


def _shared_buffer(ca: np.ndarray, cb: np.ndarray) -> np.ndarray | None:
    """The recorded, still read-only (2, M, Ne) buffer whose halves are ``ca`` and ``cb``, or None."""
    owner = ca.base
    if owner is None or cb.base is not owner or _CHECKED.get(id(owner)) is not owner or owner.flags.writeable:
        return None
    # Views of the owner lie inside it, so two C-ordered arrays of its dtype, of one shape and half
    # its size, that start ca.nbytes apart are its first and second half.
    halves = ca.flags.c_contiguous and cb.flags.c_contiguous and cb.shape == ca.shape
    if not (halves and ca.dtype == cb.dtype == owner.dtype and owner.nbytes == 2 * ca.nbytes):
        return None
    start = ca.__array_interface__["data"][0]
    return owner.reshape(2, *ca.shape) if cb.__array_interface__["data"][0] == start + ca.nbytes else None


def _rotated_coefficients(u: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """u times the (2, M·Ne) view of the frozen buffer ``parent``, one GEMM, sealed, checked and recorded.

    Overflow is not warned about; it leaves an infinity that the check reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = u @ parent.reshape(2, -1)
    return _checked_owner(mixed, parent.shape)


class _PendingMix(functools.partial):
    """A rotation's ``_rotated_coefficients(u, parent)``; :attr:`coeffs` runs it on first read and keeps it."""

    coeffs = functools.cached_property(lambda self: self())


class _SpinRecord(NamedTuple):
    """What every spin formula reads: N_alpha = tr o_aa and N_beta = tr o_bb (complex, gated by validate), <S> and A."""

    n_alpha: complex
    n_beta: complex
    s: np.ndarray
    a: np.ndarray


def _validated_metric(s, m: int) -> np.ndarray:
    """A frozen C-ordered copy of ``s``, checked to be a Hermitian, positive-definite m x m metric."""
    s = np.array(_numbers(s, "ao_overlap"), dtype=np.complex128, order="C")
    s.setflags(write=False)
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


def _block_stack(coeffs: np.ndarray, metric: np.ndarray | None) -> np.ndarray:
    """[o_aa, o_ab, o_bb] of the (2, M, Ne) ``coeffs``, sealed: one metric application and three GEMMs into one stack.

    At most two M x Ne temporaries are alive at once: C_alpha^H and S C_alpha
    for o_aa, C_alpha^H and S C_beta for o_ab, then S C_beta and C_beta^H
    for o_bb.  Without a metric S C is a view of C, so only one is.
    Overflow is not warned about here; it leaves a non-finite product that
    the orthonormality gate, or :func:`orthonormalize`, reports.
    """
    ne = coeffs.shape[2]
    stack = np.empty((3, ne, ne), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        ca_h = coeffs[0].conj().T
        np.matmul(ca_h, coeffs[0] if metric is None else metric @ coeffs[0], out=stack[0])
        sb = coeffs[1] if metric is None else metric @ coeffs[1]
        np.matmul(ca_h, sb, out=stack[1])
        del ca_h
        np.matmul(coeffs[1].conj().T, sb, out=stack[2])
    return _sealed(stack)


class SpinorDeterminant:
    """Single determinant of two-component spinors.

    Column ``i`` of ``coeff_alpha`` / ``coeff_beta`` holds the spatial
    expansion of the alpha / beta component of spinor ``i``.  ``ao_overlap``
    is the Hermitian positive-definite metric of the spatial basis; ``None``
    means identity (orthonormal basis).  A determinant is immutable.

    Construction validates shapes, finiteness and the metric, which it
    copies and freezes.  The coefficients live in one frozen (2, M, Ne)
    buffer, alpha then beta, and ``coeff_alpha`` and ``coeff_beta`` are
    read-only views of its halves.  The halves of a buffer spincol made (a
    derived determinant's, or another determinant's) are shared without a
    copy while its owner stays read-only; any other input, a caller's
    read-only array included, is copied.  Each buffer is checked to be
    finite once, when it is made.  A rotated determinant (:meth:`_rotated`)
    holds one pending mix of its parent's buffer instead, which its
    coefficients and its blocks' arrays both read.
    Orthonormality of the spinors is checked where it is consumed
    (``build_overlap_blocks``) so that raw, not-yet-orthonormal coefficient
    sets can be represented and passed to :func:`orthonormalize`.  The
    overlap blocks (3·Ne² complex numbers) are kept for its lifetime.
    """

    def __init__(self, basis_dim: int, n_electrons: int, coeff_alpha, coeff_beta, ao_overlap=None):
        m, ne = _dimensions(basis_dim, n_electrons)
        ca, cb = _numbers(coeff_alpha, "coeff_alpha"), _numbers(coeff_beta, "coeff_beta")
        if ca.shape != (m, ne) or cb.shape != (m, ne):
            raise DimensionMismatch(
                f"coefficient matrices must be {m}x{ne}, got {ca.shape} and {cb.shape}"
            )
        coeffs = _shared_buffer(ca, cb)
        if coeffs is None:
            coeffs = np.empty((2, m, ne), dtype=np.complex128)
            coeffs[0], coeffs[1] = ca, cb
            coeffs = _checked_owner(coeffs, coeffs.shape)
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

        Only a rotated determinant computes it here, from the pending mix its
        blocks share; every other determinant is given its buffer when made.
        It is stored, then returned, so threads that get here at once (no
        lock on Python 3.12) return the same buffer.
        """
        return self.__dict__.setdefault("_coeffs", self._pending.coeffs)

    coeff_alpha = property(lambda self: self._coeffs[0], doc="Alpha components, one spinor per column (read-only).")
    coeff_beta = property(lambda self: self._coeffs[1], doc="Beta components, one spinor per column (read-only).")

    def stacked(self) -> np.ndarray:
        """Coefficients as one read-only 2M x Ne matrix, alpha rows on top (a view, no copy)."""
        return self._coeffs.reshape(2 * self.basis_dim, self.n_electrons)

    def _rotated(self, u: np.ndarray, r: np.ndarray) -> SpinorDeterminant:
        """This determinant with every spinor rotated by the SU(2) matrix ``u``, whose SO(3) image is ``r``.

        The result holds one pending mix of this determinant's buffer (mixed
        first if this one is rotated) by ``u`` in place of its own buffer
        (:attr:`_coeffs`).  Its blocks hold the same pending mix and the
        metric, not the determinant, to build their arrays when first read
        (:attr:`OverlapBlocks._stack`); what is read is seeded in O(1):

        - the record: <S>' = r <S>, A' = r A r^T and, as N_alpha + N_beta is
          unchanged, Re N'_alpha and Re N'_beta = Re(N_alpha + N_beta) / 2 ± <Sz>';
          Im N'_s = |u[s, 0]|² Im N_alpha + |u[s, 1]|² Im N_beta, the cross traces being conjugates;
        - the identity deviation, as o'_aa + o'_bb = o_aa + o_bb;
        - both Hermiticity residuals as this determinant's larger one, a bound:
          o'_ss - o'_ss^H = |u[s, 0]|² (o_aa - o_aa^H) + |u[s, 1]|² (o_bb - o_bb^H),
          as the cross terms cancel (o_ba = o_ab^H), and the two weights sum to 1.

        A non-finite parent value carries through as NaN or infinity, so the gates still fail.
        """
        pending = _PendingMix(_rotated_coefficients, u, self._coeffs)
        rotated = _derived(self, self._coeffs)
        del rotated.__dict__["_coeffs"]
        blocks = self._blocks
        with np.errstate(over="ignore", invalid="ignore"):
            n_alpha, n_beta, s, a = blocks._record
            s, a = r @ s, r @ a @ r.T
            half_n, s_z = (n_alpha + n_beta).real / 2.0, s.item(2)
            im_alpha, im_beta = (np.abs(u) ** 2 @ [n_alpha.imag, n_beta.imag]).tolist()
            n_alpha, n_beta = complex(half_n + s_z, im_alpha), complex(half_n - s_z, im_beta)
            record = _SpinRecord(n_alpha, n_beta, s, 0.5 * (a + a.T))
            # np.maximum carries a NaN through, where Python's max may drop it.
            residual = float(np.maximum(*blocks._hermiticity_residuals.values()))
        seeded = OverlapBlocks.__new__(OverlapBlocks)
        seeded.__dict__.update(
            n_electrons=self.n_electrons,
            _source=(pending, self.ao_overlap),
            _record=record,
            _identity_deviation=blocks._identity_deviation,
            _hermiticity_residuals={"o_aa": residual, "o_bb": residual},
        )
        rotated.__dict__.update(_pending=pending, _blocks=seeded)
        return rotated

    @functools.cached_property
    def _blocks(self) -> OverlapBlocks:
        """The overlap blocks, built on first use; a rotated determinant is given its blocks when it is made."""
        return OverlapBlocks._of_stack(_block_stack(self._coeffs, self.ao_overlap))

    def orthonormality_residual(self) -> float:
        """Max absolute deviation of the spinor Gram matrix from identity."""
        return self._blocks._identity_deviation


class OverlapBlocks:
    """The Ne x Ne spinor-component overlap matrices o_aa, o_ab and o_bb.

    ``o_aa`` and ``o_bb`` are Hermitian, ``o_ba`` is the conjugate transpose
    of ``o_ab``, and for an orthonormal determinant ``o_aa + o_bb`` is the
    identity.  Blocks come only from a determinant, and have no public
    constructor: :func:`build_overlap_blocks` returns the determinant's own
    blocks, validated.  A blocks object is immutable.

    The blocks are read-only views of one frozen (3, Ne, Ne) stack
    [o_aa, o_ab, o_bb], and ``o_ba`` is computed from ``o_ab`` when first
    read.  What the spin formulas read is one record, computed once,
    when first read (:meth:`_record`).  Blocks of a rotated determinant
    are given it, and both gate values, by :meth:`SpinorDeterminant._rotated`,
    and build their stack like any determinant's when first read.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("OverlapBlocks has no public constructor; use build_overlap_blocks(det)")

    def __setattr__(self, name, value):
        raise AttributeError(f"OverlapBlocks is immutable; cannot set {name!r}")

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> OverlapBlocks:
        """Blocks that are views of the sealed (3, Ne, Ne) ``stack`` [o_aa, o_ab, o_bb], which they keep."""
        blocks = cls.__new__(cls)
        blocks.__dict__.update(n_electrons=stack.shape[1], _stack=stack)
        return blocks

    @functools.cached_property
    def _stack(self) -> np.ndarray:
        """[o_aa, o_ab, o_bb] as one frozen (3, Ne, Ne) array.

        Only rotated blocks build it here, as any determinant's, from the metric
        and their determinant's pending mix (made once, whichever of the two
        reads it first), and store it before returning it; every other blocks
        object is given its stack when made.
        """
        pending, metric = self._source
        return self.__dict__.setdefault("_stack", _block_stack(pending.coeffs, metric))

    o_aa = property(lambda self: self._stack[0], doc="<phi_i^alpha | phi_j^alpha>, slot 0 of the stack.")
    o_ab = property(lambda self: self._stack[1], doc="<phi_i^alpha | phi_j^beta>, slot 1 of the stack.")
    o_bb = property(lambda self: self._stack[2], doc="<phi_i^beta | phi_j^beta>, slot 2 of the stack.")

    @functools.cached_property
    def o_ba(self) -> np.ndarray:
        """o_ab^H, computed when first read (read-only)."""
        return _sealed(self.o_ab.T.conj())

    def _gram(self) -> np.ndarray:
        """Gram matrix of the spinors under the metric, o_aa + o_bb."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.o_aa + self.o_bb

    @functools.cached_property
    def _identity_deviation(self) -> float:
        """max|o_aa + o_bb - I|, read by the orthonormality gate."""
        deviation = self._gram()
        deviation.reshape(-1)[:: self.n_electrons + 1] -= 1.0
        return float(np.max(np.abs(deviation)))

    @functools.cached_property
    def _hermiticity_residuals(self) -> dict[str, float]:
        """max|o - o^H| of o_aa and o_bb, computed once and checked by every :meth:`validate`."""
        return {name: _hermiticity_residual(getattr(self, name)) for name in ("o_aa", "o_bb")}

    @functools.cached_property
    def _record(self) -> _SpinRecord:
        """N_alpha, N_beta, <S> and A, from three traces and four O(Ne²) reductions.

        With X = o_ab and D = o_aa - o_bb, <S> = (Re tr X, Im tr X, (N_alpha - N_beta) / 2)
        and A = I Ne/4 - G, with G built from ||D||², ||X||², tr(X X) and <X, D>
        as :mod:`spincol.collinearity` shows; each off-diagonal entry is
        computed once, so A is exactly symmetric.
        """
        x, d = self.o_ab, self.o_aa - self.o_bb
        t_aa, t_ab, t_bb = np.trace(self.o_aa), np.trace(x), np.trace(self.o_bb)
        x_sq = np.vdot(x, x).real
        tau = complex(np.einsum("ij,ji->", x, x))
        x_d = complex(np.vdot(x, d))
        g_xx, g_yy, g_zz = 0.5 * (x_sq + tau.real), 0.5 * (x_sq - tau.real), 0.25 * np.vdot(d, d).real
        g_xy, g_xz, g_yz = 0.5 * tau.imag, 0.5 * x_d.real, -0.5 * x_d.imag
        g = np.array([[g_xx, g_xy, g_xz], [g_xy, g_yy, g_yz], [g_xz, g_yz, g_zz]])
        s = np.array([t_ab.real, t_ab.imag, ((t_aa - t_bb) / 2.0).real])
        return _SpinRecord(complex(t_aa), complex(t_bb), s, np.eye(3) * (self.n_electrons / 4.0) - g)

    def validate(self) -> None:
        """Check both Hermiticity residuals, then the imaginary parts of N_alpha and N_beta.

        No spin formula gates the record again; each takes real parts.  The
        identity deviation is the orthonormality residual, which
        :func:`build_overlap_blocks` gates first.  A rotated blocks object
        checks the values it was seeded with, so its arrays are not built here.
        """
        for name, residual in self._hermiticity_residuals.items():
            check_within(
                residual, HERMITICITY_TOL, f"{name} Hermiticity residual", NonHermitianResult
            )
        for name, value in zip(("N_alpha", "N_beta"), self._record):
            check_within(abs(value.imag), IMAG_TOL, f"imaginary part of {name}", NonHermitianResult)


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
    return blocks._record.n_alpha.real, blocks._record.n_beta.real


def _inverse_sqrt(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """The Hermitian gram**(-1/2) and the smallest eigenvalue of ``gram``, after gating it."""
    w, v = np.linalg.eigh(gram)
    lowest = w.min()
    if not lowest > GRAM_MIN_EIGENVALUE:
        raise LinearlyDependent(
            f"Gram matrix smallest eigenvalue {lowest:.3e} is not above {GRAM_MIN_EIGENVALUE:g}"
        )
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T, lowest


def _derived(parent: SpinorDeterminant, coeffs: np.ndarray) -> SpinorDeterminant:
    """A determinant on ``parent``'s basis with the sealed (2, M, Ne) coefficients ``coeffs``.

    It keeps ``coeffs`` as its buffer without a copy and shares ``parent``'s
    already validated metric.
    """
    det = SpinorDeterminant(parent.basis_dim, parent.n_electrons, *coeffs)
    det.__dict__["ao_overlap"] = parent.ao_overlap
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
    coeffs = _checked_owner(det.stacked() @ inv_sqrt, (2, det.basis_dim, det.n_electrons))
    ortho = _derived(det, coeffs)
    ortho.__dict__["_blocks"] = OverlapBlocks._of_stack(_sealed(inv_sqrt @ blocks._stack @ inv_sqrt))
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
