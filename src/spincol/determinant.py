"""Spinor determinant data model and the overlap blocks all spin formulas consume.

A determinant of ``n_electrons`` two-component spinors over an ``basis_dim``
dimensional spatial basis is stored as two complex coefficient matrices, one
per spin component.  Every spin quantity computed elsewhere in this package is
a function of the spinor overlap blocks

    o_st[i, j] = <phi_i^s | phi_j^t>,   s, t in {alpha, beta},

where the bracket is the spatial inner product under the (optional) AO overlap
metric.  Only o_aa, o_ab and o_bb are stored: o_ba is the conjugate transpose
of o_ab.  This module builds and validates those blocks.

A determinant is immutable, so its products are computed once, on first use,
and shared by the orthonormality gate, :func:`build_overlap_blocks` and
:func:`orthonormalize`; a spin-frame rotation derives the rotated products
from them.  A metric array is validated once, however many determinants
share it.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

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
# threshold; explicit orthonormalization restores orthonormality to 1e-12.
ORTHONORMALITY_INPUT_TOL = 1e-8
HERMITICITY_TOL = 1e-12
METRIC_MIN_EIGENVALUE = 1e-10
GRAM_MIN_EIGENVALUE = 1e-12
# Quantities that must be real are checked, never silently truncated.
IMAG_TOL = 1e-12


# The frozen metric copies that ``_validated_metric`` checked, by identity.
_VALIDATED_METRICS: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _frozen_complex(a) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _seed_overlaps(det: "SpinorDeterminant", o_aa, o_ab, o_bb) -> None:
    """Give ``det`` products derived exactly from another determinant's; it never computes them."""
    det.__dict__["_overlaps"] = _read_only(o_aa, o_ab, o_bb)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise SpincolError(f"{name} has a non-finite entry (NaN or infinity)")


def _real(value: complex, what: str) -> float:
    """The real part of ``value``, after gating its imaginary part at ``IMAG_TOL``."""
    value = complex(value)
    check_within(abs(value.imag), IMAG_TOL, f"imaginary part of {what}", NonHermitianResult)
    return value.real


def _validated_metric(s, m: int) -> np.ndarray:
    """``s`` as a frozen, Hermitian, positive-definite m x m metric.

    An array this function returned before, still read-only, comes back as
    is; anything else is copied and validated.
    """
    known = _VALIDATED_METRICS.get(id(s)) is s and not s.flags.writeable
    if not known:
        s = _frozen_complex(s)
    if s.shape != (m, m):
        raise DimensionMismatch(f"ao_overlap must be {m}x{m}, got {s.shape}")
    if known:
        return s
    _check_finite("ao_overlap", s)
    residual = np.max(np.abs(s - s.conj().T))
    check_within(residual, HERMITICITY_TOL, "ao_overlap Hermiticity residual")
    lowest = np.linalg.eigvalsh(s).min()
    if not lowest > METRIC_MIN_EIGENVALUE:
        raise SpincolError(
            f"ao_overlap smallest eigenvalue {lowest:.3e} is not above {METRIC_MIN_EIGENVALUE:g}"
        )
    _VALIDATED_METRICS[id(s)] = s
    return s


def _metric_applied(det: "SpinorDeterminant") -> tuple[np.ndarray, np.ndarray]:
    """S @ coeff_alpha and S @ coeff_beta; the coefficients themselves without a metric."""
    if det.ao_overlap is None:
        return det.coeff_alpha, det.coeff_beta
    return det.ao_overlap @ det.coeff_alpha, det.ao_overlap @ det.coeff_beta


@dataclass(frozen=True)
class SpinorDeterminant:
    """Single determinant of two-component spinors.

    Column ``i`` of ``coeff_alpha`` / ``coeff_beta`` holds the spatial
    expansion of the alpha / beta component of spinor ``i``.  ``ao_overlap``
    is the Hermitian positive-definite metric of the spatial basis; ``None``
    means identity (orthonormal basis).

    Construction validates shapes, finiteness and the metric.  The metric
    is copied and validated once per array: passing the ``ao_overlap`` of a
    determinant that validated it, while it is still read-only, skips the
    copy, the Hermiticity check and the eigensolve.
    Orthonormality of the spinors is checked where it is consumed
    (``build_overlap_blocks``) so that raw, not-yet-orthonormal coefficient
    sets can be represented and passed to :func:`orthonormalize`.

    The overlap products o_aa, o_ab and o_bb are computed on first use and
    kept for the determinant's lifetime (3·Ne² complex numbers).
    """

    basis_dim: int
    n_electrons: int
    coeff_alpha: np.ndarray
    coeff_beta: np.ndarray
    ao_overlap: np.ndarray | None = None

    def __post_init__(self):
        m, ne = self.basis_dim, self.n_electrons
        if m < 1 or ne < 1:
            raise DimensionMismatch(f"need basis_dim >= 1 and n_electrons >= 1, got {m}, {ne}")
        if ne > 2 * m:
            raise DimensionMismatch(f"{ne} electrons do not fit in {2 * m} spin-orbitals")
        ca = _frozen_complex(self.coeff_alpha)
        cb = _frozen_complex(self.coeff_beta)
        if ca.shape != (m, ne) or cb.shape != (m, ne):
            raise DimensionMismatch(
                f"coefficient matrices must be {m}x{ne}, got {ca.shape} and {cb.shape}"
            )
        _check_finite("coeff_alpha", ca)
        _check_finite("coeff_beta", cb)
        object.__setattr__(self, "coeff_alpha", ca)
        object.__setattr__(self, "coeff_beta", cb)
        if self.ao_overlap is not None:
            object.__setattr__(self, "ao_overlap", _validated_metric(self.ao_overlap, m))

    def stacked(self) -> np.ndarray:
        """Coefficients as one 2M x Ne matrix, alpha rows on top."""
        return np.vstack([self.coeff_alpha, self.coeff_beta])

    @functools.cached_property
    def _overlaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only products (o_aa, o_ab, o_bb): one metric application, three GEMMs.

        Overflow is not warned about here; it leaves a non-finite product
        that the orthonormality gate, or :func:`orthonormalize`, reports.
        """
        ca, cb = self.coeff_alpha, self.coeff_beta
        with np.errstate(over="ignore", invalid="ignore"):
            sa, sb = _metric_applied(self)
            return _read_only(ca.conj().T @ sa, ca.conj().T @ sb, cb.conj().T @ sb)

    def spinor_gram(self) -> np.ndarray:
        """Gram matrix of the spinors under the metric (o_aa + o_bb)."""
        o_aa, _, o_bb = self._overlaps
        with np.errstate(over="ignore", invalid="ignore"):
            return o_aa + o_bb

    def orthonormality_residual(self) -> float:
        """Max absolute deviation of the spinor Gram matrix from identity."""
        return float(np.max(np.abs(self.spinor_gram() - np.eye(self.n_electrons))))


@dataclass(frozen=True)
class OverlapBlocks:
    """The Ne x Ne spinor-component overlap matrices o_aa, o_ab and o_bb.

    ``o_aa`` and ``o_bb`` are Hermitian, ``o_ba`` is derived as the conjugate
    transpose of ``o_ab``, and for an orthonormal determinant ``o_aa + o_bb``
    is the identity.  Instances are plain containers;
    :func:`build_overlap_blocks` constructs and validates them.
    """

    o_aa: np.ndarray
    o_ab: np.ndarray
    o_bb: np.ndarray

    def __post_init__(self):
        for name in ("o_aa", "o_ab", "o_bb"):
            object.__setattr__(self, name, _frozen_complex(getattr(self, name)))

    @property
    def o_ba(self) -> np.ndarray:
        return self.o_ab.conj().T

    @property
    def n_electrons(self) -> int:
        return self.o_aa.shape[0]

    def validate(self) -> None:
        ne = self.n_electrons
        for name in ("o_aa", "o_ab", "o_bb"):
            if getattr(self, name).shape != (ne, ne):
                raise DimensionMismatch(f"{name} must be {ne}x{ne}")
        for name in ("o_aa", "o_bb"):
            block = getattr(self, name)
            residual = np.max(np.abs(block - block.conj().T))
            check_within(
                residual, HERMITICITY_TOL, f"{name} Hermiticity residual", NonHermitianResult
            )
        deviation = np.max(np.abs(self.o_aa + self.o_bb - np.eye(ne)))
        what = "o_aa + o_bb deviation from identity"
        check_within(deviation, ORTHONORMALITY_INPUT_TOL, what, NotOrthonormal)


def build_overlap_blocks(det: SpinorDeterminant) -> OverlapBlocks:
    """Compute the spinor overlap blocks o_aa, o_ab and o_bb of a determinant.

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
    o_aa, o_ab, o_bb = det._overlaps
    blocks = OverlapBlocks(o_aa=o_aa, o_ab=o_ab, o_bb=o_bb)
    blocks.validate()
    return blocks


def electron_counts(blocks: OverlapBlocks) -> tuple[float, float]:
    """Metric-weighted alpha and beta occupation numbers (trace of o_aa, o_bb).

    Both are generally non-integer for a spin-mixed determinant; their sum is
    the (integer) electron count.
    """
    return _real(np.trace(blocks.o_aa), "N_alpha"), _real(np.trace(blocks.o_bb), "N_beta")


def lowdin_orthonormalize(columns: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization of ``columns`` given their Gram matrix.

    Returns ``columns @ gram**(-1/2)``; the column span is preserved and the
    result is the orthonormal set closest to the input in least-squares sense.
    """
    w, v = np.linalg.eigh(gram)
    lowest = w.min()
    if not lowest > GRAM_MIN_EIGENVALUE:
        raise LinearlyDependent(
            f"Gram matrix smallest eigenvalue {lowest:.3e} is not above {GRAM_MIN_EIGENVALUE:g}"
        )
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return columns @ inv_sqrt


def orthonormalize(det: SpinorDeterminant) -> SpinorDeterminant:
    """Return a determinant with the same spinor span, orthonormal to 1e-12.

    Raises ``NotOrthonormal`` when the spinor Gram matrix is not finite
    (its entries overflow), and ``LinearlyDependent`` when the spinors do
    not span an ``n_electrons``-dimensional space at tolerance.
    """
    gram = det.spinor_gram()
    if not np.isfinite(gram).all():
        raise NotOrthonormal(
            "spinor Gram matrix is not finite (its entries overflow); rescale the coefficients"
        )
    new_stacked = lowdin_orthonormalize(det.stacked(), gram)
    m = det.basis_dim
    return SpinorDeterminant(
        basis_dim=m,
        n_electrons=det.n_electrons,
        coeff_alpha=new_stacked[:m],
        coeff_beta=new_stacked[m:],
        ao_overlap=det.ao_overlap,
    )


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
