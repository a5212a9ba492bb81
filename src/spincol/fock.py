"""Exact Fock-space reference (the brute-force oracle).

A spinor determinant is expanded over elementary Slater determinants of the
2M spin-orbitals; the amplitude of an occupation pattern is the Ne x Ne minor
of the stacked coefficient matrix restricted to the pattern's rows, all from
one cofactor expansion that computes each sub-minor once for every pattern
containing its rows (none exceeds modulus 1, by Hadamard's bound; ``expand``
guards the size of the largest level).  Spin operators act by their
second-quantized one-body form (S+ and S- through one signed transition table
cached per sector), with no formula beyond linear algebra.  This is the
ground truth the closed forms are validated against.

``oracle_expectation`` expands the determinant once into psi, applies S+, S-
and Sz to it once each (Sx psi and Sy psi are their combinations), and reads
every observable as an inner product: <A> = <psi|A psi> and
<AB> = <A^dagger psi|B psi>.

Conventions: spin-orbitals are ordered 1a < 2a < ... < Ma < 1b < ... < Mb
(row p of the stacked coefficients is (p+1)a, row M+p is (p+1)b); a pattern
is the ascending tuple of its occupied rows, and a Fock vector holds one
amplitude per pattern in ``itertools.combinations(range(2M), Ne)`` order;
minors take rows in ascending order, and fermionic signs count occupied modes
below the acted-on mode.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .determinant import SpinorDeterminant, _numbers, to_identity_metric
from .errors import DimensionMismatch, TooLarge

PATTERN_GUARD = 10_000
BASIS_GUARD = 6


@dataclass(frozen=True)
class FockVector:
    """State in the Ne-electron sector of 2M spin-orbitals.

    ``amplitudes[k]`` is the complex amplitude of the k-th occupation pattern
    of ``itertools.combinations(range(2 * m_spatial), n_electrons)``, the
    lexicographic order of the ascending tuples of occupied spin-orbitals.
    """

    m_spatial: int
    n_electrons: int
    amplitudes: np.ndarray

    def __post_init__(self):
        for name in ("m_spatial", "n_electrons"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DimensionMismatch(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.m_spatial < 1:
            raise DimensionMismatch(f"m_spatial must be at least 1, got {self.m_spatial}")
        if not 0 <= self.n_electrons <= 2 * self.m_spatial:
            raise DimensionMismatch(f"n_electrons must be from 0 to {2 * self.m_spatial}, got {self.n_electrons}")
        amplitudes = np.asarray(_numbers(self.amplitudes, "amplitudes"), dtype=complex)
        n_patterns = comb(2 * self.m_spatial, self.n_electrons)
        if amplitudes.shape != (n_patterns,):
            raise DimensionMismatch(
                f"amplitudes have shape {amplitudes.shape}, expected ({n_patterns},)"
            )
        object.__setattr__(self, "amplitudes", amplitudes)

    def _of_amplitudes(self, amplitudes: np.ndarray) -> FockVector:
        """A vector of this one's sector holding ``amplitudes``, which the oracle computed: not checked again."""
        vec = FockVector.__new__(FockVector)
        vec.__dict__.update(m_spatial=self.m_spatial, n_electrons=self.n_electrons, amplitudes=amplitudes)
        return vec

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "FockVector") -> complex:
        sectors = (self.m_spatial, self.n_electrons), (other.m_spatial, other.n_electrons)
        if sectors[0] != sectors[1]:
            raise DimensionMismatch(f"inner product of sectors (m_spatial, n_electrons) {sectors[0]} and {sectors[1]}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@lru_cache(maxsize=16)
def _sector(m: int, ne: int) -> tuple[np.ndarray, ...]:
    """S+ transition table and Sz diagonal of a sector, built once.

    Returns S+'s (source, target, sign) and 1/2 (n_alpha - n_beta) per
    pattern, all read off the occupation matrix and read-only because every
    caller shares them.  The patterns are enumerated here, not taken from
    ``_level``: a vector's sector may be one no expansion reaches (Ne near 2M
    at large M), whose middle cofactor levels would be vast.  S+ moves the
    electron of mode M+p to p, orbital after orbital.  That keeps every other
    occupation, and so the combinations order: the k-th pattern with M+p
    occupied and p empty lands on the k-th with p occupied and M+p empty,
    with sign (-1)**(occupied modes strictly between p and M+p).
    """
    rows = np.array(list(combinations(range(2 * m), ne)), dtype=np.intp)
    occupied = np.zeros((len(rows), 2 * m), dtype=bool)
    occupied[np.arange(len(rows))[:, None], rows] = True
    alpha, beta = occupied[:, :m], occupied[:, m:]
    raisable = (beta & ~alpha).T
    below = np.cumsum(occupied, axis=1)
    passed = (below[:, m - 1 : 2 * m - 1] - below[:, :m]).T[raisable]
    sector = (np.nonzero(raisable)[1], np.nonzero((alpha & ~beta).T)[1],
              np.where(passed % 2, -1.0, 1.0), 0.5 * (alpha.sum(axis=1) - beta.sum(axis=1)))
    for table in sector:
        table.setflags(write=False)
    return sector


@lru_cache(maxsize=64)
def _level(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and signed sub-minor indices of cofactor level k, k x C(2M, k) each, built once and read-only.

    Column s of ``rows`` is the s-th k-subset S of the 2M rows in combinations order.  Entry (j, s)
    of ``sub`` indexes [minors, -minors] of level k-1 at S without S_j, ranked in the combinatorial
    number system, in the second half where the cofactor sign (-1)**(j+k-1) is negative.
    """
    n = 2 * m
    if k == 1:
        rows = np.arange(n)[None]
    else:
        prev = _level(m, k - 1)[0]
        counts = n - 1 - prev[-1]  # each (k-1)-subset grows by every row above its last
        grown = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - prev[-1] - 1, counts)
        rows = np.vstack((np.repeat(prev, counts, axis=1), grown))
    # The rank of S without S_j is C(2M, k-1) - 1 minus, over i != j, C(2M-1-S_i, k-1-i) ("keep",
    # S_i keeps place i when i < j) or C(2M-1-S_i, k-i) ("moved", to place i-1 when i > j).
    binom = np.array([[comb(a, b) for b in range(k + 1)] for a in range(n)], dtype=np.intp).ravel()
    at = (n - 1 - rows) * (k + 1) + np.arange(k - 1, -1, -1)[:, None]
    keep, moved = binom.take(at), binom.take(at + 1)
    sub = keep - np.cumsum(keep - moved, axis=0) + (comb(n, k - 1) - 1 - moved.sum(axis=0))
    sub += comb(n, k - 1) * ((np.arange(k)[:, None] + k - 1) % 2)
    for table in (rows, sub):
        table.setflags(write=False)
    return rows, sub


def expand(det: SpinorDeterminant) -> FockVector:
    """Expand a determinant over elementary Slater determinants.

    The coefficients are first re-expressed over an orthonormal spatial
    basis (``to_identity_metric``): under a metric the elementary
    determinants would not be orthonormal and the minors would not be
    amplitudes.  Level k of the cofactor expansion holds the minors of
    W[:, :k] on every k-subset S of rows, each the sum over j, in order, of
    (-1)**(j+k-1) W[S_j, k-1] minor_{k-1}[S without S_j].  By Hadamard's
    bound no minor of orthonormal columns exceeds modulus 1.  The guard
    counts the largest level, C(2M, min(Ne, M)).
    """
    m, ne = det.basis_dim, det.n_electrons
    largest = comb(2 * m, min(ne, m))
    if largest > PATTERN_GUARD:
        raise TooLarge(f"{largest} minors in the largest cofactor level exceed the guard of {PATTERN_GUARD}")
    stacked = to_identity_metric(det).stacked()
    minors = stacked[:, 0].copy()
    for k in range(2, ne + 1):
        rows, sub = _level(m, k)
        terms = stacked[:, k - 1].take(rows)
        terms *= np.concatenate((minors, -minors)).take(sub)
        minors = terms.sum(axis=0)
    return FockVector(m_spatial=m, n_electrons=ne, amplitudes=minors)


def _apply_ladder(vec: FockVector, source: np.ndarray, target: np.ndarray, sign: np.ndarray) -> FockVector:
    """S+ from a sector's (source, target, sign) table, or S- with source and target swapped.

    S- keeps the signs: the same modes lie between p and M+p.  ``bincount``
    adds each target's contributions in table order, from 0.0, as a loop
    over p would.
    """
    moved = sign * vec.amplitudes[source]
    out = np.empty_like(vec.amplitudes)
    out.real = np.bincount(target, moved.real, minlength=len(out))
    out.imag = np.bincount(target, moved.imag, minlength=len(out))
    return vec._of_amplitudes(out)


def apply_spin(vec: FockVector, op: str) -> FockVector:
    """Act with one of Sz, S+, S-, Sx, Sy on a Fock-space vector."""
    if op in ("Sx", "Sy"):
        return _cartesian(op, apply_spin(vec, "S+"), apply_spin(vec, "S-"))
    source, target, sign, sz = _sector(vec.m_spatial, vec.n_electrons)
    if op == "Sz":
        return vec._of_amplitudes(sz * vec.amplitudes)
    if op == "S+":
        return _apply_ladder(vec, source, target, sign)
    if op == "S-":
        return _apply_ladder(vec, target, source, sign)
    raise ValueError(f"unknown spin operator {op!r}")


def _cartesian(op: str, plus: FockVector, minus: FockVector) -> FockVector:
    """Sx = (S+ + S-)/2 or Sy = (S+ - S-)/2i, given S+ and S- applied to one vector."""
    if op == "Sx":
        amplitudes = 0.5 * (plus.amplitudes + minus.amplitudes)
    else:
        amplitudes = -0.5j * (plus.amplitudes - minus.amplitudes)
    return plus._of_amplitudes(amplitudes)


def oracle_expectation(det: SpinorDeterminant) -> dict[str, complex]:
    """Brute-force expectation values of every supported spin observable.

    Returns a dict keyed by Sz, Sx, Sy, S+, S-, Sz2, S-S+, S+S-, S2 and every
    product SmSn with m, n in {x, y, z}, all computed from one expansion of
    the determinant.  Guarded to small problems (M <= 6).
    """
    if det.basis_dim > BASIS_GUARD:
        raise TooLarge(f"basis_dim {det.basis_dim} exceeds the oracle guard of {BASIS_GUARD}")
    psi = expand(det)
    acted = {op: apply_spin(psi, op) for op in ("S+", "S-", "Sz")}
    for op in ("Sx", "Sy"):
        acted[op] = _cartesian(op, acted["S+"], acted["S-"])
    values = {op: psi.inner(acted[op]) for op in ("Sz", "Sx", "Sy", "S+", "S-")}
    for a in "xyz":
        for b in "xyz":
            values[f"S{a}S{b}"] = acted[f"S{a}"].inner(acted[f"S{b}"])
    values["Sz2"] = values["SzSz"]
    values["S-S+"] = acted["S+"].inner(acted["S+"])
    values["S+S-"] = acted["S-"].inner(acted["S-"])
    values["S2"] = values["Sz2"] + 0.5 * (values["S+S-"] + values["S-S+"])
    return values
