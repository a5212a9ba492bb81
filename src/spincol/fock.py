"""Exact Fock-space reference (the brute-force oracle).

A spinor determinant is expanded over elementary Slater determinants of the
2M spin-orbitals; the amplitude of an occupation pattern is the Ne x Ne minor
of the stacked coefficient matrix restricted to the pattern's rows.  Spin
operators then act by their second-quantized one-body form, so any spin
expectation can be evaluated with no formula beyond linear algebra.  This is
the ground truth the closed-form routines are validated against.

``oracle_expectation`` expands the determinant once into psi, applies S+, S-
and Sz to it once each (Sx psi and Sy psi are their combinations), and reads
every observable as an inner product: <A> = <psi|A psi> and
<AB> = <A^dagger psi|B psi>.

Conventions: spin-orbitals are ordered 1a < 2a < ... < Ma < 1b < ... < Mb; a
pattern is a bitmask over 2M bits with bit p = (p+1)a and bit M+p = (p+1)b;
minors take rows in ascending order, and fermionic signs count occupied modes
below the acted-on bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .determinant import SpinorDeterminant, to_identity_metric
from .errors import MetricNotIdentity, TooLarge

PATTERN_GUARD = 10_000
BASIS_GUARD = 6


@dataclass(frozen=True)
class FockVector:
    """State in the Ne-electron sector: occupation bitmask -> complex amplitude."""

    m_spatial: int
    n_electrons: int
    amplitudes: dict

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def inner(self, other: "FockVector") -> complex:
        if len(self.amplitudes) > len(other.amplitudes):
            return complex(
                sum(
                    self.amplitudes[p].conjugate() * a
                    for p, a in other.amplitudes.items()
                    if p in self.amplitudes
                )
            )
        return complex(
            sum(
                a.conjugate() * other.amplitudes[p]
                for p, a in self.amplitudes.items()
                if p in other.amplitudes
            )
        )

    def scaled(self, factor: complex) -> "FockVector":
        return FockVector(
            self.m_spatial,
            self.n_electrons,
            {p: factor * a for p, a in self.amplitudes.items()},
        )

    def add(self, other: "FockVector") -> "FockVector":
        merged = dict(self.amplitudes)
        for p, a in other.amplitudes.items():
            merged[p] = merged.get(p, 0.0) + a
        return FockVector(self.m_spatial, self.n_electrons, merged)


def _phase(mask: int, bit: int) -> int:
    """(-1)**(number of occupied modes below ``bit``)."""
    return -1 if (mask & ((1 << bit) - 1)).bit_count() & 1 else 1


def expand(det: SpinorDeterminant) -> FockVector:
    """Expand a determinant over elementary Slater determinants.

    Requires an identity AO metric (see ``to_identity_metric``); a metric
    would make the elementary determinants non-orthonormal and the minors
    meaningless as amplitudes.
    """
    if not det.metric_is_identity():
        raise MetricNotIdentity("expand needs an identity AO overlap; transform the basis first")
    m, ne = det.basis_dim, det.n_electrons
    n_patterns = comb(2 * m, ne)
    if n_patterns > PATTERN_GUARD:
        raise TooLarge(f"{n_patterns} occupation patterns exceed the guard of {PATTERN_GUARD}")
    patterns = list(combinations(range(2 * m), ne))
    minors = np.linalg.det(det.stacked()[np.array(patterns)])
    amplitudes = {sum(1 << r for r in rows): complex(a) for rows, a in zip(patterns, minors)}
    return FockVector(m_spatial=m, n_electrons=ne, amplitudes=amplitudes)


def _apply_ladder(vec: FockVector, from_offset: int, to_offset: int) -> FockVector:
    """sum_p a+_{p,to} a_{p,from} with fermionic signs."""
    m = vec.m_spatial
    out = {}
    for mask, amp in vec.amplitudes.items():
        for p in range(m):
            src = p + from_offset
            dst = p + to_offset
            if not (mask >> src) & 1 or (mask >> dst) & 1:
                continue
            sign = _phase(mask, src)
            cleared = mask & ~(1 << src)
            sign *= _phase(cleared, dst)
            new_mask = cleared | (1 << dst)
            out[new_mask] = out.get(new_mask, 0.0) + sign * amp
    return FockVector(m, vec.n_electrons, out)


def apply_spin(vec: FockVector, op: str) -> FockVector:
    """Act with one of Sz, S+, S-, Sx, Sy on a Fock-space vector."""
    m = vec.m_spatial
    if op == "Sz":
        alpha_mask = (1 << m) - 1
        out = {}
        for mask, amp in vec.amplitudes.items():
            n_a = (mask & alpha_mask).bit_count()
            n_b = (mask >> m).bit_count()
            out[mask] = 0.5 * (n_a - n_b) * amp
        return FockVector(m, vec.n_electrons, out)
    if op == "S+":
        return _apply_ladder(vec, from_offset=m, to_offset=0)
    if op == "S-":
        return _apply_ladder(vec, from_offset=0, to_offset=m)
    if op in ("Sx", "Sy"):
        return _cartesian(op, apply_spin(vec, "S+"), apply_spin(vec, "S-"))
    raise ValueError(f"unknown spin operator {op!r}")


def _cartesian(op: str, plus: FockVector, minus: FockVector) -> FockVector:
    """Sx = (S+ + S-)/2 or Sy = (S+ - S-)/2i, given S+ and S- applied to one vector."""
    if op == "Sx":
        return plus.add(minus).scaled(0.5)
    return plus.add(minus.scaled(-1.0)).scaled(-0.5j)


def oracle_expectation(det: SpinorDeterminant) -> dict[str, complex]:
    """Brute-force expectation values of every supported spin observable.

    Returns a dict keyed by Sz, Sx, Sy, S+, S-, Sz2, S-S+, S+S-, S2 and every
    product SmSn with m, n in {x, y, z}, all computed from one expansion of
    the determinant.  Guarded to small problems (M <= 6 and at most 10^4
    occupation patterns).
    """
    if det.basis_dim > BASIS_GUARD:
        raise TooLarge(f"basis_dim {det.basis_dim} exceeds the oracle guard of {BASIS_GUARD}")
    psi = expand(to_identity_metric(det))
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
