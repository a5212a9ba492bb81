"""Spin expectation values and the four-term decomposition of <S^2>.

For a single determinant of orthonormal two-component spinors every spin
expectation is a fixed formula of one record the overlap blocks compute
once: the occupations N_alpha = tr o_aa and N_beta = tr o_bb, the spin
vector s = <S> and the 3x3 spin covariance matrix A (see
:mod:`spincol.collinearity`):

    <Sz>     = (N_alpha - N_beta) / 2
    <Sz^2>   = <Sz>^2 + A_zz
    <S-S+>   = A_xx + A_yy + s_x^2 + s_y^2 - s_z
    <S+S->   = A_xx + A_yy + s_x^2 + s_y^2 + s_z
    <S+>     = s_x + i s_y
    <S^2>    = tr A + |s|^2

``decompose_s2`` splits <S^2> into the restricted-open-shell term s(s+1),
s = |N_alpha - N_beta| / 2, the z-noncollinearity A_zz, the spin
contamination A_xx + A_yy - s and the xy-perpendicularity s_x^2 + s_y^2.
A quantity that must be real gates the imaginary residue of the occupation
it stands for (N_beta = Ne/2 - s_z in <S-S+>).  hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .determinant import OverlapBlocks, _real


@dataclass(frozen=True)
class S2Decomposition:
    """The four additive contributions to <S^2> plus totals.

    ``total`` is the exact sum of ``rohf_term``, ``z_noncollinearity``,
    ``spin_contamination`` and ``xy_perpendicularity``; ``s_effective`` is the
    spin quantum number |N_alpha - N_beta| / 2 entering the first term.
    """

    s_effective: float
    rohf_term: float
    z_noncollinearity: float
    spin_contamination: float
    xy_perpendicularity: float
    total: float

    def terms(self) -> tuple[float, float, float, float]:
        return (
            self.rohf_term,
            self.z_noncollinearity,
            self.spin_contamination,
            self.xy_perpendicularity,
        )


def expect_sz(blocks: OverlapBlocks) -> float:
    """<Sz> = (N_alpha - N_beta) / 2."""
    n_alpha, n_beta, _, _ = blocks._record
    return _real((n_alpha - n_beta) / 2.0, "<Sz>")


def expect_sz2(blocks: OverlapBlocks) -> float:
    """<Sz^2> = <Sz>^2 plus the variance of Sz, A_zz (z-noncollinearity)."""
    sz = expect_sz(blocks)
    return sz * sz + float(blocks._record.a[2, 2])


def _ladder_square(blocks: OverlapBlocks, sign: float, what: str) -> float:
    """A_xx + A_yy + s_x^2 + s_y^2 + sign s_z, after gating N_alpha (sign +1) or N_beta as ``what``."""
    n_alpha, n_beta, s, a = blocks._record
    _real(n_alpha if sign > 0 else n_beta, what)
    return float(a[0, 0] + a[1, 1] + s[0] * s[0] + s[1] * s[1] + sign * s[2])


def expect_sminus_splus(blocks: OverlapBlocks) -> float:
    """<S-S+>, the squared norm of S+ applied to the determinant."""
    return _ladder_square(blocks, -1.0, "<S-S+>")


def expect_splus_sminus(blocks: OverlapBlocks) -> float:
    """<S+S->, the squared norm of S- applied to the determinant."""
    return _ladder_square(blocks, 1.0, "<S+S->")


def expect_splus(blocks: OverlapBlocks) -> complex:
    """<S+> = sum_i <phi_i^alpha | phi_i^beta> = <Sx> + i <Sy>; its squared modulus is the xy-perpendicularity."""
    s = blocks._record.s
    return complex(s[0], s[1])


def expect_s2(blocks: OverlapBlocks) -> float:
    """<S^2> = tr A + |<S>|^2, after the gates of <Sz^2>, <S+S-> and <S-S+>."""
    n_alpha, n_beta, s, a = blocks._record
    for value, what in (((n_alpha - n_beta) / 2.0, "<Sz>"), (n_alpha, "<S+S->"), (n_beta, "<S-S+>")):
        _real(value, what)
    return float(a.trace() + s @ s)


def decompose_s2(blocks: OverlapBlocks) -> S2Decomposition:
    """Split <S^2> into its four additive contributions.

    s = |N_alpha - N_beta| / 2, so the decomposition stays well defined when
    N_beta exceeds N_alpha; all four terms are invariant under the swap.
    """
    n_alpha, n_beta, v, a = blocks._record
    n_alpha, n_beta = _real(n_alpha, "N_alpha"), _real(n_beta, "N_beta")
    s = abs(n_alpha - n_beta) / 2.0
    rohf_term = s * (s + 1.0)
    z_noncol = float(a[2, 2])
    contamination = float(a[0, 0] + a[1, 1]) - s
    perpendicularity = float(v[0] * v[0] + v[1] * v[1])
    return S2Decomposition(
        s_effective=s,
        rohf_term=rohf_term,
        z_noncollinearity=z_noncol,
        spin_contamination=contamination,
        xy_perpendicularity=perpendicularity,
        total=rohf_term + z_noncol + contamination + perpendicularity,
    )
