"""Spin expectation values and the four-term decomposition of <S^2>.

For a single determinant of orthonormal two-component spinors every spin
expectation reduces to traces and Frobenius norms of the overlap blocks
o_aa, o_ab and o_bb, scalars the blocks object caches:

    <Sz>     = (N_alpha - N_beta) / 2
    <Sz^2>   = <Sz>^2 + (Ne - ||o_aa - o_bb||_F^2) / 4
    <S-S+>   = N_beta  + |tr o_ab|^2 - ||o_ab||_F^2
    <S+S->   = N_alpha + |tr o_ab|^2 - ||o_ab||_F^2
    <S+>     = tr o_ab
    <S^2>    = <Sz^2> + (<S+S-> + <S-S+>) / 2

with N_alpha = tr o_aa and N_beta = tr o_bb.  ``decompose_s2`` regroups
<S^2> into a restricted-open-shell reference term s(s+1), the variance of Sz
(z-noncollinearity), a cross-spin overlap deficit (spin contamination), and
the squared ladder expectation (xy-perpendicularity); the regrouping is an
exact algebraic identity built from the same |tr o_ab|^2 and ||o_ab||_F^2
terms.  hbar = 1 throughout.
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
    t_aa, _, t_bb = blocks._traces
    return _real((t_aa - t_bb) / 2.0, "<Sz>")


def _z_noncollinearity(blocks: OverlapBlocks) -> float:
    return 0.25 * (blocks.n_electrons - blocks._d_norm_sq)


def expect_sz2(blocks: OverlapBlocks) -> float:
    """<Sz^2> = <Sz>^2 plus the variance of Sz (z-noncollinearity)."""
    sz = expect_sz(blocks)
    return sz * sz + _z_noncollinearity(blocks)


def _ladder_exchange(blocks: OverlapBlocks) -> float:
    """|tr o_ab|^2 - ||o_ab||_F^2, shared by <S-S+> and <S+S->."""
    return abs(complex(blocks._traces[1])) ** 2 - blocks._x_norm_sq


def expect_sminus_splus(blocks: OverlapBlocks) -> float:
    """<S-S+>, the squared norm of S+ applied to the determinant."""
    return _real(blocks._traces[2] + _ladder_exchange(blocks), "<S-S+>")


def expect_splus_sminus(blocks: OverlapBlocks) -> float:
    """<S+S->, the squared norm of S- applied to the determinant."""
    return _real(blocks._traces[0] + _ladder_exchange(blocks), "<S+S->")


def expect_splus(blocks: OverlapBlocks) -> complex:
    """<S+> = sum_i <phi_i^alpha | phi_i^beta>; generally complex.

    Its real and imaginary parts are <Sx> and <Sy>, and its squared modulus
    is the xy-perpendicularity contribution to <S^2>.
    """
    return complex(blocks._traces[1])


def expect_s2(blocks: OverlapBlocks) -> float:
    """<S^2> assembled as <Sz^2> + (<S+S-> + <S-S+>) / 2."""
    return expect_sz2(blocks) + 0.5 * (expect_splus_sminus(blocks) + expect_sminus_splus(blocks))


def decompose_s2(blocks: OverlapBlocks) -> S2Decomposition:
    """Split <S^2> into its four additive contributions.

    The alpha/beta labels are ordered by occupation (max/min) so the
    decomposition stays well defined when N_beta exceeds N_alpha; all four
    terms are invariant under the swap.
    """
    t_aa, t_ab, t_bb = blocks._traces
    n_alpha = _real(t_aa, "N_alpha")
    n_beta = _real(t_bb, "N_beta")
    n_min = min(n_alpha, n_beta)
    s = abs(n_alpha - n_beta) / 2.0
    rohf_term = s * (s + 1.0)
    z_noncol = _z_noncollinearity(blocks)
    contamination = n_min - blocks._x_norm_sq
    perpendicularity = abs(complex(t_ab)) ** 2
    return S2Decomposition(
        s_effective=s,
        rohf_term=rohf_term,
        z_noncollinearity=z_noncol,
        spin_contamination=contamination,
        xy_perpendicularity=perpendicularity,
        total=rohf_term + z_noncol + contamination + perpendicularity,
    )
