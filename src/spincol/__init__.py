"""Spin analysis of general complex single-determinant wave functions.

Given a determinant of two-component spinors this package computes the spin
expectation values <Sz>, <Sz^2>, <S-S+>, <S+S->, <S+>, <S^2>, splits <S^2>
into its restricted-open-shell reference, z-noncollinearity, spin
contamination and xy-perpendicularity contributions, builds the 3x3 spin
covariance matrix whose lowest eigenpair gives the optimal quantization axis,
and can tilt the spin frame to that axis.  A brute-force Fock-space expansion
serves as an exact oracle for every formula at small sizes.
"""

from .collinearity import (
    CollinearityResult,
    SpinVector,
    a_matrix,
    analyze_collinearity,
    col_along,
    min_collinearity,
    spin_vector,
)
from .determinant import (
    OverlapBlocks,
    SpinorDeterminant,
    build_overlap_blocks,
    electron_counts,
    orthonormalize,
    to_identity_metric,
)
from .errors import (
    DimensionMismatch,
    LinearlyDependent,
    NonHermitianResult,
    NotOrthonormal,
    NotSymmetric,
    NotUnitVector,
    ParseError,
    ShapeError,
    SpincolError,
    TooLarge,
)
from .fock import FockVector, apply_spin, expand, oracle_expectation
from .io import load_determinant, parse_determinant, save_determinant
from .rotation import (
    SpinRotation,
    align_to_axis,
    gen_dods,
    gen_random_gchf,
    gen_rhf,
    gen_rohf,
    su2_rotate,
)
from .spin import (
    S2Decomposition,
    decompose_s2,
    expect_s2,
    expect_sminus_splus,
    expect_splus,
    expect_splus_sminus,
    expect_sz,
    expect_sz2,
)

__version__ = "0.1.0"

__all__ = [
    "CollinearityResult",
    "DimensionMismatch",
    "FockVector",
    "LinearlyDependent",
    "NonHermitianResult",
    "NotOrthonormal",
    "NotSymmetric",
    "NotUnitVector",
    "OverlapBlocks",
    "ParseError",
    "S2Decomposition",
    "ShapeError",
    "SpinRotation",
    "SpinVector",
    "SpincolError",
    "SpinorDeterminant",
    "TooLarge",
    "a_matrix",
    "align_to_axis",
    "analyze_collinearity",
    "apply_spin",
    "build_overlap_blocks",
    "col_along",
    "decompose_s2",
    "electron_counts",
    "expand",
    "expect_s2",
    "expect_sminus_splus",
    "expect_splus",
    "expect_splus_sminus",
    "expect_sz",
    "expect_sz2",
    "gen_dods",
    "gen_random_gchf",
    "gen_rhf",
    "gen_rohf",
    "load_determinant",
    "min_collinearity",
    "oracle_expectation",
    "orthonormalize",
    "parse_determinant",
    "save_determinant",
    "spin_vector",
    "su2_rotate",
    "to_identity_metric",
]
