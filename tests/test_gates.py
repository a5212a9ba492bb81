"""Threshold gates: each failure message names the quantity, its value and the limit."""

import sys

import numpy as np
import pytest

import helpers
from spincol import (
    NonHermitianResult,
    NotOrthonormal,
    NotSymmetric,
    NotUnitVector,
    SpinorDeterminant,
    SpinRotation,
    a_matrix,
    analyze_collinearity,
    build_overlap_blocks,
    col_along,
    decompose_s2,
    electron_counts,
    expect_s2,
    expect_sminus_splus,
    expect_splus,
    expect_splus_sminus,
    expect_sz,
    expect_sz2,
    gen_random_gchf,
    min_collinearity,
    spin_vector,
    su2_rotate,
)


def _orthonormality():
    build_overlap_blocks(SpinorDeterminant(1, 1, [[2.0]], [[0.0]]))


def _hermiticity():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=1))
    helpers.stack_blocks(good.o_aa + np.diag([0.1j, 0.0]), good.o_ab, good.o_bb).validate()


def _real_part():
    # 4e-13i on each diagonal entry: a Hermiticity residual of 8e-13, an imaginary N_alpha of 1.6e-12.
    good = build_overlap_blocks(gen_random_gchf(3, 4, seed=6))
    helpers.stack_blocks(good.o_aa + 4e-13j * np.eye(4), good.o_ab, good.o_bb).validate()


def _unit_norm():
    col_along(build_overlap_blocks(gen_random_gchf(2, 2, seed=1)), [2.0, 0.0, 0.0])


def _symmetry():
    a = np.eye(3)
    a[0, 1] = 1e-6
    min_collinearity(a)


@pytest.mark.parametrize(
    "violate,error,quantity,value,limit",
    [
        (_orthonormality, NotOrthonormal, "orthonormality residual", "3.000e+00", "1e-08"),
        (_hermiticity, NonHermitianResult, "o_aa Hermiticity residual", "2.000e-01", "1e-12"),
        (_real_part, NonHermitianResult, "imaginary part of N_alpha", "1.600e-12", "1e-12"),
        (_unit_norm, NotUnitVector, "|norm - 1|", "1.000e+00", "1e-10"),
        (_symmetry, NotSymmetric, "asymmetry", "1.000e-06", "1e-10"),
    ],
    ids=["orthonormality", "hermiticity", "real-part", "unit-norm", "symmetry"],
)
def test_gate_message_names_quantity_value_and_limit(violate, error, quantity, value, limit):
    with pytest.raises(error) as info:
        violate()
    message = str(info.value)
    assert quantity in message and value in message and limit in message


_RECORD_READERS = (
    electron_counts,
    expect_sz,
    expect_sz2,
    expect_sminus_splus,
    expect_splus_sminus,
    expect_splus,
    expect_s2,
    decompose_s2,
    spin_vector,
    a_matrix,
)


def _record_gates(monkeypatch):
    """Replace check_within in every spincol module with a recorder of what it is asked to check."""
    checked = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spincol" and hasattr(module, "check_within"):
            monkeypatch.setattr(module, "check_within", lambda value, limit, what, *_, **__: checked.append(what))
    return checked


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_validate_is_the_only_gate_on_the_record(monkeypatch, rotated):
    det = helpers.random_metric_determinant(5, 3, seed=2)
    if rotated:
        det = su2_rotate(det, SpinRotation([0.6, 0.0, 0.8], 0.7))
    blocks = build_overlap_blocks(det)
    checked = _record_gates(monkeypatch)
    blocks.validate()
    assert checked == [
        "o_aa Hermiticity residual",
        "o_bb Hermiticity residual",
        "imaginary part of N_alpha",
        "imaginary part of N_beta",
    ]
    checked.clear()
    for reader in _RECORD_READERS:
        reader(blocks)
    assert checked == []
    # The diagonalization checks only that its argument, A, is symmetric, as min_collinearity does for any caller.
    analyze_collinearity(blocks)
    assert checked == ["matrix asymmetry"]
