"""Threshold gates: each failure message names the quantity, its value and the limit."""

import numpy as np
import pytest

import helpers
from spincol import (
    NonHermitianResult,
    NotOrthonormal,
    NotSymmetric,
    NotUnitVector,
    SpinorDeterminant,
    build_overlap_blocks,
    col_along,
    expect_sz,
    gen_random_gchf,
    min_collinearity,
)


def _orthonormality():
    build_overlap_blocks(SpinorDeterminant(1, 1, [[2.0]], [[0.0]]))


def _hermiticity():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=1))
    helpers.stack_blocks(good.o_aa + np.diag([0.1j, 0.0]), good.o_ab, good.o_bb).validate()


def _real_part():
    good = build_overlap_blocks(gen_random_gchf(2, 2, seed=6))
    expect_sz(helpers.stack_blocks(good.o_aa + 1e-3j * np.eye(2), good.o_ab, good.o_bb))


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
        (_real_part, NonHermitianResult, "imaginary part of <Sz>", "1.000e-03", "1e-12"),
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
