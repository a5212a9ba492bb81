"""File format round trips and the command line contract."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import spincol.determinant
from spincol import (
    NotOrthonormal,
    ParseError,
    ShapeError,
    SpinorDeterminant,
    SpinRotation,
    build_overlap_blocks,
    expect_s2,
    gen_random_gchf,
    gen_rohf,
    load_determinant,
    orthonormalize,
    parse_determinant,
    save_determinant,
    su2_rotate,
)
from spincol.cli import run
from spincol.io import file_sha256

SRC = str(Path(__file__).resolve().parents[1] / "src")

PURE_ALPHA_DOC = """
{
 "basis_dim": 1,
 "n_electrons": 1,
 "coeff_alpha": [[[1, 0]]],
 "coeff_beta": [[[0, 0]]]
}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_round_trip_preserves_blocks(tmp_path):
    det = gen_random_gchf(3, 3, seed=2)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    loaded = load_determinant(path)
    b1, b2 = build_overlap_blocks(det), build_overlap_blocks(loaded)
    for name in ("o_aa", "o_ab", "o_ba", "o_bb"):
        assert np.max(np.abs(getattr(b1, name) - getattr(b2, name))) < 1e-12


def test_round_trip_with_metric(tmp_path):
    det = helpers.random_metric_determinant(2, 2, seed=4)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    loaded = load_determinant(path)
    assert loaded.ao_overlap is not None
    assert np.max(np.abs(loaded.ao_overlap - det.ao_overlap)) < 1e-15


def test_save_parse_round_trip_is_bit_exact(tmp_path):
    det = helpers.random_metric_determinant(3, 2, seed=6)
    coeff_alpha = det.coeff_alpha.copy()
    coeff_alpha[0, 0] = complex(-0.0, 5e-324)
    coeff_alpha[1, 1] = complex(1e300, -0.0)
    metric = det.ao_overlap.copy()
    metric[0, 0] = complex(metric[0, 0].real, -0.0)
    metric[0, 1] = complex(metric[0, 1].real, 5e-324)
    metric[1, 0] = complex(metric[1, 0].real, -5e-324)
    det = SpinorDeterminant(3, 2, coeff_alpha, det.coeff_beta, metric)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    loaded = parse_determinant(path)
    for name in ("coeff_alpha", "coeff_beta", "ao_overlap"):
        assert getattr(loaded, name).tobytes() == getattr(det, name).tobytes(), name


def test_save_parse_round_trip_is_bit_exact_without_metric(tmp_path):
    det = gen_random_gchf(3, 2, seed=5)
    coeff_beta = det.coeff_beta.copy()
    coeff_beta[0, 0] = complex(5e-324, -0.0)
    coeff_beta[2, 1] = complex(-0.0, 1e300)
    det = SpinorDeterminant(3, 2, det.coeff_alpha, coeff_beta)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    loaded = parse_determinant(path)
    assert loaded.ao_overlap is None
    for name in ("coeff_alpha", "coeff_beta"):
        assert getattr(loaded, name).tobytes() == getattr(det, name).tobytes(), name


def test_saved_file_is_the_same_document_one_row_per_line(tmp_path):
    det = helpers.random_metric_determinant(3, 2, seed=8)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    text = path.read_text(encoding="utf-8")

    def pairs(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]

    expected = {
        "basis_dim": 3,
        "n_electrons": 2,
        "coeff_alpha": pairs(det.coeff_alpha),
        "coeff_beta": pairs(det.coeff_beta),
        "ao_overlap": pairs(det.ao_overlap),
    }
    doc = json.loads(text)
    assert doc == expected
    assert list(doc) == list(expected)
    lines = text.splitlines()
    # Braces, two integer fields, and per matrix an opening line, 3 rows and a closing line.
    assert len(lines) == 4 + 3 * (1 + 3 + 1)
    assert [json.loads(line.rstrip(",")) for line in lines[4:7]] == expected["coeff_alpha"]


def _json_dumps_encoding(det):
    """The file ``json.dumps`` writes for ``det``: one dumps call per row of [re, im] pairs."""
    text = f'{{\n "basis_dim": {det.basis_dim},\n "n_electrons": {det.n_electrons}'
    matrices = {"coeff_alpha": det.coeff_alpha, "coeff_beta": det.coeff_beta, "ao_overlap": det.ao_overlap}
    for field, m in matrices.items():
        if m is not None:
            rows = ",\n  ".join(map(json.dumps, np.stack((m.real, m.imag), -1).tolist()))
            text += f',\n "{field}": [\n  {rows}\n ]'
    return text + "\n}\n"


# Numbers whose shortest repr takes each form: signed zero, the smallest subnormal, a
# three-digit exponent, integral floats, and both exponent signs.
SPECIAL_FLOATS = (-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.0, 1e-05, 1e16, 1e-300)


def test_saved_bytes_are_the_json_dumps_encoding(tmp_path):
    metric_det = helpers.random_metric_determinant(4, 3, seed=12)
    coeffs = metric_det.stacked().copy().reshape(-1)
    coeffs.view(np.float64)[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    det = SpinorDeterminant(4, 3, *coeffs.reshape(2, 4, 3), metric_det.ao_overlap)
    # A read-only transposed metric is copied into C order, like any metric the constructor is given.
    transposed = SpinorDeterminant(4, 3, det.coeff_alpha, det.coeff_beta, det.ao_overlap.T)
    assert transposed.ao_overlap.flags.c_contiguous and transposed.ao_overlap.flags.owndata
    unit = SpinorDeterminant(1, 1, [[complex(1.0, -0.0)]], [[complex(-0.0, 5e-324)]])
    for i, case in enumerate((det, transposed, unit, gen_random_gchf(5, 4, seed=3))):
        path = tmp_path / f"det{i}.json"
        save_determinant(case, path)
        assert path.read_bytes() == _json_dumps_encoding(case).encode("utf-8"), i


_FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_SMALL = st.one_of(st.sampled_from(SPECIAL_FLOATS[:3] + (1e-05, 0.5, -1.0)), st.floats(-1.0, 1.0))


@st.composite
def _determinants(draw):
    m = draw(st.integers(1, 5))
    ne = draw(st.integers(1, 2 * m))
    coeffs = np.array(draw(st.lists(_FINITE, min_size=4 * m * ne, max_size=4 * m * ne)))
    ca, cb = coeffs.view(np.complex128).reshape(2, m, ne)
    metric = None
    if draw(st.booleans()):
        # Hermitian and diagonally dominant, so positive definite; the diagonal is integral.
        off = np.array(draw(st.lists(_SMALL, min_size=2 * m * m, max_size=2 * m * m))).view(np.complex128)
        upper = np.triu(off.reshape(m, m), 1)
        metric = upper + upper.conj().T
        np.fill_diagonal(metric, complex(2.0 * m, draw(st.sampled_from([0.0, -0.0]))))
        if draw(st.booleans()):
            metric = SpinorDeterminant(m, ne, ca, cb, metric).ao_overlap.T
    return SpinorDeterminant(m, ne, ca, cb, metric)


@settings(max_examples=60, deadline=None)
@given(det=_determinants(), indent=st.sampled_from([None, 0, 1, 4, "\t"]), data=st.data())
def test_save_parse_is_bit_exact_in_any_json_layout(tmp_path_factory, det, indent, data):
    path = tmp_path_factory.mktemp("layout") / "det.json"
    save_determinant(det, path)
    assert path.read_bytes() == _json_dumps_encoding(det).encode("utf-8")
    doc = json.loads(path.read_text(encoding="utf-8"))
    keys = data.draw(st.permutations(list(doc)))
    separators = data.draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " : ")]))
    relaid = path.with_name("relaid.json")
    relaid.write_text(json.dumps({key: doc[key] for key in keys}, indent=indent, separators=separators))
    for loaded in (parse_determinant(path), parse_determinant(relaid)):
        assert (loaded.ao_overlap is None) == (det.ao_overlap is None)
        for name in ("coeff_alpha", "coeff_beta", "ao_overlap"):
            if getattr(det, name) is not None:
                assert getattr(loaded, name).tobytes() == np.ascontiguousarray(getattr(det, name)).tobytes(), name


def test_load_minimal_pure_alpha(tmp_path):
    det = load_determinant(_write(tmp_path, "a.json", PURE_ALPHA_DOC))
    assert det.basis_dim == 1
    assert det.n_electrons == 1
    assert det.coeff_alpha[0, 0] == 1.0
    assert det.coeff_beta[0, 0] == 0.0


def test_load_rejects_overfull_determinant(tmp_path):
    doc = {
        "basis_dim": 1,
        "n_electrons": 3,
        "coeff_alpha": [[[1, 0], [0, 0], [0, 0]]],
        "coeff_beta": [[[0, 0], [1, 0], [0, 0]]],
    }
    with pytest.raises(ShapeError):
        load_determinant(_write(tmp_path, "bad.json", json.dumps(doc)))


def test_load_rejects_malformed_json(tmp_path):
    with pytest.raises(ParseError):
        load_determinant(_write(tmp_path, "broken.json", "{not json"))


def test_load_rejects_json_nested_past_the_recursion_limit(tmp_path):
    with pytest.raises(ParseError, match="recursion"):
        load_determinant(_write(tmp_path, "deep.json", "[" * 200_000))


def test_load_rejects_missing_field(tmp_path):
    with pytest.raises(ParseError):
        load_determinant(_write(tmp_path, "missing.json", '{"basis_dim": 1}'))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_parse_leaves_the_garbage_collector_as_it_found_it(tmp_path, enabled):
    # The collector is paused around json.loads only, and never enabled if the caller had disabled it.
    good, bad = _write(tmp_path, "good.json", PURE_ALPHA_DOC), _write(tmp_path, "bad.json", "{not json")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert parse_determinant(good).n_electrons == 1
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_determinant(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "coeff_alpha,error",
    [
        pytest.param("[[[1]]]", ParseError, id="short-pair"),
        pytest.param("[[[1, 0, 0]]]", ParseError, id="long-pair"),
        pytest.param("[[[true, 0]]]", ParseError, id="bool"),
        pytest.param('[[["1", 0]]]', ParseError, id="string"),
        pytest.param("[[[null, 0]]]", ParseError, id="null"),
        pytest.param("[[1]]", ParseError, id="bare-number"),
        pytest.param("[1]", ParseError, id="row-not-array"),
        pytest.param("[[[1, 0], [0, 0]]]", ShapeError, id="row-entry-count"),
        pytest.param(f"[[[1{'0' * 400}, 0]]]", ParseError, id="huge-integer"),
    ],
)
def test_load_rejects_bad_entry(tmp_path, coeff_alpha, error):
    doc = (
        f'{{"basis_dim": 1, "n_electrons": 1, "coeff_alpha": {coeff_alpha}, '
        '"coeff_beta": [[[0, 0]]]}'
    )
    with pytest.raises(error, match="'coeff_alpha'"):
        load_determinant(_write(tmp_path, "pair.json", doc))


# The pinned bad entries again, each inside a 3x2 matrix at row 1 (and again at
# row 2, so only the first may be reported): (bad pair, bad row, error, where).
_INTERIOR_CASES = [
    pytest.param("[1]", None, ParseError, "entry [1][1]", id="short-pair"),
    pytest.param("[1, 0, 0]", None, ParseError, "entry [1][1]", id="long-pair"),
    pytest.param("[true, 0]", None, ParseError, "entry [1][1]", id="bool"),
    pytest.param('["1", 0]', None, ParseError, "entry [1][1]", id="string"),
    pytest.param("[0, null]", None, ParseError, "entry [1][1]", id="null"),
    pytest.param("1", None, ParseError, "entry [1][1]", id="bare-number"),
    pytest.param(None, "1", ParseError, "row 1", id="row-not-array"),
    pytest.param(None, "[[0, 0], [0, 0], [0, 0]]", ShapeError, "row 1", id="row-entry-count"),
    pytest.param(f"[0, -1{'0' * 400}]", None, ParseError, "entry [1][1]", id="huge-integer"),
]


@pytest.mark.parametrize("bad_pair,bad_row,error,where", _INTERIOR_CASES)
def test_load_reports_first_bad_entry_position(tmp_path, bad_pair, bad_row, error, where):
    rows = ["[[1, 0], [0, 0]]", "[[0, 0], [1, 0]]", "[[0, 0], [0, 0]]"]
    if bad_pair is not None:
        rows[1] = f"[[0, 0], {bad_pair}]"
        rows[2] = f"[{bad_pair}, [0, 0]]"
    else:
        rows[1] = rows[2] = bad_row
    zeros = "[" + ", ".join(["[[0, 0], [0, 0]]"] * 3) + "]"
    doc = (
        f'{{"basis_dim": 3, "n_electrons": 2, "coeff_alpha": [{", ".join(rows)}], '
        f'"coeff_beta": {zeros}}}'
    )
    with pytest.raises(error) as info:
        parse_determinant(_write(tmp_path, "interior.json", doc))
    assert f"{where} of 'coeff_alpha'" in str(info.value)


def test_valid_matrix_never_walks_entries(tmp_path, monkeypatch):
    # Locating a bad entry loops over every entry in Python; valid input must not pay for it.
    import spincol.io

    def fail(*args):
        raise AssertionError("the per-entry search ran on valid input")

    monkeypatch.setattr(spincol.io, "_bad_entry", fail)
    det = helpers.random_metric_determinant(4, 3, seed=1)
    path = tmp_path / "det.json"
    save_determinant(det, path)
    assert parse_determinant(path).coeff_beta.tobytes() == det.coeff_beta.tobytes()


def test_load_rejects_wrong_row_count(tmp_path):
    doc = {
        "basis_dim": 2,
        "n_electrons": 1,
        "coeff_alpha": [[[1, 0]]],
        "coeff_beta": [[[0, 0]], [[0, 0]]],
    }
    with pytest.raises(ShapeError):
        load_determinant(_write(tmp_path, "rows.json", json.dumps(doc)))


def test_load_rejects_non_orthonormal_with_hint(tmp_path):
    doc = '{"basis_dim": 1, "n_electrons": 1, "coeff_alpha": [[[2, 0]]], "coeff_beta": [[[0, 0]]]}'
    with pytest.raises(NotOrthonormal, match="--orthonormalize"):
        load_determinant(_write(tmp_path, "scaled.json", doc))


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        load_determinant("/nonexistent/path/det.json")


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_file_sha256_of_an_unreadable_path_is_parse_error(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(ParseError, match=f"cannot read {re.escape(str(path))}: "):
        file_sha256(path)


# ----- CLI contract -----


def _gen_file(tmp_path, capsys, kind="random", m=3, ne=3, seed=7):
    out = str(tmp_path / f"{kind}.json")
    assert run(["gen", "--kind", kind, "--m", str(m), "--ne", str(ne), "--seed", str(seed), "--out", out]) == 0
    capsys.readouterr()
    return out


def test_analyze_text_and_json_agree(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys)
    assert run(["analyze", path]) == 0
    text = capsys.readouterr().out
    assert run(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    assert f"basis_dim: {doc['basis_dim']}" in text
    for label, value in [
        ("N_alpha", doc["electron_counts"]["n_alpha"]),
        ("<Sz>", doc["expectations"]["sz"]),
        ("<S^2>", doc["expectations"]["s2"]),
        ("  total", doc["decomposition"]["total"]),
        ("  col", doc["collinearity"]["col"]),
    ]:
        line = next(l for l in text.splitlines() if l.startswith(label))
        printed = float(line.split()[-1])
        assert printed == pytest.approx(value, abs=5e-7)
    assert doc["input"]["sha256"]
    assert doc["version"]


def test_analyze_pure_alpha_total(tmp_path, capsys):
    path = _write(tmp_path, "alpha.json", PURE_ALPHA_DOC)
    assert run(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "<S^2>                +0.750000" in out


def test_analyze_axis_query(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys)
    assert run(["analyze", path, "--axis", "0", "0", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["axis_query"]["axis"] == pytest.approx([0.0, 0.0, 1.0])
    assert doc["axis_query"]["col_along"] == pytest.approx(
        doc["decomposition"]["z_noncollinearity"], abs=1e-12
    )


@pytest.mark.parametrize(
    "components,expected",
    [
        (["1e-200", "0", "0"], [1.0, 0.0, 0.0]),
        (["1e200", "1e200", "0"], [np.sqrt(0.5), np.sqrt(0.5), 0.0]),
    ],
)
def test_analyze_axis_extreme_magnitudes(tmp_path, capsys, components, expected):
    # A plain sum of squares under- or overflows for these valid directions.
    path = _gen_file(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze", path, "--json", "--axis", *components]) == 0
    doc = json.loads(capsys.readouterr().out)
    axis = np.array(doc["axis_query"]["axis"])
    assert np.max(np.abs(axis - expected)) <= 1e-15
    a = np.array(doc["collinearity"]["a_matrix"])
    assert doc["axis_query"]["col_along"] == pytest.approx(axis @ a @ axis, abs=1e-15)


def test_analyze_axis_matches_plain_normalization(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys)
    rng = np.random.default_rng(11)
    for _ in range(20):
        components = [f"{x:.20f}" for x in rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)]
        assert run(["analyze", path, "--json", "--axis", *components]) == 0
        doc = json.loads(capsys.readouterr().out)
        direction = np.array([float(c) for c in components])
        plain = direction / np.linalg.norm(direction)
        a = np.array(doc["collinearity"]["a_matrix"])
        assert np.max(np.abs(np.array(doc["axis_query"]["axis"]) - plain)) <= 1e-15
        assert abs(doc["axis_query"]["col_along"] - plain @ a @ plain) <= 1e-15


@pytest.mark.parametrize("exponent,positional", [("-1e-5", "-0.00001"), ("-2E+3", "-2000")])
def test_analyze_axis_negative_exponent(tmp_path, capsys, exponent, positional):
    # A negative number in exponent notation is a value, not an option.
    path = _gen_file(tmp_path, capsys)
    outputs = []
    for first in (exponent, positional):
        assert run(["analyze", path, "--json", "--axis", first, "0", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# A leading minus must not make argparse read -inf, -nan or -Infinity as an option.
@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "-nan", "-Infinity"])
def test_analyze_axis_rejects_non_finite(tmp_path, capsys, component):
    # A non-finite axis would put NaN into the report, which is not strict JSON.
    path = _gen_file(tmp_path, capsys)
    assert run(["analyze", path, "--json", "--axis", component, "0", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SpincolError" in captured.err and "--axis" in captured.err


def test_analyze_align_optimal(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys)
    assert run(["analyze", path, "--align-optimal", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["aligned_decomposition"]["z_noncollinearity"] == pytest.approx(
        doc["collinearity"]["col"], abs=1e-10
    )


def test_analyze_orthonormalize_flag(tmp_path, capsys):
    doc = '{"basis_dim": 1, "n_electrons": 1, "coeff_alpha": [[[2, 0]]], "coeff_beta": [[[0, 0]]]}'
    path = _write(tmp_path, "scaled.json", doc)
    assert run(["analyze", path]) == 1
    assert "NotOrthonormal" in capsys.readouterr().err
    assert run(["analyze", path, "--orthonormalize"]) == 0
    assert "<S^2>                +0.750000" in capsys.readouterr().out


def test_nearly_orthonormal_spinors_fail_the_trace_identity_gate(tmp_path, capsys):
    # Spinors scaled by sqrt(1 + 4e-9) pass the 1e-8 orthonormality gate, but N_alpha + N_beta
    # is Ne (1 + 4e-9): <S^2> from the occupations and tr A + |<S>|^2 differ by 8e-9.
    det = gen_random_gchf(3, 4, seed=8)
    scale = np.sqrt(1.0 + 4e-9)
    path = tmp_path / "scaled.json"
    save_determinant(SpinorDeterminant(3, 4, scale * det.coeff_alpha, scale * det.coeff_beta), path)
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "covariance trace identity gap 8.000e-09 is not within 1e-10" in err


def test_orthonormalizing_nearly_dependent_spinors_names_the_gram_eigenvalue(tmp_path, capsys):
    # The last spinor is the first plus 1e-4 noise: Gram lambda_min 4.2e-8, and the
    # orthonormalized residual (about cond(G) eps) is 3.2e-8, above the 1e-8 gate.
    rng = np.random.default_rng(0)
    ca, cb = helpers.random_complex(rng, 6, 4), helpers.random_complex(rng, 6, 4)
    ca[:, 3] = ca[:, 0] + 1e-4 * helpers.random_complex(rng, 6, 1)[:, 0]
    cb[:, 3] = cb[:, 0] + 1e-4 * helpers.random_complex(rng, 6, 1)[:, 0]
    path = tmp_path / "near_dependent.json"
    save_determinant(SpinorDeterminant(6, 4, ca, cb), path)
    for command in ("analyze", "axis"):
        assert run([command, str(path), "--orthonormalize"]) == 1
        err = capsys.readouterr().err
        assert "NotOrthonormal" in err and "after orthonormalization" in err
        assert "smallest eigenvalue is 4.199e-08" in err
        assert "orthonormalize first" not in err


def test_text_reports_print_rounded_zeros_without_a_sign(tmp_path, capsys):
    # A tilted DODS is exactly collinear: A has a zero eigenvalue, and entries
    # that are zero up to rounding come out with either sign.
    det = su2_rotate(helpers.random_dods(20, 6, 4, seed=1), SpinRotation([0.6, 0.0, 0.8], 1.3))
    path = tmp_path / "tilted_dods.json"
    save_determinant(det, path)
    assert run(["axis", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert -5e-7 < doc["col"] < 0.0
    for argv in (["axis"], ["analyze", "--align-optimal"]):
        assert run([argv[0], str(path), *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert "+0.000000" in out and "-0.000000" not in out


def test_axis_subcommand(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys)
    assert run(["axis", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 3
    assert doc["eigenvalues"][0] == pytest.approx(doc["col"])
    assert run(["axis", path]) == 0
    assert "optimal_axis" in capsys.readouterr().out


def test_oracle_check_passes_on_generated_file(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys, m=4, ne=3, seed=9)
    assert run(["oracle-check", path]) == 0
    out = capsys.readouterr().out
    max_dev = float(out.strip().splitlines()[-1].split()[-1])
    assert max_dev < 1e-10
    assert "<S^2>" in out


def test_oracle_check_prints_imaginary_parts_only_for_splus(tmp_path, capsys):
    # Over a metric the real observables carry rounding residue in their imaginary parts.
    det = helpers.random_metric_determinant(3, 2, seed=4)
    path = tmp_path / "metric.json"
    save_determinant(det, path)
    assert run(["oracle-check", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == 17
    for line in rows:
        values = [line.split("formula ")[1].split()[0], line.split("oracle ")[1].split()[0]]
        complex_valued = line.startswith("<S+> ")
        assert all(v.endswith("i") == complex_valued for v in values), line


def test_oracle_check_prints_rounded_zeros_with_a_plus_sign(tmp_path, capsys):
    # A closed-shell determinant's <S^2> is zero up to rounding, here a negative residue.
    path = _gen_file(tmp_path, capsys, kind="rhf", m=3, ne=4, seed=1)
    assert expect_s2(build_overlap_blocks(load_determinant(path))) < 0.0
    assert run(["oracle-check", path]) == 0
    rows = capsys.readouterr().out.splitlines()[:-1]
    s2 = next(line for line in rows if line.startswith("<S^2> "))
    assert s2.split("formula ")[1].split()[0] == "+0.000000000000"
    assert not any("-0.000000000000" in line for line in rows)


def test_oracle_check_too_large_fails(tmp_path, capsys):
    det = gen_random_gchf(7, 2, seed=1)
    path = tmp_path / "big.json"
    save_determinant(det, path)
    assert run(["oracle-check", str(path)]) == 1
    assert "TooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("kind,ne,s2", [("rhf", 4, 0.0), ("rohf", 3, 0.75), ("dods", 3, None)])
def test_gen_kinds_produce_valid_files(tmp_path, capsys, kind, ne, s2):
    path = _gen_file(tmp_path, capsys, kind=kind, m=4, ne=ne, seed=3)
    assert run(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if s2 is not None:
        assert doc["expectations"]["s2"] == pytest.approx(s2, abs=1e-10)
    assert doc["decomposition"]["z_noncollinearity"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "kind,m,ne,counts",
    [
        ("rhf", 1, 4, "2 alpha and 2 beta"),
        ("rohf", 2, 4, "3 alpha and 1 beta"),
        ("dods", 2, 5, "3 alpha and 2 beta"),
    ],
)
def test_gen_says_when_the_electrons_do_not_fit(tmp_path, capsys, kind, m, ne, counts):
    out = tmp_path / "g.json"
    argv = ["gen", "--kind", kind, "--m", str(m), "--ne", str(ne), "--seed", "0", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err and counts in err and f"--m {m}" in err
    assert not out.exists()


@pytest.mark.parametrize("kind,m,ne", [("rhf", 2, 4), ("rohf", 2, 2), ("rohf", 2, 3), ("dods", 2, 3)])
def test_gen_fills_every_spatial_orbital(tmp_path, capsys, kind, m, ne):
    path = _gen_file(tmp_path, capsys, kind=kind, m=m, ne=ne, seed=1)
    assert run(["analyze", path, "--json"]) == 0


def test_gen_rhf_rejects_odd_count(tmp_path, capsys):
    out = str(tmp_path / "odd.json")
    assert run(["gen", "--kind", "rhf", "--m", "3", "--ne", "3", "--seed", "0", "--out", out]) == 1
    assert "even electron count" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--m", "-2"), ("--ne", "0"), ("--seed", "-1")])
def test_gen_rejects_out_of_range_counts_as_usage_error(tmp_path, capsys, flag, value):
    argv = ["gen", "--kind", "random", "--m", "3", "--ne", "2", "--seed", "0", "--out", str(tmp_path / "g.json")]
    argv[argv.index(flag) + 1] = value
    assert run(argv) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_gen_into_missing_directory_is_typed_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "g.json")
    assert run(["gen", "--kind", "random", "--m", "3", "--ne", "2", "--seed", "0", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "SpincolError" in err and out in err


def test_paper_fixture_passes(capsys):
    assert run(["paper-fixture"]) == 0
    out = capsys.readouterr().out
    assert "PASS collinearity matrix: col" in out
    assert "0.000028" in out
    assert "FAIL" not in out


def test_malformed_file_exit_code_and_diagnostics(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", "{oops")
    assert run(["analyze", path]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err

    doc = {
        "basis_dim": 1,
        "n_electrons": 3,
        "coeff_alpha": [[[1, 0], [0, 0], [0, 0]]],
        "coeff_beta": [[[0, 0], [1, 0], [0, 0]]],
    }
    path = _write(tmp_path, "shape.json", json.dumps(doc))
    assert run(["analyze", path]) == 1
    assert "ShapeError" in capsys.readouterr().err


def test_non_utf8_file_exits_one_with_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and str(path) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_gen_reports_a_failed_write_as_typed_error(capsys):
    argv = ["gen", "--kind", "random", "--m", "3", "--ne", "2", "--seed", "1", "--out", "/dev/full"]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: SpincolError: cannot write /dev/full")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["analyze", "axis", "oracle-check"])
def test_non_finite_input_exits_one_with_typed_error(tmp_path, capsys, command, token):
    # Python's json accepts these tokens, and NaN passes every "residual > tol" gate.
    doc = PURE_ALPHA_DOC.replace('"coeff_alpha": [[[1, 0]]]', f'"coeff_alpha": [[[{token}, 0]]]')
    path = _write(tmp_path, "nonfinite.json", doc)
    assert run([command, path]) == 1
    err = capsys.readouterr().err
    assert "SpincolError" in err
    assert "coeff_alpha" in err


@pytest.mark.parametrize("command", ["analyze", "axis", "oracle-check"])
def test_an_imaginary_occupation_fails_every_command_alike(tmp_path, capsys, command):
    # The metric (1 + 4.9e-13i)·I passes its own Hermiticity gate and the blocks' (residuals 9.8e-13),
    # but N_alpha = 3 (1 + 4.9e-13i) is not real to 1e-12.
    rohf = gen_rohf(np.zeros((4, 0)), np.random.default_rng(3).standard_normal((4, 3)))
    det = SpinorDeterminant(4, 3, rohf.coeff_alpha, rohf.coeff_beta, (1 + 4.9e-13j) * np.eye(4))
    path = tmp_path / "imaginary.json"
    save_determinant(det, path)
    assert run([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: NonHermitianResult: imaginary part of N_alpha 1.470e-12 is not within 1e-12\n"


# Finite entries whose Gram matrix overflows: entry (0, 1) sums +inf(1+i) and -inf(1+i),
# so the orthonormality residual is NaN, which must fail the gate.
OVERFLOW_DOC = json.dumps(
    {
        "basis_dim": 2,
        "n_electrons": 2,
        "coeff_alpha": [[[1e200, 0], [1e200, 1e200]], [[1e200, 0], [-1e200, -1e200]]],
        "coeff_beta": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
)


@pytest.mark.parametrize("command", ["analyze", "axis", "oracle-check"])
def test_overflowing_gram_exits_one_with_typed_error(tmp_path, capsys, command):
    path = _write(tmp_path, "overflow.json", OVERFLOW_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, path]) == 1
    assert "NotOrthonormal" in capsys.readouterr().err


def test_overflowing_gram_fails_the_library_gates(tmp_path):
    path = _write(tmp_path, "overflow.json", OVERFLOW_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotOrthonormal, match="nan"):
            load_determinant(path)
        with pytest.raises(NotOrthonormal, match="nan"):
            build_overlap_blocks(parse_determinant(path))


def test_orthonormalizing_an_overflowing_gram_names_the_overflow(tmp_path, capsys):
    path = _write(tmp_path, "overflow.json", OVERFLOW_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("analyze", "axis"):
            assert run([command, path, "--orthonormalize"]) == 1
            err = capsys.readouterr().err
            assert "NotOrthonormal" in err and "Gram matrix is not finite" in err
        with pytest.raises(NotOrthonormal, match="not finite"):
            orthonormalize(parse_determinant(path))


def test_analyze_applies_the_metric_once(tmp_path, capsys, monkeypatch):
    # orthonormalize and the rotation both derive their blocks from the parent's.
    path = tmp_path / "metric.json"
    save_determinant(helpers.random_metric_determinant(4, 3, seed=2), path)
    calls = []
    original = spincol.determinant._metric_applied

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spincol.determinant, "_metric_applied", counting)
    for flags in ([], ["--orthonormalize"]):
        calls.clear()
        assert run(["analyze", str(path), "--json", "--align-optimal", *flags]) == 0
        assert "aligned_decomposition" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1, flags


def test_successive_runs_match_fresh_processes(tmp_path, capsys):
    # The parser is built once per process: no flag of one call may leak into the next.
    path = _gen_file(tmp_path, capsys)
    calls = [
        ["analyze", path, "--align-optimal", "--axis", "1", "2", "3", "--json"],
        ["analyze", path, "--json"],
        ["axis", path, "--json"],
        ["analyze", path],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for argv in calls:
        assert run(argv) == 0
        in_process = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "spincol.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert in_process == fresh.stdout, argv


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["axis"]], ids=["analyze-json", "axis"])
def test_a_reader_that_closed_stdout_gets_no_traceback(tmp_path, capsys, argv):
    # `spincol analyze det.json --json | head -n 1`, with the read end closed before the child writes.
    path = _gen_file(tmp_path, capsys, m=30, ne=12, seed=1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "spincol.cli", argv[0], path, *argv[1:]],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in child.stderr and child.stderr == ""
    assert child.returncode == 1


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["gen", "--kind", "random"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "spincol" in capsys.readouterr().out
