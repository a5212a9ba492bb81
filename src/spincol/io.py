"""Determinant file format: JSON with explicit [re, im] number pairs.

A determinant file is a UTF-8 JSON document with integer fields ``basis_dim``
and ``n_electrons``, complex matrices ``coeff_alpha`` and ``coeff_beta``
(row-major, basis_dim rows of n_electrons entries, each entry a two-element
array [re, im]), and an optional ``ao_overlap`` (basis_dim x basis_dim, same
entry encoding).  One determinant per file.  ``save_determinant`` writes one
matrix row per line; the reader accepts any JSON whitespace.
"""

from __future__ import annotations

import gc
import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .determinant import ORTHONORMALITY_INPUT_TOL, SpinorDeterminant
from .errors import NotOrthonormal, ParseError, ShapeError, SpincolError, check_within

_REQUIRED_FIELDS = ("basis_dim", "n_electrons", "coeff_alpha", "coeff_beta")
# Exact types, as json.loads produces them: bool, a subclass of int, is excluded.
_NUMBER_TYPES = {int, float}


def _parse_int(doc: dict, field: str) -> int:
    value = doc.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"field {field!r} must be an integer")
    return value


def _parse_complex_matrix(doc: dict, field: str, rows: int, cols: int) -> np.ndarray:
    raw = doc.get(field)
    if not isinstance(raw, list):
        raise ParseError(f"field {field!r} must be an array of rows")
    if len(raw) != rows:
        raise ShapeError(f"field {field!r} has {len(raw)} rows, expected {rows}")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ParseError(f"row {i} of {field!r} is not an array")
        if len(row) != cols:
            raise ShapeError(f"row {i} of {field!r} has {len(row)} entries, expected {cols}")
    # Whole-matrix checks in C-level passes; only a failure walks the entries.
    pairs = list(chain.from_iterable(raw))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        raise _bad_entry(raw, field)
    # One flat list of re, im, re, im, ...: numpy converts it without
    # discovering the shape of nested sequences.
    numbers = list(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= _NUMBER_TYPES:
        raise _bad_entry(raw, field)
    try:
        values = np.array(numbers, dtype=np.float64)
    except OverflowError:
        raise _bad_entry(raw, field) from None
    # (re, im) float pairs are complex128's memory layout, so the view keeps every bit.
    return values.view(np.complex128).reshape(rows, cols)


def _bad_entry(raw: list, field: str) -> ParseError:
    """The error naming the first bad entry of a matrix whose rows passed their checks."""
    for i, row in enumerate(raw):
        for j, pair in enumerate(row):
            where = f"entry [{i}][{j}] of {field!r}"
            if type(pair) is not list or len(pair) != 2 or not set(map(type, pair)) <= _NUMBER_TYPES:
                return ParseError(f"{where} is not a [re, im] number pair")
            try:
                complex(*pair)
            except OverflowError:
                return ParseError(f"{where} holds a number too large for a double")
    return ParseError(f"field {field!r} is not a matrix of [re, im] number pairs")


def parse_determinant(path) -> SpinorDeterminant:
    """Read a determinant file without checking spinor orthonormality."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # The document's pair lists hold only numbers, so the cyclic collector's
    # passes while json.loads builds them find nothing.  It is paused for that
    # call only if it was running, and only then enabled again.
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    m = _parse_int(doc, "basis_dim")
    ne = _parse_int(doc, "n_electrons")
    if m < 1:
        raise ShapeError(f"basis_dim must be positive, got {m}")
    if ne < 1:
        raise ShapeError(f"n_electrons must be positive, got {ne}")
    if ne > 2 * m:
        raise ShapeError(f"{ne} electrons do not fit in {2 * m} spin-orbitals")
    coeff_alpha = _parse_complex_matrix(doc, "coeff_alpha", m, ne)
    coeff_beta = _parse_complex_matrix(doc, "coeff_beta", m, ne)
    ao_overlap = None
    if doc.get("ao_overlap") is not None:
        ao_overlap = _parse_complex_matrix(doc, "ao_overlap", m, m)
    return SpinorDeterminant(
        basis_dim=m,
        n_electrons=ne,
        coeff_alpha=coeff_alpha,
        coeff_beta=coeff_beta,
        ao_overlap=ao_overlap,
    )


def load_determinant(path) -> SpinorDeterminant:
    """Read and validate a determinant file.

    Raises ``ParseError`` for malformed documents, ``ShapeError`` for
    inconsistent dimensions, and ``NotOrthonormal`` when the spinors fail the
    ``ORTHONORMALITY_INPUT_TOL`` gate (re-run with --orthonormalize, or call
    ``orthonormalize``, to repair such input).
    """
    det = parse_determinant(path)
    check_within(
        det.orthonormality_residual(),
        ORTHONORMALITY_INPUT_TOL,
        f"{path}: spinor orthonormality residual",
        NotOrthonormal,
        hint="; pass --orthonormalize to repair",
    )
    return det


def save_determinant(det: SpinorDeterminant, path) -> None:
    """Write a determinant file (full double precision, round-trip exact).

    One matrix row per line.  Each row is read from the matrix's interleaved
    (rows, 2 * cols) float64 view and formatted with one ``%r`` template, so
    every number costs one ``float.__repr__``, the call ``json``'s encoder
    makes, and the bytes are the ones ``json.dumps`` gives for the row's
    [re, im] pairs.  A determinant holds only finite numbers, so no
    ``NaN`` or ``Infinity`` spelling arises.
    """
    matrices = {"coeff_alpha": det.coeff_alpha, "coeff_beta": det.coeff_beta}
    if det.ao_overlap is not None:
        matrices["ao_overlap"] = det.ao_overlap
    try:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(f'{{\n "basis_dim": {det.basis_dim},\n "n_electrons": {det.n_electrons}')
            for field, matrix in matrices.items():
                row = "[" + ", ".join(["[%r, %r]"] * matrix.shape[1]) + "]"
                values = matrix.view(np.float64).tolist()
                fh.write(f',\n "{field}": [\n  ')
                fh.write(",\n  ".join([row % tuple(numbers) for numbers in values]))
                fh.write("\n ]")
            fh.write("\n}\n")
    except OSError as exc:
        raise SpincolError(f"cannot write {path}: {exc}") from exc


def file_sha256(path) -> str:
    """The SHA-256 hex digest of the file's bytes; ``ParseError`` if it cannot be read."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()
