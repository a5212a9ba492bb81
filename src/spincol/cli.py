"""Command line interface: file ingestion, subcommand dispatch, reports.

Subcommands
-----------
analyze        full spin analysis of a determinant file
axis           collinearity eigen-analysis only
oracle-check   closed-form values against the brute-force Fock-space oracle
gen            write a generated determinant (rhf, rohf, dods, random)
paper-fixture  regression checks against the published H2O+ reference values

Exit codes: 0 success, 1 validation or consistency failure, 2 usage error.
Text reports print six decimals (``oracle-check`` twelve), and a value that
rounds to zero prints with a + sign whatever its sign; JSON reports print
full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import __version__
from .collinearity import (
    CollinearityResult,
    a_matrix,
    analyze_collinearity,
    spin_vector,
)
from .determinant import SpinorDeterminant, build_overlap_blocks, electron_counts, orthonormalize
from .errors import DimensionMismatch, SpincolError, check_within
from .fock import oracle_expectation
from .io import file_sha256, load_determinant, parse_determinant, save_determinant
from .reference import run_reference_checks
from .rotation import align_to_axis, gen_dods, gen_random_gchf, gen_rhf, gen_rohf
from .spin import (
    decompose_s2,
    expect_s2,
    expect_sminus_splus,
    expect_splus,
    expect_splus_sminus,
    expect_sz,
    expect_sz2,
)

ORACLE_CHECK_TOL = 1e-8
_CONSISTENCY_TOL = 1e-10
_EIGEN_RESIDUAL_TOL = 1e-9


def _signed(value: float, decimals: int) -> str:
    """``value`` to ``decimals`` signed decimals; a value that rounds to zero prints with a + sign."""
    text = f"{value:+.{decimals}f}"
    return "+" + text[1:] if text.startswith("-") and float(text) == 0.0 else text


def _f6(value: float) -> str:
    """``value`` to six signed decimals; a value that rounds to zero prints as +0.000000."""
    return _signed(value, 6)


def _report_text(doc: dict) -> str:
    """Six-decimal text rendering of the ``analyze --json`` document."""
    counts, e, v = doc["electron_counts"], doc["expectations"], doc["spin_vector"]
    lines = [
        f"spincol {doc['version']} analysis",
        f"input: {doc['input']['path']}",
        f"sha256: {doc['input']['sha256']}",
        f"basis_dim: {doc['basis_dim']}   n_electrons: {doc['n_electrons']}",
        "",
        f"N_alpha              {_f6(counts['n_alpha'])}",
        f"N_beta               {_f6(counts['n_beta'])}",
        f"<Sz>                 {_f6(e['sz'])}",
        f"<Sz^2>               {_f6(e['sz2'])}",
        f"<S-S+>               {_f6(e['sminus_splus'])}",
        f"<S+S->               {_f6(e['splus_sminus'])}",
        f"<S+>                 {_f6(e['splus']['re'])} {_f6(e['splus']['im'])}i",
        f"<S^2>                {_f6(e['s2'])}",
        "",
        "decomposition of <S^2>",
        *_decomposition_text(doc["decomposition"]),
        "",
        "spin vector",
        f"  <Sx> <Sy> <Sz>     {_f6(v['sx'])} {_f6(v['sy'])} {_f6(v['sz'])}",
        "",
        *_collinearity_text(doc["collinearity"]),
    ]
    if "axis_query" in doc:
        axis, value = doc["axis_query"]["axis"], doc["axis_query"]["col_along"]
        lines += ["", f"col along ({_f6(axis[0])}, {_f6(axis[1])}, {_f6(axis[2])}) = {_f6(value)}"]
    if "aligned_decomposition" in doc:
        lines += ["", "decomposition after aligning z to the optimal axis"]
        lines += _decomposition_text(doc["aligned_decomposition"])
    return "\n".join(lines)


def _decomposition_text(d: dict) -> list[str]:
    return [f"  {name:<20} {_f6(value)}" for name, value in d.items()]


def _collinearity_dict(c: CollinearityResult) -> dict:
    return {
        "a_matrix": c.a_matrix.tolist(),
        "eigenvalues": c.eigenvalues.tolist(),
        "eigenvectors": c.eigenvectors.T.tolist(),
        "col": c.col,
        "optimal_axis": c.optimal_axis.tolist(),
        "degenerate": c.degenerate,
    }


def _collinearity_text(c: dict) -> list[str]:
    lines = ["collinearity"]
    for row in c["a_matrix"]:
        lines.append(f"  A row              {_f6(row[0])} {_f6(row[1])} {_f6(row[2])}")
    ev = c["eigenvalues"]
    lines.append(f"  eigenvalues        {_f6(ev[0])} {_f6(ev[1])} {_f6(ev[2])}")
    lines.append(f"  col                {_f6(c['col'])}")
    ax = c["optimal_axis"]
    lines.append(f"  optimal_axis       {_f6(ax[0])} {_f6(ax[1])} {_f6(ax[2])}")
    lines.append(f"  degenerate         {'yes' if c['degenerate'] else 'no'}")
    return lines


def build_report(
    det: SpinorDeterminant,
    path: str,
    sha256: str,
    axis=None,
    align_optimal: bool = False,
) -> dict:
    """The ``analyze --json`` document, after re-asserting the cross identities."""
    blocks = build_overlap_blocks(det)
    n_alpha, n_beta = electron_counts(blocks)
    decomposition = decompose_s2(blocks)
    sz2 = expect_sz2(blocks)
    sminus_splus = expect_sminus_splus(blocks)
    splus_sminus = expect_splus_sminus(blocks)
    s2 = sz2 + 0.5 * (splus_sminus + sminus_splus)
    vector = spin_vector(blocks)
    collin = analyze_collinearity(blocks)

    check_within(abs(decomposition.total - s2), _CONSISTENCY_TOL, "<S^2> decomposition sum gap")
    term_gap = abs(sum(decomposition.terms()) - decomposition.total)
    check_within(term_gap, _CONSISTENCY_TOL, "decomposition term total gap")
    trace_gap = abs(float(np.trace(collin.a_matrix)) + vector.norm_sq() - s2)
    check_within(trace_gap, _CONSISTENCY_TOL, "covariance trace identity gap")
    eig_residual = float(
        np.max(np.abs(collin.a_matrix @ collin.optimal_axis - collin.col * collin.optimal_axis))
    )
    check_within(eig_residual, _EIGEN_RESIDUAL_TOL, "optimal axis eigen-residual")

    doc = {
        "tool": "spincol",
        "version": __version__,
        "input": {"path": path, "sha256": sha256},
        "basis_dim": det.basis_dim,
        "n_electrons": det.n_electrons,
        "electron_counts": {"n_alpha": n_alpha, "n_beta": n_beta},
        "expectations": {
            "sz": vector.sz,
            "sz2": sz2,
            "sminus_splus": sminus_splus,
            "splus_sminus": splus_sminus,
            "splus": {"re": vector.sx, "im": vector.sy},
            "s2": s2,
        },
        "decomposition": dataclasses.asdict(decomposition),
        "spin_vector": {"sx": vector.sx, "sy": vector.sy, "sz": vector.sz},
        "collinearity": _collinearity_dict(collin),
    }
    if axis is not None:
        axis = np.asarray(axis, dtype=float)
        # Scale by the largest component first, so the norm neither under- nor overflows.
        scale = float(np.max(np.abs(axis)))
        if not np.isfinite(scale):
            raise SpincolError(f"--axis direction {axis.tolist()} is not finite")
        if scale == 0.0:
            raise SpincolError("--axis direction must be nonzero")
        axis = axis / scale
        axis = axis / np.linalg.norm(axis)
        doc["axis_query"] = {
            "axis": list(map(float, axis)),
            "col_along": float(axis @ collin.a_matrix @ axis),
        }
    if align_optimal:
        tilted = align_to_axis(det, collin.optimal_axis)
        aligned = decompose_s2(build_overlap_blocks(tilted))
        doc["aligned_decomposition"] = dataclasses.asdict(aligned)
    return doc


def oracle_rows(det: SpinorDeterminant) -> list[tuple[str, complex, complex, float]]:
    """(label, closed-form value, oracle value, |deviation|) for every check."""
    blocks = build_overlap_blocks(det)
    vector = spin_vector(blocks)
    a = a_matrix(blocks)
    s = vector.as_array()
    exact = oracle_expectation(det)
    rows = [
        ("<Sz>", expect_sz(blocks), exact["Sz"]),
        ("<Sz^2>", expect_sz2(blocks), exact["Sz2"]),
        ("<S-S+>", expect_sminus_splus(blocks), exact["S-S+"]),
        ("<S+S->", expect_splus_sminus(blocks), exact["S+S-"]),
        ("<S+>", expect_splus(blocks), exact["S+"]),
        ("<S^2>", expect_s2(blocks), exact["S2"]),
        ("<Sx>", vector.sx, exact["Sx"]),
        ("<Sy>", vector.sy, exact["Sy"]),
    ]
    labels = "xyz"
    for mu in range(3):
        for nu in range(3):
            smn = f"S{labels[mu]}S{labels[nu]}"
            rows.append((f"Re<{smn}>", a[mu, nu] + s[mu] * s[nu], exact[smn].real))
    return [
        (label, complex(formula), complex(oracle), abs(complex(formula) - complex(oracle)))
        for label, formula, oracle in rows
    ]


def _fmt_value(z: complex, label: str) -> str:
    # <S+> is the only complex observable; the others are real up to rounding residue.
    # A part that rounds to zero prints as +0.000000000000 whatever its sign.
    if label != "<S+>":
        return _signed(z.real, 12)
    return f"{_signed(z.real, 12)}{_signed(z.imag, 12)}i"


def _cmd_analyze(args) -> int:
    det = _load(args.file, args.orthonormalize)
    report = build_report(
        det,
        path=args.file,
        sha256=file_sha256(args.file),
        axis=args.axis,
        align_optimal=args.align_optimal,
    )
    print(json.dumps(report, indent=1) if args.json else _report_text(report))
    return 0


def _cmd_axis(args) -> int:
    det = _load(args.file, args.orthonormalize)
    collin = _collinearity_dict(analyze_collinearity(build_overlap_blocks(det)))
    print(json.dumps(collin, indent=1) if args.json else "\n".join(_collinearity_text(collin)))
    return 0


def _cmd_oracle_check(args) -> int:
    det = load_determinant(args.file)
    rows = oracle_rows(det)
    width = max(len(label) for label, *_ in rows)
    for label, formula, oracle, dev in rows:
        print(
            f"{label:<{width}}  formula {_fmt_value(formula, label)}  "
            f"oracle {_fmt_value(oracle, label)}  |dev| {dev:.3e}"
        )
    max_dev = max(dev for *_, dev in rows)
    print(f"max deviation: {max_dev:.3e}")
    if not max_dev <= ORACLE_CHECK_TOL:
        print(f"FAIL: max deviation is not within {ORACLE_CHECK_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    m, ne = args.m, args.ne

    def random_orbitals(count):
        return (rng.standard_normal((m, count)) + 1j * rng.standard_normal((m, count))) / np.sqrt(2)

    if args.kind == "random":
        det = gen_random_gchf(m, ne, args.seed)
    elif args.kind == "rhf" and ne % 2:
        raise SpincolError("rhf needs an even electron count")
    else:
        # Occupied alpha and beta orbitals; rohf leaves one or two electrons in open shells.
        n_beta = (ne - 1) // 2 if args.kind == "rohf" else ne // 2
        n_alpha = ne - n_beta
        if n_alpha > m:
            raise DimensionMismatch(
                f"{args.kind} with {ne} electrons needs {n_alpha} alpha and {n_beta} beta "
                f"orbitals; --m {m} holds at most {m} of each"
            )
        if args.kind == "rhf":
            det = gen_rhf(random_orbitals(n_alpha))
        elif args.kind == "rohf":
            det = gen_rohf(random_orbitals(n_beta), random_orbitals(n_alpha - n_beta))
        else:
            det = gen_dods(random_orbitals(n_alpha), random_orbitals(n_beta))

    save_determinant(det, args.out)
    print(f"wrote {args.out} ({args.kind}, basis_dim={m}, n_electrons={ne}, seed={args.seed})")
    return 0


def _cmd_paper_fixture(args) -> int:
    results = run_reference_checks()
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def _load(path: str, do_orthonormalize: bool) -> SpinorDeterminant:
    if do_orthonormalize:
        return orthonormalize(parse_determinant(path))
    return load_determinant(path)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-5, -2E+3, -inf and -nan as negative numbers, not options.

    argparse only takes -N and -N.N for numbers, so a negative ``--axis``
    component in exponent notation, or a non-finite one, would be parsed as
    an unknown option.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _int_at_least(low: int):
    """An argparse ``type`` accepting integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(
        prog="spincol",
        description="Spin expectation values, <S^2> decomposition and collinearity "
        "analysis for general complex single-determinant wave functions.",
    )
    parser.add_argument("--version", action="version", version=f"spincol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Arguments shared by analyze and axis.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("file")
    source.add_argument(
        "--orthonormalize",
        action="store_true",
        help="symmetrically orthonormalize the spinors before analyzing",
    )
    source.add_argument("--json", action="store_true", help="machine-readable, full precision")

    analyze = sub.add_parser(
        "analyze", parents=[source], help="full analysis report for a determinant file"
    )
    analyze.add_argument(
        "--axis",
        nargs=3,
        type=float,
        metavar=("X", "Y", "Z"),
        help="also report col along this direction (normalized internally)",
    )
    analyze.add_argument(
        "--align-optimal",
        action="store_true",
        help="append the decomposition after tilting z to the optimal axis",
    )
    analyze.set_defaults(func=_cmd_analyze)

    axis = sub.add_parser("axis", parents=[source], help="collinearity eigen-analysis only")
    axis.set_defaults(func=_cmd_axis)

    oracle = sub.add_parser(
        "oracle-check", help="closed-form values against the Fock-space brute force"
    )
    oracle.add_argument("file")
    oracle.set_defaults(func=_cmd_oracle_check)

    gen = sub.add_parser("gen", help="write a generated determinant file")
    gen.add_argument("--kind", required=True, choices=("rhf", "rohf", "dods", "random"))
    gen.add_argument("--m", required=True, type=_int_at_least(1), help="spatial basis size")
    gen.add_argument("--ne", required=True, type=_int_at_least(1), help="electron count")
    gen.add_argument("--seed", required=True, type=_int_at_least(0))
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    fixture = sub.add_parser(
        "paper-fixture", help="regression checks against the published H2O+ values"
    )
    fixture.set_defaults(func=_cmd_paper_fixture)

    return parser


def run(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except SpincolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
