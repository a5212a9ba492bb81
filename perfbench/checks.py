"""Outside-in correctness checks on what the program returns.

Every check reads either the ``analyze --json`` report or a dict of the same
shape built from the library's return values, plus the facts the input
generator knows (``inputs.Case.expect``).  Nothing here calls spincol.

Tolerances are fixed before any result is seen: an identity between two
computed quantities may differ by ``CHECK_C * Ne * eps * scale``, where
``scale`` is the natural size of the quantities compared (``max(Ne, <S^2>)``
for the <S^2> family, ``Ne`` for variances and the covariance matrix).

A variance-like output (col, the eigenvalues of A, z-noncollinearity, spin
contamination) can never be negative.  One below ``-Ne * eps / 4``, one
rounding unit of the largest variance Ne electrons can have, is the
cancellation defect of the "Ne/4 minus a norm" forms.  It is counted apart
from op failures so the defect stays visible without marking the baseline
as wrong; see ``Verdict.negative_variances``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EPS = 2.0**-52
CHECK_C = 16.0
ORACLE_MAX_DEVIATION = 1e-10


def tolerance(ne: int, scale: float) -> float:
    return CHECK_C * ne * EPS * scale


def negative_variance_floor(ne: int) -> float:
    return -ne * EPS / 4.0


@dataclass
class Verdict:
    """Failed checks (each makes the op fail) and negative-variance sightings."""

    failures: list[str] = field(default_factory=list)
    negative_variances: list[tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self.failures.append(f"{what}: {got!r} vs {want!r} (|dev| {abs(got - want):.3e} > {tol:.3e})")

    def require(self, what: str, cond: bool) -> None:
        if not cond:
            self.failures.append(what)


def _terms(dec: dict) -> float:
    return dec["rohf_term"] + dec["z_noncollinearity"] + dec["spin_contamination"] + dec["xy_perpendicularity"]


def check_analysis(report: dict, expect: dict) -> Verdict:
    """Check one analysis report against the identities and the input's known values.

    ``report`` has the ``analyze --json`` layout; ``expectations`` and
    ``aligned_decomposition`` are optional.  ``expect`` is ``Case.expect()``.
    """
    v = Verdict()
    ne = expect["n_electrons"]
    if "basis_dim" in report:
        v.require(f"basis_dim {report['basis_dim']} != {expect['basis_dim']}", report["basis_dim"] == expect["basis_dim"])
        v.require(f"n_electrons {report['n_electrons']} != {ne}", report["n_electrons"] == ne)
    dec = report["decomposition"]
    coll = report["collinearity"]
    aligned = report.get("aligned_decomposition")
    s2 = report["expectations"]["s2"] if "expectations" in report else dec["total"]
    s2_tol = tolerance(ne, max(ne, abs(s2)))
    var_tol = tolerance(ne, ne)

    v.close("decomposition terms vs total", _terms(dec), dec["total"], s2_tol)
    v.close("decomposition total vs <S^2>", dec["total"], s2, s2_tol)
    sv = report["spin_vector"]
    spin = (sv["sx"], sv["sy"], sv["sz"])
    a = coll["a_matrix"]
    trace = a[0][0] + a[1][1] + a[2][2]
    v.close("tr A + |<S>|^2 vs <S^2>", trace + sum(x * x for x in spin), s2, s2_tol)
    v.close("col vs lowest eigenvalue", coll["col"], coll["eigenvalues"][0], var_tol)
    if aligned is not None:
        v.close("aligned decomposition terms vs total", _terms(aligned), aligned["total"], s2_tol)
        v.close("aligned <S^2> vs <S^2>", aligned["total"], s2, s2_tol)
        v.close("aligned z_noncollinearity vs col", aligned["z_noncollinearity"], coll["col"], var_tol)

    if expect["s_exact"] is not None:
        s, axis = expect["s_exact"], expect["axis"]
        v.close("col of a collinear determinant", coll["col"], 0.0, var_tol)
        for k in range(3):
            v.close(f"<S>[{k}] vs s * axis", spin[k], s * axis[k], var_tol)
        frame = dec if axis == [0.0, 0.0, 1.0] else aligned
        if frame is not None:
            v.close("s(s+1) in the collinear frame", frame["rohf_term"], s * (s + 1.0), s2_tol)
        ev = coll["eigenvalues"]
        gap = ev[1] - ev[0]
        if not coll["degenerate"]:
            u = coll["optimal_axis"]
            cross = (
                u[1] * axis[2] - u[2] * axis[1],
                u[2] * axis[0] - u[0] * axis[2],
                u[0] * axis[1] - u[1] * axis[0],
            )
            # Davis-Kahan: an error E in A turns the axis by at most |E| / gap.
            v.close("optimal axis vs collinear axis (sin angle)", math.hypot(*cross), 0.0, var_tol / gap)

    floor = negative_variance_floor(ne)
    variances = [
        ("col", coll["col"]),
        ("z_noncollinearity", dec["z_noncollinearity"]),
        ("spin_contamination", dec["spin_contamination"]),
    ]
    if aligned is not None:
        variances.append(("aligned z_noncollinearity", aligned["z_noncollinearity"]))
    v.negative_variances = [(name, x) for name, x in variances if x < floor]
    return v


def check_oracle_output(exit_code: int, stdout: str) -> Verdict:
    """``oracle-check`` must exit 0 and print a max deviation within 1e-10."""
    v = Verdict()
    v.require(f"oracle-check exit code {exit_code}", exit_code == 0)
    lines = [line for line in stdout.splitlines() if line.startswith("max deviation:")]
    if len(lines) != 1:
        v.failures.append("oracle-check printed no max deviation line")
        return v
    dev = float(lines[0].split(":", 1)[1])
    v.require(f"oracle max deviation {dev:.3e} > {ORACLE_MAX_DEVIATION:.0e}", dev <= ORACLE_MAX_DEVIATION)
    return v
