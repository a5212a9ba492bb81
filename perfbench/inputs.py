"""Seeded input generation for the benchmark workloads (numpy only).

Nothing here imports spincol: inputs are built from the determinant classes'
definitions, so a change to the program's own generators cannot change what
the benchmark feeds it.  Every array is a function of the workload seed; the
sizes and classes of each workload are fixed, so two seeds give the same
amount of work with different numbers.

Conventions match the spincol file format: ``coeff_alpha`` / ``coeff_beta``
are ``basis_dim x n_electrons`` and column i holds spinor i.  Spinors are
orthonormal under ``ao_overlap`` (identity when absent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

CLASSES = ("rhf", "rohf", "dods", "random")

SURVEY_BASIS_DIMS = (3, 5, 8, 12, 17, 24, 32, 40)
ANALYZE_LARGE_SIZES = (600, 700, 800)
ANALYZE_LARGE_KINDS = ("collinear", "near-collinear", "haar")
# Per-spinor norm of the general-spinor admixture of the near-collinear kind:
# col lands near 1e-4, the regime of the published H2O+ determinant.
NEAR_COLLINEAR_ADMIXTURE = 1e-3
METRIC_REFLECTIONS = 4
INGEST_BASIS_DIM = 350
ORACLE_BASIS_DIMS = (4, 5, 6)


@dataclass
class Case:
    """One generated determinant and what the checker knows about it."""

    name: str
    kind: str
    coeff_alpha: np.ndarray
    coeff_beta: np.ndarray
    ao_overlap: np.ndarray | None = None
    # Exact spin quantum number of the collinear classes, in the frame where
    # the spin is along ``axis``; None when unknown.
    s_exact: float | None = None
    # Unit axis the determinant is exactly collinear along; None if not.
    axis: np.ndarray | None = None

    @property
    def basis_dim(self) -> int:
        return self.coeff_alpha.shape[0]

    @property
    def n_electrons(self) -> int:
        return self.coeff_alpha.shape[1]

    def expect(self) -> dict:
        """JSON-safe facts the checker compares the program's output against."""
        return {
            "name": self.name,
            "kind": self.kind,
            "basis_dim": self.basis_dim,
            "n_electrons": self.n_electrons,
            "has_metric": self.ao_overlap is not None,
            "s_exact": self.s_exact,
            "axis": None if self.axis is None else [float(x) for x in self.axis],
        }


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """First ``cols`` columns of a Haar unitary (QR of a Gaussian, phases fixed)."""
    q, r = np.linalg.qr(_gaussian(rng, (rows, cols)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_metric(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense Hermitian positive-definite metric S and its inverse square root.

    S = V diag(w) V^H with w log-uniform in [1/4, 4] and V a product of
    ``METRIC_REFLECTIONS`` random Householder reflections, so S is dense, its
    eigenbasis is known and S^(-1/2) needs no eigensolver.  S is symmetrized
    so it is Hermitian exactly.
    """
    w = np.exp(rng.uniform(np.log(0.25), np.log(4.0), m))
    reflectors = [v / np.linalg.norm(v) for v in (_gaussian(rng, m) for _ in range(METRIC_REFLECTIONS))]

    def conjugate(diagonal):
        # V diag(d) V^H with V = H_1 ... H_k and H = I - 2 v v^H for unit v.
        out = np.diag(diagonal).astype(complex)
        for v in reversed(reflectors):
            out -= 2.0 * np.outer(v, v.conj() @ out)
            out -= 2.0 * np.outer(out @ v, v.conj())
        return out

    s = conjugate(w)
    return 0.5 * (s + s.conj().T), conjugate(w**-0.5)


def su2_to(axis: np.ndarray) -> np.ndarray:
    """SU(2) matrix whose spin-frame rotation carries +z onto ``axis``."""
    z = np.array([0.0, 0.0, 1.0])
    rot_axis = np.cross(z, axis)
    sin = np.linalg.norm(rot_axis)
    angle = np.arctan2(sin, axis[2])
    n = rot_axis / sin
    sigma = (
        n[0] * np.array([[0, 1], [1, 0]], dtype=complex)
        + n[1] * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + n[2] * np.array([[1, 0], [0, -1]], dtype=complex)
    )
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma


def random_axis(rng) -> np.ndarray:
    """A unit axis at least 30 degrees away from both poles."""
    while True:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        if abs(axis[2]) < np.cos(np.pi / 6):
            return axis


def _class_spinors(
    rng, kind: str, m: int, ne: int, excess: int
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(W_alpha, W_beta, s) over an orthonormal basis for one determinant class.

    ``excess`` is N_alpha - N_beta for the dods class (same parity as ne).
    """
    zeros = lambda cols: np.zeros((m, cols), dtype=complex)  # noqa: E731
    if kind == "rhf":
        k = ne // 2
        psi = haar_isometry(rng, m, k)
        return np.hstack([psi, zeros(k)]), np.hstack([zeros(k), psi]), 0.0
    if kind == "rohf":
        n_open = 1 if ne % 2 else 2
        k = (ne - n_open) // 2
        psi = haar_isometry(rng, m, k + n_open)
        return (
            np.hstack([psi, zeros(k)]),
            np.hstack([zeros(k + n_open), psi[:, :k]]),
            n_open / 2.0,
        )
    if kind == "dods":
        p = (ne + excess) // 2
        q = ne - p
        psi_a, psi_b = haar_isometry(rng, m, p), haar_isometry(rng, m, q)
        return np.hstack([psi_a, zeros(q)]), np.hstack([zeros(p), psi_b]), (p - q) / 2.0
    if kind == "random":
        w = haar_isometry(rng, 2 * m, ne)
        return w[:m], w[m:], None
    raise ValueError(f"unknown determinant class {kind!r}")


def class_ne(kind: str, m: int, ne: int) -> int:
    """Nearest electron count at or below ``ne`` that ``kind`` allows at basis ``m``."""
    ne = min(ne, 2 * m)
    if kind == "rhf":
        ne -= ne % 2
    elif kind == "rohf" and ne % 2 == 0:
        # Two open shells plus (ne - 2) / 2 closed ones must fit in m orbitals.
        ne = min(ne, 2 * m - 2)
    return ne


def make_case(rng, name: str, kind: str, m: int, ne: int, excess: int | None = None) -> Case:
    """A determinant of ``kind`` with ``ne`` electrons over ``m`` orthonormal basis functions."""
    wa, wb, s = _class_spinors(rng, kind, m, ne, ne % 2 if excess is None else excess)
    axis = None if s is None else np.array([0.0, 0.0, 1.0])
    return Case(name, kind, wa, wb, s_exact=s, axis=axis)


def with_metric(case: Case, metric: tuple[np.ndarray, np.ndarray]) -> Case:
    """Map the spinors through S^-1/2 so they are orthonormal under the metric S.

    ``metric`` is the (S, S^-1/2) pair of :func:`random_metric`.  Spatial
    transforms leave every spin quantity, and so the known s and axis, alone.
    """
    ao, inv_sqrt = metric
    return Case(
        case.name, case.kind, inv_sqrt @ case.coeff_alpha, inv_sqrt @ case.coeff_beta, ao,
        case.s_exact, case.axis,
    )


def tilt(case: Case, axis: np.ndarray) -> Case:
    """Rotate the spin frame of a z-collinear case so it is collinear along ``axis``."""
    u = su2_to(axis)
    ca = u[0, 0] * case.coeff_alpha + u[0, 1] * case.coeff_beta
    cb = u[1, 0] * case.coeff_alpha + u[1, 1] * case.coeff_beta
    return Case(case.name, case.kind, ca, cb, case.ao_overlap, case.s_exact, axis.copy())


def admix(rng, case: Case, strength: float) -> Case:
    """Add a small general-spinor admixture and re-orthonormalize (orthonormal basis).

    The result is near-collinear but no longer collinear, so the checker
    knows no exact s or axis for it.
    """
    m, ne = case.basis_dim, case.n_electrons
    w = np.vstack([case.coeff_alpha, case.coeff_beta])
    w = w + strength / np.sqrt(2 * m) * _gaussian(rng, (2 * m, ne))
    q, _ = np.linalg.qr(w)
    return Case(case.name, "near-collinear", q[:m], q[m:])


def _encode(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def write_json(case: Case, path) -> None:
    """Write a case in the spincol determinant file format."""
    doc = {
        "basis_dim": case.basis_dim,
        "n_electrons": case.n_electrons,
        "coeff_alpha": _encode(case.coeff_alpha),
        "coeff_beta": _encode(case.coeff_beta),
    }
    if case.ao_overlap is not None:
        doc["ao_overlap"] = _encode(case.ao_overlap)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def read_json_arrays(path) -> dict:
    """Parse a determinant file into numpy arrays with the harness's own reader."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for key in ("coeff_alpha", "coeff_beta", "ao_overlap"):
        if doc.get(key) is not None:
            pairs = np.asarray(doc[key], dtype=float)
            # Assign the parts separately: re + 1j * im would turn an imaginary -0.0 into +0.0.
            out[key] = np.empty(pairs.shape[:-1], dtype=complex)
            out[key].real, out[key].imag = pairs[..., 0], pairs[..., 1]
    return out


def survey_cases(seed: int) -> list[Case]:
    """64 small determinants: 8 basis sizes x 4 classes x {identity, SPD metric}.

    Electron counts cycle through 2..10 (clipped to what the class allows at
    that basis size), so sizes are the same for every seed.
    """
    rng = np.random.default_rng(seed)
    cases = []
    index = 0
    for m in SURVEY_BASIS_DIMS:
        metric = random_metric(rng, m)
        for metric_on in (False, True):
            for kind in CLASSES:
                ne = class_ne(kind, m, 2 + (index * 5) % 9)
                name = f"survey-{index:02d}-{kind}-m{m}-ne{ne}{'-metric' if metric_on else ''}"
                case = make_case(rng, name, kind, m, ne)
                cases.append(with_metric(case, metric) if metric_on else case)
                index += 1
    return cases


def analyze_large_cases(seed: int) -> list[Case]:
    """Three large determinants with a random SPD metric, Ne = M/2.

    One per size and kind: a tilted exactly-collinear DODS at M=600, a
    near-collinear one at M=700 and a Haar random one at M=800.  The sizes
    stop at 800 so that, in one run, every input repeats often enough for
    its fastest op to be a steady figure.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for m, kind in zip(ANALYZE_LARGE_SIZES, ANALYZE_LARGE_KINDS):
        name = f"large-{kind}-m{m}"
        if kind == "haar":
            case = make_case(rng, name, "random", m, m // 2)
        else:
            # N_alpha - N_beta = 2, so s = 1 and <S> points along the tilt axis.
            case = tilt(make_case(rng, name, "dods", m, m // 2, excess=2), random_axis(rng))
            if kind == "near-collinear":
                case = admix(rng, case, NEAR_COLLINEAR_ADMIXTURE)
        case.kind = kind
        cases.append(with_metric(case, random_metric(rng, m)))
    return cases


def ingest_cases(seed: int) -> list[Case]:
    """Two identity-metric M=350, Ne=175 determinants, both dense in each component.

    One is a tilted exactly-collinear DODS (known col and axis), one Haar.
    """
    rng = np.random.default_rng(seed)
    m = INGEST_BASIS_DIM
    tilted = tilt(make_case(rng, "ingest-dods-tilted", "dods", m, m // 2, excess=2), random_axis(rng))
    haar = make_case(rng, "ingest-random", "random", m, m // 2)
    return [tilted, haar]


def oracle_cases(seed: int) -> list[Case]:
    """Every class at M = 4, 5, 6 and every Ne in 2..M the class allows.

    At most C(12, 6) = 924 occupation patterns, inside the oracle's guards.
    The order is a fixed shuffle so any stretch of ops mixes small and large.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for m in ORACLE_BASIS_DIMS:
        for ne in range(2, m + 1):
            for kind in CLASSES:
                if class_ne(kind, m, ne) == ne:
                    specs.append((kind, m, ne))
    order = np.random.default_rng(0).permutation(len(specs))
    cases = []
    for i in order:
        kind, m, ne = specs[i]
        cases.append(make_case(rng, f"oracle-{kind}-m{m}-ne{ne}", kind, m, ne))
    return cases
