"""The four benchmark workloads: rationale, inputs, and the op each one times.

``prepare`` runs in the harness process and writes a workload's inputs into
a work directory.  ``load`` and ``op`` run in the fresh worker process that
imported spincol: ``load`` turns the files into the objects the op receives
(outside any timing) and ``op`` makes one timed call into the program and
then checks what came back.  Ops look spincol functions up at call time
(``sc.build_overlap_blocks``, ``cli.run``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
import inputs


@dataclass
class OpResult:
    """Timings of one op, in seconds, and the checker's verdict.

    ``total_s`` is what the closed loop spent on the op (the base of
    op_p90_ms and ops_per_s); ``latency_s`` is the part reported as per-op
    latency; for ingest-large ``write_s`` is the save that precedes the
    timed read.
    """

    total_s: float
    latency_s: float
    verdict: checks.Verdict
    write_s: float | None = None


@dataclass(frozen=True)
class Workload:
    """A workload's inputs and the layers it should and should not reach (``why`` is in BENCHMARK.json)."""

    name: str
    inputs: str
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    setup_processes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="survey-small",
            inputs="64 JSON files: 4 classes (rhf, rohf, dods, random) x M in "
            f"{inputs.SURVEY_BASIS_DIMS} x identity or random SPD ao_overlap; Ne cycles 2..10",
            exercises=("cli", "io", "determinant", "spin", "collinearity", "rotation"),
            bypasses=("fock", "io.save_determinant", "cli.oracle_rows"),
            setup_processes=7,
        ),
        Workload(
            name="analyze-large",
            inputs=f"3 in-memory determinants, M in {inputs.ANALYZE_LARGE_SIZES}, Ne = M/2, random "
            "SPD metric: tilted collinear DODS, near-collinear DODS (1e-3 admixture), Haar random",
            exercises=("determinant", "spin", "collinearity", "rotation"),
            bypasses=("cli", "io", "fock"),
            setup_processes=5,
        ),
        Workload(
            name="ingest-large",
            inputs=f"2 in-memory determinants, M={inputs.INGEST_BASIS_DIM}, Ne=M/2, identity metric: "
            "tilted collinear DODS and Haar random, saved and re-read every op",
            exercises=("io", "cli", "determinant", "spin", "collinearity"),
            bypasses=("fock", "rotation.align_to_axis", "metric GEMMs"),
            setup_processes=5,
        ),
        Workload(
            name="oracle-check",
            inputs="43 JSON files: every class at M in (4, 5, 6) and every Ne in 2..M it allows "
            "(at most 924 occupation patterns)",
            exercises=("fock", "cli.oracle_rows", "io", "determinant", "spin", "collinearity"),
            bypasses=("rotation", "io.save_determinant", "cli.build_report"),
            setup_processes=7,
        ),
    )
}

_CASES = {
    "survey-small": inputs.survey_cases,
    "analyze-large": inputs.analyze_large_cases,
    "ingest-large": inputs.ingest_cases,
    "oracle-check": inputs.oracle_cases,
}
# Workloads whose program input is a file; the others get in-memory objects.
_FILE_INPUT = ("survey-small", "oracle-check")


def prepare(workload: str, seed: int, workdir: str) -> None:
    """Generate the workload's inputs from ``seed`` and write them to ``workdir``."""
    manifest = []
    for i, case in enumerate(_CASES[workload](seed)):
        entry = {"expect": case.expect()}
        if workload in _FILE_INPUT:
            entry["path"] = os.path.join(workdir, f"{i:03d}.json")
            inputs.write_json(case, entry["path"])
            with open(entry["path"], "rb") as fh:
                entry["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        else:
            entry["arrays"] = os.path.join(workdir, f"{i:03d}.npz")
            arrays = {"coeff_alpha": case.coeff_alpha, "coeff_beta": case.coeff_beta}
            if case.ao_overlap is not None:
                arrays["ao_overlap"] = case.ao_overlap
            np.savez(entry["arrays"], **arrays)
        manifest.append(entry)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def load(workload: str, workdir: str, sc, count: int | None = None) -> list[dict]:
    """Read the first ``count`` (default all) inputs; build SpinorDeterminant objects for in-memory workloads."""
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        items = json.load(fh)[:count]
    for item in items:
        if "arrays" in item:
            with np.load(item["arrays"]) as npz:
                arrays = {key: npz[key] for key in npz.files}
            item["arrays"] = arrays
            item["det"] = sc.SpinorDeterminant(
                basis_dim=item["expect"]["basis_dim"],
                n_electrons=item["expect"]["n_electrons"],
                coeff_alpha=arrays["coeff_alpha"],
                coeff_beta=arrays["coeff_beta"],
                ao_overlap=arrays.get("ao_overlap"),
            )
    if workload == "ingest-large":
        for item in items:
            item["path"] = os.path.join(workdir, "ingest.json")
    return items


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _check_cli_report(code: int, out: str, item: dict, sha256: str) -> checks.Verdict:
    if code != 0:
        return checks.Verdict(failures=[f"analyze exit code {code}"])
    report = json.loads(out)
    verdict = checks.check_analysis(report, item["expect"])
    verdict.require("reported sha256 differs from the file's", report["input"]["sha256"] == sha256)
    return verdict


def _op_survey(sc, item) -> OpResult:
    start = time.perf_counter()
    code, out = _run_cli(sc.cli, ["analyze", item["path"], "--json", "--align-optimal"])
    took = time.perf_counter() - start
    return OpResult(took, took, _check_cli_report(code, out, item, item["sha256"]))


def _decomposition(d) -> dict:
    return {
        "s_effective": d.s_effective,
        "rohf_term": d.rohf_term,
        "z_noncollinearity": d.z_noncollinearity,
        "spin_contamination": d.spin_contamination,
        "xy_perpendicularity": d.xy_perpendicularity,
        "total": d.total,
    }


def _op_analyze_large(sc, item) -> OpResult:
    det = item["det"]
    start = time.perf_counter()
    blocks = sc.build_overlap_blocks(det)
    decomposition = sc.decompose_s2(blocks)
    vector = sc.spin_vector(blocks)
    collinearity = sc.analyze_collinearity(blocks)
    tilted = sc.align_to_axis(det, collinearity.optimal_axis)
    aligned = sc.decompose_s2(sc.build_overlap_blocks(tilted))
    took = time.perf_counter() - start
    report = {
        "decomposition": _decomposition(decomposition),
        "spin_vector": {"sx": vector.sx, "sy": vector.sy, "sz": vector.sz},
        "collinearity": {
            "a_matrix": collinearity.a_matrix.tolist(),
            "eigenvalues": collinearity.eigenvalues.tolist(),
            "col": collinearity.col,
            "optimal_axis": collinearity.optimal_axis.tolist(),
            "degenerate": collinearity.degenerate,
        },
        "aligned_decomposition": _decomposition(aligned),
    }
    return OpResult(took, took, checks.check_analysis(report, item["expect"]))


def _bit_exact(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _op_ingest(sc, item) -> OpResult:
    path = item["path"]
    start = time.perf_counter()
    sc.save_determinant(item["det"], path)
    saved = time.perf_counter()
    code, out = _run_cli(sc.cli, ["analyze", path, "--json"])
    done = time.perf_counter()
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    verdict = _check_cli_report(code, out, item, sha256)
    written = inputs.read_json_arrays(path)
    for key, original in item["arrays"].items():
        verdict.require(f"{key} did not round-trip bit-exactly", key in written and _bit_exact(written[key], original))
    verdict.require("save wrote an ao_overlap the input did not have", written.keys() == item["arrays"].keys())
    return OpResult(done - start, done - saved, verdict, write_s=saved - start)


def _op_oracle(sc, item) -> OpResult:
    start = time.perf_counter()
    code, out = _run_cli(sc.cli, ["oracle-check", item["path"]])
    took = time.perf_counter() - start
    return OpResult(took, took, checks.check_oracle_output(code, out))


OPS = {
    "survey-small": _op_survey,
    "analyze-large": _op_analyze_large,
    "ingest-large": _op_ingest,
    "oracle-check": _op_oracle,
}
