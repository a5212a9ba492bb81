"""Each workload reaches the layers its rationale names and bypasses the others.

The large workloads run at tiny sizes here (the size constants are patched),
which leaves the code path of every op unchanged.
"""

import inputs
import pytest
import spincol
import spincol.cli
import tracer
import workloads

# Layer -> calls > 0 expected; every layer not listed for a workload must show 0 calls.
CALLED = {
    "survey-small": {
        "cli.run", "cli.build_report", "io.parse_determinant", "io.load_determinant",
        "io.file_sha256", "determinant.build_overlap_blocks", "determinant.orthonormality_residual",
        "determinant.SpinorDeterminant", "determinant.OverlapBlocks.validate",
        "determinant.electron_counts", "spin.decompose_s2", "spin.expect",
        "collinearity.spin_vector", "collinearity.a_matrix", "collinearity.min_collinearity",
        "collinearity.analyze_collinearity", "rotation.align_to_axis", "rotation.su2_rotate",
    },
    "analyze-large": {
        "determinant.build_overlap_blocks", "determinant.orthonormality_residual",
        "determinant.SpinorDeterminant", "determinant.OverlapBlocks.validate", "spin.decompose_s2",
        "spin.expect", "collinearity.spin_vector", "collinearity.a_matrix",
        "collinearity.min_collinearity", "collinearity.analyze_collinearity",
        "rotation.align_to_axis", "rotation.su2_rotate",
    },
    "ingest-large": {
        "cli.run", "cli.build_report", "io.parse_determinant", "io.load_determinant",
        "io.file_sha256", "io.save_determinant", "determinant.build_overlap_blocks",
        "determinant.orthonormality_residual", "determinant.SpinorDeterminant",
        "determinant.OverlapBlocks.validate", "determinant.electron_counts", "spin.decompose_s2",
        "spin.expect", "collinearity.spin_vector", "collinearity.a_matrix",
        "collinearity.min_collinearity", "collinearity.analyze_collinearity",
    },
    "oracle-check": {
        "cli.run", "cli.oracle_rows", "io.parse_determinant", "io.load_determinant",
        "determinant.build_overlap_blocks", "determinant.orthonormality_residual",
        "determinant.SpinorDeterminant", "determinant.OverlapBlocks.validate", "spin.expect",
        "collinearity.spin_vector", "collinearity.a_matrix", "fock.oracle_expectation",
        "fock.expand", "fock.apply_spin",
    },
}
COUNTS = {
    "survey-small": {"io.bytes_read", "determinant.blocks_gflop", "collinearity.a_matrix_gflop"},
    "analyze-large": {"determinant.blocks_gflop", "collinearity.a_matrix_gflop"},
    "ingest-large": {"io.bytes_read", "io.bytes_written", "determinant.blocks_gflop", "collinearity.a_matrix_gflop"},
    "oracle-check": {"io.bytes_read", "fock.patterns", "determinant.blocks_gflop", "collinearity.a_matrix_gflop"},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "ANALYZE_LARGE_SIZES", (6, 8, 10))
    monkeypatch.setattr(inputs, "INGEST_BASIS_DIM", 10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_layers_match_the_workload_rationale(tmp_path, tiny, name):
    workloads.prepare(name, 7, str(tmp_path))
    items = workloads.load(name, str(tmp_path), spincol)[:4]
    trace = tracer.Tracer()
    for item in items:
        with trace:
            trace.begin_op()
            result = workloads.OPS[name](spincol, item)
            trace.end_op()
        assert result.verdict.failures == []
    called = {layer for layer in trace.layers() if trace.calls.get(layer, 0) > 0}
    assert called == CALLED[name]
    assert {key for key, value in trace.counts.items() if value > 0} == COUNTS[name]
