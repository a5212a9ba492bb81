"""The tracer wraps, restores, fails loudly, and accounts self time exactly."""

import contextlib
import io

import inputs
import numpy as np
import pytest
import spincol
import spincol.cli
import spincol.spin
import tracer


def _bindings():
    """Every spincol attribute and method the default targets touch, by identity."""
    seen = {}
    for mod_name in ("spincol", "spincol.cli", "spincol.io", "spincol.determinant", "spincol.spin",
                     "spincol.collinearity", "spincol.rotation", "spincol.fock"):
        mod = __import__(mod_name, fromlist=["_"])
        for attr, value in vars(mod).items():
            if callable(value):
                seen[(mod_name, attr)] = value
    for cls in (spincol.SpinorDeterminant, spincol.OverlapBlocks):
        for attr, value in vars(cls).items():
            seen[(cls.__name__, attr)] = value
    return seen


def _analyze(tmp_path):
    case = inputs.make_case(np.random.default_rng(1), "t", "random", 4, 3)
    path = str(tmp_path / "d.json")
    inputs.write_json(case, path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert spincol.cli.run(["analyze", path, "--json", "--align-optimal"]) == 0


def test_missing_function_fails_loudly_and_wraps_nothing():
    before = _bindings()
    targets = tracer.TARGETS + (tracer.Target("spincol.cli", "no_such_function", "cli.gone"),)
    with pytest.raises(tracer.TracerError, match="spincol.cli.no_such_function"):
        tracer.Tracer(targets).install()
    assert _bindings() == before


def test_missing_method_fails_loudly():
    target = tracer.Target("spincol.determinant", "OverlapBlocks.no_such_method", "x")
    with pytest.raises(tracer.TracerError, match="OverlapBlocks.no_such_method"):
        tracer.Tracer((target,)).install()


def test_every_default_target_exists():
    trace = tracer.Tracer().install()
    trace.uninstall()


def test_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    with tracer.Tracer() as trace:
        # The package re-export, the defining module and the importing module are all wrapped.
        assert spincol.decompose_s2 is spincol.spin.decompose_s2 is spincol.cli.decompose_s2
        assert spincol.spin.decompose_s2 is not before[("spincol.spin", "decompose_s2")]
        trace.begin_op()
        _analyze(tmp_path)
        trace.end_op()
    assert _bindings() == before
    per_op = trace.per_op()
    assert per_op["cli.run.calls"] == 1
    assert per_op["spin.decompose_s2.calls"] == 2
    assert per_op["determinant.orthonormality_residual.calls"] == 3


def test_self_times_partition_the_top_level_spans(tmp_path):
    trace = tracer.Tracer()
    with trace:
        trace.begin_op()
        _analyze(tmp_path)
        spans = list(trace.spans)
        trace.end_op()
    ids = {span[0] for span in spans}
    assert all(parent is None or parent in ids for _, parent, *_ in spans)
    assert len({span[2] for span in spans}) == 1
    top_level_ns = sum(end - start for _, parent, _, _, start, end in spans if parent is None)
    assert sum(trace.self_ns.values()) == top_level_ns
    assert all(value >= 0 for value in trace.self_ns.values())
