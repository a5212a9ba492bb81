"""Outside-in span tracer: wraps spincol's public functions from the outside.

The tracer replaces each target function under every name a caller looks it
up by (the package namespace, the defining module and every spincol module
that imported it), and each target method on its class, with a wrapper that
records a span.  ``uninstall`` puts the originals back.  A target that no
longer exists raises ``TracerError``, so a rename cannot silently drop a
layer from the trace.

A span is (id, parent id, op id, layer, start ns, end ns).  Spans of one op
share the op id; an op's spans are reduced to per-layer call counts and self
time (duration minus the time its child spans cover) when the op ends.
Computed work counts (GEMM flops, Fock patterns, file bytes) are derived from
the wrapped calls' arguments, not measured.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from math import comb
from typing import Callable


class TracerError(RuntimeError):
    """A traced function or method is missing from the program."""


def _blocks_flops(args, kwargs) -> dict:
    det = args[0] if args else kwargs["det"]
    m, ne = det.basis_dim, det.n_electrons
    # o_aa, o_ab, o_bb: three (Ne x M)(M x Ne) complex GEMMs, 8 flops per
    # complex multiply-add; with a metric, two (M x M)(M x Ne) products first.
    flops = 3 * 8 * m * ne * ne
    if det.ao_overlap is not None:
        flops += 2 * 8 * m * m * ne
    return {"determinant.blocks_gflop": flops * 1e-9}


def _a_matrix_flops(args, kwargs) -> dict:
    blocks = args[0] if args else kwargs["blocks"]
    ne = blocks.o_aa.shape[0]
    # Nine dense complex Ne x Ne products T_mu @ T_nu.
    return {"collinearity.a_matrix_gflop": 9 * 8 * ne**3 * 1e-9}


def _fock_patterns(args, kwargs) -> dict:
    det = args[0] if args else kwargs["det"]
    return {"fock.patterns": comb(2 * det.basis_dim, det.n_electrons)}


def _bytes_read(args, kwargs) -> dict:
    return {"io.bytes_read": os.path.getsize(args[0] if args else kwargs["path"])}


def _bytes_written(args, kwargs) -> dict:
    return {"io.bytes_written": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


@dataclass(frozen=True)
class Target:
    """``module.attr`` to wrap, reported as ``layer``.

    ``attr`` is a function name or ``Class.method``.  ``work`` maps the
    call's (args, kwargs) to computed counts, evaluated after a successful
    call.  Several targets may share a layer (the ``expect_*`` family).
    """

    module: str
    attr: str
    layer: str
    work: Callable | None = None


TARGETS = (
    Target("spincol.cli", "run", "cli.run"),
    Target("spincol.cli", "build_report", "cli.build_report"),
    Target("spincol.cli", "oracle_rows", "cli.oracle_rows"),
    Target("spincol.io", "parse_determinant", "io.parse_determinant", _bytes_read),
    Target("spincol.io", "load_determinant", "io.load_determinant"),
    Target("spincol.io", "file_sha256", "io.file_sha256", _bytes_read),
    Target("spincol.io", "save_determinant", "io.save_determinant", _bytes_written),
    Target("spincol.determinant", "build_overlap_blocks", "determinant.build_overlap_blocks", _blocks_flops),
    Target("spincol.determinant", "SpinorDeterminant.orthonormality_residual", "determinant.orthonormality_residual"),
    Target("spincol.determinant", "SpinorDeterminant.__init__", "determinant.SpinorDeterminant"),
    Target("spincol.determinant", "OverlapBlocks.validate", "determinant.OverlapBlocks.validate"),
    Target("spincol.determinant", "electron_counts", "determinant.electron_counts"),
    Target("spincol.spin", "decompose_s2", "spin.decompose_s2"),
    Target("spincol.spin", "expect_sz", "spin.expect"),
    Target("spincol.spin", "expect_sz2", "spin.expect"),
    Target("spincol.spin", "expect_sminus_splus", "spin.expect"),
    Target("spincol.spin", "expect_splus_sminus", "spin.expect"),
    Target("spincol.spin", "expect_splus", "spin.expect"),
    Target("spincol.spin", "expect_s2", "spin.expect"),
    Target("spincol.collinearity", "spin_vector", "collinearity.spin_vector"),
    Target("spincol.collinearity", "a_matrix", "collinearity.a_matrix", _a_matrix_flops),
    Target("spincol.collinearity", "min_collinearity", "collinearity.min_collinearity"),
    Target("spincol.collinearity", "analyze_collinearity", "collinearity.analyze_collinearity"),
    Target("spincol.rotation", "align_to_axis", "rotation.align_to_axis"),
    Target("spincol.rotation", "su2_rotate", "rotation.su2_rotate"),
    Target("spincol.fock", "oracle_expectation", "fock.oracle_expectation"),
    Target("spincol.fock", "expand", "fock.expand", _fock_patterns),
    Target("spincol.fock", "apply_spin", "fock.apply_spin"),
)


# Every key a Target.work function may add; reported as 0 when never added.
COUNTS = (
    "determinant.blocks_gflop",
    "collinearity.a_matrix_gflop",
    "fock.patterns",
    "io.bytes_read",
    "io.bytes_written",
)


class Tracer:
    """Installs wrappers for ``targets`` and aggregates their spans per op."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.ops = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._op_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, original, target: Target):
        tracer = self
        layer, work = target.layer, target.work

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, tracer._op_id, layer, start, end))
            if work is not None:
                for key, value in work(args, kwargs).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        traced.__name__ = getattr(original, "__name__", target.attr)
        traced.__qualname__ = getattr(original, "__qualname__", target.attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    def _modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "spincol" or name.startswith("spincol."))
        ]

    def install(self) -> "Tracer":
        """Wrap every target; raises ``TracerError`` (and wraps nothing) if one is missing."""
        resolved = []
        for target in self.targets:
            module = sys.modules.get(target.module)
            if module is None:
                raise TracerError(f"traced module {target.module} is not imported")
            if "." in target.attr:
                cls_name, method = target.attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    raise TracerError(f"traced method {target.module}.{target.attr} no longer exists")
                resolved.append((target, cls, method, vars(cls)[method]))
            else:
                original = getattr(module, target.attr, None)
                if not callable(original):
                    raise TracerError(f"traced function {target.module}.{target.attr} no longer exists")
                resolved.append((target, None, target.attr, original))
        functions = {}
        for target, cls, name, original in resolved:
            wrapper = self._wrap(original, target)
            if cls is None:
                functions[id(original)] = (original, wrapper)
            else:
                self._restore.append((cls, name, original))
                setattr(cls, name, wrapper)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self) -> None:
        self._op_id += 1
        self.spans.clear()

    def end_op(self) -> None:
        """Fold the current op's spans into per-layer calls and self time."""
        child_ns: dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for span_id, _, _, layer, start, end in self.spans:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_ns[layer] = self.self_ns.get(layer, 0) + (end - start) - child_ns.get(span_id, 0)
        self.spans.clear()
        self.ops += 1

    def layers(self) -> list[str]:
        return list(dict.fromkeys(t.layer for t in self.targets))

    def per_op(self) -> dict:
        """Per-op calls and self milliseconds for every layer, plus the computed counts."""
        ops = max(self.ops, 1)
        out = {}
        for layer in self.layers():
            out[f"{layer}.calls"] = self.calls.get(layer, 0) / ops
            out[f"{layer}.self_ms"] = self.self_ns.get(layer, 0) / ops / 1e6
        for key in COUNTS:
            out[key] = self.counts.get(key, 0) / ops
        return out
