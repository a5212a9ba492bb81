"""One fresh benchmark process: import spincol, one first op, then the closed loop.

Started by ``run.py`` once per set-up sample (``--setup-only``) and once for
the measured loop.  Set-up time is ``import spincol`` plus the first op on
the first input; loading the generated inputs in between is not counted.
The closed loop has one client: the next op starts when the previous one
and its check are done.  It makes whole passes over the input pool and stops
after the pass in which the ops' own time reaches ``--seconds``, so every
run measures the same mix of inputs, in the same order: op ``j`` ran input
``j % pool``.  With ``--trace 1`` every input is run twice in a row, once
plain and once under the tracer, so the tracing overhead is measured on the
same inputs.  Results go to the JSON file named by ``--result``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root holding src/spincol")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed ops, plus negative-variance sightings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.negative_variance_ops = 0
        self.most_negative = 0.0

    def add(self, verdict) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.extend(verdict.failures[:2])
        if verdict.negative_variances:
            self.negative_variance_ops += 1
            self.most_negative = min(self.most_negative, *(x for _, x in verdict.negative_variances))

    def as_dict(self) -> dict:
        return dict(vars(self))


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(args.root, "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    start = time.perf_counter()
    import spincol
    import spincol.cli

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(spincol.__file__))) != os.path.abspath(src):
        print(f"spincol was imported from {spincol.__file__}, not from {src}", file=sys.stderr)
        return 3

    import tracer
    import workloads

    items = workloads.load(args.workload, args.workdir, spincol, 1 if args.setup_only else None)
    op = workloads.OPS[args.workload]
    tally = Tally()
    first = op(spincol, items[0])
    tally.add(first.verdict)
    result = {"setup_s": import_s + first.total_s, "import_s": import_s, "first_op_s": first.total_s}

    if not args.setup_only:
        totals, latencies, writes = [], [], []
        trace = tracer.Tracer() if args.trace else None
        traced_walls, overhead_ratios = [], []
        spent, i = 0.0, 0
        while i == 0 or spent < args.seconds or i % len(items):
            item = items[i % len(items)]
            i += 1
            plain = op(spincol, item)
            tally.add(plain.verdict)
            totals.append(plain.total_s)
            latencies.append(plain.latency_s)
            if plain.write_s is not None:
                writes.append(plain.write_s)
            spent += plain.total_s
            if trace is not None:
                with trace:
                    trace.begin_op()
                    traced = op(spincol, item)
                    trace.end_op()
                tally.add(traced.verdict)
                traced_walls.append(traced.total_s)
                overhead_ratios.append(traced.total_s / plain.total_s)
                spent += traced.total_s
        result.update(pool=len(items), totals_s=totals, latencies_s=latencies, writes_s=writes)
        if trace is not None:
            result["trace"] = trace.per_op()
            result["trace"]["op.wall_ms"] = statistics.fmean(traced_walls) * 1e3
            result["trace"]["trace_overhead_frac"] = statistics.median(overhead_ratios) - 1.0
            result["trace_layers"] = trace.layers()

    result["tally"] = tally.as_dict()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
