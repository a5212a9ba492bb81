#!/usr/bin/env python3
"""Run one spincol benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey-small --seed 1 --seconds 22 --trace 0

The harness generates the workload's inputs from ``--seed`` into a temporary
directory under ``.bench_work/``, starts fresh worker processes for the
set-up samples and for the measured closed loop, checks every op's output,
and prints one line per metric (name, value, unit, sample count) followed by
a final JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from the outside-in tracer.  BLAS runs on
``BLAS_THREADS`` threads in every process.  The program is imported from
``src/`` of the checkout; without it the harness exits with status 2.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "spincol", "__init__.py")
# Metric names, units and workload rationale live in BENCHMARK.json only.
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_TIMEOUT_S = 120
LOOP_GRACE_S = 120

# Percentiles latency_tail_ms may report; the highest with >= 10 samples beyond it wins.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_metadata(seed: int) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": f"{platform.machine()} ({', '.join(simd)})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def calibration_ms() -> float:
    """Median time of a fixed BLAS plus interpreter kernel; a diagnostic, never a divisor."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(4):
            a @ a
        total = 0
        for k in range(50_000):
            total += k * k
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _worker(workload: str, workdir: str, seconds: float, trace: int, setup_only: bool) -> dict:
    result_path = os.path.join(workdir, f"result-{time.perf_counter_ns()}.json")
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", workload, "--workdir", workdir,
        "--seconds", repr(seconds), "--trace", str(trace), "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else seconds + LOOP_GRACE_S
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_latency(latencies_s: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) for the highest listed percentile with >= 10 samples beyond it."""
    n = len(latencies_s)
    ordered = sorted(latencies_s)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100.0))] * 1e3
    return None


def per_input_p90(totals_s: list[float], pool: int) -> float:
    """Mean over the input pool of each input's 90th-percentile op time (op j ran input j % pool)."""
    p90s = []
    for k in range(pool):
        times = totals_s[k::pool]
        p90s.append(statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0])
    return statistics.fmean(p90s)


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<46} {value:>14.6g} {unit:<12} {note}"


def main(argv=None) -> int:
    for required in (SRC_PACKAGE, BENCHMARK_JSON):
        if not os.path.isfile(required):
            print(f"error: {required} not found; run from a spincol checkout", file=sys.stderr)
            return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    args = _parse_args(argv, sorted(whys))
    sys.path.insert(0, HERE)
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    meta = run_metadata(args.seed)
    print(f"# spincol benchmark: workload={spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {whys[spec.name]}")
    print(f"# inputs: {spec.inputs}")
    print(f"# exercises: {', '.join(spec.exercises)}; bypasses: {', '.join(spec.bypasses)}")
    print(f"# closed loop, 1 client, 1 process; meta {json.dumps(meta)}")

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT)
    try:
        start = time.perf_counter()
        workloads.prepare(spec.name, args.seed, workdir)
        generate_s = time.perf_counter() - start
        calib = calibration_ms()
        setups = [
            _worker(spec.name, workdir, args.seconds, 0, setup_only=True)
            for _ in range(spec.setup_processes - 1)
        ]
        main_run = _worker(spec.name, workdir, args.seconds, args.trace, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    runs = setups + [main_run]
    attempted = sum(r["tally"]["attempted"] for r in runs)
    failed = sum(r["tally"]["failed"] for r in runs)
    negative_ops = sum(r["tally"]["negative_variance_ops"] for r in runs)
    most_negative = min(r["tally"]["most_negative"] for r in runs)
    totals, latencies, writes = main_run["totals_s"], main_run["latencies_s"], main_run["writes_s"]
    n = len(latencies)

    print(f"# generated inputs in {generate_s:.3f} s; calibration kernel {calib:.3f} ms (diagnostic, not gated)")
    for r in runs:
        for failure in r["tally"]["failures"]:
            print(f"# FAILED CHECK: {failure}")
    if args.trace == 0:
        pool = main_run["pool"]
        # name -> (value, unit, note); the gated ones are those BENCHMARK.json lists.
        printed = {
            "op_p90_ms": (
                per_input_p90(totals, pool) * 1e3, "ms",
                f"n={pool} inputs x {n // pool} ops, mean of each input's p90 op time",
            ),
            "setup_s": (
                statistics.median(r["setup_s"] for r in runs), "s",
                f"n={len(runs)} fresh processes, median of import spincol + first op",
            ),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB", "n=1 process, ru_maxrss of the measuring worker"),
            "ops_per_s": (n / sum(totals), "1/s", f"n={n} ops in {sum(totals):.3f} s of op time"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", f"n={n}"),
        }
        tail = tail_latency(latencies)
        if tail is not None:
            printed["latency_tail_ms"] = (tail[1], "ms", f"n={n}, p{tail[0]:g}")
        if writes:
            printed["write_s"] = (statistics.median(writes), "s", f"n={len(writes)}, median save_determinant")
        metrics = {m["name"]: printed[m["name"]][0] for m in bench["end_to_end"]}
        for name, (value, unit, note) in printed.items():
            print(_line(name, value, unit, note + ("" if name in metrics else "; not gated")))
    else:
        trace = dict(main_run["trace"])
        blocks_s = trace["determinant.build_overlap_blocks.self_ms"] / 1e3
        trace["determinant.blocks_gflop_per_s"] = trace["determinant.blocks_gflop"] / blocks_s if blocks_s > 0 else 0.0
        trace["check.negative_variance_frac"] = negative_ops / attempted
        metrics = {m["name"]: trace[m["name"]] for m in bench["per_layer"]}
        for m in bench["per_layer"]:
            print(_line(m["name"], metrics[m["name"]], m["unit"], f"n={n} traced ops"))
        print("# every traced layer (calls/op, self ms/op):")
        for layer in main_run["trace_layers"]:
            print(f"#   {layer:<44} {trace[layer + '.calls']:>10.3f} {trace[layer + '.self_ms']:>12.4f}")
    note = f"n={attempted} ops, {failed} failed a check or raised; not gated"
    print(_line("fail_frac", failed / attempted, "ratio", note))
    print(
        f"# known defect (negative variance below -Ne*eps/4): {negative_ops}/{attempted} ops, "
        f"most negative {most_negative:.3e}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end" if args.trace == 0 else "per_layer"]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
