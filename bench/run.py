"""Run one trajshift benchmark workload and print its metrics.

    python3 bench/run.py --workload protocol_n1000 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads are closed loops with one client in this process (see
``workloads.py``). Ops run in whole cycles over the workload's inputs
until ``--seconds`` would be exceeded by one more cycle; at least one
cycle always runs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over each cycle, prints the per-layer metrics
from the traced pass (see ``spans.py``) and the tracing overhead, and
checks that both passes give identical results. ``--smoke`` shrinks every
cohort about tenfold for the benchmark's own test.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the op definition and the digest of the first cycle's
results. The full record, spans included, is written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# workloads.py imports trajshift, whose import time is part of the
# set-up, so it is imported inside main() after that import is timed.
WORKLOAD_NAMES = ("protocol_n1000", "small_cohorts_csv", "large_n4000")


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads.

    On a 2-vCPU machine, two OpenBLAS threads made the same ops 20-30%
    slower for tens of seconds at a time and were never more than about
    5% faster, so op times depended on when a run happened. trajshift's
    matrix products are small; one thread keeps runs comparable.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def run_op(workload, op, tracer, op_id):
    from workloads import OpResult

    try:
        with tracer.op_span(op_id) if tracer else nullcontext():
            return workload.run(op)
    except Exception as exc:  # an op that raises is counted as failed, the loop goes on
        traceback.print_exc()
        return OpResult(float("nan"), 0, [f"raised {type(exc).__name__}: {exc}"])


def measure(workload, seconds: float, tracer) -> dict:
    """Whole cycles of ops until one more cycle would pass ``seconds``."""
    passes = (False, True) if tracer else (False,)
    done = {traced: [] for traced in passes}
    start = time.perf_counter()
    op_id = 0
    while True:
        cycle_start = time.perf_counter()
        for traced in passes:
            with tracer.installed() if traced else nullcontext():
                for op in workload.cycle():
                    done[traced].append((op, run_op(workload, op, tracer if traced else None, op_id)))
                    op_id += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return done


def check_digests(done: dict) -> str:
    """Every repeat of an op, traced or not, must match that op's first result."""
    first: dict = {}
    order = []
    for records in done.values():
        for op, result in records:
            if not result.digest:
                continue
            if op not in first:
                first[op] = result.digest
                order.append(op)
            elif first[op] != result.digest:
                result.problems.append("result differs from this op's first run")
    return hashlib.sha256("".join(first[op] for op in order).encode()).hexdigest()


def end_to_end(results: list, setup_s: float) -> dict:
    ok = [r for r in results if not r.problems]
    timed = [r for r in results if r.seconds == r.seconds]
    times = [r.seconds for r in timed] or [0.0]
    return {
        "op_s.p50": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "subjects_per_s": (sum(r.subjects for r in timed) / sum(times) if sum(times) else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "exact_rate": (statistics.fmean(r.exact_rate for r in ok) if ok else 0.0, "frac"),
        "ari": (statistics.fmean(r.ari for r in ok) if ok else 0.0, "ARI"),
    }


def per_layer(tracer, n_ops: int, overhead: float) -> dict:
    total, own = tracer.totals()
    counts, hits = tracer.counts, tracer.hits
    cells = counts["spline.cells"]
    build = total["spline.build_embedding"]

    def per_op(x):
        return x / n_ops

    out = {
        "simulate.generate_s": (total["simulate.generate"] / SETUP_REPEATS, "s/setup"),
        "simulate.corrupt_s": (total["simulate.corrupt"] / SETUP_REPEATS, "s/setup"),
        "dataset.load_cohort_s": (per_op(total["dataset.load_cohort"]), "s/op"),
        "dataset.rows_read": (per_op(counts["dataset.rows_read"]), "count/op"),
        "spline.build_embedding_s": (per_op(build), "s/op"),
        "spline.cells": (per_op(cells), "count/op"),
        "spline.usable_frac": (counts["spline.usable_cells"] / cells if cells else 0.0, "frac"),
        "spline.ridge_fit_calls": (per_op(hits["spline.ridge_fit"]), "count/op"),
        "spline.cells_per_s": (cells / build if build else 0.0, "1/s"),
        "cluster.select_k_s": (per_op(total["cluster.select_k"]), "s/op"),
        "cluster.select_k_self_s": (per_op(own["cluster.select_k"]), "s/op"),
        "cluster.distance_matrix_s": (per_op(total["cluster.distance_matrix"]), "s/op"),
        "cluster.kmedoids_s": (per_op(total["cluster.kmedoids"]), "s/op"),
        "cluster.kmedoids_calls": (per_op(hits["cluster.kmedoids"]), "count/op"),
        "cluster.pam_swaps_kept": (per_op(counts["cluster.pam_swaps_kept"]), "count/op"),
        "cluster.silhouette_s": (per_op(total["cluster.silhouette"]), "s/op"),
        "cluster.kmeans_s": (per_op(total["cluster.kmeans"]), "s/op"),
        "register.register_embedded_s": (per_op(total["register.register_embedded"]), "s/op"),
        "register.self_s": (
            per_op(own["register.register"] + own["register.register_embedded"]), "s/op"
        ),
        "register.trimmed_centroid_s": (per_op(total["register.trimmed_centroid"]), "s/op"),
        "register.update_shifts_s": (per_op(total["register.update_shifts"]), "s/op"),
        "register.finalize_s": (per_op(total["register.finalize"]), "s/op"),
        "register.iterations": (per_op(counts["register.iterations"]), "count/op"),
        "evaluate.recovery_s": (per_op(total["evaluate.recovery"]), "s/op"),
        "evaluate.agreement_s": (per_op(total["evaluate.agreement"]), "s/op"),
        "cli.self_s": (per_op(own["cli.main"]), "s/op"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    for reason in ("early_quality", "stabilized", "iter_cap"):
        out[f"register.stop.{reason}"] = (per_op(counts[f"register.stop.{reason}"]), "frac")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="cohorts about 10x smaller")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "trajshift" / "__init__.py").is_file():
        print(f"error: no trajshift sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    importlib.import_module("trajshift.cli")  # imports every trajshift module
    import_s = time.perf_counter() - t0

    from spans import Tracer
    from workloads import WORKLOADS

    # The CLI configures INFO logging to stderr unless a handler exists.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer = Tracer() if args.trace else None
        setup_times = []
        with tracer.installed() if tracer else nullcontext():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.prepare()
                setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        done = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = check_digests(done)
    results = [r for records in done.values() for _, r in records]
    failed = [r for r in results if r.problems]
    problems = [f"op failed: {'; '.join(r.problems)}" for r in failed[:5]]
    if tracer:
        missed = sorted(set(workload.layers) - {name for name, n in tracer.hits.items() if n})
        if missed:
            problems.append(f"wrapped names never called: {missed}")
        plain_s = sum(r.seconds for _, r in done[False] if r.seconds == r.seconds)
        traced_s = sum(r.seconds for _, r in done[True] if r.seconds == r.seconds)
        metrics = per_layer(tracer, len(done[True]), traced_s / plain_s - 1.0 if plain_s else 0.0)
    else:
        metrics = end_to_end(results, setup_s)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    times = sorted(r.seconds for _, r in done[False] if r.seconds == r.seconds)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "op": workload.op,
        "ops_per_cycle": len(workload.cycle()),
        "digest": digest,
        "failed_frac": len(failed) / len(results),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "env": environment(nproc),
    }
    if len(times) >= 100:  # a p90 needs at least ten samples above it
        info["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    line = {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        **info,
        "ops": [
            {"op": op, "traced": traced, "seconds": r.seconds, "subjects": r.subjects,
             "digest": r.digest, "problems": r.problems}
            for traced, records in done.items()
            for op, r in records
        ],
        "result": line,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT_DIR / f"{label}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
