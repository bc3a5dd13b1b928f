"""Run one workload in this fresh interpreter and print its figures as JSON.

Started by run.py, from the root of a checkout:

    python3 perfbench/worker.py --workload knots --seed 42 --solver-seed 42 \
        --seconds 30 --trace 0 [--setup-only]

Every worker first measures one set-up: the import of qspline, then the
workload's probe cold and warm.  Unless ``--setup-only`` is given it then
runs untraced passes for up to ``--seconds`` (at least one), and with
``--trace 1`` one more pass with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLOCK = time.perf_counter


def run_ops(workloads, ops, work_dir: str) -> tuple[float, list]:
    """Run operations in order; return the wall time and every outcome."""
    outcomes = []
    started = CLOCK()
    for op in ops:
        _, got = workloads.run_operation(op, work_dir, CLOCK)
        outcomes.extend(got)
    return CLOCK() - started, outcomes


def machine() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "load": "one worker process at a time; the benchmark starts no threads",
    }


def measure(args, work_dir: str) -> dict:
    started = CLOCK()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads  # imports numpy and every qspline module the workloads call

    import_s = CLOCK() - started
    probe = workloads.probe_ops(args.workload, args.seed, args.solver_seed)
    cold_s, _ = run_ops(workloads, probe, work_dir)
    warm_s, _ = run_ops(workloads, probe, work_dir)
    result = {"setup": {"import_s": import_s, "probe_cold_s": cold_s,
                        "probe_warm_s": warm_s, "setup_s": import_s + cold_s - warm_s}}
    if args.setup_only:
        return result

    ops = workloads.pass_ops(args.workload, args.seed, args.solver_seed)
    passes = []
    begun = CLOCK()
    # start another pass only while it should end within --seconds
    while not passes or (CLOCK() - begun + statistics.median(t for t, _ in passes)
                         <= args.seconds):
        passes.append(run_ops(workloads, ops, work_dir))
    result["machine"] = machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["pass_s"] = [seconds for seconds, _ in passes]
    outcomes = [o for _, got in passes for o in got]

    if args.trace:
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)
        traced_s, traced = run_ops(workloads, ops, work_dir)
        outcomes.extend(traced)
        result["traced_pass_s"] = traced_s
        result["layers"] = tracer.layer_metrics(spans)
        shots16 = [o.max_err for o in traced if o.name == "readout shots K16"]
        result["layers"]["readout.shots_err.K16"] = shots16[0] if shots16 else 0.0
        spans.write(os.path.join(
            ".bench_out", f"spans-{args.workload}-seed{args.seed}-solver{args.solver_seed}.csv.gz"))

    result["outcomes"] = [
        {"name": o.name, "ok": o.ok, "reason": o.reason, "fit": o.fit,
         "known_defect": o.name in workloads.KNOWN_DEFECTS}
        for o in outcomes
    ]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--solver-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    work_dir = os.path.join(".bench_out", f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
