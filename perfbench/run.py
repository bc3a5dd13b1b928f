"""qspline benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bench16 --seed 42 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record of the run goes to ``.bench_out/``.  Each measurement runs in a
fresh worker process (worker.py), one at a time.  README.md says why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bench16", "shots4", "knots")
REFERENCE_SEED = 42
SETUP_SAMPLES = 5  # fresh processes that each measure one set-up
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def spawn(args, extra: list, deadline: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--solver-seed", str(args.solver_seed), "--seconds", str(args.seconds),
               *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile_summary(samples: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:  # nearest rank n-10 leaves exactly ten samples above it
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "samples": n, "tail": tail}


def quality(outcomes: list) -> dict:
    fits = [o["fit"] for o in outcomes if o["fit"] is not None]
    nrmses = [f["nrmse"] for f in fits if f["nrmse"] is not None]
    return {
        "nrmse_max": max(nrmses) if nrmses else 0.0,
        "converged_frac": sum(f["converged"] for f in fits) / len(fits) if fits else 0.0,
        "failed_frac": sum(not o["ok"] for o in outcomes) / len(outcomes),
    }


def run(args, per_layer_units: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    main = spawn(args, ["--trace", str(args.trace)], deadline)
    outcomes = main["outcomes"]
    record = {"workload": args.workload, "seed": args.seed, "solver_seed": args.solver_seed,
              "seconds": args.seconds, "trace": args.trace, "machine": main["machine"],
              "wall_s": percentile_summary(main["pass_s"]), "pass_s": main["pass_s"],
              "quality": quality(outcomes),
              "failures": sorted({(o["name"], o["reason"]) for o in outcomes if not o["ok"]})}
    unexpected = [o["name"] for o in outcomes if not o["ok"] and not o["known_defect"]]
    summary = {"correct": not unexpected, "attempted": len(outcomes),
               "failed": sum(not o["ok"] for o in outcomes)}

    if args.trace:
        layers = dict(main["layers"])
        layers.update({f"quality.{k}": v for k, v in record["quality"].items()})
        layers["trace.overhead_s"] = main["traced_pass_s"] - record["wall_s"]["median"]
        record["layers"] = layers
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
    else:
        setups = [main["setup"]] + [spawn(args, ["--setup-only"], deadline)["setup"]
                                    for _ in range(SETUP_SAMPLES - 1)]
        record["setups"] = setups
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    record["unexpected_failures"] = unexpected
    record["result"] = dict(summary, metrics=metrics)
    return record


def _per_layer_units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="set-up aside, run passes for up to this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--solver-seed", type=int, default=REFERENCE_SEED,
                        help="seed of every variational fit (default: the reference, 42)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "qspline", "__init__.py")):
        print("error: run from the root of a qspline checkout (src/qspline is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(".bench_out", exist_ok=True)
    try:
        record = run(args, _per_layer_units())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(".bench_out",
                        f"result-{args.workload}-seed{args.seed}-solver{args.solver_seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"{args.workload} seed {args.seed}: {len(record['pass_s'])} passes, "
          f"wall_s median {record['wall_s']['median']:.4f}; record in {path}")
    for name, reason in record["failures"]:
        print(f"failed: {name}: {reason}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
