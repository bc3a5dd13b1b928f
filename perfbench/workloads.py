"""The three workloads: their operations, the output check of each, and the
cheap probe each one uses to measure set-up.

An operation is one call into qspline's public CLI or API.  It yields one
checked outcome per output it produces (a ``bench`` call yields one per
function).  An outcome fails when its call raises, when the CLI exits with
code 1 or 3, or when its output check does not hold.  Exit code 2 (solver
did not converge) is not a failure: the fit still writes its outputs, and
``converged_frac`` counts it.

Every operation that runs the variational solver uses ``solver_seed`` (the
reference seed 42 unless the caller picks another).  The solver's work
depends strongly on its seed, so pinning it keeps a pass the same amount of
work from run to run; the workload seed drives the shot-noise seeds of the
readout operations instead.  README.md gives the numbers behind this.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qspline import cli, oracle, pipeline, readout, sim, vqls
from qspline.functions import TARGETS, sample_grid, target_values

BENCH_FUNCTIONS = ("elu", "relu", "sigmoid", "sin")

# criterion 1 of tests/test_acceptance.py
BENCH16_BANDS = {"elu": 0.03, "relu": 0.03, "sigmoid": 0.1589 / 10.0, "sin": 0.03}
CLASSICAL_FLOOR = 1e-10  # criterion 2
RECONSTRUCTION_TOL = 1e-12  # criterion 4
READOUT_TOL = 1e-8  # criterion 8
READOUT_SHOTS = 10_000

# Outcomes that fail at the commit that defined this benchmark (ROADMAP open
# item 4: cond(S) = 2.5e18 at K=64).  They still run and still count in
# ``failed``; only a failure outside this set marks a run incorrect.
KNOWN_DEFECTS = frozenset(
    [f"classical K64 {name}" for name in BENCH_FUNCTIONS] + ["fit sin K64"]
)


@dataclass
class Outcome:
    name: str
    ok: bool = True
    reason: str = ""
    fit: dict | None = None  # quantum fits only: {"nrmse", "converged"}
    max_err: float | None = None  # readouts only: worst error against the targets


@dataclass(frozen=True)
class Operation:
    names: tuple  # one checked outcome per name, in order
    run: Callable[[str], list]  # output directory -> list of Outcome
    quantum_fits: bool = False  # every outcome is a variational fit


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_operation(op: Operation, work_dir: str, clock) -> tuple[float, list]:
    """Time one operation in a fresh output directory; return its outcomes."""
    out_dir = tempfile.mkdtemp(dir=work_dir)
    started = clock()
    try:
        outcomes = op.run(out_dir)
    except CheckFailed as exc:
        outcomes = [Outcome(name, False, str(exc)) for name in op.names]
    except Exception as exc:  # an operation that raises is a failed operation
        reason = f"raised {type(exc).__name__}: {exc}"
        outcomes = [Outcome(name, False, reason) for name in op.names]
    seconds = clock() - started
    shutil.rmtree(out_dir, ignore_errors=True)
    if op.quantum_fits:
        for outcome in outcomes:
            if outcome.fit is None:
                outcome.fit = {"nrmse": None, "converged": False}
    return seconds, outcomes


def _checked(name: str, check: Callable, *args) -> Outcome:
    """Run one output check; a failed check fails only this outcome."""
    outcome = Outcome(name)
    try:
        check(outcome, *args)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        outcome.ok, outcome.reason = False, f"{type(exc).__name__}: {exc}"
    return outcome


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------

def _cli(argv: list, out_dir: str) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv + ["--out", out_dir])
    _require(rc not in (1, 3), f"exit code {rc}: {stderr.getvalue().strip()}")
    return rc, stdout.getvalue()


def _check_fit_csv(path: str, knots: int) -> None:
    """The frozen CSV schema: header ``x,y_target,y_estimate``, one finite row per knot."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and rows[0] == ["x", "y_target", "y_estimate"], "bad CSV header")
    _require(len(rows) == knots + 1, f"{len(rows) - 1} CSV rows for {knots} knots")
    for row in rows[1:]:
        _require(len(row) == 3, f"CSV row {row} has {len(row)} fields")
        _require(all(math.isfinite(float(v)) for v in row), f"non-finite CSV row {row}")


def _check_quantum_fit(outcome: Outcome, out_dir: str, stem: str, knots: int, band=None):
    _check_fit_csv(os.path.join(out_dir, stem + ".csv"), knots)
    with open(os.path.join(out_dir, stem + ".json"), encoding="utf-8") as handle:
        report = json.load(handle)
    _require(report["knots"] == knots, "JSON knot count differs from the run")
    outcome.fit = {"nrmse": float(report["nrmse"]), "converged": bool(report["converged"])}
    if band is not None:
        _require(report["nrmse"] <= band, f"NRMSE {report['nrmse']:.3e} above {band}")


def _bench_summary(out_dir: str, knots: int, seed: int) -> dict:
    path = os.path.join(out_dir, f"bench_K{knots}_seed{seed}.csv")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = {row[0]: row for row in csv.reader(handle)}
    header = rows["model"][2:]
    return {model: dict(zip(header, row[2:])) for model, row in rows.items()}


def _check_classical_fit(outcome: Outcome, out_dir: str, summary: dict, name: str, knots: int):
    _check_fit_csv(os.path.join(out_dir, f"fit_{name}_K{knots}_seednone.csv"), knots)
    floor = float(summary["classical"][name])
    _require(floor < CLASSICAL_FLOOR, f"classical NRMSE {floor:.3e} not below {CLASSICAL_FLOOR}")


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def bench_op(solver_seed: int, extra: tuple = ()) -> Operation:
    """``qspline bench --knots 16``: the paper's table, one outcome per function."""
    names = tuple(f"bench K16 {name}" for name in BENCH_FUNCTIONS)

    def run(out_dir):
        _cli(["bench", "--knots", "16", "--seed", str(solver_seed), *extra], out_dir)
        return [
            _checked(label, _check_quantum_fit, out_dir, f"fit_{name}_K16_seed{solver_seed}",
                     16, BENCH16_BANDS[name])
            for label, name in zip(names, BENCH_FUNCTIONS)
        ]

    return Operation(names, run, quantum_fits=True)


def fit_op(knots: int, solver_seed: int, extra: tuple = (), label: str = "") -> Operation:
    """``qspline fit --function sin``; checked for the CSV schema only."""
    name = f"fit sin K{knots}{label}"

    def run(out_dir):
        _cli(["fit", "--function", "sin", "--knots", str(knots),
              "--seed", str(solver_seed), *extra], out_dir)
        return [_checked(name, _check_quantum_fit, out_dir,
                         f"fit_sin_K{knots}_seed{solver_seed}", knots)]

    return Operation((name,), run, quantum_fits=True)


def classical_op(knots: int, solver_seed: int) -> Operation:
    """``qspline bench --classical-only``: the README's floor for every function."""
    names = tuple(f"classical K{knots} {name}" for name in BENCH_FUNCTIONS)

    def run(out_dir):
        _cli(["bench", "--classical-only", "--knots", str(knots),
              "--seed", str(solver_seed)], out_dir)
        summary = _bench_summary(out_dir, knots, solver_seed)
        return [_checked(label, _check_classical_fit, out_dir, summary, name, knots)
                for label, name in zip(names, BENCH_FUNCTIONS)]

    return Operation(names, run)


def decompose_op(knots: int) -> Operation:
    """``qspline decompose``: the printed reconstruction error must be <= 1e-12."""
    name = f"decompose K{knots}"

    def check(outcome, stdout):
        lines = stdout.splitlines()
        _require(len(lines) >= 2, "decompose printed too little")
        terms = int(lines[-2].removeprefix("terms: "))
        error = float(lines[-1].removeprefix("max reconstruction error: "))
        _require(terms == len(lines) - 2, f"{terms} terms announced, {len(lines) - 2} printed")
        _require(error <= RECONSTRUCTION_TOL, f"reconstruction error {error:.3e}")

    def run(out_dir):
        _, stdout = _cli(["decompose", "--function", "sin", "--knots", str(knots)], out_dir)
        return [_checked(name, check, stdout)]

    return Operation((name,), run)


def _oracle_state(knots: int):
    """The sin system, its unit target and the oracle's solution as a state."""
    target = TARGETS["sin"]
    y01, _ = target_values(target, sample_grid(knots, target.domain))
    system, _ = pipeline.build_system(knots)
    beta = oracle.solve_exact(system, y01).beta
    state = sim.QuantumState(knots.bit_length() - 1,
                             (beta / np.linalg.norm(beta)).astype(complex))
    return system, state, y01 / np.linalg.norm(y01)


def readout_op(knots: int, mode: str, shot_seed: int) -> Operation:
    """``readout.recover_estimates`` from the oracle's solution state.

    Exact mode must reproduce the targets to 1e-8 (criterion 8).  Shots mode
    has no accuracy bound of its own, so it is checked for what must hold
    whatever the draw: one finite value per knot, the classical scale and
    sign of exact mode, and every implied overlap inside [-1, 1].
    """
    name = f"readout {mode} K{knots}"

    def check(outcome, system, state, y_unit, est):
        values = np.asarray(est.values)
        _require(values.shape == (knots,) and bool(np.all(np.isfinite(values))),
                 "estimates are not one finite value per knot")
        error = outcome.max_err = float(np.max(np.abs(values - y_unit)))
        if mode == "exact":
            _require(error <= READOUT_TOL, f"targets reproduced to {error:.3e}")
            return
        mapped = system.entries @ state.amplitudes.real
        scale = 1.0 / float(np.linalg.norm(mapped))
        sign = -1.0 if float(y_unit @ mapped) < 0.0 else 1.0
        _require(est.sign == sign and abs(est.scale - scale) <= 1e-12 * scale,
                 "scale or sign differs from the classical values")
        row_norms = np.linalg.norm(system.entries, axis=1)
        overlaps = values / (sign * row_norms * scale)
        _require(bool(np.all(np.abs(overlaps) <= 1.0 + 1e-12)), "overlap estimate outside [-1, 1]")

    def run(out_dir):
        system, state, y_unit = _oracle_state(knots)
        est = readout.recover_estimates(system, state, y_unit, mode=mode,
                                        shots=READOUT_SHOTS, seed=shot_seed)
        return [_checked(name, check, system, state, y_unit, est)]

    return Operation((name,), run)


def shots_cost_op(solver_seed: int) -> Operation:
    """One sampled cost evaluation of the K=4 sin system, through the API."""
    name = "shots cost K4"

    def run(out_dir):
        system, _, y_unit = _oracle_state(4)
        ansatz = vqls.AnsatzConfig(n_qubits=2, kind="tree")
        theta = np.random.default_rng(solver_seed).uniform(0.0, 2.0 * math.pi, ansatz.n_params)
        cost = vqls.cost_global(system, y_unit, ansatz, theta, mode="shots",
                                shots=50_000, seed=solver_seed)
        return [_checked(name, lambda o: _require(0.0 <= cost <= 1.0, f"cost {cost}"))]

    return Operation((name,), run)


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------

SHOTS4_FLAGS = ("--mode", "shots", "--shots", "50000", "--restarts", "1", "--max-iter", "1")
CAPPED = ("--restarts", "1", "--max-iter", "1")
DECOMPOSE_KNOTS = (16, 32, 64)
CLASSICAL_KNOTS = (2, 4, 8, 16, 32, 64)
FIT_KNOTS = (2, 4, 8, 64)
READOUT_KNOTS = (16, 32)


def _shot_seed(seed: int, knots: int) -> int:
    return int(np.random.SeedSequence((seed, knots)).generate_state(1)[0])


def pass_ops(workload: str, seed: int, solver_seed: int) -> list:
    """The operations of one timed pass of a workload."""
    if workload == "bench16":
        return [bench_op(solver_seed)]
    if workload == "shots4":
        return [fit_op(4, solver_seed, SHOTS4_FLAGS, label=" shots")]
    if workload == "knots":
        return (
            [decompose_op(k) for k in DECOMPOSE_KNOTS]
            + [classical_op(k, solver_seed) for k in CLASSICAL_KNOTS]
            + [fit_op(k, solver_seed) for k in FIT_KNOTS]
            + [readout_op(k, mode, _shot_seed(seed, k))
               for k in READOUT_KNOTS for mode in ("exact", "shots")]
        )
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(workload: str, seed: int, solver_seed: int) -> list:
    """Operations that run a workload's code paths at its sizes, cheaply.

    Set-up is measured as the extra time of a cold probe over a warm one, in
    a fresh process.  A probe runs each operation of the pass once, with the
    solver capped at one restart and one iteration, and with each sampled
    (shots-mode) call made once at K=4: one capped shots fit still takes
    about 12 s, one K=32 shots readout 1.6 s.
    """
    shots_readout = readout_op(4, "shots", _shot_seed(seed, 4))
    if workload == "bench16":
        return [bench_op(solver_seed, CAPPED)]
    if workload == "shots4":
        return [fit_op(4, solver_seed, CAPPED), shots_cost_op(solver_seed), shots_readout]
    if workload == "knots":
        return (
            [decompose_op(k) for k in DECOMPOSE_KNOTS]
            + [classical_op(k, solver_seed) for k in CLASSICAL_KNOTS]
            + [fit_op(k, solver_seed, CAPPED) for k in FIT_KNOTS]
            + [readout_op(k, "exact", 0) for k in READOUT_KNOTS]
            + [shots_readout]
        )
    raise ValueError(f"unknown workload {workload!r}")
