"""End-to-end fit: sample a target, solve the spline system, read out.

This is the glue the CLI calls.  Every fit starts from the classical fit,
which samples and normalizes the target once and interpolates it exactly:
it is the floor every quantum run is compared against.  The quantum path
then runs the variational solve and the inner-product readout on the same
targets, and reports both error numbers side by side.  The solver sees the
equilibrated system R S D = I + N and the target R y; its solution beta'
maps back to S's own, D beta' normalized, which the readout reads on the
rows of S.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, readout, sim, vqls
from .bspline import bidiagonal_scaling, build_system
from .functions import TARGETS, nrmse
from .report import FitReport

__all__ = ["FitConfig", "QSPLINES_BASELINE", "BASELINE_KNOTS", "build_system", "fit"]

# Published reference errors of the swap-test spline model at 20 knots,
# printed alongside benchmark output; the sine column was never reported.
QSPLINES_BASELINE = {"elu": 0.4874, "relu": 0.5240, "sigmoid": 0.1589, "sin": None}
BASELINE_KNOTS = 20

_ALLOWED_KNOTS = (2, 4, 8, 16, 32, 64)
_MAX_SHOTS = 2**63 - 1  # numpy's binomial sampler takes an int64 count


@dataclass(frozen=True)
class FitConfig:
    """Everything a single fit run needs, and the one place it gets defaults."""

    function: str
    knots: int = 16
    mode: str = vqls.SolveConfig.mode  # "exact" | "shots" | "classical"
    shots: int = vqls.SolveConfig.shots
    restarts: int = vqls.SolveConfig.restarts
    seed: int = vqls.SolveConfig.seed
    ansatz: str = vqls.AnsatzConfig.kind  # "tree" | "layered"
    max_iter: int = vqls.SolveConfig.max_iter

    def __post_init__(self):
        if self.function not in TARGETS:
            raise ValueError(
                f"unknown function {self.function!r}; pick one of {sorted(TARGETS)}"
            )
        if self.knots not in _ALLOWED_KNOTS:
            raise ValueError(f"knots must be one of {_ALLOWED_KNOTS}, got {self.knots}")
        if self.mode not in ("exact", "shots", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.shots <= _MAX_SHOTS:
            raise ValueError(f"shots must be between 1 and {_MAX_SHOTS}, got {self.shots}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.ansatz not in ("tree", "layered"):
            raise ValueError(f"unknown ansatz {self.ansatz!r}; pick tree or layered")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def fit(config: FitConfig) -> FitReport:
    """Run one full fit and package the result."""
    started = time.perf_counter()
    classical = oracle.fit_classical(config.function, config.knots)
    if config.mode == "classical":
        return classical
    classical_s = time.perf_counter() - started

    y01 = np.asarray(classical.y_target)
    matrix = build_system(config.knots)[0].entries
    # scaled, even a numerically singular S looks well conditioned
    condition_number = float(np.linalg.cond(matrix))
    if condition_number > vqls.SINGULAR_COND:
        raise ValueError("system matrix is singular")
    r, c = bidiagonal_scaling(matrix)

    solve_cfg = vqls.SolveConfig(
        mode=config.mode,
        shots=config.shots,
        max_iter=config.max_iter,
        restarts=config.restarts,
        seed=config.seed,
    )
    ansatz_cfg = vqls.AnsatzConfig(n_qubits=config.knots.bit_length() - 1, kind=config.ansatz)

    started = time.perf_counter()
    solution = vqls.solve(r[:, None] * matrix * c, r * y01, solve_cfg, ansatz_cfg)
    solved = time.perf_counter()
    y_unit = y01 / float(np.linalg.norm(y01))
    # the rows of S D reach norms near 1e8 at K = 32, and each scales its
    # row's shot noise; the rows of S stay at most 1
    beta = c * solution.beta_state.amplitudes
    estimate = readout.recover_estimates(
        matrix,
        sim.QuantumState(ansatz_cfg.n_qubits, beta / np.linalg.norm(beta)),
        y_unit,
        mode=config.mode,
        shots=config.shots,
        # disjoint from the restart substreams (seed, 0..restarts-1)
        seed=int(np.random.SeedSequence((config.seed, 1 << 20)).generate_state(1)[0]),
    )
    read_out = time.perf_counter()

    y_estimate = estimate.values * float(np.linalg.norm(y01))
    timings = {
        "solve_s": solved - started,
        "readout_s": read_out - solved,
        "classical_s": classical_s,
    }

    return replace(
        classical,
        mode=config.mode,
        shots=config.shots if config.mode == "shots" else None,
        ansatz={
            "kind": ansatz_cfg.kind,
            "n_qubits": ansatz_cfg.n_qubits,
            "layers": ansatz_cfg.layers,
            "entangler": vqls.ENTANGLER if ansatz_cfg.kind == "layered" else None,
            "n_params": ansatz_cfg.n_params,
        },
        optimizer={
            "name": "bfgs" if config.mode == "shots" else "levenberg-marquardt",
            # exact mode takes analytic Jacobians
            "fd_step": vqls.FD_STEP if config.mode == "shots" else None,
            "max_iter": solve_cfg.max_iter,
            "restarts": solve_cfg.restarts,
        },
        seed=config.seed,
        rng="numpy default_rng; restart i seeded by SeedSequence((seed, i))",
        y_estimate=[float(v) for v in y_estimate],
        nrmse=float(nrmse(y_estimate, y01)),
        final_cost=solution.final_cost,
        cost_trace=list(solution.cost_trace),
        converged=solution.converged,
        restarts_used=solution.restarts_used,
        mean_bias=float(np.mean(y_estimate - y01)),
        wall_seconds=read_out - started,
        baseline={
            "model": "QSplines (swap test)",
            "knots": BASELINE_KNOTS,
            "nrmse": QSPLINES_BASELINE[config.function],
        },
        evaluations=dict(solution.evaluations),
        condition_number=condition_number,
        solved_condition_number=solution.condition_number,
        restarts=[dict(r) for r in solution.restarts],
        timings=timings,
    )
