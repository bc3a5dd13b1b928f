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
from functools import lru_cache

import numpy as np

from . import oracle, readout, sim, vqls
from .bspline import bidiagonal_scaling, build_system
from .functions import TARGETS
from .report import FitReport

__all__ = ["FitConfig", "QSPLINES_BASELINE", "BASELINE_KNOTS", "build_system", "fit"]

# Published reference errors of the swap-test spline model at 20 knots,
# printed alongside benchmark output; the sine column was never reported.
QSPLINES_BASELINE = {"elu": 0.4874, "relu": 0.5240, "sigmoid": 0.1589, "sin": None}
BASELINE_KNOTS = 20

_ALLOWED_KNOTS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class FitConfig:
    """Everything a single fit run needs, and the one place it gets defaults.

    ``mode`` is one of ``vqls.MODES`` or ``"classical"``; in every mode the
    solver checks its own settings, as :meth:`solver` builds its configs.
    """

    function: str
    knots: int = 16
    mode: str = vqls.SolveConfig.mode
    shots: int = vqls.SolveConfig.shots
    restarts: int = vqls.SolveConfig.restarts
    seed: int = vqls.SolveConfig.seed
    ansatz: str = vqls.AnsatzConfig.kind
    max_iter: int = vqls.SolveConfig.max_iter

    def __post_init__(self):
        if self.function not in TARGETS:
            raise ValueError(
                f"unknown function {self.function!r}; pick one of {sorted(TARGETS)}"
            )
        sim.check_count("knots", self.knots, 2)
        if self.knots not in _ALLOWED_KNOTS:
            raise ValueError(f"knots must be one of {_ALLOWED_KNOTS}, got {self.knots}")
        self.solver()
        # a numpy integer passes the checks, and the JSON report takes a plain int
        for name in ("knots", "shots", "restarts", "seed", "max_iter"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def solver(self) -> tuple[vqls.SolveConfig, vqls.AnsatzConfig]:
        """This fit's solve and ansatz configs; a classical fit's takes the
        solver's default mode."""
        mode = vqls.SolveConfig.mode if self.mode == "classical" else self.mode
        return (vqls.SolveConfig(mode=mode, shots=self.shots, max_iter=self.max_iter,
                                 restarts=self.restarts, seed=self.seed),
                vqls.AnsatzConfig(n_qubits=sim.qubit_count(self.knots), kind=self.ansatz))


@lru_cache(maxsize=len(_ALLOWED_KNOTS))
def _system(knots: int) -> tuple:
    """S on the ``knots``-point grid, its cond after the singularity check,
    its scalings (r, c) and R S D, read-only and built once per ``knots``; a
    singular S raises on every call, as a raise is never cached."""
    matrix = build_system(knots)[0].entries
    # scaled, even a numerically singular S looks well conditioned
    condition_number = vqls.check_invertible(matrix)
    r, c = bidiagonal_scaling(matrix)
    scaled = r[:, None] * matrix * c
    for array in (r, c, scaled):
        array.flags.writeable = False
    return matrix, condition_number, r, c, scaled


def fit(config: FitConfig) -> FitReport:
    """Run one full fit and package the result."""
    started = time.perf_counter()
    classical = oracle.fit_classical(config.function, config.knots)
    if config.mode == "classical":
        return classical
    classical_s = time.perf_counter() - started

    y01 = np.asarray(classical.y_target)
    matrix, condition_number, r, c, scaled = _system(config.knots)
    solve_cfg, ansatz_cfg = config.solver()
    # disjoint from the restart substreams (seed, 0..restarts-1), and named in rng;
    # drawn before the stage clocks, so the first fit's lazy import of
    # numpy.random counts in wall_seconds and in no stage
    readout_seed = int(np.random.SeedSequence((config.seed, 1 << 20)).generate_state(1)[0])

    solving = time.perf_counter()
    solution = vqls.solve(scaled, r * y01, solve_cfg, ansatz_cfg)
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
        seed=readout_seed,
    )
    read_out = time.perf_counter()

    y_estimate = estimate.values * float(np.linalg.norm(y01))
    timings = {
        "solve_s": solved - solving,
        "readout_s": read_out - solved,
        "classical_s": classical_s,
    }

    return replace(
        classical,
        mode=config.mode,
        shots=config.shots if config.mode == "shots" else None,
        ansatz=ansatz_cfg.record(),
        optimizer=dict(solution.optimizer),
        seed=config.seed,
        rng=f"{vqls.SEEDING}; the shots readout seeded by SeedSequence((seed, 1 << 20))",
        y_estimate=[float(v) for v in y_estimate],
        cost_trace=list(solution.cost_trace),
        wall_seconds=read_out - started,
        baseline={
            "model": "QSplines (swap test)",
            "knots": BASELINE_KNOTS,
            "nrmse": QSPLINES_BASELINE[config.function],
        },
        condition_number=condition_number,
        solved_condition_number=solution.condition_number,
        restarts=[dict(r) for r in solution.restarts],
        timings=timings,
    )
