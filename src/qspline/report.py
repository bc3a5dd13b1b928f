"""Fit reports and their serialized forms.

The CSV schema is frozen: header ``x,y_target,y_estimate``, one row per
knot, every number printed with 12 significant digits.  Runs with the same
flags and seed must reproduce the file byte for byte, so nothing volatile
(timing, hostnames) belongs in it; the JSON sidecar carries the full
configuration and diagnostics instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .functions import nrmse

__all__ = ["FitReport", "format_number", "CSV_HEADER", "SUCCESS_NRMSE"]

CSV_HEADER = "x,y_target,y_estimate"
SUCCESS_NRMSE = 0.03  # criterion 1's band: a fit at or below it counts as converged


def format_number(value: float) -> str:
    """Decimal string with 12 significant digits."""
    return format(float(value), ".12g")


@dataclass
class FitReport:
    """Everything needed to inspect or replay one fit, and the one judge of
    it: every construction, ``dataclasses.replace`` too, scores ``nrmse``,
    ``mean_bias`` and ``converged`` from ``y_target`` and ``y_estimate``
    and counts the solve's totals from ``restarts`` and ``cost_trace``."""

    function: str
    knots: int
    mode: str  # "exact" | "shots" | "classical"
    domain: tuple[float, float]
    xs: list[float]
    y_target: list[float]
    y_estimate: list[float]
    classical_nrmse: float | None = None  # the classical floor; a classical report's own nrmse
    wall_seconds: float = 0.0
    baseline: dict = field(default_factory=dict)
    # quantum fits only: shots (in shots mode), the solver settings, seed and
    # generator, cond(S) and cond(R S D) of the solved system, one
    # {"final_cost", "cost_rows", "gradients", "stop_reason"} per restart
    # run, the seconds of the fit's stages {"solve_s", "readout_s",
    # "classical_s"}, and the best restart's cost trace
    shots: int | None = None
    ansatz: dict | None = None
    optimizer: dict | None = None
    seed: int | None = None
    rng: str | None = None
    condition_number: float | None = None
    solved_condition_number: float | None = None
    restarts: list | None = None
    timings: dict | None = None
    cost_trace: list | None = None
    nrmse: float = field(init=False)
    mean_bias: float = field(init=False)
    converged: bool = field(init=False)
    degree: int = field(init=False)  # every spline here is degree 1; the sidecar records it
    restarts_used: int = field(init=False)  # 0, and the next two None, in a classical report
    final_cost: float | None = field(init=False)  # the best restart's, as its trace ends
    evaluations: dict | None = field(init=False)  # {"cost_rows", "gradients"} over all restarts

    def __post_init__(self):
        lengths = {len(self.xs), len(self.y_target), len(self.y_estimate)}
        if lengths != {self.knots}:
            raise ValueError(
                f"columns must all have length {self.knots}, got {sorted(lengths)}"
            )
        target, estimate = np.asarray(self.y_target), np.asarray(self.y_estimate)
        self.nrmse = nrmse(estimate, target)
        self.mean_bias = float(np.mean(estimate - target))
        self.converged = self.nrmse <= SUCCESS_NRMSE
        if self.mode == "classical":
            self.classical_nrmse = self.nrmse
        self.degree = 1
        self.restarts_used = len(self.restarts or ())
        self.final_cost = self.cost_trace[-1] if self.cost_trace else None
        self.evaluations = {key: sum(r[key] for r in self.restarts)
                            for key in ("cost_rows", "gradients")} if self.restarts else None

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for x, y, y_hat in zip(self.xs, self.y_target, self.y_estimate):
            lines.append(f"{format_number(x)},{format_number(y)},{format_number(y_hat)}")
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        """The sidecar: every field, keys sorted, straight from the report."""
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"

    def stem(self) -> str:
        seed = "none" if self.seed is None else self.seed
        return f"fit_{self.function}_K{self.knots}_seed{seed}"
