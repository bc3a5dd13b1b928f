"""Spans around calls into qspline's public functions, from outside the program.

``install`` wraps each traced function at every place the code looks it up:
the module that defines it and every ``qspline`` module that imported it by
name (``pauli_decompose`` lives in ``decomp`` and is imported into ``cli`` and
``vqls``).  Spans stay in memory as flat arrays and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, annotation of the span from (args, kwargs, result))
TRACED = (
    ("qspline.pipeline", "fit", lambda a, k, r: a[0].mode),
    ("qspline.vqls", "solve",
     lambda a, k, r: (a[2].mode if len(a) > 2 and a[2] else "exact",
                      r.restarts_used if r is not None else 0)),
    ("qspline.vqls", "ansatz_state_vector", None),
    ("qspline.vqls", "ansatz_ops", None),
    ("qspline.sim", "hadamard_test", None),
    ("qspline.sim", "apply_gate", None),
    ("qspline.sim", "amplitude_encode", None),
    ("qspline.decomp", "pauli_decompose",
     lambda a, k, r: (len(a[0]), len(r.terms) if r is not None else 0)),
    ("qspline.readout", "recover_estimates",
     lambda a, k, r: (k.get("mode", a[3] if len(a) > 3 else "exact"), len(a[2]))),
    ("qspline.oracle", "fit_classical",
     lambda a, k, r: (a[1], r.nrmse if r is not None else None)),
    ("qspline.report", "FitReport.csv_text", None),
    ("qspline.report", "FitReport.json_text", None),
)


class Tracer:
    """Records (id, parent, name, start, end) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [0]
        self._next = 1

    def wrap(self, name: str, fn, annotate=None):
        kind = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self.ids.append(sid)
                self.parents.append(parent)
                self.kinds.append(kind)
                self.starts.append(start)
                self.ends.append(end)
                if annotate is not None:
                    self.notes[sid] = annotate(args, kwargs, result)

        return traced

    def spans(self):
        """Yield (id, parent, name, start, end, note) in completion order."""
        for i in range(len(self.ids)):
            sid = self.ids[i]
            yield (sid, self.parents[i], self.names[self.kinds[i]],
                   self.starts[i], self.ends[i], self.notes.get(sid))

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s,note\n")
            for sid, parent, name, start, end, note in self.spans():
                handle.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},\"{note}\"\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` wherever qspline looks it up."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "qspline" or n.startswith("qspline.")]
    for module_name, attr, annotate in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:  # a method, looked up through its class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        span_name = f"{module_name.removeprefix('qspline.')}.{attr}"
        wrapped = tracer.wrap(span_name, original, annotate)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    count = defaultdict(int)
    busy = defaultdict(float)
    annotated = {}  # id -> (name, duration, note), annotated spans only
    children = defaultdict(float)  # direct-child time under each span
    for sid, parent, name, start, end, note in tracer.spans():
        count[name] += 1
        busy[name] += end - start
        children[parent] += end - start
        if note is not None:
            annotated[sid] = (name, end - start, note)

    def mean(name, scale):
        return busy[name] / count[name] * scale if count[name] else 0.0

    def notes_of(name):
        return [(d, note) for n, d, note in annotated.values() if n == name]

    solves = notes_of("vqls.solve")
    restarts = sum(note[1] for _, note in solves)
    shots_solve_s = sum(d for d, note in solves if note[0] == "shots")
    builds = count["vqls.ansatz_state_vector"]
    shots_evals = count["vqls.ansatz_ops"]
    evals = builds - len(solves) + shots_evals

    m = {
        "vqls.solve_s": busy["vqls.solve"],
        "vqls.state_builds": builds,
        "vqls.state_build_us": mean("vqls.ansatz_state_vector", 1e6),
        "vqls.restarts": restarts,
        "vqls.evals_per_restart": evals / restarts if restarts else 0.0,
        "vqls.shots_evals": shots_evals,
        "vqls.shots_eval_ms": shots_solve_s / shots_evals * 1e3 if shots_evals else 0.0,
        "sim.hadamard_tests": count["sim.hadamard_test"],
        "sim.hadamard_test_ms": mean("sim.hadamard_test", 1e3),
        "sim.gates": count["sim.apply_gate"],
        "sim.gate_us": mean("sim.apply_gate", 1e6),
        "sim.encode_ms": busy["sim.amplitude_encode"] * 1e3,
    }

    decomposed = defaultdict(list)
    for d, (dim, terms) in notes_of("decomp.pauli_decompose"):
        decomposed[dim].append((d, terms))
    for k in (16, 32, 64):
        calls = decomposed.get(k, [])
        m[f"decomp.decompose_ms.K{k}"] = (
            sum(d for d, _ in calls) / len(calls) * 1e3 if calls else 0.0)
        m[f"decomp.terms.K{k}"] = calls[-1][1] if calls else 0

    recovered = defaultdict(list)
    for d, (mode, dim) in notes_of("readout.recover_estimates"):
        recovered[(mode, dim)].append(d)
    for mode in ("exact", "shots"):
        for k in (16, 32):
            calls = recovered.get((mode, k), [])
            m[f"readout.recover_ms.{mode}.K{k}"] = sum(calls) / len(calls) * 1e3 if calls else 0.0

    m["oracle.fit_classical_us"] = mean("oracle.fit_classical", 1e6)
    floors = defaultdict(float)
    for _, (knots, nrmse) in notes_of("oracle.fit_classical"):
        floors[knots] = max(floors[knots], nrmse or 0.0)
    for k in (2, 4, 8, 16, 32, 64):
        m[f"oracle.floor.K{k}"] = floors.get(k, 0.0)

    fit_self = sum(d - children[sid] for sid, (n, d, _) in annotated.items()
                   if n == "pipeline.fit")
    m["pipeline.fit_s"] = busy["pipeline.fit"]
    m["pipeline.self_s"] = fit_self
    m["report.write_ms"] = (busy["report.csv_text"] + busy["report.json_text"]) * 1e3
    return m
