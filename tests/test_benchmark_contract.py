"""The benchmark must keep seeing the functions it traces and passing its checks.

``perfbench/tracer.py`` names each traced function by module and attribute.
A rename in qspline would leave that function untraced and its per-layer
metrics silently at zero, so every name must resolve to a callable.

``perfbench/workloads.py`` checks every outcome of a timed pass (the NRMSE
bands, the classical floor, the CSV schema, ...).  One pass of each workload
runs here, so a change that breaks those checks fails the test suite, not
only the benchmark run.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py`` as a standalone module, without editing it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_qspline():
    names = [(module_name, attr) for module_name, attr, _ in _load("tracer").TRACED]
    assert names
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("workload", ["bench16", "shots4", "knots"])
def test_one_pass_of_each_workload_passes_its_checks(workload, tmp_path):
    workloads = _load("workloads")
    failed = []
    for op in workloads.pass_ops(workload, 42, 42):
        _, outcomes = workloads.run_operation(op, str(tmp_path), time.perf_counter)
        assert [o.name for o in outcomes] == list(op.names)
        failed += [f"{o.name}: {o.reason}" for o in outcomes if not o.ok]
    # K = 64 fails on purpose (cond(S) = 2.5e18); nothing else may fail
    expected = sorted(workloads.KNOWN_DEFECTS) if workload == "knots" else []
    assert sorted(name.split(":")[0] for name in failed) == expected, failed
