"""The benchmark's per-layer view must keep seeing the functions it traces.

``perfbench/tracer.py`` names each traced function by module and attribute.
A rename in qspline would leave that function untraced and its per-layer
metrics silently at zero, so every name must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _ in module.TRACED]


def test_every_traced_function_resolves_in_qspline():
    names = _traced_names()
    assert names
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
