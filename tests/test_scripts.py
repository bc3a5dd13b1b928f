"""Scripts end in a table row per input and an exit code, never a traceback."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_sweep_reports_a_failed_knot_count_and_goes_on():
    # cond(S) is about 2.5e18 at K=64, so that fit raises before optimizing
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "sweep_knots.py"), "--knots", "64", "2"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert run.returncode == 2
    assert run.stderr == ""
    rows = run.stdout.splitlines()
    assert rows[0].split() == ["knots", "qubits", "nrmse", "classical", "cost", "time"]
    assert rows[1].split() == ["64", "6", "failed:", "system", "matrix", "is", "singular"]
    assert rows[2].split()[:2] == ["2", "1"] and len(rows) == 3
