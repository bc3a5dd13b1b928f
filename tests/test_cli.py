"""Command-line behavior: files, formats, exit codes, option precedence."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspline import bspline, cli, oracle, pipeline, vqls
from qspline.functions import TARGETS
from qspline.report import CSV_HEADER, SUCCESS_NRMSE, format_number


def test_number_format_uses_twelve_significant_digits():
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(1.0) == "1"
    assert format_number(-2.5e-13) == "-2.5e-13"


def test_fit_writes_schema_exact_csv(tmp_path):
    rc = cli.main(["fit", "--function", "sin", "--knots", "4",
                   "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "fit_sin_K4_seed42.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "x,y_target,y_estimate"
    assert len(lines) == 5  # header + one row per knot
    for line in lines[1:]:
        assert len(line.split(",")) == 3


def test_fit_is_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fit", "--function", "relu", "--knots", "8",
                     "--out", str(a_dir)]) == 0
    assert cli.main(["fit", "--function", "relu", "--knots", "8",
                     "--out", str(b_dir)]) == 0
    a = (a_dir / "fit_relu_K8_seed42.csv").read_bytes()
    b = (b_dir / "fit_relu_K8_seed42.csv").read_bytes()
    assert a == b


def test_fit_report_sidecar_replays_configuration(tmp_path):
    rc = cli.main(["fit", "--function", "elu", "--knots", "4", "--seed", "3",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_elu_K4_seed3.json").read_text())
    assert payload["seed"] == 3
    assert payload["ansatz"]["kind"] == "tree"
    assert payload["optimizer"]["restarts"] == 5
    est = np.array(payload["y_estimate"])
    tgt = np.array(payload["y_target"])
    recomputed = float(np.sqrt(np.mean((est - tgt) ** 2)) / (tgt.max() - tgt.min()))
    assert recomputed == pytest.approx(payload["nrmse"], abs=1e-12)


@pytest.mark.parametrize("report", [
    lambda: oracle.fit_classical("sin", 4),
    lambda: pipeline.fit(pipeline.FitConfig(function="sin", knots=4, restarts=1)),
    lambda: pipeline.fit(pipeline.FitConfig(function="sin", knots=2, mode="shots",
                                            shots=1000, restarts=1, max_iter=2)),
], ids=["classical", "exact", "shots"])
def test_sidecar_is_the_text_of_a_deep_copy_of_the_report(report):
    # json_text serializes the report's own fields without copying them
    rep = report()
    payload = dataclasses.asdict(rep)
    payload["domain"] = list(rep.domain)
    assert rep.json_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", ["classical", "exact"])
def test_a_report_scores_its_own_columns_again_when_replaced(mode):
    classical = oracle.fit_classical("sin", 4)
    target = np.array(classical.y_target)  # min-max normalized: its range is 1
    for shift, converged in ((0.029, True), (0.031, False)):
        rep = dataclasses.replace(classical, mode=mode, y_estimate=list(target + shift))
        assert rep.nrmse == pytest.approx(shift, rel=1e-12)
        assert rep.mean_bias == pytest.approx(shift, rel=1e-12)
        assert rep.converged is converged
        # a classical report is its own floor; a quantum one keeps the floor it came from
        assert rep.classical_nrmse == (rep.nrmse if mode == "classical" else classical.nrmse)
        assert json.loads(rep.json_text())["converged"] is converged


def test_a_report_counts_its_solve_from_its_restart_records():
    classical = oracle.fit_classical("sin", 4)
    assert classical.restarts_used == 0
    assert classical.final_cost is None and classical.evaluations is None
    records = [{"final_cost": 0.5, "cost_rows": 9, "gradients": 3, "stop_reason": "max_iter"},
               {"final_cost": 0.25, "cost_rows": 7, "gradients": 2, "stop_reason": "no descent"}]
    rep = dataclasses.replace(classical, mode="exact", restarts=records, cost_trace=[0.75, 0.25])
    assert rep.restarts_used == 2
    assert rep.final_cost == 0.25
    assert rep.evaluations == {"cost_rows": 16, "gradients": 5}
    assert json.loads(rep.json_text())["degree"] == rep.degree == 1
    # derived, so no caller can set them
    fields = {f.name: f for f in dataclasses.fields(rep)}
    for name in ("restarts_used", "final_cost", "evaluations", "degree"):
        assert not fields[name].init
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(rep, **{name: 1})


def test_layered_fit_sidecar_reports_the_derived_depth(tmp_path):
    rc = cli.main(["fit", "--function", "sin", "--knots", "8", "--ansatz", "layered",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_sin_K8_seed42.json").read_text())
    assert payload["ansatz"] == {"kind": "layered", "n_qubits": 3, "layers": 4,
                                 "entangler": "brick-cz", "n_params": 15}


def test_sidecar_counts_evaluations_and_records_the_condition_number(tmp_path):
    # the README's capped shots fit: --max-iter bounds Jacobians, not evaluations.
    # Its one Jacobian samples the 2P = 6 shifted points of the tree, and the
    # restart's start and one accepted trial are the other two rows
    flags = ["fit", "--function", "sin", "--knots", "4", "--mode", "shots",
             "--shots", "50000", "--restarts", "1", "--max-iter", "1", "--seed", "1"]
    payloads = []
    for run in ("a", "b"):
        assert cli.main([*flags, "--out", str(tmp_path / run)]) == 2
        payloads.append(json.loads((tmp_path / run / "fit_sin_K4_seed1.json").read_text()))
    first, again = payloads
    assert first["evaluations"] == {"cost_rows": 8, "gradients": 1}
    assert again["evaluations"] == first["evaluations"]
    # both modes run one loop, and neither takes a finite-difference step
    assert first["optimizer"] == {"name": "levenberg-marquardt", "max_iter": 1, "restarts": 1}
    system, _ = pipeline.build_system(4)
    assert first["condition_number"] == float(np.linalg.cond(system.entries))
    # the solver sees the equilibrated system R S D
    r, c = bspline.bidiagonal_scaling(system)
    scaled = r[:, None] * system.entries * c
    assert first["solved_condition_number"] == float(np.linalg.cond(scaled))

    assert cli.main(["fit", "--function", "sin", "--knots", "4", "--classical-only",
                     "--out", str(tmp_path / "c")]) == 0
    classical = json.loads((tmp_path / "c" / "fit_sin_K4_seednone.json").read_text())
    assert classical["evaluations"] is None
    assert classical["condition_number"] is None
    assert classical["solved_condition_number"] is None


def test_sidecar_lists_each_restart_and_times_the_stages(tmp_path):
    # one Jacobian keeps every restart above STOP_COST, so all five run
    flags = ["fit", "--function", "elu", "--knots", "8", "--max-iter", "1"]
    payloads = []
    for run in ("a", "b"):
        assert cli.main([*flags, "--out", str(tmp_path / run)]) == 2
        payloads.append(json.loads((tmp_path / run / "fit_elu_K8_seed42.json").read_text()))
    first, again = payloads
    restarts = first["restarts"]
    assert len(restarts) == first["restarts_used"] == 5
    for key in ("cost_rows", "gradients"):
        assert sum(r[key] for r in restarts) == first["evaluations"][key]
    assert first["final_cost"] == min(r["final_cost"] for r in restarts)
    # one Jacobian per restart, counted under gradients: each restart ran out
    # of them
    assert [r["stop_reason"] for r in restarts] == ["max_iter"] * 5
    assert [r["gradients"] for r in restarts] == [1] * 5
    trace = first["cost_trace"]
    assert trace[-1] == first["final_cost"]
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    assert first["optimizer"] == {"name": "levenberg-marquardt", "max_iter": 1, "restarts": 5}
    assert again["restarts"] == restarts
    assert set(first["timings"]) == {"solve_s", "readout_s", "classical_s"}
    assert all(seconds >= 0.0 for seconds in first["timings"].values())
    # the fit's wall time spans every stage, the classical fit included
    assert first["wall_seconds"] >= sum(first["timings"].values())
    # rng names the restart streams, the shot noise they draw and the readout's
    assert first["rng"].startswith(vqls.SEEDING) and "(seed, 1 << 20)" in first["rng"]

    assert cli.main(["fit", "--function", "elu", "--knots", "8", "--classical-only",
                     "--out", str(tmp_path / "c")]) == 0
    classical = json.loads((tmp_path / "c" / "fit_elu_K8_seednone.json").read_text())
    assert classical["restarts"] is None
    assert classical["timings"] is None
    assert classical["cost_trace"] is None


def test_restarts_record_why_each_one_stopped(tmp_path):
    assert cli.main(["fit", "--function", "sin", "--knots", "8", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_sin_K8_seed42.json").read_text())
    # the first restart ends at the cost's rounding floor, len(f) eps^2, far
    # below STOP_COST, which ends the solve
    assert [r["stop_reason"] for r in payload["restarts"]] == ["floor"]
    assert payload["final_cost"] <= vqls.STOP_COST


@pytest.mark.parametrize("knots, seed", [(4, 1), (8, 6)])
def test_an_exact_fit_stops_at_the_cost_rounding_floor(tmp_path, knots, seed):
    # these first restarts reach cost ~5e-32 within a few Jacobians; below
    # the floor a trial can still lower the cost by a rounding, so a loop
    # with no floor stop runs them to max_iter, about 27 930 cost rows
    assert cli.main(["fit", "--function", "sin", "--knots", str(knots), "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"fit_sin_K{knots}_seed{seed}.json").read_text())
    first = payload["restarts"][0]
    assert first["stop_reason"] == "floor" and first["cost_rows"] < 100
    assert first["final_cost"] <= knots * np.finfo(float).eps ** 2
    assert payload["restarts_used"] == 1 and payload["nrmse"] < 1e-15


@pytest.mark.parametrize("flags, nrmse", [
    # at K=2 every target normalizes to (0, 1), and one restart of one
    # Jacobian ends each fit at cost 0.083
    ((), "2.055e-01"),
    # the readout's three shots read -1/3 where each target is 0
    (("--mode", "shots", "--shots", "3"), "2.357e-01"),
], ids=["exact", "shots"])
def test_bench_reports_each_unconverged_fit_and_exits_2(tmp_path, capsys, flags, nrmse):
    rc = cli.main(["bench", "--knots", "2", "--max-iter", "1", "--restarts", "1", *flags,
                   "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {name} fit NRMSE {nrmse} is above 0.03; best effort written"
        for name in cli.BENCH_ORDER
    ]
    for name in cli.BENCH_ORDER:
        payload = json.loads((tmp_path / f"fit_{name}_K2_seed42.json").read_text())
        assert payload["converged"] is False
        assert payload["nrmse"] > SUCCESS_NRMSE
        assert (tmp_path / f"fit_{name}_K2_seed42.csv").exists()
    summary = (tmp_path / "bench_K2_seed42.csv").read_text().splitlines()
    assert summary[-1].startswith("vqls,2,")


def test_a_sampled_cost_of_0_does_not_pass_a_fit(tmp_path, capsys):
    # at two shots the first row's overlap draws exactly 0 in about half the
    # points, and at K = 2 the sampled psi is then parallel to the target
    # (0, 1): the one restart reads a cost of exactly 0 while the fit is far
    # off, and the report's own error is the verdict
    assert cli.main(["fit", "--function", "sin", "--knots", "2", "--mode", "shots",
                     "--shots", "2", "--restarts", "1", "--seed", "6",
                     "--out", str(tmp_path)]) == 2
    payload = json.loads((tmp_path / "fit_sin_K2_seed6.json").read_text())
    assert payload["final_cost"] == 0.0
    assert payload["restarts"][0]["stop_reason"] == "floor"
    assert payload["converged"] is False and payload["nrmse"] > SUCCESS_NRMSE
    assert capsys.readouterr().err == (
        "warning: sin fit NRMSE 7.071e-01 is above 0.03; best effort written\n")


def test_a_sampled_psi_of_0_ends_in_a_result(tmp_path, capsys):
    # at two shots all K overlaps of a point can draw 0 at once; such a point
    # costs 1, and as a restart's start it ends that restart on no descent,
    # which seeds 2, 3, 9, 10, 11, 13, 14 and 17 meet
    stops = []
    for seed in range(20):
        rc = cli.main(["fit", "--function", "sin", "--knots", "2", "--mode", "shots",
                       "--shots", "2", "--seed", str(seed), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err
        payload = json.loads((tmp_path / f"fit_sin_K2_seed{seed}.json").read_text())
        stops += [(r["stop_reason"], r["final_cost"], r["cost_rows"]) for r in payload["restarts"]]
    # the start point and the Jacobian's two shifted points, and no trial
    assert stops.count(("no descent", 1.0, 3)) >= 8


def test_bench_at_seed_7_converges_for_every_function(tmp_path, capsys):
    # relu at seed 7 used to stall at cost 2.4e-3 in all five restarts
    assert cli.main(["bench", "--knots", "16", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert "warning:" not in capsys.readouterr().err


def _fresh_interpreter_env() -> dict:
    """Environment of a fresh interpreter that imports this checkout's qspline."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_fits_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency; a fresh interpreter that runs
    # both modes must never load scipy
    script = (
        "import os, sys\n"
        "import qspline, qspline.cli\n"
        "for mode in ('exact', 'shots'):\n"
        "    rc = qspline.cli.main(['fit', '--function', 'sin', '--knots', '4', '--mode', mode,\n"
        f"                           '--out', os.path.join({str(tmp_path)!r}, mode)])\n"
        "    assert rc in (0, 2), rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_fresh_interpreter_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    for mode in ("exact", "shots"):
        assert (tmp_path / mode / "fit_sin_K4_seed42.csv").exists()


def test_the_first_fit_imports_numpy_random_outside_its_solve_clock():
    # numpy loads numpy.random on first use; the readout seed's draw takes
    # that import before the solve is timed, so timings.solve_s leaves it out
    script = (
        "import sys\n"
        "from qspline import pipeline, vqls\n"
        "entered, solve = [], vqls.solve\n"
        "def watched(*args, **kwargs):\n"
        "    entered.append('numpy.random' in sys.modules)\n"
        "    return solve(*args, **kwargs)\n"
        "vqls.solve = watched\n"
        "pipeline.fit(pipeline.FitConfig(function='sin', knots=2))\n"
        "print(entered)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_fresh_interpreter_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[True]"


_VOLATILE = ("wall_seconds", "timings")


def test_each_file_bench_writes_is_what_pipeline_fit_reports(tmp_path, capsys):
    assert cli.main(["bench", "--knots", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    for name in cli.BENCH_ORDER:
        rep = pipeline.fit(pipeline.FitConfig(function=name, knots=4))
        stem = tmp_path / rep.stem()
        assert stem.with_suffix(".csv").read_text() == rep.csv_text()
        written = json.loads(stem.with_suffix(".json").read_text())
        expected = json.loads(rep.json_text())
        for key in _VOLATILE:
            written.pop(key), expected.pop(key)
        assert written == expected


def test_bench_reports_each_failed_fit_in_order(tmp_path, capsys):
    # cond(S) is about 2.5e18 at K=64, so every fit raises before optimizing
    assert cli.main(["bench", "--knots", "64", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"{name}: fit failed: system matrix is singular"
                                for name in cli.BENCH_ORDER]
    summary = (tmp_path / "bench_K64_seed42.csv").read_text().splitlines()
    assert summary[-1] == "vqls,64,nan,nan,nan,nan"
    assert [p.name for p in tmp_path.iterdir()] == ["bench_K64_seed42.csv"]
    # the classical floors do not depend on the failed quantum fits
    floors = tmp_path / "classical-only"
    # they are out of band for elu, relu and sin, so that bench exits 2 too
    assert cli.main(["bench", "--classical-only", "--knots", "64", "--out", str(floors)]) == 2
    assert summary[2] == (floors / "bench_K64_seed42.csv").read_text().splitlines()[2]


def test_fit_svg_is_well_formed(tmp_path):
    rc = cli.main(["fit", "--function", "sigmoid", "--knots", "4", "--svg",
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = xml.dom.minidom.parse(str(tmp_path / "fit_sigmoid_K4_seed42.svg"))
    assert doc.documentElement.tagName == "svg"
    assert len(doc.getElementsByTagName("polyline")) == 1
    assert len(doc.getElementsByTagName("circle")) == 5  # 4 points + legend marker


def test_fit_classical_only_hits_the_floor(tmp_path, capsys):
    rc = cli.main(["fit", "--function", "sigmoid", "--knots", "16",
                   "--classical-only", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=classical" in out


def test_shots_mode_runs_quickly_on_the_smallest_grid(tmp_path):
    rc = cli.main(["fit", "--function", "sin", "--knots", "2", "--mode", "shots",
                   "--shots", "400", "--restarts", "1", "--max-iter", "15",
                   "--out", str(tmp_path)])
    assert rc in (0, 2)
    lines = (tmp_path / "fit_sin_K2_seed42.csv").read_text().splitlines()
    assert len(lines) == 3


def test_singular_system_fit_fails_with_one_line_and_no_files(tmp_path, capsys):
    # cond(S) is about 2.5e18 at K=64, so the solver refuses before optimizing;
    # the per-K system is cached, but a refusal is not, so every call refuses
    for _ in range(3):
        rc = cli.main(["fit", "--function", "sin", "--knots", "64",
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "singular" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_missing_function_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["fit", "--out", str(tmp_path)])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(("argv", "code"), [
    (["decompose", "--block", "0.5", "0.3"], 0),
    (["fit"], 1),
])
def test_console_script_exits_with_the_code_of_main(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qspline", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == code


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["decompose", "--block", "0.5", "0.3"]) == 0
    assert built.count("qspline") == 1


def test_bad_knot_count_is_a_usage_error(tmp_path):
    assert cli.main(["fit", "--function", "sin", "--knots", "13",
                     "--out", str(tmp_path)]) == 1
    assert cli.main(["fit", "--function", "sin", "--knots", "128",
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["fit", "bench"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--shots", "0"],
        ["--shots", "-5"],
        ["--restarts", "0"],
        ["--max-iter", "0"],
        ["--seed", "-1"],
        ["--ansatz", "layered", "--layers", "2"],  # the depth follows from K
        ["--mode", "shots", "--shots", str(2**64)],  # beyond the sampler's C long
        ["--degree", "1"],  # every spline is degree 1
        ["--classical-only", "--restarts", "0"],  # checked even when no solve runs
    ],
)
def test_bad_fit_settings_are_usage_errors(tmp_path, capsys, command, flags):
    source = ["--function", "sin"] if command == "fit" else []
    rc = cli.main([command, *source, "--knots", "2", *flags, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, config, env",
                         [("fit", "ansatz=brick", None), ("fit", "layers=2", None),
                          ("fit", "degree=1", None), ("fit", "seed=-1", None),
                          ("fit", "", "-1"), ("fit", "mode=classical", None),
                          ("fit", "out=a\0b", None), ("bench", "out=a\0b", None)],
                         ids=["ansatz-word", "layers-key", "degree-key", "seed-config",
                              "seed-env", "mode-classical", "out-nul-fit", "out-nul-bench"])
def test_bad_settings_from_a_file_or_the_environment_are_usage_errors(
        tmp_path, capsys, monkeypatch, command, config, env):
    if env is None:
        monkeypatch.delenv("QSPLINE_SEED", raising=False)
    else:
        monkeypatch.setenv("QSPLINE_SEED", env)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    source = ["--function", "sin"] if command == "fit" else []
    # an --out flag would win over the file's out
    out = [] if config.startswith("out=") else ["--out", "out"]
    rc = cli.main([command, *source, "--knots", "2", "--config", str(cfg), *out])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error:") and "Traceback" not in "\n".join(err)
    assert sum(line.startswith("error:") for line in err) == 1
    # refused before any fit, so nothing was written
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_unwritable_output_is_an_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = cli.main(["fit", "--function", "sin", "--knots", "2",
                   "--out", str(blocker / "sub")])
    assert rc == 3


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("QSPLINE_SEED", "99")
    rc = cli.main(["fit", "--function", "sin", "--knots", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fit_sin_K4_seed99.csv").exists()


def test_flag_beats_config_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("QSPLINE_SEED", "99")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function=sin\nknots=4\nseed=7  # inline comment\n")
    rc = cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fit_sin_K4_seed7.csv").exists()
    rc = cli.main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fit_sin_K4_seed5.csv").exists()


def test_malformed_config_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("function sin\n")
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    cfg.write_text("knottts=4\n")
    assert cli.main(["fit", "--function", "sin", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


def test_an_unknown_config_key_names_its_file(tmp_path, capsys):
    # argparse would read knot=4 as --knots=4, so the key is refused by name
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function=sin\nknot=4\n")
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {cfg}: unknown config keys: knot"
    assert sum(line.startswith("error:") for line in err) == 1
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path):
    # a fresh interpreter, so an escaping UnicodeDecodeError would show as
    # a traceback on stderr
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xff\xfe\n")
    run = subprocess.run([sys.executable, "-m", "qspline", "fit", "--function", "sin",
                          "--config", str(cfg), "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=_fresh_interpreter_env(),
                         timeout=120)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    err = run.stderr.splitlines()
    assert err[0].startswith(f"error: cannot read config file {cfg}:")
    assert sum(line.startswith("error:") for line in err) == 1
    assert err[1].startswith("usage: qspline")
    assert not (tmp_path / "out").exists()


def test_config_with_a_byte_order_mark_fits(tmp_path, capsys):
    # Windows editors start a UTF-8 file with a byte-order mark
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xef\xbb\xbffunction=sin\nknots=2\n")
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fit_sin_K2_seed42.csv").exists()
    assert capsys.readouterr().err == ""


def test_a_bad_value_reads_alike_from_a_flag_a_file_or_the_environment(
        tmp_path, capsys, monkeypatch):
    # one parser checks all three sources, and the message names the source
    cfg = tmp_path / "run.cfg"
    errors = {}
    for source, flags, line, env in [("flag", ["--knots", "x"], "", None),
                                     ("file", [], "knots=x", None),
                                     ("QSPLINE_SEED", ["--knots", "2"], "", "x")]:
        cfg.write_text(line + "\n")
        if env is None:
            monkeypatch.delenv("QSPLINE_SEED", raising=False)
        else:
            monkeypatch.setenv("QSPLINE_SEED", env)
        rc = cli.main(["fit", "--function", "sin", *flags, "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert "Traceback" not in "\n".join(err)
        assert sum(line.startswith("error:") for line in err) == 1
        errors[source] = err[0]
    assert errors == {
        "flag": "error: argument --knots: invalid int value: 'x'",
        "file": f"error: {cfg}: argument --knots: invalid int value: 'x'",
        "QSPLINE_SEED": "error: QSPLINE_SEED: argument --seed: invalid int value: 'x'",
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["knots=x", "svg=maybe", "mode=classical"])
def test_a_config_file_is_checked_whole_even_where_a_flag_wins(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"function=sin\n{line}\n")
    rc = cli.main(["fit", "--knots", "4", "--svg", "--mode", "exact",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: {cfg}: argument --")
    assert not (tmp_path / "out").exists()


def test_bench_classical_only_table_and_summary(tmp_path, capsys):
    rc = cli.main(["bench", "--classical-only", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Model" in out and "Sigmoid" in out
    assert "0.4874" in out and "0.5240" in out and "0.1589" in out
    summary = (tmp_path / "bench_K16_seed42.csv").read_text().splitlines()
    assert summary[0] == "model,knots,elu,relu,sigmoid,sin"
    classical = summary[2].split(",")
    assert classical[0] == "classical"
    assert all(float(v) < 1e-10 for v in classical[2:])


@pytest.mark.parametrize("knots", [
    pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason="cond(S) = 2.5e18: floors 5.4e-2, 3.4e-2, 3.5e-3, 3.3e-1"))
    if k == 64 else k
    for k in pipeline._ALLOWED_KNOTS
])
def test_bench_classical_floor_holds_at_every_allowed_knot_count(tmp_path, capsys, knots):
    rc = cli.main(["bench", "--classical-only", "--knots", str(knots), "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / f"bench_K{knots}_seed42.csv").read_text().splitlines()
    classical = summary[2].split(",")
    assert classical[:2] == ["classical", str(knots)]
    assert all(float(v) < 1e-10 for v in classical[2:])


def test_decompose_block_prints_terms_and_error(capsys):
    rc = cli.main(["decompose", "--block", "0.5", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I" in out and "X" in out and "Z" in out and "Ry(3pi)" in out
    assert "0.6" in out and "0.25" in out and "-0.1" in out
    assert "terms: 4" in out
    assert "max reconstruction error" in out


def test_decompose_function_matrix(capsys):
    rc = cli.main(["decompose", "--function", "sigmoid", "--knots", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "terms: 12" in out


def test_decompose_takes_no_seed(capsys, monkeypatch):
    # decompose draws nothing at random: it neither reads QSPLINE_SEED nor takes --seed
    monkeypatch.setenv("QSPLINE_SEED", "x")
    assert cli.main(["decompose", "--block", "0.5", "0.3"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.delenv("QSPLINE_SEED")
    assert cli.main(["decompose", "--seed", "5", "--block", "0.5", "0.3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: unrecognized arguments: --seed 5"
    assert sum(line.startswith("error:") for line in err) == 1


@pytest.mark.parametrize("line", ["seed=5", "seed=x", "mode=shots", "shots=100"])
def test_decompose_refuses_a_config_key_it_does_not_take(tmp_path, capsys, line):
    # a config file is read as the command's own flags, so a key decompose
    # takes no flag for is refused as that flag would be, naming the file
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"function=sin\nknots=4\n{line}\n")
    assert cli.main(["decompose", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0] == f"error: {cfg}: unrecognized arguments: --{line}"
    assert sum(s.startswith("error:") for s in err) == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_decompose_reads_function_knots_and_out_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"function=sigmoid\nknots=4\nout={tmp_path / 'out'}\n")
    assert cli.main(["decompose", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert cli.main(["decompose", "--function", "sigmoid", "--knots", "4"]) == 0
    assert captured.out == capsys.readouterr().out and "terms: 12" in captured.out
    assert captured.err == ""


def test_decompose_requires_one_source(capsys):
    assert cli.main(["decompose"]) == 1
    assert cli.main(["decompose", "--block", "0.1", "0.2",
                     "--function", "sin"]) == 1


def test_unknown_command_is_a_usage_error():
    assert cli.main(["transmogrify"]) == 1


_INT_KEYS = ("knots", "shots", "restarts", "max_iter", "seed")
_CHOICE_KEYS = {"function": sorted(TARGETS), "mode": ["exact", "shots"],
                "ansatz": ["tree", "layered"]}
_BOOL_KEYS = ("svg", "classical_only")


@st.composite
def _sources(draw):
    """For every ``fit`` key: an optional flag value, an optional config-file
    word (with the value it means), and for the seed an optional env value."""
    plan = {}
    for key in cli._DEFAULTS:
        if key in _INT_KEYS:
            value = st.integers(-10**6, 10**6)
            flag = draw(st.none() | value)
            word = draw(st.none() | value.map(str))
            meant = None if word is None else int(word)
        elif key in _BOOL_KEYS:
            flag = draw(st.none() | st.just(True))  # store_const flags only set True
            word = draw(st.none() | st.sampled_from(sorted(cli._BOOL_WORDS)))
            meant = None if word is None else cli._BOOL_WORDS[word]
        else:
            value = (st.sampled_from(_CHOICE_KEYS[key]) if key in _CHOICE_KEYS
                     else st.text("abcxyz_/", min_size=1, max_size=8))
            flag = draw(st.none() | value)
            word = meant = draw(st.none() | value)
        env = draw(st.none() | st.integers(-10**6, 10**6)) if key == "seed" else None
        plan[key] = (flag, word, meant, env)
    return plan


@settings(max_examples=150, deadline=None)
@given(_sources())
def test_resolve_prefers_flag_then_config_then_environment_then_default(plan):
    argv, lines, expected = ["fit"], [], {}
    for key, (flag, word, meant, env) in plan.items():
        option = "--" + key.replace("_", "-")
        if flag is True and key in _BOOL_KEYS:
            argv.append(option)
        elif flag is not None:
            argv.append(f"{option}={flag}")
        if word is not None:
            lines.append(f"{key}={word}")
        for candidate in (flag, meant, env):
            if candidate is not None:
                expected[key] = candidate
                break
        else:
            expected[key] = cli._DEFAULTS[key]

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        env = plan["seed"][3]
        if env is None:
            mp.delenv("QSPLINE_SEED", raising=False)
        else:
            mp.setenv("QSPLINE_SEED", str(env))
        args = cli.build_parser().parse_args([*argv, "--config", path])
        assert cli._resolve(args) == expected
