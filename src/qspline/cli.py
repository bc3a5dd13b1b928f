"""Command-line interface: fit one function, run the benchmark table, or
inspect matrix decompositions.

Exit codes: 0 success, 1 bad arguments, 2 a fit whose NRMSE is above 0.03
(the best effort is still written) or that failed and wrote nothing, 3 file
I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import oracle, pipeline, svg, vqls
from .bspline import build_system
from .decomp import decompose_block, pauli_decompose, reconstruct
from .functions import TARGETS
from .report import SUCCESS_NRMSE, FitReport, format_number

__all__ = ["main", "entry", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3

BENCH_ORDER = ("elu", "relu", "sigmoid", "sin")


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the values a flag or a config file may give each choice setting; a classical
# fit is asked for with --classical-only, so "classical" is not a mode here
_CHOICES = {
    "function": tuple(sorted(TARGETS)),
    "mode": vqls.MODES,
    "ansatz": vqls.KINDS,
}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="qspline", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory (default: .)")
        p.add_argument("--config", default=None,
                       help="flat key=value file; explicit flags win")

    def add_fit_settings(p):
        p.add_argument("--knots", type=int, default=None, help="K, power of two in 2..64")
        p.add_argument("--mode", choices=_CHOICES["mode"], default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--ansatz", choices=_CHOICES["ansatz"], default=None)
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                       help="cap on the Jacobians of every restart; it does not "
                       "cap cost evaluations")
        p.add_argument("--svg", action="store_const", const=True, default=None,
                       help="also write an SVG plot")
        p.add_argument("--classical-only", action="store_const", const=True,
                       default=None, dest="classical_only",
                       help="skip the quantum solve; exact classical fit only")
        p.add_argument("--seed", type=int, default=None,
                       help=f"run seed (default: QSPLINE_SEED env or {pipeline.FitConfig.seed})")
        add_common(p)

    fit = sub.add_parser("fit", help="fit one target function")
    fit.add_argument("--function", choices=_CHOICES["function"], default=None)
    add_fit_settings(fit)

    bench = sub.add_parser("bench", help="run all four functions and print the table")
    add_fit_settings(bench)

    dec = sub.add_parser("decompose", help="print an LCU term list")
    dec.add_argument("--block", nargs=2, type=float, metavar=("A", "B"), default=None,
                     help="decompose the 2x2 block [[1-a,a],[0,1-b]]")
    dec.add_argument("--function", choices=_CHOICES["function"], default=None)
    dec.add_argument("--knots", type=int, default=None)
    add_common(dec)

    return parser


# ----------------------------------------------------------------------------
# option resolution: flag > config file > environment (seed only) > default
# ----------------------------------------------------------------------------

_FIT_FIELDS = dataclasses.fields(pipeline.FitConfig)

# fit settings default as in pipeline.FitConfig, but the CLI asks for --function
_DEFAULTS = {
    **{f.name: f.default for f in _FIT_FIELDS},
    "function": None,
    "svg": False,
    "classical_only": False,
    "out": ".",
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_flags(path: str) -> list[str]:
    """A config file's settings as the flags they stand for: the line
    ``key=value`` is ``--key=value``, and a boolean key's true word its bare flag."""
    values = {}
    try:
        # utf-8-sig: a byte-order mark, as Windows editors write, is not part of a key
        with open(path, "r", encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    # checked here, since argparse would read a prefix such as knot=4 as --knots
    unknown = set(values) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        word = _BOOL_WORDS.get(value.lower()) if key in ("svg", "classical_only") else None
        if word is None:
            flags.append(f"{flag}={value}")  # the parser refuses a bad boolean word
        elif word:
            flags.append(flag)
    return flags


def _parse_as(command: str, source: str, flags: list[str]) -> argparse.Namespace:
    """``flags`` read by ``command``'s own parser, an error naming ``source``."""
    try:
        return build_parser().parse_args([command, *flags])
    except UsageError as exc:
        raise UsageError(f"{source}: {exc}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    sources = [args]
    if args.config:
        sources.append(_parse_as(args.command, args.config, _config_flags(args.config)))
    env = os.environ.get("QSPLINE_SEED")
    if env is not None and "seed" in vars(args) and all(s.seed is None for s in sources):
        sources.append(_parse_as(args.command, "QSPLINE_SEED", [f"--seed={env}"]))
    settings = {}
    for key, default in _DEFAULTS.items():
        given = (getattr(source, key, None) for source in sources)
        settings[key] = next((value for value in given if value is not None), default)
    if "\0" in settings["out"]:
        raise UsageError(f"output directory {settings['out']!r} holds a NUL byte")
    if not settings["out"]:
        raise UsageError("output directory is empty")
    return settings


def _fit_config(settings: dict) -> pipeline.FitConfig:
    if settings["function"] is None:
        raise UsageError("--function is required (sigmoid, relu, elu, or sin)")
    fit = {f.name: settings[f.name] for f in _FIT_FIELDS}
    if settings["classical_only"]:
        fit["mode"] = "classical"
    try:
        return pipeline.FitConfig(**fit)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_outputs(rep: FitReport, out_dir: str, want_svg: bool) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, rep.stem())
    with open(stem + ".csv", "w", encoding="utf-8") as handle:
        handle.write(rep.csv_text())
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        handle.write(rep.json_text())
    if want_svg:
        svg.write_svg(rep, stem + ".svg")
    return stem


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def cmd_fit(settings: dict) -> int:
    config = _fit_config(settings)
    try:
        rep = pipeline.fit(config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {config.function} fit failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    stem = _write_outputs(rep, settings["out"], settings["svg"])
    cost = "" if rep.final_cost is None else f"  cost {rep.final_cost:.3e}"
    print(f"{rep.function} K={rep.knots} mode={rep.mode}  NRMSE {rep.nrmse:.6e}{cost}")
    print(f"wrote {stem}.csv")
    return _verdict(rep)


def _verdict(rep: FitReport) -> int:
    """Exit code of a written fit: 2, with a warning, if it scored out of band."""
    if rep.converged:
        return EXIT_OK
    print(f"warning: {rep.function} fit NRMSE {rep.nrmse:.3e} is above {SUCCESS_NRMSE}; "
          "best effort written", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _table_row(model: str, knots, cells: list[str]) -> str:
    return f"{model:<20} {str(knots):>5}  " + "  ".join(f"{c:>10}" for c in cells)


def cmd_bench(settings: dict) -> int:
    """Fit every function of ``BENCH_ORDER`` in turn, then write the table
    and files.  A fit that fails (a ``fit failed`` line and a ``nan`` cell)
    or scores out of band (a ``warning:`` line, its best effort written)
    makes the exit code 2."""
    reports: dict[str, FitReport | None] = dict.fromkeys(BENCH_ORDER)
    failed = False
    for name in BENCH_ORDER:
        try:
            reports[name] = pipeline.fit(_fit_config(dict(settings, function=name)))
        except (ValueError, ArithmeticError) as exc:
            print(f"{name}: fit failed: {exc}", file=sys.stderr)
            failed = True

    for rep in reports.values():
        if rep is not None:
            _write_outputs(rep, settings["out"], settings["svg"])
            failed |= _verdict(rep) == EXIT_NOT_CONVERGED

    # a fit that raised still has a classical floor, and it takes microseconds
    floors = [(rep or oracle.fit_classical(name, settings["knots"])).classical_nrmse
              for name, rep in reports.items()]
    # (table label, summary name, knots, table format, one value per function)
    rows = [
        ("QSplines (swap test)", "qsplines", pipeline.BASELINE_KNOTS, ".4f",
         [pipeline.QSPLINES_BASELINE[n] for n in BENCH_ORDER]),
        ("Classical oracle", "classical", settings["knots"], ".2e", floors),
    ]
    if not settings["classical_only"]:
        rows.append(("This model", "vqls", settings["knots"], ".4f",
                     [math.nan if rep is None else rep.nrmse for rep in reports.values()]))

    header = _table_row("Model", "Knots", [n.capitalize() for n in BENCH_ORDER])
    print(header)
    print("-" * len(header))
    for label, _, knots, spec, values in rows:
        print(_table_row(label, knots, ["--" if v is None else format(v, spec) for v in values]))

    os.makedirs(settings["out"], exist_ok=True)
    summary = os.path.join(
        settings["out"], f"bench_K{settings['knots']}_seed{settings['seed']}.csv"
    )
    with open(summary, "w", encoding="utf-8") as handle:
        handle.write("model,knots," + ",".join(BENCH_ORDER) + "\n")
        for _, name, knots, _, values in rows:
            handle.write(f"{name},{knots},"
                         + ",".join("" if v is None else format_number(v) for v in values)
                         + "\n")
    print(f"wrote {summary}")
    return EXIT_NOT_CONVERGED if failed else EXIT_OK


def cmd_decompose(settings: dict, block) -> int:
    if block is not None and settings["function"] is not None:
        raise UsageError("pass either --block A B or --function, not both")
    if block is not None:
        a, b = float(block[0]), float(block[1])
        try:
            decomposition = decompose_block(a, b)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        target = np.array([[1.0 - a, a], [0.0, 1.0 - b]])
    elif settings["function"] is not None:
        system, _ = build_system(_fit_config(settings).knots)
        target = system.entries
        decomposition = pauli_decompose(target)
    else:
        raise UsageError("decompose needs --block A B or --function NAME --knots K")

    for term in decomposition.terms:
        print(f"{term.label:<16} {format_number(term.coefficient):>18}")
    error = float(np.max(np.abs(reconstruct(decomposition) - target)))
    print(f"terms: {len(decomposition.terms)}")
    print(f"max reconstruction error: {error:.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _resolve(args)
        if args.command == "fit":
            return cmd_fit(settings)
        if args.command == "bench":
            return cmd_bench(settings)
        return cmd_decompose(settings, args.block)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
