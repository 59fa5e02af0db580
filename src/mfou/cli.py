"""Command-line front end: one binary, six subcommands, fixed exit codes.

Configuration comes from a flat `key = value` file with one section per
subcommand, overridden by repeated `--set key=value` flags; unknown keys and
duplicates are rejected by name. Everything heavy is imported only after the
thread budget is applied, so the BLAS pool can be sized per invocation.

Exit codes: 0 success, 1 usage error, 2 config validation error, 3 numerical
failure, 4 acceptance-gate failure under `experiment --check`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import DEFAULT_SEED, MIN_CELLS
from .errors import ConfigError, MfouError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

THREADS_ENV = "MFOU_THREADS"
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text}")
    return value


def _parse_hurst(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"H must lie in (0, 1], got {text}")
    return value


def _parse_positive(text: str) -> float:
    value = _parse_finite(text)
    if not value > 0.0:
        raise ConfigError(f"expected a positive number, got {text}")
    return value


def _parse_int_min(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ConfigError(f"expected an integer >= {minimum}, got {text}")
        return value

    return parse


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _split(text: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    return [p for p in parts if p]


def _list_of(parse):
    def parse_list(text: str) -> tuple:
        return tuple(parse(part) for part in _split(text))

    return parse_list


def _parse_tails(text: str) -> tuple:
    # tail ends are the one place where an infinite value is meaningful
    tails = []
    for part in _split(text):
        if ".." not in part:
            raise ConfigError(f"tail interval must look like lo..hi, got {part!r}")
        lo_s, _, hi_s = part.partition("..")
        lo, hi = float(lo_s), float(hi_s)
        if not lo < hi:
            raise ConfigError(f"tail interval ({lo}, {hi}) is empty")
        tails.append((lo, hi))
    return tuple(tails)


_KIND_CHOICES = ("normality", "tails", "cgf", "h-invariance")


def _parse_kind(text: str) -> str:
    if text not in _KIND_CHOICES:
        raise ConfigError(f"kind must be one of {', '.join(_KIND_CHOICES)}, got {text!r}")
    return text


class _Key:
    def __init__(self, parse, default, doc):
        self.parse = parse
        self.default = default
        self.doc = doc


# keys that several sections share verbatim
_HURST = _Key(_parse_hurst, "0.7", "Hurst index, in (0, 1]")
_THETA = _Key(_parse_positive, "1.0", "drift parameter, positive")
_HORIZON = _Key(_parse_positive, "10.0", "horizon, positive")
_CELLS = _Key(_parse_int_min(MIN_CELLS), "512", f"lattice cells, at least {MIN_CELLS}")
_SEED = _Key(_parse_int_min(0), str(DEFAULT_SEED), "master seed, nonnegative")

# every config key, with its default and constraint (surfaced in --help)
KEYS = {
    "simulate": {
        "H": _HURST,
        "theta": _THETA,
        "T": _HORIZON,
        "cells": _CELLS,
        "seed": _SEED,
        "rep": _Key(_parse_int_min(0), "0", "replication index, nonnegative"),
        "out": _Key(str, "paths.csv", "output file name"),
    },
    "kernel": {
        "H": _HURST,
        "T": _HORIZON,
        "cells": _CELLS,
        "matrix": _Key(_parse_bool, "false", "also dump the full kernel table"),
        "out": _Key(str, "kernel.csv", "output file name"),
    },
    "estimate": {
        "H": _HURST,
        "theta": _THETA,
        "T": _HORIZON,
        "cells": _CELLS,
        "seed": _SEED,
        "reps": _Key(_parse_int_min(1), "100", "replications, at least 1"),
        "out": _Key(str, "estimates.csv", "output file name"),
    },
    "cgf": {
        "H": _HURST,
        "theta": _THETA,
        "T": _Key(_parse_positive, "5.0", "horizon, positive"),
        "cells": _CELLS,
        "seed": _SEED,
        "reps": _Key(_parse_int_min(1), "10000", "Monte Carlo replications"),
        "mu": _Key(_list_of(_parse_finite), "0.25,0.5,1.0", "mu lattice (comma separated)"),
        "a": _Key(_list_of(_parse_finite), "0.0", "a lattice for the analytic method"),
        "b": _Key(_list_of(_parse_finite), "", "b lattice for the analytic method"),
        "out": _Key(str, "cgf.csv", "output file name"),
    },
    "rate": {
        "theta": _THETA,
        "x": _Key(_parse_finite, None, "rate-function argument (required)"),
    },
    "experiment": {
        "kind": _Key(_parse_kind, None, "one of " + ", ".join(_KIND_CHOICES) + " (required)"),
        "theta": _THETA,
        "H": _Key(_list_of(_parse_hurst), "0.7", "Hurst indices, each in (0, 1]"),
        "T": _Key(_list_of(_parse_positive), "20.0", "horizons, positive ascending"),
        "cells": _Key(_parse_int_min(MIN_CELLS), None, f"lattice cells, at least {MIN_CELLS}, fixed across horizons (exclusive with cells_per_unit)"),
        "cells_per_unit": _Key(_parse_positive, None, "lattice cells per unit horizon (exclusive with cells)"),
        "reps": _Key(_parse_int_min(1), "2000", "replications per cell"),
        "seed": _SEED,
        "mu": _Key(_list_of(_parse_finite), "0.0,0.25,0.5,1.0", "mu lattice (cgf study)"),
        "x": _Key(_list_of(_parse_finite), "", "x grid for rate-function tables"),
        "tails": _Key(_parse_tails, "1.5..inf", "tail intervals lo..hi (comma separated)"),
        "tilt": _Key(_parse_positive, None, "importance-sampling drift, positive"),
    },
}


def _keys_epilog(command: str) -> str:
    lines = [f"config keys ([{command}] section, overridable via --set key=value):"]
    for name, key in KEYS[command].items():
        default = "(no default)" if key.default is None else f"default {key.default}"
        lines.append(f"  {name:<15} {default:<18} {key.doc}")
    return "\n".join(lines)


_MAIN_EPILOG = f"""exit codes:
  0  success
  1  usage error
  2  config validation error
  3  numerical failure
  4  gate failure under `experiment --check`

environment:
  {THREADS_ENV:<16} BLAS thread budget (default: logical cores); the
                   --threads flag overrides it
"""


def parse_config_file(path: str) -> dict:
    """Flat sectioned `key = value` text; duplicates are rejected by name."""
    sections = {}
    current = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current in sections:
                    raise ConfigError(f"duplicate section [{current}] at line {lineno}")
                sections[current] = {}
                continue
            if "=" not in line:
                raise ConfigError(f"expected key = value at line {lineno}: {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if current is None:
                raise ConfigError(f"key {key!r} appears before any [section] at line {lineno}")
            if key in sections[current]:
                raise ConfigError(f"duplicate key {key!r} in [{current}] at line {lineno}")
            sections[current][key] = value
    return sections


def _typed_section(command: str, raw: dict) -> dict:
    spec = KEYS[command]
    typed = {}
    for key, value in raw.items():
        if key not in spec:
            raise ConfigError(f"unknown key {key!r} for {command}")
        try:
            typed[key] = spec[key].parse(value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({spec[key].doc})") from None
    for key, entry in spec.items():
        if key not in typed and entry.default is not None:
            typed[key] = entry.parse(entry.default)
    return typed


def _merged_section(args) -> dict:
    raw = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        raw.update(parse_config_file(args.config).get(args.command, {}))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    for flag in ("kind", "theta", "x"):
        value = getattr(args, f"flag_{flag}", None)
        if value is not None:
            raw[flag] = value
    return _typed_section(args.command, raw)


def _resolve_threads(args) -> int | None:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        return args.threads
    raw = os.environ.get(THREADS_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ConfigError(f"{THREADS_ENV} must be at least 1, got {raw!r}")
        return value
    return None


def _apply_thread_budget(budget: int | None) -> None:
    # must run before numpy's first import; the pool size is fixed at load
    if budget is None:
        return
    for var in _BLAS_VARS:
        os.environ[var] = str(budget)


def _print_diagnostics(label: str, diagnostics: dict) -> None:
    """One `-v` line on stderr: the kernel health numbers behind a result."""
    fields = " ".join(f"{key}={_fmt(value)}" for key, value in sorted(diagnostics.items()))
    print(f"{label}: {fields}", file=sys.stderr)


def _kernel(typed: dict, verbose: int):
    """Transfer kernel for the section's H, T and cells; `-v` prints its health."""
    from .numerics import TimeGrid
    from .transform import build_kernel

    kernel = build_kernel(typed["H"], TimeGrid(horizon=typed["T"], cells=typed["cells"]))
    if verbose:
        health = {key: kernel.meta[key] for key in ("max_residual", "min_pivot")}
        _print_diagnostics(f"kernel H={_fmt(typed['H'])} n={typed['cells']}", health)
    return kernel


def _fmt(value) -> str:
    if not isinstance(value, (bool, int, float, str)) and hasattr(value, "item"):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr is the shortest string that round-trips, and handles nan/inf
        return repr(float(value))
    return str(value)


def _json_safe(obj):
    """JSON-ready copy; the one encoder of every manifest and config hash.

    Tuples become lists, numpy scalars Python ones, and non-finite floats the
    strings "nan", "inf" and "-inf".
    """
    if isinstance(obj, dict):
        return {key: _json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(val) for val in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if hasattr(obj, "item") and callable(obj.item):
        return _json_safe(obj.item())
    return obj


def _write_csv(outdir: str, name: str, columns, rows) -> str:
    """Stream one CSV: the header, then one line of `_fmt` values per row (LF, UTF-8)."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")
    return path


def write_outputs(report, outdir: str) -> list:
    """Persist a report: one CSV (`_write_csv`) + its manifest (`_json_safe`).

    A report with no rows writes the manifest only.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    if report.rows:
        written.append(_write_csv(outdir, f"{report.name}.csv", report.columns, report.rows))
    manifest_path = os.path.join(outdir, f"{report.name}_manifest.json")
    with open(manifest_path, "w", encoding="utf-8", newline="") as handle:
        json.dump(_json_safe(report.manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(manifest_path)
    return written


def _cmd_simulate(args, typed) -> int:
    from .numerics import RandomStream, TimeGrid
    from .paths import ProcessSpec, sample_mixed_path

    grid = TimeGrid(horizon=typed["T"], cells=typed["cells"])
    spec = ProcessSpec(hurst=typed["H"], theta=typed["theta"], grid=grid)
    stream = RandomStream(master_seed=typed["seed"], key=(typed["rep"],))
    bundle = sample_mixed_path(spec, stream)
    rows = zip(grid.nodes, bundle.brownian, bundle.fractional, bundle.mixed, bundle.state)
    print(_write_csv(args.out, typed["out"], ("t", "B", "B^H", "Btilde", "X"), rows))
    return EXIT_OK


def _cmd_kernel(args, typed) -> int:
    from .transform import quadratic_variation

    kernel = _kernel(typed, args.verbose)
    qv = quadratic_variation(kernel)
    rows = zip(kernel.grid.nodes, qv.bracket, qv.derivative, qv.psi_diag)
    print(_write_csv(args.out, typed["out"], ("t", "bracket", "derivative", "psi"), rows))
    if typed["matrix"]:
        g = kernel.matrix
        rows = (
            (j + 1, i, value)
            for j in range(g.shape[0])
            for i, value in enumerate(g[j, : j + 1].tolist())
        )
        columns = ("horizon_index", "cell_index", "g")
        print(_write_csv(args.out, typed["out"] + ".matrix.csv", columns, rows))
    return EXIT_OK


def _cmd_estimate(args, typed) -> int:
    from .inference import ESTIMATE_COLUMNS, estimate_batch
    from .numerics import RandomStream
    from .paths import ProcessSpec, sample_state_chunks
    from .transform import quadratic_variation

    kernel = _kernel(typed, args.verbose)
    qv = quadratic_variation(kernel)
    spec = ProcessSpec(hurst=typed["H"], theta=typed["theta"], grid=kernel.grid)
    base = RandomStream(master_seed=typed["seed"], key=(0,))
    # (theta_hat, numerator, denominator) per replication, all drawn before the CSV opens
    stats = []
    for states in sample_state_chunks(spec, base, typed["reps"]):
        stats += zip(*(column.tolist() for column in estimate_batch(states, kernel, qv)))
    head = (typed["H"], typed["theta"], kernel.grid.horizon, kernel.grid.cells)
    rows = ((rep, *head, *row) for rep, row in enumerate(stats))
    print(_write_csv(args.out, typed["out"], ESTIMATE_COLUMNS, rows))
    return EXIT_OK


def _cmd_cgf(args, typed) -> int:
    from .ldp import cgf_limit

    theta, horizon = typed["theta"], typed["T"]
    rows = []
    if args.method == "analytic":
        b_grid = typed["b"] or tuple(-mu for mu in typed["mu"])
        for a in typed["a"]:
            for b in b_grid:
                rows.append(("analytic", a, b, -b, horizon, cgf_limit(a, b, theta), 0.0))
    else:
        from .experiments import cgf_route
        from .numerics import RandomStream
        from .paths import ProcessSpec
        from .transform import quadratic_variation

        kernel = _kernel(typed, args.verbose)
        qv = quadratic_variation(kernel)
        spec = ProcessSpec(hurst=typed["H"], theta=theta, grid=kernel.grid)
        for m_idx, mu in enumerate(typed["mu"]):
            stream = RandomStream(master_seed=typed["seed"], key=(5, m_idx))
            value = cgf_route(args.method, theta, mu, spec, kernel, qv, typed["reps"], stream)
            # the ODE routes return K_T itself; only Monte Carlo has a standard error
            value, err = (value.value, value.stderr) if args.method == "mc" else (value, 0.0)
            rows.append((args.method, 0.0, -mu, mu, horizon, value, err))
    columns = ("method", "a", "b", "mu", "T", "value", "stderr")
    print(_write_csv(args.out, typed["out"], columns, rows))
    return EXIT_OK


def _cmd_rate(args, typed) -> int:
    from .ldp import rate_function_numeric, rate_function_printed_reflected

    if "x" not in typed:
        raise ConfigError("rate needs x (use --x or --set x=...)")
    theta, x = typed["theta"], typed["x"]
    print(f"x={_fmt(x)} theta={_fmt(theta)}")
    print(f"printed two-branch formula at -x: {_fmt(rate_function_printed_reflected(x, theta))}")
    print(f"numeric: {_fmt(rate_function_numeric(x, theta))}")
    return EXIT_OK


def _cmd_experiment(args, typed) -> int:
    from .experiments import (
        ExperimentConfig,
        run_cgf_convergence,
        run_h_invariance,
        run_normality,
        run_tail_slopes,
    )

    if "kind" not in typed:
        raise ConfigError("experiment needs kind (use --kind or --set kind=...)")
    config = ExperimentConfig(
        theta=typed["theta"],
        hurst=typed["H"],
        horizons=typed["T"],
        # ExperimentConfig rejects a config that sets both
        cells=typed.get("cells", None if "cells_per_unit" in typed else 512),
        cells_per_unit=typed.get("cells_per_unit"),
        reps=typed["reps"],
        master_seed=typed["seed"],
        mu_grid=typed["mu"],
        x_grid=typed["x"],
        tails=typed["tails"],
        tilt=typed.get("tilt"),
        threads=args.threads,
    )
    runner = {
        "normality": run_normality,
        "tails": run_tail_slopes,
        "cgf": run_cgf_convergence,
        "h-invariance": run_h_invariance,
    }[typed["kind"]]
    report = runner(config)
    written = write_outputs(report, args.out)
    if args.verbose:
        _print_diagnostics(f"{report.name} kernels", report.manifest["diagnostics"])
        if report.name == "cgf":
            for route, label in (("riccati", "trace"), ("liouville", "determinant")):
                estimates = [c[f"{route}_error_estimate"] for c in report.manifest["cells"]]
                worst = max((e for e in estimates if math.isfinite(e)), default=math.nan)
                _print_diagnostics(f"cgf {label} route", {"worst_error_estimate": worst})
    for path in written:
        print(path)
    print(f"{report.name}: pass={'true' if report.passed else 'false'}")
    return EXIT_GATE if args.check and not report.passed else EXIT_OK


# subcommand name -> (help line, handler); the parser and main both read it
_COMMANDS = {
    "simulate": ("sample one mixed path and write it as CSV", _cmd_simulate),
    "kernel": ("build the transfer kernel tables", _cmd_kernel),
    "estimate": ("simulate replications and write drift estimates", _cmd_estimate),
    "cgf": ("evaluate the integrated-square CGF by one method", _cmd_cgf),
    "rate": ("print the numeric and the printed rate at a point", _cmd_rate),
    "experiment": ("run a replication study and persist its report", _cmd_experiment),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mfou",
        description="Mixed Brownian/fractional OU: simulation, inference, deviations.",
        epilog=_MAIN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        sp = sub.add_parser(
            name,
            help=help_line,
            epilog=_keys_epilog(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument("--config", default=None, help="flat sectioned key = value file")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--threads", type=int, default=None, help="BLAS thread budget")
        sp.add_argument("-v", "--verbose", action="count", default=0)
    sub.choices["cgf"].add_argument(
        "--method",
        choices=("analytic", "riccati", "liouville", "mc"),
        default="riccati",
        help="evaluation route (default: riccati)",
    )
    sub.choices["rate"].add_argument("--theta", dest="flag_theta", default=None)
    sub.choices["rate"].add_argument("--x", dest="flag_x", default=None)
    sub.choices["experiment"].add_argument(
        "--kind", dest="flag_kind", choices=_KIND_CHOICES, default=None
    )
    sub.choices["experiment"].add_argument(
        "--check",
        action="store_true",
        help="exit 4 when the report's gates fail",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.threads = _resolve_threads(args)
        _apply_thread_budget(args.threads)
        typed = _merged_section(args)
        return _COMMANDS[args.command][1](args, typed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MfouError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
