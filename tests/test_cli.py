import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mfou import DEFAULT_SEED
from mfou.cli import (
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_OK,
    EXIT_USAGE,
    _fmt,
    _json_safe,
    main,
    parse_config_file,
    write_outputs,
)
from mfou.errors import ConfigError
from mfou.experiments import ExperimentConfig, ExperimentReport, run_cgf_convergence
from mfou.inference import ESTIMATE_COLUMNS, estimate_batch
from mfou.ldp import k_limit
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import ProcessSpec, sample_state_batch
from mfou.transform import build_kernel, quadratic_variation


def test_fmt_scalars():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(0.7) == "0.7"
    assert _fmt(1.0 / 3.0) == repr(1.0 / 3.0)
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.nan) == "nan"
    assert _fmt(np.float64(0.7)) == "0.7"
    assert _fmt(np.int64(5)) == "5"
    assert _fmt(np.bool_(True)) == "true"
    assert _fmt("plain") == "plain"


def test_json_safe():
    data = {
        "a": np.float64(1.5),
        "b": [math.inf, -math.inf, math.nan],
        "c": {"d": np.int32(7)},
    }
    safe = _json_safe(data)
    assert safe["a"] == 1.5
    assert safe["b"] == ["inf", "-inf", "nan"]
    assert safe["c"]["d"] == 7
    json.dumps(safe)  # must serialize without error


def test_parse_config_file(tmp_path):
    text = "\n".join(
        [
            "# comment",
            "",
            "[simulate]",
            "H = 0.7",
            "T=2.0",
            "",
            "[estimate]",
            "reps = 8  ",
        ]
    )
    path = tmp_path / "a.cfg"
    path.write_text(text + "\n")
    sections = parse_config_file(str(path))
    assert sections["simulate"] == {"H": "0.7", "T": "2.0"}
    assert sections["estimate"] == {"reps": "8"}


@pytest.mark.parametrize(
    "text,phrase",
    [
        ("[simulate]\nH = 0.5\nH = 0.6\n", "duplicate key"),
        ("H = 0.5\n[simulate]\n", "appears before any"),
        ("[simulate]\nno equals sign here\n", "expected key = value"),
        ("[simulate]\n[simulate]\n", "duplicate section"),
    ],
)
def test_parse_config_file_rejects(tmp_path, text, phrase):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=phrase):
        parse_config_file(str(path))


def test_rate_command(capsys):
    # both rates vanish at x = theta
    assert main(["rate", "--theta", "1", "--x", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "printed two-branch formula at -x: 0.0"
    label, _, value = lines[2].partition(": ")
    assert label == "numeric"
    assert float(value) == pytest.approx(0.0, abs=1e-8)


def test_rate_requires_x(capsys):
    assert main(["rate", "--theta", "1"]) == EXIT_CONFIG
    assert "needs x" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_bad_value_exit_code(capsys):
    assert main(["simulate", "--set", "H=1.5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "H" in err and "(0, 1]" in err


@pytest.mark.parametrize(
    "argv,key",
    [
        (["simulate", "--set", "T=inf"], "T"),
        (["simulate", "--set", "theta=inf"], "theta"),
        (["estimate", "--set", "theta=inf"], "theta"),
        (["experiment", "--kind", "tails", "--set", "tilt=inf"], "tilt"),
        (["experiment", "--kind", "tails", "--set", "cells_per_unit=inf"], "cells_per_unit"),
        (["cgf", "--method", "analytic", "--set", "mu=nan"], "mu"),
        (["experiment", "--kind", "cgf", "--set", "mu=nan"], "mu"),
        (["rate", "--theta", "inf", "--x", "1"], "theta"),
        (["rate", "--x", "nan"], "x"),
    ],
)
def test_non_finite_value_exit_code(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"bad value for '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--set", "cells=4"],
        ["simulate", "--set", "cells=7"],
        ["estimate", "--set", "cells=2"],
        ["cgf", "--set", "cells=4"],
        ["experiment", "--kind", "normality", "--set", "cells=4"],
    ],
)
def test_cells_below_minimum_exit_code(tmp_path, capsys, argv):
    # a grid needs MIN_CELLS = 8 cells: rejected as config, not as a numerical failure
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert "bad value for 'cells'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cells_per_unit_below_minimum_exit_code(tmp_path, capsys):
    argv = ["experiment", "--kind", "cgf", "--set", "T=1.0", "--set", "cells_per_unit=4",
            "--set", "reps=4", "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert "gives 4 cells at T=1.0, need at least 8" in capsys.readouterr().err


def test_help_states_cell_minimum():
    for command in ("simulate", "kernel", "estimate", "cgf", "experiment"):
        proc = subprocess.run(
            [sys.executable, "-m", "mfou.cli", command, "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        line = next(row for row in proc.stdout.splitlines() if row.strip().startswith("cells "))
        assert "at least 8" in line


def test_unknown_key_exit_code(capsys):
    assert main(["simulate", "--set", "bogus=1"]) == EXIT_CONFIG
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_simulate_writes_paths(tmp_path, capsys):
    code = main(
        ["simulate", "--set", "T=1.0", "--set", "cells=16", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "t,B,B^H,Btilde,X"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 0.0


def test_estimate_csv_columns(tmp_path):
    code = main(
        [
            "estimate",
            "--set", "T=1.0",
            "--set", "cells=16",
            "--set", "reps=3",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "estimates.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(ESTIMATE_COLUMNS)
    assert len(lines) == 4
    # theta_hat round-trips: the same draws through the API give the same floats
    kernel = build_kernel(0.7, TimeGrid(1.0, 16))
    qv = quadratic_variation(kernel)
    spec = ProcessSpec(0.7, 1.0, kernel.grid)
    states = sample_state_batch(spec, RandomStream(DEFAULT_SEED, (0,)), range(3))
    theta_hat = estimate_batch(states, kernel, qv)[0]
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(ESTIMATE_COLUMNS) for row in rows)
    column = ESTIMATE_COLUMNS.index("theta_hat")
    assert [float(row[column]) for row in rows] == theta_hat.tolist()


def test_verbose_reports_kernel_health(tmp_path, capsys):
    args = ["kernel", "--set", "T=1.0", "--set", "cells=16", "-v", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    assert "kernel H=0.7 n=16:" in err
    assert "max_residual=" in err and "min_pivot=" in err


def test_kernel_matrix_table(tmp_path):
    args = ["kernel", "--set", "T=1.0", "--set", "cells=8", "--set", "matrix=true"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "kernel.csv.matrix.csv").read_text().strip().split("\n")
    assert lines[0] == "horizon_index,cell_index,g"
    matrix = build_kernel(0.7, TimeGrid(1.0, 8)).matrix
    expected = [(j + 1, i, matrix[j, i]) for j in range(8) for i in range(j + 1)]
    got = [(int(j), int(i), float(g)) for j, i, g in (line.split(",") for line in lines[1:])]
    assert got == expected


def test_verbose_reports_worst_route_estimate(tmp_path, capsys):
    args = ["experiment", "--set", "kind=cgf", "--set", "T=2.0", "--set", "cells=32",
            "--set", "mu=0.25,1.0", "--set", "reps=64", "-v", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "cgf_manifest.json").read_text())
    for route, label in (("riccati", "trace"), ("liouville", "determinant")):
        worst = max(cell[f"{route}_error_estimate"] for cell in manifest["cells"])
        assert f"cgf {label} route: worst_error_estimate={worst!r}" in err
    header = (tmp_path / "cgf.csv").read_text().split("\n")[0]
    assert "estimate" not in header


def test_cgf_analytic_value(tmp_path):
    code = main(
        [
            "cgf",
            "--method", "analytic",
            "--set", "mu=0.5",
            "--set", "T=2.0",
            "--set", "cells=16",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "cgf.csv").read_text().strip().split("\n")
    assert lines[0] == "method,a,b,mu,T,value,stderr"
    row = lines[1].split(",")
    assert row[0] == "analytic"
    assert float(row[5]) == pytest.approx(k_limit(0.5, 1.0))


def test_cgf_routes_match_study(tmp_path):
    # the CLI and the cgf study call the ODE routes through one function
    config = ExperimentConfig(hurst=(0.7,), horizons=(2.0,), cells=32, reps=64, mu_grid=(0.5,))
    report = run_cgf_convergence(config)
    study = dict(zip(report.columns, report.rows[0]))
    for method, column in (("riccati", "k_riccati"), ("liouville", "k_liouville"), ("mc", None)):
        args = ["cgf", "--method", method, "--set", "H=0.7", "--set", "T=2",
                "--set", "cells=32", "--set", "mu=0.5", "--set", "reps=64"]
        assert main(args + ["--out", str(tmp_path / method)]) == EXIT_OK
        lines = (tmp_path / method / "cgf.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == method
        value, stderr = float(row[5]), float(row[6])
        if column is None:
            assert math.isfinite(value) and stderr > 0.0
        else:
            assert value == study[column]
            assert row[6] == "0.0"


def test_cgf_mc_single_replication_has_nan_stderr(tmp_path):
    # one replication has no spread to measure: NaN, not a bootstrap's 0.0, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["cgf", "--method", "mc", "--set", "reps=1", "--set", "cells=16",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "cgf.csv").read_text().strip().split("\n")
    assert lines[0].split(",")[6] == "stderr"
    assert len(lines) > 1
    assert all(line.split(",")[6] == "nan" for line in lines[1:])


def test_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[cgf]\nmu = 0.5\nT = 2.0\ncells = 16\n")
    code = main(
        [
            "cgf",
            "--config", str(cfg),
            "--method", "analytic",
            "--set", "mu=0.25",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    row = (tmp_path / "cgf.csv").read_text().strip().split("\n")[1].split(",")
    assert float(row[3]) == 0.25  # the override, not the file value


def test_experiment_check_gate(tmp_path, capsys):
    args = [
        "experiment",
        "--kind", "normality",
        "--set", "H=0.5",
        "--set", "T=2.0",
        "--set", "cells=32",
        "--set", "reps=500",
        "--out", str(tmp_path),
    ]
    assert main(list(args)) == EXIT_OK
    # far from the asymptotic regime, so the distribution gates must fail
    assert main(args + ["--check"]) == EXIT_GATE
    header = (tmp_path / "normality.csv").read_text().split("\n")[0]
    assert header == "H,T,reps,var_scaled,ks_dist,pass"
    manifest = json.loads((tmp_path / "normality_manifest.json").read_text())
    assert manifest["pass"] is False
    diagnostics = manifest["diagnostics"]
    assert diagnostics["kernels"] == 1
    assert 0.0 <= diagnostics["max_residual"] <= 1e-9
    assert diagnostics["min_pivot"] > 0.0
    restored = ExperimentConfig.from_manifest(manifest["config"])
    assert restored.config_hash() == manifest["config_hash"]


def test_experiment_rerun_identical(tmp_path):
    args = [
        "experiment",
        "--kind", "normality",
        "--set", "H=0.7",
        "--set", "T=2.0",
        "--set", "cells=32",
        "--set", "reps=500",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    csv_a = (tmp_path / "a" / "normality.csv").read_bytes()
    csv_b = (tmp_path / "b" / "normality.csv").read_bytes()
    assert csv_a == csv_b


def test_write_outputs_empty_report(tmp_path):
    report = ExperimentReport(
        name="empty", columns=("a",), rows=(), manifest={"pass": True}
    )
    written = write_outputs(report, str(tmp_path))
    assert not (tmp_path / "empty.csv").exists()
    assert (tmp_path / "empty_manifest.json").exists()
    assert len(written) == 1


@pytest.mark.parametrize(
    "settings",
    [
        ["kind=tails", "reps=10"],
        ["kind=tails", "reps=10", "tilt=1.4"],
        ["kind=normality", "reps=500"],
    ],
    ids=["tails", "tails-tilted", "normality"],
)
def test_cell_without_survivors_exits_numerical(tmp_path, settings):
    # at T = 1e-8 every replication's denominator is degenerate, so no
    # estimate survives: a taxonomy error, not a traceback or numpy warnings
    argv = ["experiment", "--out", str(tmp_path)]
    for item in settings + ["T=0.00000001", "cells=8"]:
        argv += ["--set", item]
    proc = subprocess.run(
        [sys.executable, "-m", "mfou.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "numerical failure: ExperimentInvalid: no replication gave a finite" in proc.stderr
    assert "H=0.7, T=1e-08, drift 1.0" in proc.stderr
    assert "Traceback" not in proc.stderr
    # the thin-tail notice is a UserWarning: no RuntimeWarning is printed at all
    assert "RuntimeWarning" not in proc.stderr


def test_tilted_tails_single_survivor(tmp_path):
    # one tilted replication measures no spread: its interval is [0, 1], not NaN
    argv = ["experiment", "--out", str(tmp_path)]
    for item in ["kind=tails", "T=2,4", "cells=16", "reps=1", "tilt=1.4"]:
        argv += ["--set", item]
    proc = subprocess.run(
        [sys.executable, "-m", "mfou.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "tails.csv").exists()
    assert (tmp_path / "tails_manifest.json").exists()
    assert "RuntimeWarning" not in proc.stderr


def test_help_runs_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mfou.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "exit codes" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "mfou.cli", "experiment", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "config keys" in proc.stdout


def test_cli_loads_no_numpy():
    # the thread budget must be applied before numpy loads (module docstring)
    code = (
        "import sys\n"
        "import mfou.cli\n"
        "mfou.cli.build_parser()\n"
        "try:\n"
        "    mfou.cli.main(['experiment', '--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "heavy = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "config keys" in proc.stdout


def test_studies_load_only_linalg_and_special():
    # every mfou process pays for its imports: scipy.stats and scipy.signal
    # alone would more than double the start-up time
    code = (
        "import sys\n"
        "import mfou.cli, mfou.experiments\n"
        "heavy = ('scipy.stats', 'scipy.signal', 'scipy.optimize', 'scipy.interpolate')\n"
        "loaded = sorted(m for m in heavy if m in sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert 'scipy.linalg' in sys.modules and 'scipy.special' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
