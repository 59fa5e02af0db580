import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
from mfou.experiments import ExperimentConfig, ExperimentReport
from mfou.inference import ESTIMATE_COLUMNS
from mfou.ldp import k_limit


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


def test_verbose_reports_kernel_health(tmp_path, capsys):
    args = ["kernel", "--set", "T=1.0", "--set", "cells=16", "-v", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    assert "kernel H=0.7 n=16:" in err
    assert "max_residual=" in err and "min_pivot=" in err


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
