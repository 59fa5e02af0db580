"""mfou benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tail-study --seed 1 --seconds 10 --trace 0

Every repetition of the workload runs in a fresh child process with one BLAS
thread, its own kernel cache directory and its own output directory, all
under .perfbench/ in the checkout and deleted afterwards. With --trace 0 the
workload repeats until --seconds of timed work have passed (at least once),
and a few extra children measure set-up alone; medians are reported. With
--trace 1 one untraced and one traced repetition run, and the traced one
gives the per-layer metrics. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OK, WORKLOADS, WRONG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SENTINEL = STATE / "sentinel.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 6
DEADLINE_S = 170.0
THREAD_VARS = (
    "MFOU_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


class Runner:
    """Starts child repetitions under one work directory and collects results."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.work = STATE / f"run-{os.getpid()}"
        self.count = 0
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = "1"
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, *, setup_only=False, trace_file=None):
        self.count += 1
        run_dir = self.work / f"rep-{self.count}"
        result_path = self.work / f"result-{self.count}.json"
        log_path = self.work / f"log-{self.count}.txt"
        env = dict(self.env, MFOU_CACHE_DIR=str(run_dir / "cache"))
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--run-dir", str(run_dir),
            "--result", str(result_path),
        ]
        if setup_only:
            argv.append("--setup-only")
        if trace_file is not None:
            argv += ["--trace-file", str(trace_file)]
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 1.0:
            raise BenchError("out of time before a repetition could start")
        try:
            with open(log_path, "w", encoding="utf-8") as log:
                spawn = time.monotonic()
                proc = subprocess.run(
                    argv + ["--spawn-time", repr(spawn)],
                    cwd=ROOT,
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=remaining,
                )
            if proc.returncode != 0:
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise BenchError(f"repetition exited with {proc.returncode}:\n{tail}")
            with open(result_path, encoding="utf-8") as handle:
                return json.load(handle)
        except subprocess.TimeoutExpired:
            raise BenchError("repetition did not finish before the deadline") from None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def elapsed(self):
        return time.monotonic() - self.start


def _read_sentinel():
    try:
        with open(SENTINEL, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _program_hash():
    """sha256 of the mfou sources, the benchmark's own code and the library versions.

    A sentinel hash is only compared with hashes of the same program, so a
    change that legitimately alters output bytes starts a fresh entry.
    """
    digest = hashlib.sha256()
    files = sorted(
        path
        for base in (ROOT / "src" / "mfou", HERE)
        for path in base.rglob("*.py")
        if "__pycache__" not in path.parts
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    digest.update(sys.version.encode("utf-8"))
    for package in ("numpy", "scipy"):
        try:
            digest.update(importlib.metadata.version(package).encode("utf-8"))
        except importlib.metadata.PackageNotFoundError:
            pass
    return digest.hexdigest()


def _sentinel_ops(workload, seed, reps):
    """Determinism sentinel: each repetition's science hash against the first one
    this checkout recorded for (workload, seed) with the same program."""
    known = _read_sentinel()
    key = f"{workload}:{seed}:{_program_hash()}"
    if key not in known:
        known[key] = reps[0]["science_hash"]
        tmp = SENTINEL.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, SENTINEL)
    first = known[key]
    return [
        (f"science hash rep {i}", OK if rep["science_hash"] == first else WRONG)
        for i, rep in enumerate(reps)
    ]


def _git_commit():
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metrics(values, declared):
    """Values under the names and units BENCHMARK.json declares; any mismatch is an error."""
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        raise BenchError(
            f"metrics differ from {SPEC.name}: "
            f"not computed {sorted(set(names) - set(values))}, "
            f"not declared {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _measure(args):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)
    STATE.mkdir(exist_ok=True)
    runner.work.mkdir()
    try:
        # warm the file cache and bytecode once; users do not pay that per run
        runner.child(setup_only=True)
        reps, setups = [], []
        if args.trace:
            reps.append(runner.child())
            trace_file = STATE / f"trace-{args.workload}.csv.gz"
            traced = runner.child(trace_file=trace_file)
            reps.append(traced)
        else:
            measured = 0.0
            while True:
                rep = runner.child()
                reps.append(rep)
                measured += rep["wall_s"]
                if measured >= args.seconds:
                    break
                if runner.elapsed() + 2.0 * rep["wall_s"] > DEADLINE_S:
                    break
            for _ in range(SETUP_SAMPLES):
                setups.append(runner.child(setup_only=True))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    ops = [op for rep in reps for op in rep["ops"]]
    ops += _sentinel_ops(args.workload, args.seed, reps)
    failed = sum(1 for _, status in ops if status != OK)
    wrong = [name for name, status in ops if status == WRONG]
    for name, status in ops:
        if status != OK:
            print(f"operation {status}: {name}", file=sys.stderr)

    if args.trace:
        untraced, traced = reps
        values = dict(traced["per_layer"])
        values["process.cpu_s"] = untraced["cpu_s"]
        values["process.wall_s"] = untraced["wall_s"]
        values["process.speed_probe_ms"] = untraced["probe_ms"]
        values["trace.overhead_frac"] = traced["wall_norm_s"] / untraced["wall_norm_s"] - 1.0
        metrics = _metrics(values, spec["per_layer"])
    else:
        walls = [rep["wall_norm_s"] for rep in reps]
        setups += reps
        values = {
            "setup_s": statistics.median(rep["setup_s"] for rep in setups),
            "wall_norm_s": statistics.median(walls),
            "reps_per_norm_s": statistics.median(workload.reps / w for w in walls),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "ok_frac": 1.0 - failed / len(ops),
        }
        metrics = _metrics(values, spec["end_to_end"])

    provenance = dict(
        reps[0]["provenance"],
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        repetitions=len(reps),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        platform=platform.platform(),
        git_commit=_git_commit(),
        thread_env={var: runner.env[var] for var in THREAD_VARS},
    )
    if args.trace:
        provenance["trace_file"] = str(trace_file.relative_to(ROOT))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for i, rep in enumerate(reps):
        print(f"repetition {i}: wall_s {rep['wall_s']!r} speed probe {rep['probe_ms']!r} ms "
              f"-> wall_norm_s {rep['wall_norm_s']!r}")
    for i, rep in enumerate(setups):
        print(f"set-up {i}: setup_raw_s {rep['setup_raw_s']!r} -> setup_s {rep['setup_s']!r}")
    for name, metric in metrics.items():
        print(f"{name:<42} {metric['value']!s:>24} {metric['unit']}")
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main():
    args = _parse()
    if not (ROOT / "src" / "mfou" / "cli.py").is_file():
        print(f"benchmark: no mfou sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = _measure(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
