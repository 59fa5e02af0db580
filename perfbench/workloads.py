"""The benchmark's three workloads: command sequences, direct API steps, output checks.

Each workload is a closed loop of one client: its commands run one after the
other through `mfou.cli.main(argv)` in a single process, then its direct API
steps run. Every step counts as operations, and every operation ends in one
of three states:

* ``ok``;
* ``failed``: the program reported the failure itself (non-zero exit code, a
  solver error it raised or recorded, a gate or an insufficiency flag);
* ``wrong``: an output check found a wrong value the program reported as fine.

Only ``wrong`` makes the benchmark's ``correct`` false. Checks read CSV files
by column name. This module imports numpy and mfou only inside functions, so
the parent benchmark process stays light.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from tracer import CGF, KERNEL, TAIL

OK, FAILED, WRONG = "ok", "failed", "wrong"

# tolerances of the acceptance suite: c01 (H = 1/2 closed forms), c05 (route gap)
CLOSED_FORM_TOL = 1e-8
DENSE_REL_TOL = 1e-8
ROUTE_GAP_TOL = 1e-4
MIN_PLAIN_HITS = 20

# benchmark-owned stream address for the replay check, away from every key the
# experiments use (their first key element is 1..5)
REPLAY_KEY = 9001
REPLAY_REPS = 3


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _exit_status(rc):
    return OK if rc == 0 else FAILED


class Workload:
    """One workload; subclasses fill in commands, direct steps and checks."""

    name = ""
    reps = 0  # replications carried from sampler to sufficient statistics

    def commands(self, seed, out):
        raise NotImplementedError

    def direct(self, seed):
        """Timed API calls after the commands: (science values, [(op, status)])."""
        return {}, []

    def check(self, seed, out, exit_codes):
        """Untimed output checks: [(op, status)], one entry per operation."""
        raise NotImplementedError


class TailStudy(Workload):
    """c08 scaled to 128..512 cells, with a tilted pass; dominated by the sampler."""

    name = TAIL
    horizons = (5.0, 10.0, 15.0, 20.0)
    reps_per_cell = 10000
    reps = len(horizons) * reps_per_cell * 2  # plain and tilted pass per horizon

    def commands(self, seed, out):
        return [
            [
                "experiment",
                "--out",
                out,
                "--set",
                "kind=tails",
                "--set",
                "H=0.7",
                "--set",
                "T=" + ",".join(f"{t:g}" for t in self.horizons),
                "--set",
                "cells_per_unit=25.6",
                "--set",
                f"reps={self.reps_per_cell}",
                "--set",
                "tilt=1.4",
                "--set",
                "tails=1.5..inf",
                "--set",
                "x=-2,-1,0.2,1.5",
                "--set",
                f"seed={seed}",
            ]
        ]

    def check(self, seed, out, exit_codes):
        (rc,) = exit_codes
        ops = []
        status = _exit_status(rc)
        manifest_path = os.path.join(out, "tails_manifest.json")
        if status == OK:
            with open(manifest_path, encoding="utf-8") as handle:
                if json.load(handle).get("pass") is not True:
                    status = FAILED
        ops.append(("experiment tails", status))
        rows = _read_csv(os.path.join(out, "tails.csv")) if rc == 0 else []
        for row in rows:
            p, lo, hi = float(row["p_hat"]), float(row["ci_lo"]), float(row["ci_hi"])
            status = OK
            if not 0.0 <= lo <= p <= hi <= 1.0:
                status = WRONG
            elif row["method"] == "plain" and int(row["hits"]) < MIN_PLAIN_HITS:
                status = FAILED
            ops.append((f"row T={row['T']} {row['method']}", status))
        ops.append(("replay batch == single", replay_check(seed)))
        return ops


def replay_check(seed):
    """Batch draw of a few replications equals their single draws, bit for bit."""
    import numpy as np

    from mfou.numerics import RandomStream, TimeGrid
    from mfou.paths import ProcessSpec, sample_mixed_path, sample_state_batch

    spec = ProcessSpec(hurst=0.7, theta=1.0, grid=TimeGrid(20.0, 512))
    base = RandomStream(master_seed=seed, key=(REPLAY_KEY,))
    ids = sorted({(seed * 7919 + 104729 * k) % 100000 for k in range(REPLAY_REPS)}, reverse=True)
    batch = sample_state_batch(spec, base, ids)
    same = all(
        np.array_equal(batch[r], sample_mixed_path(spec, base.child(rep)).state)
        for r, rep in enumerate(ids)
    )
    return OK if same else WRONG


class CgfRoutes(Workload):
    """The c05 three-route study over T = 5, 10, 20, then the c10 M-equation."""

    name = CGF
    horizons = (5.0, 10.0, 20.0)
    mus = (0.25, 1.0)
    reps_per_cell = 512
    reps = len(horizons) * len(mus) * reps_per_cell
    cells_per_unit = 25.6

    def commands(self, seed, out):
        return [
            [
                "experiment",
                "--out",
                out,
                "--set",
                "kind=cgf",
                "--set",
                "H=0.7",
                "--set",
                "T=" + ",".join(f"{t:g}" for t in self.horizons),
                "--set",
                f"cells_per_unit={self.cells_per_unit}",
                "--set",
                "mu=" + ",".join(f"{m:g}" for m in self.mus),
                "--set",
                f"reps={self.reps_per_cell}",
                "--set",
                f"seed={seed}",
            ]
        ]

    def direct(self, seed):
        # module attributes are looked up per call, so a traced run sees them
        from mfou import numerics, riccati, transform
        from mfou.errors import MfouError

        horizon = self.horizons[0]
        grid = numerics.TimeGrid(horizon, int(round(self.cells_per_unit * horizon)))
        qv = transform.quadratic_variation(transform.build_kernel(0.7, grid))
        values, ops = {}, []
        for mu in self.mus:
            label = f"solve_M_equation mu={mu:g} T={horizon:g}"
            try:
                lam = riccati.eigen_split(1.0, mu)[0]
                values[label] = repr(float(riccati.solve_M_equation(lam, qv).trace_bound_max))
                ops.append((label, OK))
            except MfouError as exc:
                values[label] = type(exc).__name__
                ops.append((label, FAILED))
        return values, ops

    def check(self, seed, out, exit_codes):
        (rc,) = exit_codes
        ops = [("experiment cgf", _exit_status(rc))]
        rows = _read_csv(os.path.join(out, "cgf.csv")) if rc == 0 else []
        for row in rows:
            if row["blowup"] == "true":
                status = FAILED
            else:
                gap = abs(float(row["k_riccati"]) - float(row["k_liouville"]))
                status = OK if gap <= ROUTE_GAP_TOL else WRONG
            ops.append((f"row mu={row['mu']} T={row['T']}", status))
        return ops


class KernelCli(Workload):
    """Cold `estimate` then warm `kernel` per (H, n), through the kernel disk cache."""

    name = KERNEL
    cases = (("0.55", 768), ("0.7", 1088), ("0.5", 512))
    horizon = 10.0
    reps_per_case = 256
    reps = len(cases) * reps_per_case

    @staticmethod
    def _case_dir(out, hurst, cells):
        return os.path.join(out, f"H{hurst}-n{cells}")

    def commands(self, seed, out):
        argv = []
        for hurst, cells in self.cases:
            case_out = self._case_dir(out, hurst, cells)
            key = ["--set", f"H={hurst}", "--set", f"T={self.horizon:g}", "--set", f"cells={cells}"]
            argv.append(
                ["estimate", "--out", case_out, *key, "--set", f"reps={self.reps_per_case}",
                 "--set", f"seed={seed}"]
            )
            # `kernel` draws nothing, so it has no seed key
            argv.append(["kernel", "--out", case_out, *key])
        return argv

    def check(self, seed, out, exit_codes):
        ops = []
        codes = iter(exit_codes)
        for hurst, cells in self.cases:
            case_out = self._case_dir(out, hurst, cells)
            rc_estimate, rc_kernel = next(codes), next(codes)
            status = _exit_status(rc_estimate)
            if status == OK:
                rows = _read_csv(os.path.join(case_out, "estimates.csv"))
                if len(rows) != self.reps_per_case:
                    status = WRONG
                elif not all(math.isfinite(float(r["theta_hat"])) for r in rows):
                    status = FAILED
            ops.append((f"estimate H={hurst} n={cells}", status))
            status = _exit_status(rc_kernel)
            if status == OK:
                status = self._check_kernel_csv(float(hurst), cells, case_out)
            ops.append((f"kernel H={hurst} n={cells}", status))
        return ops

    def _check_kernel_csv(self, hurst, cells, case_out):
        import numpy as np

        from mfou.numerics import TimeGrid
        from tracer import collocation_reference

        rows = _read_csv(os.path.join(case_out, "kernel.csv"))
        t = np.array([float(r["t"]) for r in rows])
        bracket = np.array([float(r["bracket"]) for r in rows])
        psi = np.array([float(r["psi"]) for r in rows])
        if t.size != cells + 1:
            return WRONG
        if not (np.all(np.diff(bracket) > 0.0) and np.all(psi > 0.0)):
            return WRONG
        if hurst == 0.5:
            if np.max(np.abs(bracket - t / 2.0)) > CLOSED_FORM_TOL:
                return WRONG
            if np.max(np.abs(psi - 2.0)) > CLOSED_FORM_TOL:
                return WRONG
        grid = TimeGrid(self.horizon, cells)
        g_last = np.linalg.solve(collocation_reference(hurst, grid), np.ones(cells))
        reference = grid.dt * float(np.sum(g_last))
        if abs(bracket[-1] - reference) > DENSE_REL_TOL * abs(reference):
            return WRONG
        return OK


WORKLOADS = {w.name: w for w in (TailStudy(), CgfRoutes(), KernelCli())}


def science_hash(out, direct_values):
    """sha256 over every output file and the direct-step values.

    Manifests are hashed without `wall_clock_seconds`, which is the one field
    outside the byte-identical contract.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, out).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                data = handle.read()
            if filename.endswith("_manifest.json"):
                manifest = json.loads(data)
                manifest.pop("wall_clock_seconds", None)
                data = json.dumps(manifest, sort_keys=True).encode("utf-8")
            digest.update(data + b"\0")
    digest.update(json.dumps(direct_values, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()
