"""Replication studies for the drift estimator's limit behaviour.

Four desk-scale studies: normality of the scaled estimator, decay slopes of
tail probabilities over a horizon grid, convergence of the integrated-square
CGF to its closed-form limit, and equality of tail slopes across roughness
indices. Each study returns an ExperimentReport: one flat table (the CSV
contract) plus a manifest dict with per-cell detail and pass flags. Writing
files is the cli module's job.

Replications are evaluated in fixed-order chunks and reduced sequentially, so
a rerun with the same manifest reproduces every table byte for byte. Each
cell draws from its own stream keyed (experiment id, H index, T index,
variant) under the config's master seed; replications split that stream
further, so no two cells or replications share a generator.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.linalg.blas import dgemm
from scipy.special import betaincinv, ndtr, ndtri

from . import DEFAULT_SEED, MIN_CELLS, __version__
from .cli import _json_safe
from .errors import ConfigError, ExperimentInvalid, NumericalError
from .inference import estimate_batch
from .ldp import (
    empirical_cgf,
    k_limit,
    rate_function_numeric,
    rate_function_printed_reflected,
    tail_rate_numeric,
    tail_rate_printed,
)
from .numerics import RandomStream, TimeGrid
from .paths import ProcessSpec, fgn_autocovariance, sample_state_batch
from .riccati import k_T_via_liouville, k_T_via_riccati, solve_riccati
from .transform import build_kernel, quadratic_variation


# statistical gates; the variance band is relative to the target 2*theta
VAR_BAND = (0.8, 1.2)
KS_GATE = 0.05
CGF_LIMIT_GATE = 0.05
PAIR_SE_FACTOR = 2.0
MIN_NORMALITY_REPS = 500
MIN_HITS = 20
ATTRITION_LIMIT = 1e-3
MU_MARGIN = 0.1
CI_LEVEL = 0.95
QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)

_CHUNK = 2048
_EXP_NORMALITY = 1
_EXP_TAILS = 2
_EXP_CGF = 3
_EXP_HINV = 4

NORMALITY_COLUMNS = ("H", "T", "reps", "var_scaled", "ks_dist", "pass")
TAILS_COLUMNS = (
    "H",
    "gamma_lo",
    "gamma_hi",
    "T",
    "method",
    "reps",
    "hits",
    "p_hat",
    "ci_lo",
    "ci_hi",
    "log_p",
    "insufficient",
    "slope_raw",
    "slope_raw_se",
    "slope_adj",
    "slope_adj_se",
    "rate_printed",
    "rate_numeric",
)
CGF_COLUMNS = (
    "H",
    "mu",
    "T",
    "k_riccati",
    "k_liouville",
    "k_mc",
    "mc_stderr",
    "k_limit",
    "dist_riccati",
    "dist_liouville",
    "dist_mc",
    "mc_unreliable",
    "blowup",
)
HINV_COLUMNS = (
    "H",
    "gamma_lo",
    "gamma_hi",
    "reps",
    "points",
    "slope",
    "slope_se",
    "insufficient",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One flat bag of knobs shared by all four studies.

    `cells` fixes the lattice size per cell; `cells_per_unit` scales it with
    the horizon instead (exactly one of the two must be set). Tail sets are
    open intervals (lo, hi); either end may be infinite. `tilt` is the drift
    the sampler uses for importance-sampling passes; plain passes always use
    `theta`. `threads` caps the BLAS pool and is applied by the CLI before
    numpy loads; the studies themselves are single-threaded Python.
    """

    theta: float = 1.0
    hurst: tuple = (0.7,)
    horizons: tuple = (20.0,)
    cells: int | None = 512
    cells_per_unit: float | None = None
    reps: int = 2000
    master_seed: int = DEFAULT_SEED
    mu_grid: tuple = (0.0, 0.25, 0.5, 1.0)
    x_grid: tuple = ()
    tails: tuple = ((1.5, math.inf),)
    tilt: float | None = None
    threads: int | None = None

    def __post_init__(self):
        for name in ("hurst", "horizons", "mu_grid", "x_grid"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(
            self, "tails", tuple((float(lo), float(hi)) for lo, hi in self.tails)
        )
        for name in ("theta", "tilt", "cells_per_unit", "horizons", "mu_grid", "x_grid"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.theta > 0.0:
            raise ConfigError(f"theta must be positive, got {self.theta}")
        if not self.hurst:
            raise ConfigError("hurst list is empty")
        for h in self.hurst:
            if not 0.0 < h <= 1.0:
                raise ConfigError(f"H must lie in (0, 1], got {h}")
        if not self.horizons:
            raise ConfigError("horizon list is empty")
        for t in self.horizons:
            if not t > 0.0:
                raise ConfigError(f"T must be positive, got {t}")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ConfigError("horizons must be strictly increasing")
        if (self.cells is None) == (self.cells_per_unit is None):
            raise ConfigError("set exactly one of cells / cells_per_unit")
        if self.cells is not None and int(self.cells) < MIN_CELLS:
            raise ConfigError(f"cells must be at least {MIN_CELLS}, got {self.cells}")
        if self.cells_per_unit is not None and not self.cells_per_unit > 0.0:
            raise ConfigError(f"cells_per_unit must be positive, got {self.cells_per_unit}")
        if int(self.reps) < 1:
            raise ConfigError(f"reps must be at least 1, got {self.reps}")
        if int(self.master_seed) < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        for lo, hi in self.tails:
            if not lo < hi:
                raise ConfigError(f"tail interval ({lo}, {hi}) is empty")
        if self.tilt is not None and not self.tilt > 0.0:
            raise ConfigError(f"tilt must be a positive drift, got {self.tilt}")
        if self.threads is not None and int(self.threads) < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        object.__setattr__(self, "cells", None if self.cells is None else int(self.cells))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "threads", None if self.threads is None else int(self.threads))

    def grid_for(self, horizon: float) -> TimeGrid:
        if self.cells is not None:
            return TimeGrid(horizon=float(horizon), cells=self.cells)
        cells = int(round(self.cells_per_unit * horizon))
        if cells < MIN_CELLS:
            raise ConfigError(
                f"cells_per_unit={self.cells_per_unit} gives {cells} cells at T={horizon}, "
                f"need at least {MIN_CELLS}"
            )
        return TimeGrid(horizon=float(horizon), cells=cells)

    def to_manifest(self) -> dict:
        return _json_safe(asdict(self))

    @classmethod
    def from_manifest(cls, data: dict) -> "ExperimentConfig":
        names = set(cls.__dataclass_fields__)
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
        return cls(**data)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentReport:
    """One table (the CSV contract) plus a manifest of per-cell detail."""

    name: str
    columns: tuple
    rows: tuple
    manifest: dict

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ExperimentInvalid(
                    f"row width {len(row)} != {len(self.columns)} columns in {self.name}"
                )

    @property
    def passed(self) -> bool:
        return bool(self.manifest.get("pass"))


@dataclass(frozen=True)
class _CellDraws:
    """Estimates for one (H, T, drift) cell; `weights` once weighed to another drift."""

    theta_hat: np.ndarray
    failures: int
    reps: int
    weights: np.ndarray | None = None

    @property
    def attrition(self) -> float:
        return self.failures / self.reps


def _chain_precision(spec: ProcessSpec) -> np.ndarray:
    """Inverse innovation covariance of the sampled Euler chain, zero-padded to cells + 1.

    Under any drift theta the innovations dX + theta dt X_left of
    `sample_state_batch` are N(0, Sigma) with Sigma = dt I plus the fGn
    covariance, so the chain's log-likelihood is -theta a - theta^2/2 b +
    const with a = dt X_left' Sigma^{-1} dX and b = dt^2 X_left' Sigma^{-1}
    X_left. The zero last row and column drop X_T from X_left.
    """
    n, dt = spec.grid.cells, spec.grid.dt
    column = fgn_autocovariance(np.arange(n), spec.hurst, dt)
    column[0] += dt
    sigma = toeplitz(column)
    padded = np.zeros((n + 1, n + 1))
    padded[:n, :n] = cho_solve(cho_factor(sigma), np.eye(n))
    return padded


def _chain_statistics(states: np.ndarray, precision: np.ndarray, dt: float):
    """(a, b) of the chain's log-likelihood for every row of a state batch."""
    # one product on the Fortran views of the symmetric precision and of the
    # states, so neither is copied; row r of y is Sigma^{-1} X_left, then 0
    y = dgemm(1.0, precision.T, states.T).T
    quad = np.einsum("rk,rk->r", y, states)
    ahead = np.einsum("rk,rk->r", y[:, :-1], states[:, 1:])
    return dt * (ahead - quad), dt * dt * quad


def _collect_cell(
    config: ExperimentConfig, spec: ProcessSpec, kernel, qv, key, weigh_to: float | None = None
) -> _CellDraws:
    """Draw one cell; with `weigh_to`, also each path's chain likelihood ratio to that drift.

    A replication survives when `estimate_batch` gives it a finite estimate;
    a cell where none survives raises ExperimentInvalid.
    """
    base = RandomStream(master_seed=config.master_seed, key=tuple(key))
    precision = None if weigh_to is None else _chain_precision(spec)
    draws = []
    for lo in range(0, config.reps, _CHUNK):
        ids = range(lo, min(lo + _CHUNK, config.reps))
        states = sample_state_batch(spec, base, ids)
        chunk = (estimate_batch(states, kernel, qv)[0],)
        if precision is not None:
            a, b = _chain_statistics(states, precision, spec.grid.dt)
            chunk += (_importance_weights(weigh_to, spec.theta, a, b),)
        draws.append(chunk)
    theta_hat, *weights = (np.concatenate(column) for column in zip(*draws))
    good = np.isfinite(theta_hat)
    survivors = int(np.count_nonzero(good))
    if survivors == 0:
        raise ExperimentInvalid(
            f"no replication gave a finite estimate at H={spec.hurst}, "
            f"T={spec.grid.horizon}, drift {spec.theta}"
        )
    return _CellDraws(
        theta_hat=theta_hat[good],
        failures=config.reps - survivors,
        reps=config.reps,
        weights=weights[0][good] if weights else None,
    )


def _importance_weights(theta_target: float, theta_sim: float, a, b) -> np.ndarray:
    """Per-path dP(theta_target)/dP(theta_sim) for a likelihood exp(-theta a - theta^2/2 b)."""
    lw = (theta_sim - theta_target) * a + 0.5 * (
        theta_sim * theta_sim - theta_target * theta_target
    ) * b
    return np.exp(lw)


def ks_distance(sample, sd: float) -> float:
    """Sup distance between the sample's empirical CDF and a centred normal."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise ExperimentInvalid("KS distance of an empty sample")
    u = ndtr(x / sd)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def clopper_pearson(hits: int, trials: int) -> tuple:
    """Exact CI_LEVEL binomial interval via Beta quantiles; closed at empty/full counts."""
    alpha = 1.0 - CI_LEVEL
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - alpha / 2.0))
    return lo, hi


def _wls_line(t, y, w) -> tuple:
    """Weighted least-squares line; slope variance taken from the weights."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    sw = float(np.sum(w))
    tm = float(np.sum(w * t)) / sw
    ym = float(np.sum(w * y)) / sw
    sxx = float(np.sum(w * (t - tm) ** 2))
    if sxx <= 0.0:
        raise ExperimentInvalid("slope fit needs at least two distinct horizons")
    slope = float(np.sum(w * (t - tm) * (y - ym))) / sxx
    return slope, math.sqrt(1.0 / sxx), ym - slope * tm


def _check_prob(p: float, lo: float, hi: float, context: str) -> None:
    if not (0.0 <= lo <= p <= hi <= 1.0):
        raise ExperimentInvalid(f"{context}: interval [{lo}, {hi}] around {p} is malformed")


def _cells(config: ExperimentConfig, built: list):
    """(h_idx, t_idx, kernel, qv, spec) for every (H, T) cell, H-major.

    The meta of every kernel built is appended to `built`.
    """
    for h_idx, hurst in enumerate(config.hurst):
        for t_idx, horizon in enumerate(config.horizons):
            grid = config.grid_for(horizon)
            kernel = build_kernel(hurst, grid)
            built.append(kernel.meta)
            qv = quadratic_variation(kernel)
            spec = ProcessSpec(hurst=hurst, theta=config.theta, grid=grid)
            yield h_idx, t_idx, kernel, qv, spec


def _base_manifest(name: str, config: ExperimentConfig, t0: float, built: list) -> dict:
    """Manifest head; `diagnostics` holds the worst health over the kernels built."""
    return {
        "experiment": name,
        "config": config.to_manifest(),
        "config_hash": config.config_hash(),
        "version": __version__,
        "wall_clock_seconds": time.time() - t0,
        "diagnostics": {
            "kernels": len(built),
            "max_residual": max(meta["max_residual"] for meta in built),
            "min_pivot": min(meta["min_pivot"] for meta in built),
        },
    }


def run_normality(config: ExperimentConfig) -> ExperimentReport:
    """Sampling distribution of sqrt(T)(theta_hat - theta) against N(0, 2 theta).

    Per (H, T) cell: mean and variance of the scaled estimator, KS distance
    to the target normal, and a quantile table (manifest). A cell passes when
    the variance sits within 20% of 2*theta and the KS distance is at most
    0.05; replication failures are counted as attrition, and a cell with
    attrition at or above 0.1% is invalid.
    """
    if config.reps < MIN_NORMALITY_REPS:
        raise ConfigError(f"normality needs at least {MIN_NORMALITY_REPS} reps, got {config.reps}")
    t0 = time.time()
    sd = math.sqrt(2.0 * config.theta)
    rows, cells, built = [], [], []
    for h_idx, t_idx, kernel, qv, spec in _cells(config, built):
        draws = _collect_cell(config, spec, kernel, qv, (_EXP_NORMALITY, h_idx, t_idx))
        scaled = math.sqrt(spec.grid.horizon) * (draws.theta_hat - config.theta)
        mean = float(np.mean(scaled))
        var = float(np.var(scaled, ddof=1))
        ks = ks_distance(scaled, sd)
        valid = draws.attrition < ATTRITION_LIMIT
        target = 2.0 * config.theta
        ok = bool(
            valid and VAR_BAND[0] * target <= var <= VAR_BAND[1] * target and ks <= KS_GATE
        )
        rows.append((spec.hurst, spec.grid.horizon, config.reps, var, ks, ok))
        cells.append(
            {
                "H": spec.hurst,
                "T": spec.grid.horizon,
                "cells": spec.grid.cells,
                "reps": config.reps,
                "attrition": draws.attrition,
                "valid": valid,
                "mean_scaled": mean,
                "mean_se": math.sqrt(var / scaled.size),
                "var_scaled": var,
                "ks_dist": ks,
                "quantile_probs": list(QUANTILE_PROBS),
                "quantiles_sample": np.quantile(scaled, QUANTILE_PROBS).tolist(),
                "quantiles_normal": [sd * float(ndtri(p)) for p in QUANTILE_PROBS],
                "pass": ok,
            }
        )
    manifest = _base_manifest("normality", config, t0, built)
    manifest["cells"] = cells
    manifest["pass"] = all(c["pass"] for c in cells)
    return ExperimentReport("normality", NORMALITY_COLUMNS, tuple(rows), manifest)


def _expected_hits_warning(config: ExperimentConfig) -> None:
    """Normal-approximation estimate of per-cell hit counts, warned when thin."""
    for hurst in config.hurst:
        for horizon in config.horizons:
            sd = math.sqrt(2.0 * config.theta / horizon)
            for lo, hi in config.tails:
                p = float(ndtr((hi - config.theta) / sd) - ndtr((lo - config.theta) / sd))
                expected = p * config.reps
                if expected < MIN_HITS:
                    warnings.warn(
                        f"tail ({lo}, {hi}) at H={hurst}, T={horizon} expects "
                        f"~{expected:.1f} hits (< {MIN_HITS}); importance sampling "
                        "will be needed",
                        RuntimeWarning,
                        stacklevel=3,
                    )


def _tail_cell_estimates(draws, tilted, gamma):
    """Plain and (when available) tilted estimates of P(theta_hat in gamma)."""
    lo, hi = gamma
    out = []
    ind = (draws.theta_hat > lo) & (draws.theta_hat < hi)
    hits = int(np.count_nonzero(ind))
    n = draws.theta_hat.size
    p = hits / n
    ci_lo, ci_hi = clopper_pearson(hits, n)
    var_logp = (1.0 - p) / (n * p) if 0.0 < p < 1.0 else math.nan
    out.append(
        {
            "method": "plain",
            "reps": n,
            "hits": hits,
            "p": p,
            "ci": (ci_lo, ci_hi),
            "var_logp": var_logp,
            "insufficient": hits < MIN_HITS,
        }
    )
    if tilted is not None:
        ind_t = (tilted.theta_hat > lo) & (tilted.theta_hat < hi)
        terms = tilted.weights * ind_t
        n_t = tilted.theta_hat.size
        p_t = min(max(float(np.mean(terms)), 0.0), 1.0)
        se = float(np.std(terms, ddof=1)) / math.sqrt(n_t)
        hits_t = int(np.count_nonzero(ind_t))
        z = float(ndtri(0.5 + CI_LEVEL / 2.0))
        ci_t = (max(p_t - z * se, 0.0), min(p_t + z * se, 1.0))
        var_logp_t = (se / p_t) ** 2 if p_t > 0.0 else math.nan
        out.append(
            {
                "method": "tilted",
                "reps": n_t,
                "hits": hits_t,
                "p": p_t,
                "ci": ci_t,
                "var_logp": var_logp_t,
                "insufficient": hits_t < MIN_HITS,
                "weight_mean": float(np.mean(tilted.weights)),
                "weight_ess": float(np.sum(tilted.weights)) ** 2 / float(np.sum(tilted.weights**2)),
            }
        )
    return out


def _preferred(estimates) -> dict:
    plain = estimates[0]
    if not plain["insufficient"] or len(estimates) == 1:
        return plain
    return estimates[1]


def _scan_tails(config: ExperimentConfig, exp_id: int, gammas, built: list):
    """Per-(H, T) simulation shared across tail sets.

    Returns (cell records, per-(H, gamma) series) where each series entry is
    the preferred estimate (plain unless its hit count is too thin and a
    tilted pass exists). The meta of every kernel built is appended to `built`.
    """
    records = []
    series = {}
    for h_idx, t_idx, kernel, qv, spec in _cells(config, built):
        draws = _collect_cell(config, spec, kernel, qv, (exp_id, h_idx, t_idx, 0))
        tilted = None
        if config.tilt is not None:
            spec_t = ProcessSpec(hurst=spec.hurst, theta=config.tilt, grid=spec.grid)
            tilted = _collect_cell(
                config, spec_t, kernel, qv, (exp_id, h_idx, t_idx, 1), config.theta
            )
        attrition = max(
            draws.attrition, tilted.attrition if tilted is not None else 0.0
        )
        for g_idx, gamma in enumerate(gammas):
            ests = _tail_cell_estimates(draws, tilted, gamma)
            for est in ests:
                _check_prob(est["p"], est["ci"][0], est["ci"][1], "tail cell")
            chosen = _preferred(ests)
            overlap = None
            if len(ests) == 2:
                overlap = bool(
                    ests[0]["ci"][0] <= ests[1]["ci"][1]
                    and ests[1]["ci"][0] <= ests[0]["ci"][1]
                )
            records.append(
                {
                    "H": spec.hurst,
                    "T": spec.grid.horizon,
                    "gamma": gamma,
                    "estimates": ests,
                    "chosen": chosen,
                    "overlap": overlap,
                    "attrition": attrition,
                    "valid": attrition < ATTRITION_LIMIT,
                }
            )
            series.setdefault((h_idx, g_idx), []).append((spec.grid.horizon, chosen))
    return records, series


def _series_slopes(points):
    """Raw and prefactor-adjusted WLS slopes of log p over the horizon grid.

    The adjusted fit removes the generic 0.5*log T prefactor drift before
    fitting, so its slope tracks the pure exponential decay rate.
    """
    usable = [
        (t, est) for t, est in points
        if not est["insufficient"] and 0.0 < est["p"] < 1.0 and math.isfinite(est["var_logp"])
    ]
    if len(usable) < 2:
        return None
    t = [u[0] for u in usable]
    y = [math.log(u[1]["p"]) for u in usable]
    w = [1.0 / max(u[1]["var_logp"], 1e-12) for u in usable]
    slope_raw, se_raw, _ = _wls_line(t, y, w)
    y_adj = [yi + 0.5 * math.log(ti) for ti, yi in zip(t, y)]
    slope_adj, se_adj, _ = _wls_line(t, y_adj, w)
    return {
        "points": len(usable),
        "slope_raw": slope_raw,
        "slope_raw_se": se_raw,
        "slope_adj": slope_adj,
        "slope_adj_se": se_adj,
    }


def run_tail_slopes(config: ExperimentConfig) -> ExperimentReport:
    """Tail probabilities of the estimator across horizons, with decay slopes.

    Per (H, tail, T) cell: hit count, exact binomial interval, and when a
    tilt is configured an importance-sampled estimate weighted back to the
    base drift by the sampled chain's likelihood ratio; thin cells (under 20
    hits) fall back to the tilted estimate and are flagged. Per (H, tail):
    weighted least-squares slope of log p against T, raw and with the
    0.5*log T prefactor removed, next to the closed-form reference rates: the
    two-branch printed formula read at -x and the numeric infimum in b = +x*a.
    """
    if not config.tails:
        raise ConfigError("tail slope study needs at least one tail interval")
    t0 = time.time()
    _expected_hits_warning(config)
    built = []
    records, series = _scan_tails(config, _EXP_TAILS, config.tails, built)
    slope_info = {}
    for (h_idx, g_idx), points in series.items():
        gamma = config.tails[g_idx]
        info = _series_slopes(points)
        refs = {
            "rate_printed": tail_rate_printed(gamma[0], gamma[1], config.theta),
            "rate_numeric": tail_rate_numeric(gamma[0], gamma[1], config.theta),
        }
        slope_info[(h_idx, g_idx)] = (info, refs)

    rows = []
    h_index = {h: i for i, h in enumerate(config.hurst)}
    g_index = {g: i for i, g in enumerate(config.tails)}
    for rec in records:
        info, refs = slope_info[(h_index[rec["H"]], g_index[rec["gamma"]])]
        for est in rec["estimates"]:
            rows.append(
                (
                    rec["H"],
                    rec["gamma"][0],
                    rec["gamma"][1],
                    rec["T"],
                    est["method"],
                    est["reps"],
                    est["hits"],
                    est["p"],
                    est["ci"][0],
                    est["ci"][1],
                    math.log(est["p"]) if est["p"] > 0.0 else -math.inf,
                    est["insufficient"],
                    info["slope_raw"] if info else math.nan,
                    info["slope_raw_se"] if info else math.nan,
                    info["slope_adj"] if info else math.nan,
                    info["slope_adj_se"] if info else math.nan,
                    refs["rate_printed"],
                    refs["rate_numeric"],
                )
            )

    manifest = _base_manifest("tails", config, t0, built)
    manifest["cells"] = [
        {
            "H": rec["H"],
            "T": rec["T"],
            "gamma": rec["gamma"],
            "attrition": rec["attrition"],
            "valid": rec["valid"],
            "intervals_overlap": rec["overlap"],
            "estimates": rec["estimates"],
        }
        for rec in records
    ]
    manifest["slopes"] = [
        {
            "H": config.hurst[h_idx],
            "gamma": config.tails[g_idx],
            "fit": info,
            "rates": refs,
        }
        for (h_idx, g_idx), (info, refs) in sorted(slope_info.items())
    ]
    if config.x_grid:
        manifest["rate_table"] = [
            {
                "x": x,
                "printed": rate_function_printed_reflected(x, config.theta),
                "numeric": rate_function_numeric(x, config.theta),
            }
            for x in config.x_grid
        ]
    consistency = [rec["overlap"] for rec in records if rec["overlap"] is not None]
    manifest["pass"] = bool(
        all(rec["valid"] for rec in records)
        and all(info is not None for info, _ in slope_info.values())
        and all(consistency)
    )
    return ExperimentReport("tails", TAILS_COLUMNS, tuple(rows), manifest)


CGF_ROUTES = ("riccati", "liouville", "mc")


def cgf_route(route: str, theta, mu, spec, kernel, qv, reps: int, stream):
    """K_T(mu) by one of CGF_ROUTES; Monte Carlo returns its whole estimate record.

    The route functions are read from this module's namespace at each call, so
    a patched or traced route is the one that runs.
    """
    if route == "riccati":
        return k_T_via_riccati(solve_riccati(theta, mu, qv))
    if route == "liouville":
        return k_T_via_liouville(theta, mu, qv)
    if route == "mc":
        return empirical_cgf(0.0, -mu, spec, kernel, qv, reps, stream)
    raise ValueError(f"unknown CGF route {route!r}")


def run_cgf_convergence(config: ExperimentConfig) -> ExperimentReport:
    """K_T by all three routes across the horizon grid, against the limit.

    Per (H, mu, T) cell: the trace route, the determinant route, and the
    Monte Carlo estimate with its delta-method standard error, plus distances
    to the closed-form limit. Each route's numerical failure is recorded in
    its own field of the cell (`blowup` is set when any route failed) and
    does not discard the other routes' values. The trend per (H, mu) runs
    over the Riccati distances and passes when they do not increase along the
    horizon grid and the last one is within 0.05.
    """
    if not config.mu_grid:
        raise ConfigError("cgf study needs a mu lattice")
    floor = -0.5 * config.theta**2 + MU_MARGIN
    for mu in config.mu_grid:
        if mu < floor - 1e-12:
            raise ConfigError(
                f"mu={mu} too close to the domain edge -theta^2/2; need mu >= {floor}"
            )
    t0 = time.time()
    rows, cells, built = [], [], []
    dists = {}
    for h_idx, t_idx, kernel, qv, spec in _cells(config, built):
        for m_idx, mu in enumerate(config.mu_grid):
            lim = k_limit(mu, config.theta) + 0.0
            stream = RandomStream(
                master_seed=config.master_seed, key=(_EXP_CGF, h_idx, t_idx, m_idx)
            )
            results, errors = {}, dict.fromkeys(CGF_ROUTES, "")
            for route in CGF_ROUTES:
                try:
                    results[route] = cgf_route(
                        route, config.theta, mu, spec, kernel, qv, config.reps, stream
                    )
                except NumericalError as exc:
                    errors[route] = f"{type(exc).__name__}: {exc}"
            k_ric = ric_estimate = k_lio = lio_estimate = k_mc = mc_se = math.nan
            unreliable = False
            if "riccati" in results:
                k_ric, ric_estimate = float(results["riccati"]), results["riccati"].error
            if "liouville" in results:
                k_lio, lio_estimate = float(results["liouville"]), results["liouville"].error
            if "mc" in results:
                est = results["mc"]
                k_mc, mc_se = est.value, est.stderr
                unreliable = bool(est.unreliable or est.heavy_tail)
            blowup = any(errors.values())
            d_ric = abs(k_ric - lim)
            d_lio = abs(k_lio - lim)
            d_mc = abs(k_mc - lim)
            rows.append(
                (
                    spec.hurst,
                    mu,
                    spec.grid.horizon,
                    k_ric,
                    k_lio,
                    k_mc,
                    mc_se,
                    lim,
                    d_ric,
                    d_lio,
                    d_mc,
                    unreliable,
                    blowup,
                )
            )
            cells.append(
                {
                    "H": spec.hurst,
                    "mu": mu,
                    "T": spec.grid.horizon,
                    "cells": spec.grid.cells,
                    "k_riccati": k_ric,
                    "k_liouville": k_lio,
                    "k_mc": k_mc,
                    "mc_stderr": mc_se,
                    "k_limit": lim,
                    **{f"{name}_error": err for name, err in errors.items()},
                    "riccati_error_estimate": ric_estimate,
                    "liouville_error_estimate": lio_estimate,
                    "blowup": blowup,
                }
            )
            if not errors["riccati"]:
                dists.setdefault((h_idx, m_idx), []).append(d_ric)
    trends = []
    for (h_idx, m_idx), seq in sorted(dists.items()):
        monotone = all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
        trends.append(
            {
                "H": config.hurst[h_idx],
                "mu": config.mu_grid[m_idx],
                "distances": seq,
                "monotone": bool(monotone),
                "final_within": bool(seq[-1] <= CGF_LIMIT_GATE),
                "pass": bool(monotone and seq[-1] <= CGF_LIMIT_GATE),
            }
        )
    manifest = _base_manifest("cgf", config, t0, built)
    manifest["cells"] = cells
    manifest["trends"] = trends
    manifest["pass"] = bool(
        trends and all(t["pass"] for t in trends) and not any(r[-1] for r in rows)
    )
    return ExperimentReport("cgf", CGF_COLUMNS, tuple(rows), manifest)


def run_h_invariance(config: ExperimentConfig) -> ExperimentReport:
    """Tail-decay slopes across roughness indices, tested for pairwise equality.

    Uses the first configured tail interval. Each H gets the same horizon
    grid and replication budget; the claim passes when every pairwise slope
    difference stays within two pooled standard errors. A single-H config is
    degenerate: the report carries no comparisons and passes.
    """
    if not config.tails:
        raise ConfigError("H-invariance study needs a tail interval")
    if len(config.hurst) >= 2 and (min(config.hurst) > 0.55 or max(config.hurst) < 0.9):
        warnings.warn(
            "H grid does not span [0.55, 0.9]; the invariance check is local",
            RuntimeWarning,
            stacklevel=2,
        )
    t0 = time.time()
    gamma = config.tails[0]
    _expected_hits_warning(config)
    built = []
    records, series = _scan_tails(config, _EXP_HINV, (gamma,), built)
    rows, fits = [], {}
    for h_idx, hurst in enumerate(config.hurst):
        info = _series_slopes(series[(h_idx, 0)])
        fits[h_idx] = info
        insufficient = any(est["insufficient"] for _, est in series[(h_idx, 0)])
        rows.append(
            (
                hurst,
                gamma[0],
                gamma[1],
                config.reps,
                info["points"] if info else 0,
                info["slope_raw"] if info else math.nan,
                info["slope_raw_se"] if info else math.nan,
                insufficient,
            )
        )
    pairs = []
    for i in range(len(config.hurst)):
        for j in range(i + 1, len(config.hurst)):
            fi, fj = fits[i], fits[j]
            if fi is None or fj is None:
                pairs.append(
                    {"pair": [config.hurst[i], config.hurst[j]], "pass": False, "reason": "no fit"}
                )
                continue
            diff = abs(fi["slope_raw"] - fj["slope_raw"])
            pooled = math.hypot(fi["slope_raw_se"], fj["slope_raw_se"])
            pairs.append(
                {
                    "pair": [config.hurst[i], config.hurst[j]],
                    "diff": diff,
                    "pooled_se": pooled,
                    "limit": PAIR_SE_FACTOR * pooled,
                    "pass": bool(diff <= PAIR_SE_FACTOR * pooled),
                }
            )
    manifest = _base_manifest("h_invariance", config, t0, built)
    manifest["cells"] = [
        {
            "H": rec["H"],
            "T": rec["T"],
            "gamma": gamma,
            "attrition": rec["attrition"],
            "valid": rec["valid"],
            "p": rec["chosen"]["p"],
            "hits": rec["chosen"]["hits"],
            "method": rec["chosen"]["method"],
        }
        for rec in records
    ]
    manifest["pairs"] = pairs
    manifest["pass"] = bool(
        all(rec["valid"] for rec in records) and all(p["pass"] for p in pairs)
    )
    return ExperimentReport("h_invariance", HINV_COLUMNS, tuple(rows), manifest)
