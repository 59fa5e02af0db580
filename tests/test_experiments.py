import math
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.linalg import cho_factor, cho_solve

from mfou import experiments
from mfou.errors import ConfigError, ExperimentInvalid
from mfou.experiments import (
    CGF_COLUMNS,
    DEFAULT_SEED,
    HINV_COLUMNS,
    NORMALITY_COLUMNS,
    TAILS_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    _chain_precision,
    _chain_statistics,
    _collect_cell,
    _expected_hits_warning,
    _importance_weights,
    _tail_cell_estimates,
    _wls_line,
    clopper_pearson,
    ks_distance,
    run_cgf_convergence,
    run_h_invariance,
    run_normality,
    run_tail_slopes,
)
from mfou.inference import (
    compute_Q_batch,
    compute_Z_batch,
    path_statistics_batch,
    sufficient_statistics_batch,
)
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import ProcessSpec, sample_state_batch
from mfou.transform import build_kernel, quadratic_variation
from oracles import fgn_covariance_matrix


def test_config_defaults_and_roundtrip():
    config = ExperimentConfig()
    assert config.theta == 1.0
    assert config.hurst == (0.7,)
    assert config.master_seed == DEFAULT_SEED
    back = ExperimentConfig.from_manifest(config.to_manifest())
    assert back == config
    assert back.config_hash() == config.config_hash()


def test_config_roundtrip_with_infinite_tail():
    config = ExperimentConfig(tails=((1.5, math.inf), (-math.inf, -0.5)))
    data = config.to_manifest()
    assert data["tails"] == [[1.5, "inf"], ["-inf", -0.5]]
    back = ExperimentConfig.from_manifest(data)
    assert back.tails == config.tails
    assert back.config_hash() == config.config_hash()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta": math.inf},
        {"tilt": math.inf},
        {"horizons": (5.0, math.inf)},
        {"cells": None, "cells_per_unit": math.inf},
        {"mu_grid": (0.25, math.nan)},
        {"x_grid": (math.inf,)},
    ],
)
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ConfigError, match="must be finite"):
        ExperimentConfig(**kwargs)


def test_config_hash_tracks_content():
    a = ExperimentConfig(reps=2000)
    b = ExperimentConfig(reps=2001)
    assert a.config_hash() != b.config_hash()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(theta=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(hurst=(1.2,))
    with pytest.raises(ConfigError):
        ExperimentConfig(horizons=(10.0, 5.0))
    with pytest.raises(ConfigError):
        ExperimentConfig(cells=512, cells_per_unit=20.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(cells=None)
    with pytest.raises(ConfigError):
        ExperimentConfig(reps=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(tails=((2.0, 1.0),))
    with pytest.raises(ConfigError):
        ExperimentConfig(tilt=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_manifest({"bogus_key": 1})
    with pytest.raises(ConfigError, match="a_grid"):
        ExperimentConfig.from_manifest({"a_grid": [0.0], "b_grid": []})


def test_grid_for_scaling():
    fixed = ExperimentConfig(cells=128)
    assert fixed.grid_for(5.0).cells == 128
    assert fixed.grid_for(20.0).cells == 128
    scaled = ExperimentConfig(cells=None, cells_per_unit=51.2)
    assert scaled.grid_for(5.0).cells == 256
    assert scaled.grid_for(20.0).cells == 1024


def test_report_row_width_guard():
    with pytest.raises(ExperimentInvalid):
        ExperimentReport(name="x", columns=("a", "b"), rows=((1,),), manifest={})


def test_ks_distance_point_mass():
    assert ks_distance(np.array([0.0]), 1.0) == pytest.approx(0.5)


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(8)
    sample = rng.standard_normal(400) * 1.4
    ours = ks_distance(sample, 1.4)
    ref = scipy.stats.kstest(sample, "norm", args=(0.0, 1.4)).statistic
    assert ours == pytest.approx(ref, abs=1e-12)
    assert ks_distance(sample / 1.4, 1.0) == pytest.approx(ours, abs=1e-12)


def test_clopper_pearson_edges_and_interior():
    n = 40
    lo, hi = clopper_pearson(0, n)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / n))
    lo, hi = clopper_pearson(n, n)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1.0 / n))
    lo, hi = clopper_pearson(13, n)
    ref = scipy.stats.binomtest(13, n).proportion_ci(confidence_level=0.95, method="exact")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)
    # one and two hits or misses, where the Beta quantiles are most skewed;
    # relative, since older scipy computes betaincinv and beta.ppf by
    # different routines
    for trials in (40, 10_000):
        for hits in (1, 2, trials - 2, trials - 1):
            lo, hi = clopper_pearson(hits, trials)
            want_lo = scipy.stats.beta.ppf(0.025, hits, trials - hits + 1)
            want_hi = scipy.stats.beta.ppf(0.975, hits + 1, trials - hits)
            assert lo == pytest.approx(want_lo, rel=1e-12, abs=0.0)
            assert hi == pytest.approx(want_hi, rel=1e-12, abs=0.0)


def test_wls_line_matches_polyfit():
    t = np.array([5.0, 10.0, 15.0, 20.0])
    y = np.array([-0.4, -0.9, -1.2, -1.8])
    w = np.array([30.0, 14.0, 8.0, 2.0])
    slope, se, intercept = _wls_line(t, y, w)
    coef = np.polyfit(t, y, 1, w=np.sqrt(w))
    assert slope == pytest.approx(coef[0])
    assert intercept == pytest.approx(coef[1])
    assert se > 0.0
    with pytest.raises(ExperimentInvalid):
        _wls_line([5.0, 5.0], [1.0, 2.0], [1.0, 1.0])


def test_importance_weights_match_girsanov(kernel_07, qv_07):
    theta_target, theta_sim = 1.0, 2.0
    spec = ProcessSpec(0.7, theta_sim, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(55), range(4))
    z = compute_Z_batch(states, kernel_07)
    q, _ = compute_Q_batch(z, qv_07)
    nums, dens = sufficient_statistics_batch(q, z, qv_07)
    weights = _importance_weights(theta_target, theta_sim, nums, dens)

    # dP(target)/dP(sim) = exp(l(target) - l(sim)) with the log-likelihood
    # l(theta) = -theta * int Q dZ - theta^2/2 * int Q^2 d<M>
    def loglik(theta, r):
        return -theta * nums[r] - 0.5 * theta**2 * dens[r]

    for r in range(4):
        expected = math.exp(loglik(theta_target, r) - loglik(theta_sim, r))
        assert weights[r] == pytest.approx(expected, rel=1e-12)


def test_chain_weight_has_unit_mean():
    # dP(2)/dP(1) of the sampled chain on paths drawn under drift 1 has mean
    # exactly 1; the continuous-time weight from (int Q dZ, int Q^2 d<M>) is
    # biased low on this lattice (0.968 +- 0.008 on these paths)
    grid = TimeGrid(5.0, 256)
    spec = ProcessSpec(0.7, 1.0, grid)
    precision = _chain_precision(spec)
    base = RandomStream(DEFAULT_SEED, (8,))
    stats = [
        _chain_statistics(sample_state_batch(spec, base, range(lo, lo + 2000)), precision, grid.dt)
        for lo in range(0, 20000, 2000)
    ]
    a, b = (np.concatenate(s) for s in zip(*stats))
    w = _importance_weights(2.0, 1.0, a, b)
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 2.0 * se
    assert se < 0.01


@pytest.mark.parametrize("hurst", [0.55, 0.9])
@pytest.mark.parametrize("cells", [128, 384])
def test_chain_precision_matches_dense_sigma(hurst, cells):
    # Sigma from its Toeplitz column holds the same bits as the element-wise dense matrix
    spec = ProcessSpec(hurst, 1.0, TimeGrid(5.0, cells))
    dt = spec.grid.dt
    sigma = dt * np.eye(cells) + fgn_covariance_matrix(cells, hurst, dt)
    precision = _chain_precision(spec)
    assert np.array_equal(precision[:cells, :cells], cho_solve(cho_factor(sigma), np.eye(cells)))
    assert not precision[cells].any() and not precision[:, cells].any()


def test_chain_statistics_at_h_half(kernel_half, qv_half):
    # at H = 1/2 the innovations are white with variance 2 dt: a is int Q dZ,
    # and the trapezoid denominator adds the half end cell dt X_T^2 / 4 to b
    dt = kernel_half.grid.dt
    spec = ProcessSpec(0.5, 1.4, kernel_half.grid)
    states = sample_state_batch(spec, RandomStream(55), range(16))
    a, b = _chain_statistics(states, _chain_precision(spec), dt)
    num, den = path_statistics_batch(states, kernel_half, qv_half)
    assert np.allclose(a, num, rtol=0.0, atol=1e-12)
    assert np.allclose(den - b, dt * states[:, -1] ** 2 / 4.0, rtol=0.0, atol=1e-13)


def test_cell_without_survivors_raises(monkeypatch):
    # every replication's estimate NaN: the cell names H, T and the drift
    config = ExperimentConfig(hurst=(0.7,), horizons=(2.0,), cells=16, reps=4)
    grid = config.grid_for(2.0)
    kernel = build_kernel(0.7, grid)
    qv = quadratic_variation(kernel)

    def all_nan(states, kernel, qv):
        nan = np.full(len(states), np.nan)
        return nan, nan, nan

    monkeypatch.setattr(experiments, "estimate_batch", all_nan)
    with pytest.raises(ExperimentInvalid, match=r"H=0\.7, T=2\.0, drift 1\.4$"):
        _collect_cell(config, ProcessSpec(0.7, 1.4, grid), kernel, qv, (3, 0, 0, 1), 1.0)


def test_tilted_tail_agrees_with_plain():
    # P(theta_hat > 1.5) at H = 0.7, T = 5: the tilted pass, drawn under
    # drift 1.4 and weighted back to 1, against the plain pass
    config = ExperimentConfig(hurst=(0.7,), horizons=(5.0,), cells=128, reps=4000, tilt=1.4)
    grid = config.grid_for(5.0)
    kernel = build_kernel(0.7, grid)
    qv = quadratic_variation(kernel)
    plain = _collect_cell(config, ProcessSpec(0.7, 1.0, grid), kernel, qv, (3, 0, 0, 0))
    tilted = _collect_cell(config, ProcessSpec(0.7, 1.4, grid), kernel, qv, (3, 0, 0, 1), 1.0)
    ests = _tail_cell_estimates(plain, tilted, (1.5, math.inf))
    (p, se), (p_t, se_t) = ((e["p"], e["p"] * math.sqrt(e["var_logp"])) for e in ests)
    assert [e["method"] for e in ests] == ["plain", "tilted"]
    assert 0.25 < p < 0.45
    assert se_t < se  # the tilt puts more paths in the tail
    assert abs(p_t - p) <= 2.0 * math.hypot(se, se_t)


def test_expected_hits_warning():
    thin = ExperimentConfig(horizons=(20.0,), reps=100, tails=((1.5, math.inf),), cells=64)
    with pytest.warns(RuntimeWarning, match="importance sampling"):
        _expected_hits_warning(thin)
    rich = ExperimentConfig(horizons=(5.0,), reps=5000, tails=((1.5, math.inf),), cells=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _expected_hits_warning(rich)


def test_normality_needs_reps():
    with pytest.raises(ConfigError):
        run_normality(ExperimentConfig(reps=100, cells=64))


def test_normality_rows_and_determinism():
    config = ExperimentConfig(hurst=(0.5,), horizons=(4.0,), cells=64, reps=500)
    report = run_normality(config)
    again = run_normality(config)
    assert report.columns == NORMALITY_COLUMNS
    assert len(report.rows) == 1
    assert report.rows == again.rows
    row = dict(zip(report.columns, report.rows[0]))
    assert row["H"] == 0.5
    assert row["T"] == 4.0
    assert row["reps"] == 500
    assert row["var_scaled"] > 0.0
    assert 0.0 <= row["ks_dist"] <= 1.0
    cell = report.manifest["cells"][0]
    assert cell["attrition"] == 0.0
    assert len(cell["quantiles_sample"]) == 5
    assert report.manifest["config_hash"] == config.config_hash()


def test_tail_slopes_small_run():
    config = ExperimentConfig(
        hurst=(0.7,),
        horizons=(2.0, 4.0),
        cells=64,
        reps=400,
        tails=((1.0, math.inf),),
        tilt=2.0,
    )
    report = run_tail_slopes(config)
    assert report.columns == TAILS_COLUMNS
    # one row per (tail, horizon, method)
    assert len(report.rows) == 4
    rows = [dict(zip(report.columns, r)) for r in report.rows]
    methods = {(r["T"], r["method"]) for r in rows}
    assert methods == {(2.0, "plain"), (2.0, "tilted"), (4.0, "plain"), (4.0, "tilted")}
    for r in rows:
        assert 0.0 <= r["ci_lo"] <= r["p_hat"] <= r["ci_hi"] <= 1.0
        # both rates touch zero at this tail's end x = theta
        assert r["rate_printed"] == 0.0
        assert r["rate_numeric"] == pytest.approx(0.0, abs=1e-8)
    for cell in report.manifest["cells"]:
        plain, tilted = cell["estimates"]
        assert "weight_mean" not in plain
        assert tilted["weight_mean"] > 0.0
        assert 1.0 <= tilted["weight_ess"] <= 400.0
    slopes = report.manifest["slopes"]
    assert len(slopes) == 1  # one fit per (H, tail), on the preferred series
    fit = slopes[0]["fit"]
    assert fit["points"] == 2
    assert math.isfinite(fit["slope_raw"])
    assert fit["slope_adj_se"] == fit["slope_raw_se"]


def test_tail_insufficient_marks_row():
    config = ExperimentConfig(
        hurst=(0.7,), horizons=(2.0,), cells=64, reps=60, tails=((4.0, math.inf),)
    )
    with pytest.warns(RuntimeWarning):
        report = run_tail_slopes(config)
    row = dict(zip(report.columns, report.rows[0]))
    assert row["method"] == "plain"
    assert row["insufficient"] is True
    assert not report.passed  # no usable slope fit


def test_cgf_rows_small_run():
    config = ExperimentConfig(
        hurst=(0.5,),
        horizons=(2.0, 4.0),
        cells=None,
        cells_per_unit=16.0,
        reps=400,
        mu_grid=(0.0, 0.25),
    )
    report = run_cgf_convergence(config)
    assert report.columns == CGF_COLUMNS
    assert len(report.rows) == 4
    rows = [dict(zip(report.columns, r)) for r in report.rows]
    for r in rows:
        if r["mu"] == 0.0:
            assert r["k_riccati"] == 0.0
            assert r["k_liouville"] == 0.0
            assert r["k_limit"] == 0.0
        else:
            # H = 1/2 reduction: both ODE routes near the closed form
            gamma = math.sqrt(1.0 + 2.0 * r["mu"])
            c = 1.0 / gamma
            t = r["T"]
            inner = (1.0 + c) / 2.0 + ((1.0 - c) / 2.0) * math.exp(-2.0 * gamma * t)
            closed = 0.5 - (gamma * t + math.log(inner)) / (2.0 * t)
            assert r["k_riccati"] == pytest.approx(closed, abs=2e-3)
            assert abs(r["k_riccati"] - r["k_liouville"]) < 1e-4
            assert r["mc_stderr"] > 0.0
    trends = report.manifest["trends"]
    assert all(t["monotone"] for t in trends)


def test_h_invariance_single_h_degenerate():
    config = ExperimentConfig(
        hurst=(0.7,), horizons=(2.0, 4.0), cells=64, reps=400, tails=((1.0, math.inf),)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_h_invariance(config)
    assert report.columns == HINV_COLUMNS
    assert report.manifest["pairs"] == []
    assert report.passed


def test_h_invariance_narrow_span_warns():
    config = ExperimentConfig(
        hurst=(0.6, 0.7), horizons=(2.0, 4.0), cells=64, reps=400, tails=((1.0, math.inf),)
    )
    with pytest.warns(RuntimeWarning, match="span"):
        report = run_h_invariance(config)
    assert len(report.manifest["pairs"]) == 1
    pair = report.manifest["pairs"][0]
    assert pair["pooled_se"] > 0.0
    assert pair["diff"] >= 0.0
