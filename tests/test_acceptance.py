"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Each test prints its verdict line (with the measured numbers and the gate)
before asserting, so a failing criterion shows its evidence in the report.
The statistical criteria use the package's frozen default seed; reruns are
bit-identical.
"""

import math

import numpy as np
import pytest

from mfou.experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    run_h_invariance,
    run_normality,
    run_tail_slopes,
)
from mfou.inference import (
    compute_Q_batch,
    compute_Z_batch,
    estimate_batch,
    sufficient_statistics_batch,
)
from mfou.ldp import (
    OUT_OF_DOMAIN,
    cgf_limit,
    empirical_cgf,
    k_limit,
    rate_function_printed,
)
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import ProcessSpec, sample_mixed_path
from mfou import riccati
from mfou.riccati import (
    eigen_split,
    k_T_via_liouville,
    k_T_via_riccati,
    solve_M_equation,
    solve_riccati,
)
from mfou.transform import build_kernel, quadratic_variation
from oracles import (
    compute_Q_direct,
    fbm_covariance,
    inverse_kernel,
    reconstruct_X,
    trapezoid_integral,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _mixed_increment_cov(n: int, hurst: float, dt: float) -> np.ndarray:
    t = dt * np.arange(n + 1)
    hi, lo = t[1:], t[:-1]
    fbm = (
        fbm_covariance(hi[:, None], hi[None, :], hurst)
        - fbm_covariance(hi[:, None], lo[None, :], hurst)
        - fbm_covariance(lo[:, None], hi[None, :], hurst)
        + fbm_covariance(lo[:, None], lo[None, :], hurst)
    )
    return dt * np.eye(n) + fbm


@pytest.fixture(scope="module")
def kernel_512():
    grid = TimeGrid(5.0, 512)
    kern = build_kernel(0.7, grid)
    return kern, quadratic_variation(kern)


def test_c01_h_half_closed_form_suite():
    theta, horizon, cells = 1.0, 5.0, 256
    grid = TimeGrid(horizon, cells)
    kern = build_kernel(0.5, grid)
    qv = quadratic_variation(kern)

    g_err = max(
        float(np.max(np.abs(kern.matrix[j - 1, :j] - 0.5))) for j in (1, cells // 2, cells)
    )
    bracket_err = float(np.max(np.abs(qv.bracket - grid.nodes / 2)))
    psi_err = float(np.max(np.abs(qv.psi_diag - 2.0)))

    spec = ProcessSpec(0.5, theta, grid)
    bundle = sample_mixed_path(spec, RandomStream(DEFAULT_SEED, (0,)))
    x = bundle.state
    z = compute_Z_batch(x[None], kern)
    q, _ = compute_Q_batch(z, qv)
    q_err = float(np.max(np.abs(q[0] - x)))

    classical = -float(np.sum(x[:-1] * np.diff(x))) / trapezoid_integral(
        x**2, np.full(cells, grid.dt)
    )
    nums, dens = sufficient_statistics_batch(q, z, qv)
    mle_err = abs(-float(nums[0]) / float(dens[0]) - classical)

    ok = g_err <= 1e-8 and bracket_err <= 1e-8 and psi_err <= 1e-8 and q_err <= 1e-9 and mle_err <= 1e-8
    _verdict(
        1,
        "H=1/2 closed forms",
        ok,
        f"sup|g-0.5|={g_err:.2e} (<=1e-8), sup|<M>-t/2|={bracket_err:.2e} (<=1e-8), "
        f"sup|psi-2|={psi_err:.2e}, sup|Q-X|={q_err:.2e} (<=1e-9), "
        f"|mle-classical|={mle_err:.2e} (<=1e-8)",
    )
    assert ok


def test_c02_martingale_variance_oracle():
    horizon, cells = 10.0, 256
    worst = 0.0
    details = []
    for hurst in (0.55, 0.7, 0.9):
        grid = TimeGrid(horizon, cells)
        kern = build_kernel(hurst, grid)
        qv = quadratic_variation(kern)
        cov = _mixed_increment_cov(cells, hurst, grid.dt)
        for j in (cells // 4, cells // 2, cells):
            g = kern.matrix[j - 1, :j]
            quad = float(g @ cov[:j, :j] @ g)
            rel = abs(quad - qv.bracket[j]) / qv.bracket[j]
            worst = max(worst, rel)
            details.append(f"H={hurst} t={grid.nodes[j]:g}: {rel:.2e}")
    ok = worst <= 0.01
    _verdict(2, "variance oracle", ok, f"max rel gap {worst:.2e} (<=1e-2); " + ", ".join(details))
    assert ok


def test_c03_roundtrip():
    horizon, cells = 5.0, 512
    worst = 0.0
    details = []
    for idx, hurst in enumerate((0.6, 0.8)):
        grid = TimeGrid(horizon, cells)
        kern = build_kernel(hurst, grid)
        qv = quadratic_variation(kern)
        spec = ProcessSpec(hurst, 1.0, grid)
        bundle = sample_mixed_path(spec, RandomStream(DEFAULT_SEED, (idx,)))
        z = compute_Z_batch(bundle.state[None], kern)[0]
        back = reconstruct_X(z, inverse_kernel(hurst, kern, qv))
        rel = float(np.max(np.abs(back - bundle.state)) / np.max(np.abs(bundle.state)))
        worst = max(worst, rel)
        details.append(f"H={hurst}: {rel:.2e}")
    ok = worst <= 0.01
    _verdict(3, "round trip", ok, f"max rel sup error {worst:.2e} (<=1e-2); " + ", ".join(details))
    assert ok


def test_c04_two_representations():
    horizon = 5.0
    gaps = {}
    for cells in (512, 1024):
        grid = TimeGrid(horizon, cells)
        kern = build_kernel(0.7, grid)
        qv = quadratic_variation(kern)
        spec = ProcessSpec(0.7, 1.0, grid)
        bundle = sample_mixed_path(spec, RandomStream(DEFAULT_SEED, (4,)))
        q, _ = compute_Q_batch(compute_Z_batch(bundle.state[None], kern), qv)
        q_direct = compute_Q_direct(bundle.state, 0.7, kern, qv)
        gaps[cells] = float(np.max(np.abs(q[0] - q_direct)) / np.max(np.abs(q_direct)))
    ratio = gaps[1024] / gaps[512]
    # the refinement must stay under half of the base gate, i.e. first order
    ok = gaps[512] <= 0.05 and gaps[1024] <= 0.025
    _verdict(
        4,
        "Q representations",
        ok,
        f"gap(512)={gaps[512]:.2e} (<=5e-2), gap(1024)={gaps[1024]:.2e} (<=2.5e-2), "
        f"refinement ratio {ratio:.2f}",
    )
    assert ok


def test_c05_three_route_cgf(kernel_512):
    kern, qv = kernel_512
    spec = ProcessSpec(0.7, 1.0, kern.grid)
    route_gap, mc_z = 0.0, 0.0
    details = []
    for m_idx, mu in enumerate((0.25, 0.5, 1.0)):
        run = solve_riccati(1.0, mu, qv)
        k_ric = k_T_via_riccati(run)
        k_lio = k_T_via_liouville(1.0, mu, qv)
        est = empirical_cgf(
            0.0, -mu, spec, kern, qv, 10000, RandomStream(DEFAULT_SEED, (3, 0, 0, m_idx))
        )
        route_gap = max(route_gap, abs(k_ric - k_lio))
        z = max(abs(est.value - k_ric), abs(est.value - k_lio)) / est.stderr
        mc_z = max(mc_z, z)
        details.append(f"mu={mu}: ric={k_ric:.6f} lio={k_lio:.6f} mc={est.value:.6f}+-{est.stderr:.5f} z={z:.2f}")
    ok = route_gap <= 1e-4 and mc_z <= 3.0
    _verdict(
        5,
        "three-route CGF",
        ok,
        f"max route gap {route_gap:.2e} (<=1e-4), max MC z {mc_z:.2f} (<=3); " + "; ".join(details),
    )
    assert ok


def test_c06_tilt_cgf_limit():
    theta, mu = 1.0, 0.5
    limit = 0.5 - math.sqrt(0.5)
    dists = {}
    for horizon in (10.0, 20.0, 40.0, 50.0):
        grid = TimeGrid(horizon, int(round(20 * horizon)))
        kern = build_kernel(0.7, grid)
        qv = quadratic_variation(kern)
        k = k_T_via_riccati(solve_riccati(theta, mu, qv))
        dists[horizon] = abs(k - limit)
    decreasing = all(
        dists[a] > dists[b] for a, b in zip((10.0, 20.0, 40.0), (20.0, 40.0, 50.0))
    )
    ok = dists[50.0] <= 0.05 and decreasing
    _verdict(
        6,
        "CGF limit trend",
        ok,
        f"|K_50(0.5) - ({limit:.6f})| = {dists[50.0]:.5f} (<=0.05), "
        f"distances {[round(dists[t], 5) for t in (10.0, 20.0, 40.0, 50.0)]} decreasing={decreasing}",
    )
    assert ok


def test_c07_normality():
    config = ExperimentConfig(
        theta=1.0,
        hurst=(0.5, 0.7),
        horizons=(20.0,),
        cells=1024,
        reps=2000,
        master_seed=DEFAULT_SEED,
    )
    report = run_normality(config)
    rows = [dict(zip(report.columns, r)) for r in report.rows]
    cells = report.manifest["cells"]
    bias_mean = 2.0 / math.sqrt(20.0)  # the finite-T drift bias, scaled
    details = []
    ok = True
    for row, cell in zip(rows, cells):
        var_ok = 1.6 <= row["var_scaled"] <= 2.4
        ks_ok = row["ks_dist"] <= 0.05
        ok = ok and var_ok and ks_ok
        details.append(
            f"H={row['H']}: var={row['var_scaled']:.4f} (in [1.6,2.4]:{var_ok}), "
            f"ks={row['ks_dist']:.4f} (<=0.05:{ks_ok}), "
            f"mean={cell['mean_scaled']:.4f} (bias-predicted {bias_mean:.4f})"
        )
    _verdict(7, "normality", ok, "; ".join(details))
    assert ok


def test_c08_tail_slope():
    config = ExperimentConfig(
        theta=1.0,
        hurst=(0.7,),
        horizons=(5.0, 10.0, 15.0, 20.0),
        cells=None,
        cells_per_unit=51.2,
        reps=100000,
        tails=((1.5, math.inf),),
        master_seed=DEFAULT_SEED,
    )
    report = run_tail_slopes(config)
    rows = [dict(zip(report.columns, r)) for r in report.rows]
    slope = rows[0]["slope_raw"]
    slope_se = rows[0]["slope_raw_se"]
    slope_adj = rows[0]["slope_adj"]
    target = -1.0 / 24.0
    lo, hi = 1.2 * target, 0.8 * target  # within 20% of the numeric rate
    ok = lo <= slope <= hi
    probs = {row["T"]: row["p_hat"] for row in rows}
    _verdict(
        8,
        "LDP tail slope",
        ok,
        f"wls slope={slope:.5f}+-{slope_se:.5f} vs gate [{lo:.5f}, {hi:.5f}] "
        f"(numeric rate = {rows[0]['rate_numeric']:.5f}); "
        f"log-corrected slope={slope_adj:.5f}; printed-formula rate = {rows[0]['rate_printed']:g}; "
        f"p_hat by T: " + ", ".join(f"{t:g}: {p:.5f}" for t, p in sorted(probs.items())),
    )
    assert ok


def test_c09_h_invariance():
    # the coarser 51.2/unit lattice leaves an H-dependent discretisation
    # offset in the slopes that eats most of the 2-SE allowance
    config = ExperimentConfig(
        theta=1.0,
        hurst=(0.55, 0.7, 0.9),
        horizons=(5.0, 10.0, 15.0, 20.0),
        cells=None,
        cells_per_unit=102.4,
        reps=20000,
        tails=((1.5, math.inf),),
        master_seed=DEFAULT_SEED,
    )
    report = run_h_invariance(config)
    pairs = report.manifest["pairs"]
    ok = report.passed and len(pairs) == 3 and all(p["pass"] for p in pairs)
    detail = ", ".join(
        f"{p['pair']}: |diff|={p['diff']:.4f} <= 2*se={p['limit']:.4f}" for p in pairs
    )
    _verdict(9, "H-invariance", ok, detail)
    assert ok


def test_c10_trace_bound(kernel_512):
    _, qv = kernel_512
    ok = True
    details = []
    for mu in (0.25, 0.5, 1.0):
        lam, _, _ = eigen_split(1.0, mu)
        run = solve_M_equation(lam, qv)
        ok = ok and run.trace_bound_max <= 1.0
        # the same envelope without the log psi variation term (equal to it at H = 1/2);
        # m_traj is stored times e^{-4 lam t}
        log_scale = 4.0 * lam * run.times
        with np.errstate(divide="ignore"):
            tr = np.abs(run.m_traj[:, 0, 0] + run.m_traj[:, 1, 1])
            log_tr = np.where(tr > 0, np.log(np.maximum(tr, 1e-300)) + log_scale, -np.inf)
        alt = float(np.max(np.exp(log_tr - math.log(2.0) - log_scale)))
        ratios = riccati._trace_bound_ratios(run.m_traj, qv.psi_diag)
        details.append(
            f"mu={mu}: max |tr M|/(2 e^(4 lam t + TV log psi)) = {run.trace_bound_max:.3f} "
            f"(t > 0: {float(np.max(ratios[1:])):.3f}), "
            f"max |tr M|/(2 e^(4 lam t)) = {alt:.3f}"
        )
    _verdict(10, "trace bound", ok, "; ".join(details) + " (gate: first ratio <= 1)")
    assert ok


def test_c11_determinism(tmp_path):
    from mfou.cli import write_outputs

    config = ExperimentConfig(hurst=(0.7,), horizons=(4.0,), cells=64, reps=500)
    restored = ExperimentConfig.from_manifest(config.to_manifest())
    first = run_normality(config)
    second = run_normality(restored)
    write_outputs(first, str(tmp_path / "a"))
    write_outputs(second, str(tmp_path / "b"))
    csv_a = (tmp_path / "a" / "normality.csv").read_bytes()
    csv_b = (tmp_path / "b" / "normality.csv").read_bytes()
    ok = csv_a == csv_b and first.rows == second.rows
    _verdict(
        11,
        "determinism",
        ok,
        f"rerun through a manifest round-trip: csv identical={csv_a == csv_b}, "
        f"rows identical={first.rows == second.rows}",
    )
    assert ok


def test_c12_property_suite():
    theta = 1.0
    checks = {}

    kink = -theta / 3.0
    gap = abs(
        rate_function_printed(kink - 1e-8, theta) - rate_function_printed(kink + 1e-8, theta)
    )
    checks["rate continuity at -theta/3"] = gap < 1e-6

    xs = np.linspace(-4.0, 2.0, 481)
    vals = np.array([rate_function_printed(float(x), theta) for x in xs])
    zeros = xs[vals == 0.0]
    checks["rate nonnegative"] = bool(np.all(vals >= 0.0))
    checks["rate unique zero at -theta"] = zeros.size == 1 and zeros[0] == pytest.approx(-theta)

    edge_b = theta * theta / 2.0
    checks["cgf domain marker at theta^2-2b=0"] = (
        math.isfinite(cgf_limit(0.0, edge_b - 1e-9, theta))
        and cgf_limit(0.0, edge_b, theta) == OUT_OF_DOMAIN
    )
    edge_mu = -theta * theta / 2.0
    checks["k domain marker at mu=-theta^2/2"] = (
        math.isfinite(k_limit(edge_mu + 1e-9, theta))
        and k_limit(edge_mu, theta) == OUT_OF_DOMAIN
    )

    grid = TimeGrid(2.0, 64)
    kern = build_kernel(0.7, grid)
    qv = quadratic_variation(kern)
    spec = ProcessSpec(0.7, theta, grid)
    bundle = sample_mixed_path(spec, RandomStream(DEFAULT_SEED, (12,)))
    theta_hat, numerator, denominator = (
        float(a[0]) for a in estimate_batch(bundle.state[None], kern, qv)
    )
    # l(theta) = -theta*num - theta^2/2*den has derivative -num - theta*den
    score = -numerator - theta_hat * denominator
    checks["score zero at estimate"] = abs(score) < 1e-10

    scaled = float(estimate_batch(17.0 * bundle.state[None], kern, qv)[0][0])
    checks["scale invariance"] = scaled == pytest.approx(theta_hat, rel=1e-12)

    ok = all(checks.values())
    _verdict(12, "property suite", ok, "; ".join(f"{k}: {v}" for k, v in checks.items()))
    assert ok
