import math

import numpy as np
import pytest

from mfou import experiments, riccati
from mfou.errors import BlowUp, ComplexEigenvalues, NonPositiveDet, StepNotConverged
from mfou.experiments import ExperimentConfig, run_cgf_convergence
from mfou.numerics import TimeGrid
from mfou.riccati import (
    MAX_HALVINGS,
    TRACE_BOUND_CONST,
    eigen_split,
    k_T_via_liouville,
    k_T_via_riccati,
    solve_linearized,
    solve_M_equation,
    solve_riccati,
)
from mfou.transform import build_kernel, quadratic_variation


def cameron_martin_k(theta, mu, horizon):
    # classical OU with diffusion sqrt(2): the H = 1/2 reduction target
    gamma = math.sqrt(theta * theta + 2.0 * mu)
    c = theta / gamma
    inner = (1.0 + c) / 2.0 + ((1.0 - c) / 2.0) * math.exp(-2.0 * gamma * horizon)
    return theta / 2.0 - (gamma * horizon + math.log(inner)) / (2.0 * horizon)


def test_riccati_h_half_closed_form(qv_half):
    for mu in (0.25, 0.5, 1.0):
        run = solve_riccati(1.0, mu, qv_half)
        got = k_T_via_riccati(run)
        assert got == pytest.approx(cameron_martin_k(1.0, mu, 5.0), abs=1e-4)


def test_two_routes_agree(qv_07):
    run = solve_riccati(1.0, 0.5, qv_07)
    k_lio = k_T_via_liouville(1.0, 0.5, qv_07)
    assert k_T_via_riccati(run) == pytest.approx(k_lio, abs=1e-4)
    # the ratio check reuses a caller's Riccati run, which must match theta, mu and grid
    assert k_T_via_liouville(1.0, 0.5, qv_07, riccati_run=run) == k_lio
    with pytest.raises(ValueError):
        k_T_via_liouville(1.0, 0.5, qv_07, riccati_run=solve_riccati(1.0, 0.25, qv_07))
    with pytest.raises(ValueError):
        k_T_via_liouville(1.0, 0.5, qv_07, riccati_run=solve_riccati(1.0, 0.5, qv_07, horizon=1.0))


@pytest.fixture(scope="module")
def qv_long():
    return quadratic_variation(build_kernel(0.7, TimeGrid(20.0, 512)))


def test_linear_routes_converge_at_long_horizon(qv_long):
    # states grow to RESCALE_MAGNITUDE here; an absolute local-error test
    # capped hundreds of these intervals, the relative one caps none
    lin = solve_linearized(1.0, 1.0, qv_long)
    assert lin.log_scale[-1] > 0.0
    assert np.all(np.isfinite(lin.psi1)) and np.all(np.isfinite(lin.psi2))
    m_run = solve_M_equation(eigen_split(1.0, 1.0)[0], qv_long)
    assert m_run.log_scale[-1] > 0.0
    assert m_run.trace_bound_max <= 1.0


def test_capped_interval_raises(qv_07, monkeypatch):
    monkeypatch.setattr(riccati, "LOCAL_ERROR", 1e-30)  # below rounding: no interval converges
    with pytest.raises(StepNotConverged) as err:
        solve_M_equation(eigen_split(1.0, 0.5)[0], qv_07)
    assert err.value.time == 0.0
    assert err.value.halvings == MAX_HALVINGS
    assert err.value.change > err.value.bound
    with pytest.raises(StepNotConverged):
        solve_riccati(1.0, 0.5, qv_07)
    # outside mu > -theta^2/2 the unresolved interval is the finite-time blow-up
    with pytest.raises(BlowUp) as err:
        solve_riccati(1.0, -2.0, qv_07)
    assert isinstance(err.value.__cause__, StepNotConverged)


def test_liouville_pinned_values():
    # H = 0.7, T = 5, 128 cells (the 25.6 cells-per-unit lattice): values of
    # the absolute local-error test, which resolved every interval at least
    # as finely; the relative test must reproduce them within 1e-8
    qv = quadratic_variation(build_kernel(0.7, TimeGrid(5.0, 128)))
    pinned = {0.25: -0.1032459431126963, 0.5: -0.19205318824121265, 1.0: -0.34338179287780124}
    for mu, value in pinned.items():
        assert abs(k_T_via_liouville(1.0, mu, qv) - value) <= 1e-8


def test_cgf_cell_keeps_routes_when_liouville_fails(monkeypatch):
    def failing_liouville(*args, **kwargs):
        raise NonPositiveDet("det Psi1(T) = -1.000e+00")

    monkeypatch.setattr(experiments, "k_T_via_liouville", failing_liouville)
    config = ExperimentConfig(
        hurst=(0.5,), horizons=(2.0,), cells=None, cells_per_unit=16.0, reps=200, mu_grid=(0.25,)
    )
    report = run_cgf_convergence(config)
    row = dict(zip(report.columns, report.rows[0]))
    assert math.isfinite(row["k_riccati"]) and math.isfinite(row["k_mc"])
    assert math.isnan(row["k_liouville"])
    assert row["blowup"] is True
    (cell,) = report.manifest["cells"]
    assert cell["liouville_error"] == "NonPositiveDet: det Psi1(T) = -1.000e+00"
    assert cell["riccati_error"] == "" and cell["mc_error"] == ""
    assert cell["blowup"] is True
    assert not report.passed


def test_mu_zero_short_circuits(qv_07):
    assert k_T_via_riccati(solve_riccati(1.0, 0.0, qv_07)) == 0.0
    assert k_T_via_liouville(1.0, 0.0, qv_07) == 0.0


def test_prefix_horizon(qv_07):
    run = solve_riccati(1.0, 0.5, qv_07)
    short = solve_riccati(1.0, 0.5, qv_07, horizon=1.0)
    assert k_T_via_riccati(run, 1.0) == k_T_via_riccati(short)
    with pytest.raises(ValueError):
        k_T_via_riccati(run, 0.99)  # not a grid node


def test_run_metadata(qv_07):
    run = solve_riccati(1.2, 0.5, qv_07)
    assert run.theta == 1.2
    assert run.mu == 0.5
    assert run.times[0] == 0.0
    assert run.times[-1] == qv_07.grid.horizon
    assert np.all(np.isfinite(run.gamma))


def test_blowup_guard(qv_07):
    # mu far below -theta^2/2 sends the Laplace transform to infinity in
    # finite time; the solver must report the blow-up, not return garbage
    with pytest.raises(BlowUp) as err:
        solve_riccati(1.0, -2.0, qv_07)
    assert 0.0 < err.value.time <= qv_07.grid.horizon


def test_eigen_split_identities():
    lam, a_plus, a_minus = eigen_split(1.0, 0.5)
    assert lam == pytest.approx(math.sqrt(0.25 + 0.25))
    assert a_plus == pytest.approx(0.5 + lam)
    assert a_minus == pytest.approx(0.5 - lam)
    assert a_plus * a_minus == pytest.approx(-0.25)  # product is -mu/2
    with pytest.raises(ComplexEigenvalues):
        eigen_split(1.0, -0.7)


def test_m_equation_split_identity(qv_07):
    lam, _, _ = eigen_split(1.0, 0.5)
    run = solve_M_equation(lam, qv_07)
    assert np.array_equal(run.m_traj[0], -np.eye(2))
    j = qv_07.grid.cells // 2
    recon = np.linalg.solve(run.upsilon2[j], run.upsilon1[j])
    assert np.max(np.abs(run.m_traj[j] - recon)) < 1e-6
    assert run.trace_bound_ratios.shape == run.times.shape
    assert np.all(np.isfinite(run.trace_bound_ratios))
    assert run.trace_bound_max == np.max(run.trace_bound_ratios)


def test_m_equation_lam_zero_is_frozen(qv_07):
    run = solve_M_equation(0.0, qv_07)
    assert np.allclose(run.m_traj, -np.eye(2), atol=1e-14)
    assert run.upsilon1 is None
    with pytest.raises(ValueError):
        solve_M_equation(-0.1, qv_07)


def test_m_equation_h_half_closed_form(qv_half):
    # psi = 2 makes A^2 = 2A, so tr M(t) = -(1 + e^{4 lam t}) exactly; mu = 2
    # grows M past RESCALE_MAGNITUDE, so the comparison runs through log_scale
    lam, _, _ = eigen_split(1.0, 2.0)
    run = solve_M_equation(lam, qv_half)
    assert run.log_scale[-1] > 0.0
    trace = np.trace(run.m_traj, axis1=1, axis2=2)
    assert np.all(trace < 0.0)
    log_exact = np.log1p(np.exp(4.0 * lam * run.times))
    assert np.max(np.abs(np.log(-trace) + run.log_scale - log_exact)) < 1e-6
    expected = 0.5 * (1.0 + np.exp(-4.0 * lam * run.times))
    assert np.allclose(run.trace_bound_ratios, expected, rtol=1e-6, atol=0.0)
    assert run.trace_bound_max == 1.0  # attained at t = 0


def test_trace_bound_constant():
    assert TRACE_BOUND_CONST == 2.0  # |tr M(0)| with M(0) = -I
