import math

import numpy as np
import pytest

from mfou import experiments, riccati
from mfou.errors import (
    BlowUp,
    ComplexEigenvalues,
    MfouError,
    NonPositiveDet,
    ResidualTooLarge,
)
from mfou.experiments import ExperimentConfig, run_cgf_convergence
from mfou.numerics import TimeGrid
from mfou.riccati import (
    TRACE_BOUND_CONST,
    eigen_split,
    k_T_via_liouville,
    k_T_via_riccati,
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
    # psi is constant, so every Magnus step is exact and Simpson's rule is
    # all of the error
    for mu in (0.25, 0.5, 1.0):
        run = solve_riccati(1.0, mu, qv_half)
        got = k_T_via_riccati(run)
        assert abs(got - cameron_martin_k(1.0, mu, 5.0)) <= 1e-9
        assert got.error <= 1e-12


def test_two_routes_agree(qv_07):
    run = solve_riccati(1.0, 0.5, qv_07)
    k_ric = k_T_via_riccati(run)
    k_lio = k_T_via_liouville(1.0, 0.5, qv_07)
    assert k_ric == pytest.approx(k_lio, abs=1e-4)
    assert 0.0 < k_ric.error <= riccati.ROUTE_ERROR_BOUND
    assert 0.0 < k_lio.error <= riccati.ROUTE_ERROR_BOUND


def test_riccati_error_estimate_against_substepped_reference():
    # the reference takes 8 Magnus steps per interval and the same Simpson sum
    qv = quadratic_variation(build_kernel(0.7, TimeGrid(5.0, 128)))
    times, psi = qv.grid.nodes, qv.psi_diag
    weights = riccati._simpson_weights(qv.grid.cells, qv.grid.dt)
    for mu in (0.25, 1.0):
        got = k_T_via_riccati(solve_riccati(1.0, mu, qv))
        (gamma,) = riccati._gamma_paths(1.0, mu, times, psi, (8,))
        trace = gamma[:, 0, 0] * psi + 2.0 * gamma[:, 0, 1] + gamma[:, 1, 1] / psi
        reference = -mu / (4.0 * 5.0) * float(weights @ trace)
        assert 0.5 <= got.error / abs(got - reference) <= 2.0


def test_simpson_weights_exact_for_cubics():
    for cells in (2, 3, 8, 9):
        nodes = np.linspace(0.0, 1.5, cells + 1)
        weights = riccati._simpson_weights(cells, 1.5 / cells)
        assert weights @ nodes**3 == pytest.approx(1.5**4 / 4.0, rel=1e-14)


def test_liouville_h_half_closed_form(qv_half):
    # psi is constant, so every Magnus step is exact
    for mu in (0.25, 0.5, 1.0):
        assert abs(k_T_via_liouville(1.0, mu, qv_half) - cameron_martin_k(1.0, mu, 5.0)) <= 1e-12


def test_liouville_long_horizon_cell():
    # T = 20, where the columns of the linearized pair separate like e^{4 lam T}
    config = ExperimentConfig(
        hurst=(0.7,), horizons=(20.0,), cells=None, cells_per_unit=25.6, reps=64, mu_grid=(1.0,)
    )
    report = run_cgf_convergence(config)
    row = dict(zip(report.columns, report.rows[0]))
    (cell,) = report.manifest["cells"]
    assert math.isfinite(row["k_liouville"])
    assert cell["liouville_error"] == ""
    assert 0.0 < cell["liouville_error_estimate"] <= riccati.ROUTE_ERROR_BOUND
    assert 0.0 < cell["riccati_error_estimate"] <= riccati.ROUTE_ERROR_BOUND
    assert row["blowup"] is False
    assert abs(row["k_liouville"] - row["k_riccati"]) <= 1e-4


def test_liouville_error_bound_raises(qv_07, monkeypatch):
    monkeypatch.setattr(riccati, "ROUTE_ERROR_BOUND", 1e-18)  # below rounding
    with pytest.raises(ResidualTooLarge) as err:
        k_T_via_liouville(1.0, 0.5, qv_07)
    assert err.value.residual > err.value.bound


def test_riccati_error_bound_raises(qv_07, monkeypatch):
    run = solve_riccati(1.0, 0.5, qv_07)
    monkeypatch.setattr(riccati, "ROUTE_ERROR_BOUND", 1e-18)  # below rounding
    with pytest.raises(ResidualTooLarge) as err:
        k_T_via_riccati(run)
    assert err.value.residual > err.value.bound


def test_liouville_near_domain_edge():
    # mu = -theta^2/2 makes lam = 0, where the split of Psi_1 degenerates
    qv = quadratic_variation(build_kernel(0.7, TimeGrid(5.0, 128)))
    try:
        value = k_T_via_liouville(1.0, -0.5, qv)
    except MfouError:
        pass
    else:
        assert math.isfinite(value)
    lam = 1e-5
    mu = 2.0 * (lam * lam - 0.25)
    gap = abs(k_T_via_liouville(1.0, mu, qv) - k_T_via_riccati(solve_riccati(1.0, mu, qv)))
    assert gap <= 1e-4


def test_linear_routes_converge_at_long_horizon():
    # coarse lattices and large tilts: the true M grows like e^{4 lam T} = e^{120}
    # at mu = 4, and the interval exponentials are far from the identity
    for cells, mu in ((256, 2.0), (128, 4.0)):
        qv = quadratic_variation(build_kernel(0.7, TimeGrid(20.0, cells)))
        run = solve_M_equation(eigen_split(1.0, mu)[0], qv)
        assert run.times[-1] == 20.0
        assert np.all(np.isfinite(run.m_traj))
        assert run.trace_bound_max <= 1.0


def test_liouville_pinned_values():
    # H = 0.7, T = 5, 128 cells (the 25.6 cells-per-unit lattice): K_T from
    # 8 Gauss-4 Magnus steps per interval, within 2e-13 of 16 steps; the
    # one-step route is 5e-10 to 8e-10 off, and its estimate must say so
    qv = quadratic_variation(build_kernel(0.7, TimeGrid(5.0, 128)))
    pinned = {0.25: -0.10322302838838127, 0.5: -0.19200960844409068, 1.0: -0.34330123853511063}
    for mu, value in pinned.items():
        got = k_T_via_liouville(1.0, mu, qv)
        assert abs(got - value) <= 1e-8
        assert 0.5 <= got.error / abs(got - value) <= 2.0


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
    assert math.isnan(cell["liouville_error_estimate"])
    assert 0.0 <= cell["riccati_error_estimate"] <= riccati.ROUTE_ERROR_BOUND
    assert cell["blowup"] is True
    assert not report.passed


def test_mu_zero_short_circuits(qv_07):
    k_ric = k_T_via_riccati(solve_riccati(1.0, 0.0, qv_07))
    assert k_ric == 0.0 and k_ric.error == 0.0
    assert k_T_via_liouville(1.0, 0.0, qv_07) == 0.0


def test_run_metadata(qv_07):
    run = solve_riccati(1.2, 0.5, qv_07)
    assert run.mu == 0.5
    assert run.times[0] == 0.0
    assert run.times[-1] == qv_07.grid.horizon
    # tr(Gamma R) against per-node traces of the one-step Gamma trajectory
    gamma = riccati._gamma_paths(1.2, 0.5, run.times, qv_07.psi_diag, (1,))[0]
    assert np.all(np.isfinite(gamma))
    r = np.array([[[p, 1.0], [1.0, 1.0 / p]] for p in qv_07.psi_diag])
    reference = np.trace(gamma @ r, axis1=1, axis2=2)
    assert np.allclose(run.trace_gamma_r, reference, rtol=1e-14, atol=1e-15)


def test_blowup_guard(qv_07, qv_half):
    # mu far below -theta^2/2 sends the Laplace transform to infinity in
    # finite time; the solver must report the blow-up, not return garbage
    with pytest.raises(BlowUp) as err:
        solve_riccati(1.0, -2.0, qv_07)
    assert 0.0 < err.value.time <= qv_07.grid.horizon
    # at H = 1/2, theta = 1, Psi_1 turns singular where cos(w t) + sin(w t)/w
    # first vanishes, w = sqrt(-1 - 2 mu): at t = (pi - arctan w)/w
    for mu in (-2.0, -1.0):
        w = math.sqrt(-1.0 - 2.0 * mu)
        with pytest.raises(BlowUp) as err:
            solve_riccati(1.0, mu, qv_half)
        assert err.value.time < (math.pi - math.atan(w)) / w <= err.value.time + qv_half.grid.dt


def test_eigen_split_identities():
    lam, a_plus, a_minus = eigen_split(1.0, 0.5)
    assert lam == pytest.approx(math.sqrt(0.25 + 0.25))
    assert a_plus == pytest.approx(0.5 + lam)
    assert a_minus == pytest.approx(0.5 - lam)
    assert a_plus * a_minus == pytest.approx(-0.25)  # product is -mu/2
    with pytest.raises(ComplexEigenvalues):
        eigen_split(1.0, -0.7)


def test_m_equation_split_identity(qv_07):
    # M = Upsilon_2^{-1} Upsilon_1 with Upsilon_1' = lam Upsilon_1 A and
    # Upsilon_2' = -lam Upsilon_2 A from +-I/(2 lam), each propagated here by
    # scipy's expm of its Gauss-4 Magnus Omega (right action)
    from scipy.linalg import expm

    lam, _, _ = eigen_split(1.0, 0.5)
    run = solve_M_equation(lam, qv_07)
    assert np.array_equal(run.m_traj[0], -np.eye(2))
    j = qv_07.grid.cells // 2
    h, psi = qv_07.grid.dt, qv_07.psi_diag
    ups1, ups2 = np.eye(2) / (2.0 * lam), -np.eye(2) / (2.0 * lam)
    for k in range(j):
        p1, p2 = psi[k] + (psi[k + 1] - psi[k]) * np.array(riccati._GAUSS)
        a1, a2 = (np.array([[1.0, 1.0 / p], [p, 1.0]]) for p in (p1, p2))
        comm = (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
        ups1 = ups1 @ expm(0.5 * lam * h * (a1 + a2) - lam * lam * comm)
        ups2 = ups2 @ expm(-0.5 * lam * h * (a1 + a2) - lam * lam * comm)
    # stored matrices carry the common factor e^{-4 lam t}
    recon = np.linalg.solve(ups2, ups1)
    assert np.max(np.abs(run.m_traj[j] * math.exp(4.0 * lam * run.times[j]) - recon)) < 1e-6
    ratios = riccati._trace_bound_ratios(run.m_traj, psi)
    assert ratios.shape == run.times.shape
    assert np.all(np.isfinite(ratios))
    assert run.trace_bound_max == np.max(ratios)


def test_m_equation_lam_zero_is_frozen(qv_07):
    run = solve_M_equation(0.0, qv_07)
    assert np.allclose(run.m_traj, -np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        solve_M_equation(-0.1, qv_07)


def test_m_equation_h_half_closed_form(qv_half):
    # psi = 2 is constant, so tr M(t) = -(1 + e^{4 lam t}) and every Magnus
    # step is exact; mu = 2 grows M to e^{30}, so the comparison runs through
    # the stored factor e^{-4 lam t}
    lam, _, _ = eigen_split(1.0, 2.0)
    run = solve_M_equation(lam, qv_half)
    trace = np.trace(run.m_traj, axis1=1, axis2=2)
    assert np.all(trace < 0.0)
    log_scale = 4.0 * lam * run.times
    log_exact = np.log1p(np.exp(log_scale))
    assert np.max(np.abs(np.log(-trace) + log_scale - log_exact)) < 1e-12
    expected = 0.5 * (1.0 + np.exp(-log_scale))
    ratios = riccati._trace_bound_ratios(run.m_traj, qv_half.psi_diag)
    assert np.allclose(ratios, expected, rtol=1e-12, atol=0.0)
    assert run.trace_bound_max == 1.0  # attained at t = 0


def test_magnus_factors_match_expm():
    # the Cayley-Hamilton exponentials against scipy's expm of the Gauss-4 Magnus Omega
    from scipy.linalg import expm

    lam, h = 0.8, 0.3
    psi = np.array([0.7, 1.9, 1.2])
    f_left, f_right = riccati._magnus_factors(lam, psi, 1, h)
    for j in range(2):
        p1, p2 = psi[j] + (psi[j + 1] - psi[j]) * np.array(riccati._GAUSS)
        a1, a2 = (np.array([[1.0, 1.0 / p], [p, 1.0]]) for p in (p1, p2))
        comm = (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
        for sign, got in ((1.0, f_left), (-1.0, f_right)):
            omega = 0.5 * lam * h * (a1 + a2) + sign * lam * lam * comm
            assert np.allclose(math.exp(-lam * h) * expm(omega), got[j], rtol=1e-13, atol=1e-14)


def test_trace_bound_constant():
    assert TRACE_BOUND_CONST == 2.0  # |tr M(0)| with M(0) = -I
