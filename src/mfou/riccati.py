"""Matrix ODE routes to the exponential moment K_T(mu).

The pair (Z, V) is a two-dimensional Gaussian diffusion with coefficient
matrices built from psi(t) alone:

    A = [[1, 1/psi], [psi, 1]],  b = [1/sqrt(psi), sqrt(psi)]^T,
    R = [[psi, 1], [1, 1/psi]],  B = b b^T,

satisfying R = J A and B = A J with J the off-diagonal flip. The tilt CGF
K_T(mu) = (1/T) log E exp(-mu int_0^T Q^2 d<M>) then has two deterministic
routes: the Riccati trace formula

    K_T = -(mu/4T) int_0^T tr(Gamma R) dt,
    Gamma' = -(theta/2)(A Gamma + Gamma A^T) - (mu/2) Gamma R Gamma + B,

and the Liouville determinant formula through the linearized pair
Psi_1' = (theta/2) Psi_1 A + (mu/2) Psi_2 R, Psi_2' = Psi_1 B -
(theta/2) Psi_2 A^T with Gamma = Psi_1^{-1} Psi_2, giving
K_T = -(1/2T) log det Psi_1(T) + theta/2. Both integrate with classical
RK4 on the bracket-table grid, halving steps until successive refinements
agree to LOCAL_ERROR relative to the state's size (absolute below size 1);
an interval that still disagrees after MAX_HALVINGS raises
StepNotConverged. A third object, M' = lam (A M + M A) with
M(0) = -I, is the ratio M = Upsilon_2^{-1} Upsilon_1 of the +-lam
components of the linearized pair, Psi_1 = a_+ Upsilon_1 + a_- Upsilon_2,
so that

    det Psi_1 = det Upsilon_2 (a_+^2 det M + a_+ a_- tr M + a_-^2),
    det M = e^{4 lam t};

its trace therefore carries the determinant route, and it obeys the
envelope |tr M(t)| <= 2 exp(4 lam t + TV_0^t log psi) (see
solve_M_equation), attained at t = 0.

Since psi(0) is only a one-sided tabulated value, Gamma and the Psi pair
start one step in at t_1 = dt with the first-order consistent values
Gamma(dt) = B(dt) dt, Psi_1 = I, Psi_2 = B(dt) dt; the Liouville route adds
the startup corrections theta*dt and mu*dt^2*... lost over [0, dt] (the
trace integrand there is tr(B R) t = 4t exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUp,
    ComplexEigenvalues,
    NonPositiveDet,
    PsiNotPositive,
    ResidualTooLarge,
    StepNotConverged,
)
from .numerics import TimeGrid, trapezoid_integral
from .transform import QVTable

LOCAL_ERROR = 1e-8
MAX_HALVINGS = 6
BLOWUP_MAGNITUDE = 1e12
RESCALE_MAGNITUDE = 1e8
RATIO_CHECK_TIMES = 8
RATIO_CHECK_TOL = 1e-6
TRACE_BOUND_CONST = 2.0  # |tr M(0)|

_J = np.array([[0.0, 1.0], [1.0, 0.0]])
_I2 = np.eye(2)


@dataclass(frozen=True)
class RiccatiRun:
    """One ODE integration over the bracket grid; unused trajectories stay None."""

    hurst: float
    grid: TimeGrid
    times: np.ndarray
    theta: float | None = None
    mu: float | None = None
    lam: float | None = None
    gamma: np.ndarray | None = None
    trace_gamma_r: np.ndarray | None = None
    min_gamma_eig: float | None = None
    psi1: np.ndarray | None = None
    psi2: np.ndarray | None = None
    log_scale: np.ndarray | None = None
    upsilon1: np.ndarray | None = None
    upsilon2: np.ndarray | None = None
    m_traj: np.ndarray | None = None
    trace_bound_ratios: np.ndarray | None = None
    trace_bound_max: float | None = None


def riccati_matrices(t: float, qv: QVTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A, b, R, B) at time t, with psi interpolated from the bracket table."""
    psi = float(np.interp(t, qv.grid.nodes, qv.psi_diag))
    if psi <= 0.0:
        raise PsiNotPositive(f"psi({t:.6g}) = {psi:.3e}")
    return _matrices(psi)


def _matrices(psi: float):
    a = np.array([[1.0, 1.0 / psi], [psi, 1.0]])
    b = np.array([1.0 / math.sqrt(psi), math.sqrt(psi)])
    r = np.array([[psi, 1.0], [1.0, 1.0 / psi]])
    return a, b, r, np.outer(b, b)


def _psi_interp(qv: QVTable):
    nodes = qv.grid.nodes
    table = qv.psi_diag

    def psi(t: float) -> float:
        return float(np.interp(t, nodes, table))

    return psi


def _rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(f, t0: float, y0: np.ndarray, h_total: float) -> np.ndarray:
    """One grid interval, halving the substep until refinements agree.

    A refinement is accepted when max|y_fine - y_coarse| <= LOCAL_ERROR *
    max(1, max|y_coarse|): absolute for states of size up to 1, relative on
    the linear routes' states, which grow to RESCALE_MAGNITUDE. A non-finite
    state is returned at once for the caller's BlowUp check; an interval
    still unconverged after MAX_HALVINGS raises StepNotConverged.
    """
    prev = None
    for level in range(MAX_HALVINGS + 1):
        sub = 2**level
        h = h_total / sub
        y = y0
        for i in range(sub):
            y = _rk4_step(f, t0 + i * h, y, h)
        if prev is not None:
            if not np.all(np.isfinite(y)):
                return y
            change = float(np.max(np.abs(y - prev)))
            bound = LOCAL_ERROR * max(1.0, float(np.max(np.abs(prev))))
            if change <= bound:
                return y
        prev = y
    raise StepNotConverged(time=t0, halvings=MAX_HALVINGS, change=change, bound=bound)


def _check_magnitude(y: np.ndarray, t: float) -> None:
    m = float(np.max(np.abs(y))) if np.all(np.isfinite(y)) else math.inf
    if m > BLOWUP_MAGNITUDE:
        raise BlowUp(time=t, magnitude=m)


def _stop_index(qv: QVTable, horizon: float | None) -> int:
    if horizon is None:
        return qv.grid.cells
    return qv.grid.index_of(horizon)


def solve_riccati(theta: float, mu: float, qv: QVTable, horizon: float | None = None) -> RiccatiRun:
    """Gamma trajectory of the matrix Riccati equation on [0, horizon].

    Starts at t_1 = dt from Gamma(dt) = B(dt) dt (Gamma(0) = 0 exactly);
    every accepted step is re-symmetrized. Raises BlowUp with the first time
    an entry passes BLOWUP_MAGNITUDE, which is the expected outcome for
    tilts outside mu > -theta^2/2. There the solution has a finite-time
    singularity, and the steepening approach to it defeats the step control
    first: outside that domain an unconverged interval is reported as BlowUp
    at its start, chained from StepNotConverged.
    """
    stop = _stop_index(qv, horizon)
    times = qv.grid.nodes[: stop + 1]
    dt = qv.grid.dt
    psi = _psi_interp(qv)
    half_theta = 0.5 * theta
    half_mu = 0.5 * mu

    def f(t: float, g: np.ndarray) -> np.ndarray:
        a, _, r, b_mat = _matrices(psi(t))
        out = -half_theta * (a @ g + g @ a.T) + b_mat
        if mu != 0.0:
            out = out - half_mu * (g @ r @ g)
        return out

    gamma = np.zeros((stop + 1, 2, 2))
    _, _, _, b1 = riccati_matrices(times[1], qv)
    gamma[1] = b1 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, stop):
            try:
                y = _advance(f, times[j], gamma[j], dt)
            except StepNotConverged as exc:
                if mu > -half_theta * theta:
                    raise
                raise BlowUp(time=times[j], magnitude=float(np.max(np.abs(gamma[j])))) from exc
            y = 0.5 * (y + y.T)
            _check_magnitude(y, times[j + 1])
            gamma[j + 1] = y

    trace = np.empty(stop + 1)
    eig_min = math.inf
    for j in range(stop + 1):
        _, _, r, _ = _matrices(psi(times[j]))
        trace[j] = float(np.trace(gamma[j] @ r))
        tr, det = float(np.trace(gamma[j])), float(np.linalg.det(gamma[j]))
        eig_min = min(eig_min, 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0))))

    return RiccatiRun(
        hurst=qv.hurst,
        grid=qv.grid,
        times=times,
        theta=theta,
        mu=mu,
        gamma=gamma,
        trace_gamma_r=trace,
        min_gamma_eig=eig_min,
    )


def k_T_via_riccati(run: RiccatiRun, horizon: float | None = None) -> float:
    """K_T = -(mu/4T) int_0^T tr(Gamma R) dt by trapezoid over the run's nodes."""
    if run.mu == 0.0:
        return 0.0
    stop = len(run.times) - 1
    if horizon is not None:
        stop = run.grid.index_of(horizon)
        if stop > len(run.times) - 1:
            raise ValueError(f"run stops at t={run.times[-1]:.6g}, requested {horizon}")
    t_end = float(run.times[stop])
    integral = trapezoid_integral(run.trace_gamma_r[: stop + 1], np.diff(run.times[: stop + 1]))
    return -(run.mu / (4.0 * t_end)) * integral


def solve_linearized(theta: float, mu: float, qv: QVTable, horizon: float | None = None) -> RiccatiRun:
    """(Psi_1, Psi_2) trajectories of the linearized system.

    Shares the Riccati start-up (Psi_1(dt) = I, Psi_2(dt) = B(dt) dt so that
    Psi_1^{-1} Psi_2 = Gamma(dt)). The stored matrices are jointly rescaled
    whenever they pass RESCALE_MAGNITUDE (the ratio Gamma is scale-free)
    and the true matrices are psi_i[j] * exp(log_scale[j]). The ratio check
    against the Riccati route is made by k_T_via_liouville.
    """
    stop = _stop_index(qv, horizon)
    times = qv.grid.nodes[: stop + 1]
    dt = qv.grid.dt
    psi = _psi_interp(qv)
    half_theta = 0.5 * theta
    half_mu = 0.5 * mu

    def f(t: float, y: np.ndarray) -> np.ndarray:
        a, _, r, b_mat = _matrices(psi(t))
        p1, p2 = y[0], y[1]
        d1 = half_theta * (p1 @ a) + half_mu * (p2 @ r)
        d2 = p1 @ b_mat - half_theta * (p2 @ a.T)
        return np.stack((d1, d2))

    psi1 = np.empty((stop + 1, 2, 2))
    psi2 = np.empty((stop + 1, 2, 2))
    log_scale = np.zeros(stop + 1)
    psi1[0], psi2[0] = _I2, 0.0
    _, _, _, b1 = riccati_matrices(times[1], qv)
    psi1[1], psi2[1] = _I2, b1 * dt
    y = np.stack((psi1[1], psi2[1]))
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, stop):
            y = _advance(f, times[j], y, dt)
            _check_magnitude(y, times[j + 1])
            m = float(np.max(np.abs(y)))
            if m > RESCALE_MAGNITUDE:
                y = y / m
                scale += math.log(m)
            psi1[j + 1], psi2[j + 1] = y[0], y[1]
            log_scale[j + 1] = scale

    return RiccatiRun(
        hurst=qv.hurst,
        grid=qv.grid,
        times=times,
        theta=theta,
        mu=mu,
        psi1=psi1,
        psi2=psi2,
        log_scale=log_scale,
    )


def _ratio_check(lin: RiccatiRun, ric: RiccatiRun) -> None:
    """Gamma = Psi_1^{-1} Psi_2 against the Riccati run at RATIO_CHECK_TIMES
    nodes; a relative disagreement beyond RATIO_CHECK_TOL raises ResidualTooLarge."""
    stop = len(lin.times) - 1
    if (ric.theta, ric.mu, ric.grid) != (lin.theta, lin.mu, lin.grid) or len(ric.times) <= stop:
        raise ValueError("the Riccati run must share theta, mu and the grid, and reach the horizon")
    samples = np.unique(np.linspace(1, stop, RATIO_CHECK_TIMES).astype(int))
    worst = 0.0
    for j in samples:
        gamma_lin = np.linalg.solve(lin.psi1[j], lin.psi2[j])
        gamma_ric = ric.gamma[j]
        denom = max(float(np.max(np.abs(gamma_ric))), 1e-12)
        worst = max(worst, float(np.max(np.abs(gamma_lin - gamma_ric))) / denom)
    if worst > RATIO_CHECK_TOL:
        raise ResidualTooLarge(worst, RATIO_CHECK_TOL, "linearized/Riccati ratio mismatch")


def k_T_via_liouville(
    theta: float,
    mu: float,
    qv: QVTable,
    horizon: float | None = None,
    *,
    riccati_run: RiccatiRun | None = None,
) -> float:
    """K_T from log det Psi_1(T), the determinant route.

    K_T = -(1/2T) log det Psi_1(T) + theta (T - dt)/(2T) - mu dt^2/(2T);
    the last two terms restore the [0, dt] start-up contributions (the flow
    determinant grows like e^{theta t} there and the trace integrand is 4t).
    The linearized pair must reproduce Gamma of the Riccati route (see
    _ratio_check): riccati_run is a caller's solve_riccati run on the same
    theta, mu and grid reaching the horizon, or None to solve one here.
    """
    if mu == 0.0:
        return 0.0
    run = solve_linearized(theta, mu, qv, horizon)
    _ratio_check(run, riccati_run if riccati_run is not None else solve_riccati(theta, mu, qv, horizon))
    t_end = float(run.times[-1])
    delta = float(run.times[1])
    det = float(np.linalg.det(run.psi1[-1]))
    if det <= 0.0:
        raise NonPositiveDet(f"det Psi1(T) = {det:.3e}")
    logdet = math.log(det) + 2.0 * float(run.log_scale[-1])
    return -logdet / (2.0 * t_end) + theta * (t_end - delta) / (2.0 * t_end) - mu * delta * delta / (2.0 * t_end)


def eigen_split(theta: float, mu: float) -> tuple[float, float, float]:
    """(lambda, a_plus, a_minus) with lambda = sqrt(theta^2/4 + mu/2)."""
    radicand = 0.25 * theta * theta + 0.5 * mu
    if radicand < 0.0:
        raise ComplexEigenvalues(f"theta^2/4 + mu/2 = {radicand:.3e} < 0")
    lam = math.sqrt(radicand)
    return lam, 0.5 * theta + lam, 0.5 * theta - lam


def solve_M_equation(lam: float, qv: QVTable, horizon: float | None = None) -> RiccatiRun:
    """M' = lam (A M + M A), M(0) = -I, with the trace-bound report.

    A has eigenvalues {0, 2}, so det M = e^{4 lam t} and the entries of M
    grow like e^{4 lam t}; the state is rescaled like the linearized pair:
    the true matrices are the stored ones times exp(log_scale). Also
    integrates the split pair Upsilon_1' = lam Upsilon_1 A,
    Upsilon_2' = -lam Upsilon_2 A from +-I/(2 lam) when lam > 0, so that
    M = Upsilon_2^{-1} Upsilon_1 is checkable (that ratio is scale-free).

    The trace envelope: M = -U V with U' = lam A U, V' = lam V A,
    U(0) = V(0) = I. In the frame D = diag(1, psi), D^{-1} A D is the
    all-ones matrix 1, and U^ = D(t)^{-1} U D(0), V^ = D(0)^{-1} V D(t)
    solve U^' = (lam 1 - E) U^, V^' = V^ (lam 1 + E) from I, with
    E = diag(0, psi'/psi); tr M = -tr(U^ V^). The log-norms of
    lam 1 -+ E are at most 2 lam + (|e| -+ e)/2 with e = psi'/psi, so

        |tr M(t)| <= 2 |U^|_2 |V^|_2 <= 2 exp(4 lam t + TV_0^t log psi),

    attained at t = 0, where TRACE_BOUND_CONST = 2 = |tr M(0)|. At H = 1/2 psi is constant, tr M = -(1 + e^{4 lam t})
    and the ratio is (1 + e^{-4 lam t})/2. For the piecewise-linear psi
    that the integrator sees, TV_0^t log psi is the cumulative sum of
    |diff(log psi_diag)|. trace_bound_ratios holds |tr M(t)| over that
    envelope per node, evaluated in log space; its max must not pass 1.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    stop = _stop_index(qv, horizon)
    times = qv.grid.nodes[: stop + 1]
    dt = qv.grid.dt
    psi = _psi_interp(qv)
    with_upsilon = lam > 0.0

    def f(t: float, y: np.ndarray) -> np.ndarray:
        a, _, _, _ = _matrices(psi(t))
        m = y[0]
        dm = lam * (a @ m + m @ a)
        if not with_upsilon:
            return np.stack((dm, np.zeros((2, 2)), np.zeros((2, 2))))
        return np.stack((dm, lam * (y[1] @ a), -lam * (y[2] @ a)))

    m_traj = np.empty((stop + 1, 2, 2))
    log_scale = np.zeros(stop + 1)
    ups1 = np.empty((stop + 1, 2, 2)) if with_upsilon else None
    ups2 = np.empty((stop + 1, 2, 2)) if with_upsilon else None
    m_traj[0] = -_I2
    init = (0.5 / lam) * _I2 if with_upsilon else np.zeros((2, 2))
    if with_upsilon:
        ups1[0], ups2[0] = init, -init
    y = np.stack((m_traj[0], init, -init))
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(stop):
            y = _advance(f, times[j], y, dt)
            _check_magnitude(y, times[j + 1])
            m = float(np.max(np.abs(y)))
            if m > RESCALE_MAGNITUDE:
                y = y / m
                scale += math.log(m)
            m_traj[j + 1] = y[0]
            log_scale[j + 1] = scale
            if with_upsilon:
                ups1[j + 1], ups2[j + 1] = y[1], y[2]

    traces = np.abs(np.trace(m_traj, axis1=1, axis2=2))
    log_psi_tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(np.log(qv.psi_diag[: stop + 1]))))))
    log_envelope = math.log(TRACE_BOUND_CONST) + 4.0 * lam * times + log_psi_tv
    log_ratio = np.log(np.maximum(traces, 1e-300)) + log_scale - log_envelope
    ratios = np.exp(log_ratio)
    return RiccatiRun(
        hurst=qv.hurst,
        grid=qv.grid,
        times=times,
        lam=lam,
        log_scale=log_scale,
        upsilon1=ups1,
        upsilon2=ups2,
        m_traj=m_traj,
        trace_bound_ratios=ratios,
        trace_bound_max=float(np.max(ratios)),
    )
