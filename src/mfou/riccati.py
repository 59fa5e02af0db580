"""Matrix ODE routes to the exponential moment K_T(mu).

The pair (Z, V) is a two-dimensional Gaussian diffusion with coefficient
matrices built from psi(t) alone:

    A = [[1, 1/psi], [psi, 1]],  b = [1/sqrt(psi), sqrt(psi)]^T,
    R = [[psi, 1], [1, 1/psi]],  B = b b^T,

satisfying R = J A and B = A J with J the off-diagonal flip. The tilt CGF
K_T(mu) = (1/T) log E exp(-mu int_0^T Q^2 d<M>) then has two deterministic
routes.

The trace route integrates the matrix Riccati equation

    K_T = -(mu/4T) int_0^T tr(Gamma R) dt,
    Gamma' = -(theta/2)(A Gamma + Gamma A^T) - (mu/2) Gamma R Gamma + B,

from Gamma(0) = 0 with classical RK4 on the bracket-table grid (psi
linear between the nodes), halving steps until successive refinements
agree to LOCAL_ERROR relative to the state's size (absolute below size 1);
an interval that still disagrees after MAX_HALVINGS raises
StepNotConverged. The trace integral is the trapezoid rule over the nodes.

The determinant route is Liouville's formula for the linearized pair
Psi_1' = (theta/2) Psi_1 A + (mu/2) Psi_2 R, Psi_2' = Psi_1 B -
(theta/2) Psi_2 A^T from (I, 0), whose ratio Psi_1^{-1} Psi_2 is Gamma:
K_T = -(1/2T) log det Psi_1(T) + theta/2. The pair itself is never
integrated, because its columns separate like e^{4 lam T}. With
lam = sqrt(theta^2/4 + mu/2) and a_+- = theta/2 +- lam (so a_+ a_- = -mu/2),

    Psi_1 = a_+ Upsilon_1 + a_- Upsilon_2,  Psi_2 = (Upsilon_1 + Upsilon_2) J,
    Upsilon_1' = lam Upsilon_1 A,  Upsilon_2' = -lam Upsilon_2 A,
    Upsilon_1(0) = -Upsilon_2(0) = I/(2 lam),

which follows from a_+ a_- = -mu/2, R = J A and J A^T = B. For 2 x 2
matrices det(x M + y I) = x^2 det M + x y tr M + y^2, so with the ratio
M = Upsilon_2^{-1} Upsilon_1,

    det Psi_1 = det Upsilon_2 (a_+^2 det M + a_+ a_- tr M + a_-^2).

Liouville's formula gives the determinants in closed form: tr A = 2, so
(det Upsilon_2)' = tr(-lam A) det Upsilon_2 = -2 lam det Upsilon_2 and
det Upsilon_2(t) = e^{-2 lam t}/(4 lam^2); likewise det M = e^{4 lam t}.
Hence

    log det Psi_1(T) = 2 lam T - log 4 lam^2
                       + log(a_+^2 + a_+ a_- tr M(T) e^{-4 lam T} + a_-^2 e^{-4 lam T}),

where the last bracket is O(1). M itself solves M' = lam (A M + M A) from
M(0) = -I (see solve_M_equation), and its trace obeys the envelope
|tr M(t)| <= 2 exp(4 lam t + TV_0^t log psi), attained at t = 0.

A has eigenvalues {0, 2}, so A^2 = 2A. M advances by the two-point Gauss fourth-order Magnus step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 2009), M <- e^{Omega_L} M e^{Omega_R}: with A_k = A(psi at
the Gauss points t + (1/2 -+ sqrt(3)/6) h) and K(psi) = A(psi) - I,

    Omega_L,R = lam h I + (lam h/2)(K_1 + K_2) +- (sqrt(3) lam^2 h^2/12)[A_2, A_1],
    [A_2, A_1] = (psi_1/psi_2 - psi_2/psi_1) diag(1, -1).

The traceless part N of Omega has N^2 = s^2 I, so by Cayley-Hamilton
e^{Omega} = e^{lam h} (cosh s I + (sinh s / s) N), built for every
interval in one array pass; for frozen psi the step is exact. The
route's contract is an a-posteriori error estimate: the same product with
two steps per interval gives the step-doubling estimate of tr M(T)
e^{-4 lam T}, which k_T_via_liouville carries to K_T and checks against
LIOUVILLE_ERROR_BOUND, raising ResidualTooLarge past it.
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
LIOUVILLE_ERROR_BOUND = 1e-6
TRACE_BOUND_CONST = 2.0  # |tr M(0)|

_I2 = np.eye(2)
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_EPS = float(np.finfo(float).eps)


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
    log_scale: np.ndarray | None = None
    m_traj: np.ndarray | None = None
    trace_bound_ratios: np.ndarray | None = None
    trace_bound_max: float | None = None
    trace_error: float | None = None


class RouteValue(float):
    """A route's K_T; `error` is the route's a-posteriori error estimate."""

    __slots__ = ("error",)

    def __new__(cls, value: float, error: float):
        self = super().__new__(cls, value)
        self.error = float(error)
        return self


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
    """One Riccati grid interval, halving the substep until refinements agree.

    A refinement is accepted when max|y_fine - y_coarse| <= LOCAL_ERROR *
    max(1, max|y_coarse|). A non-finite state is returned at once for the
    caller's BlowUp check; an interval still unconverged after MAX_HALVINGS
    raises StepNotConverged.
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

    Starts from Gamma(0) = 0; every accepted step is re-symmetrized. Raises
    BlowUp with the first time an entry passes BLOWUP_MAGNITUDE, which is
    the expected outcome for tilts outside mu > -theta^2/2. There the solution has a finite-time
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
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(stop):
            try:
                y = _advance(f, times[j], gamma[j], dt)
            except StepNotConverged as exc:
                if mu > -half_theta * theta:
                    raise
                raise BlowUp(time=times[j], magnitude=float(np.max(np.abs(gamma[j])))) from exc
            y = 0.5 * (y + y.T)
            _check_magnitude(y, times[j + 1])
            gamma[j + 1] = y

    p = qv.psi_diag[: stop + 1]
    # tr(Gamma R) with Gamma symmetric
    trace = gamma[:, 0, 0] * p + 2.0 * gamma[:, 0, 1] + gamma[:, 1, 1] / p
    return RiccatiRun(
        hurst=qv.hurst,
        grid=qv.grid,
        times=times,
        theta=theta,
        mu=mu,
        gamma=gamma,
        trace_gamma_r=trace,
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


def k_T_via_liouville(
    theta: float, mu: float, qv: QVTable, horizon: float | None = None
) -> RouteValue:
    """K_T from log det Psi_1(T), the determinant route, read off one M-equation run.

    K_T = theta/2 - lam + (log 4 lam^2 - log(a_+^2 + a_+ a_- tau + a_-^2
    e^{-4 lam T}))/(2T) with tau = tr M(T) e^{-4 lam T} (module docstring).
    The run's step-doubling estimate of tau, carried through that formula,
    is the returned value's `error`; past LIOUVILLE_ERROR_BOUND it raises
    ResidualTooLarge. At mu = -theta^2/2 (lam = 0) the split degenerates
    and the bracket is 0: NonPositiveDet.
    """
    if mu == 0.0:
        return RouteValue(0.0, 0.0)
    lam, a_plus, a_minus = eigen_split(theta, mu)
    run = solve_M_equation(lam, qv, horizon)
    t_end = float(run.times[-1])
    tau = float(np.trace(run.m_traj[-1]))
    decay = math.exp(-4.0 * lam * t_end)
    bracket = a_plus * a_plus + a_plus * a_minus * tau + a_minus * a_minus * decay
    if not bracket > 0.0:
        raise NonPositiveDet(f"det Psi1(T) split bracket = {bracket:.3e} at lam = {lam:.3e}")
    value = 0.5 * theta - lam + (2.0 * math.log(2.0 * lam) - math.log(bracket)) / (2.0 * t_end)
    error = abs(a_plus * a_minus) * run.trace_error / (2.0 * t_end * bracket)
    if not error <= LIOUVILLE_ERROR_BOUND:
        raise ResidualTooLarge(error, LIOUVILLE_ERROR_BOUND, "determinant route error estimate")
    return RouteValue(value, error)


def eigen_split(theta: float, mu: float) -> tuple[float, float, float]:
    """(lambda, a_plus, a_minus) with lambda = sqrt(theta^2/4 + mu/2)."""
    radicand = 0.25 * theta * theta + 0.5 * mu
    if radicand < 0.0:
        raise ComplexEigenvalues(f"theta^2/4 + mu/2 = {radicand:.3e} < 0")
    lam = math.sqrt(radicand)
    return lam, 0.5 * theta + lam, 0.5 * theta - lam


def _magnus_factors(lam: float, psi: np.ndarray, substeps: int, h: float):
    """Traceless-part exponentials of every Gauss-4 Magnus substep, in one array pass.

    psi holds the node values (linear in between); each interval is cut into
    `substeps` substeps of length k = h/substeps. Returns (F_L, F_R), each of
    shape (cells * substeps, 2, 2), with e^{Omega} = e^{lam k} F for the left
    and the right action.
    """
    weights = (np.arange(substeps)[:, None] + np.array(_GAUSS)) / substeps  # (substeps, 2)
    left, right = psi[:-1, None, None], psi[1:, None, None]
    points = (left + (right - left) * weights).reshape(-1, 2)
    p1, p2 = points[:, 0], points[:, 1]
    k = h / substeps
    beta = 0.5 * lam * k * (1.0 / p1 + 1.0 / p2)
    gamma = 0.5 * lam * k * (p1 + p2)
    delta = (math.sqrt(3.0) / 12.0) * (lam * k) ** 2 * (p1 / p2 - p2 / p1)
    s = np.sqrt(delta * delta + beta * gamma)
    cosh = np.cosh(s)
    sinhc = np.sinh(s) / np.where(s > 0.0, s, 1.0)  # N = 0 where s = 0

    def expm(d, b, c):
        out = np.empty((len(s), 2, 2))
        out[:, 0, 0] = cosh + sinhc * d
        out[:, 1, 1] = cosh - sinhc * d
        out[:, 0, 1] = sinhc * b
        out[:, 1, 0] = sinhc * c
        return out

    return expm(delta, beta, gamma), expm(-delta, beta, gamma)


def _ordered_product(factors: np.ndarray, left: bool) -> np.ndarray:
    """F_{n-1} ... F_0 (left) or F_0 ... F_{n-1}, by pairwise products in log2(n) array passes."""
    while len(factors) > 1:
        if len(factors) % 2:
            factors = np.concatenate((factors, _I2[None]))
        first, second = factors[0::2], factors[1::2]
        factors = second @ first if left else first @ second
    return factors[0]


def solve_M_equation(lam: float, qv: QVTable, horizon: float | None = None) -> RiccatiRun:
    """M' = lam (A M + M A), M(0) = -I, with the trace-bound report.

    A has eigenvalues {0, 2}, so det M = e^{4 lam t} and the entries of M
    grow like e^{4 lam t}; every stored matrix is the true one times
    e^{-4 lam t}, so log_scale = 4 lam t exactly. One Gauss-4 Magnus step
    per grid interval (module docstring) advances M <- e^{Omega_L} M
    e^{Omega_R}. M is the ratio Upsilon_2^{-1} Upsilon_1 of the split pair in
    the module docstring; the pair itself is never formed. trace_error is
    the step-doubling estimate of the error of tr M(T) e^{-4 lam T}: 16/15 of
    its change when every interval takes two steps, plus
    cells * eps * max|M(T)| e^{-4 lam T} for rounding.

    The trace envelope: M = -U V with U' = lam A U, V' = lam V A,
    U(0) = V(0) = I. In the frame D = diag(1, psi), D^{-1} A D is the
    all-ones matrix 1, and U^ = D(t)^{-1} U D(0), V^ = D(0)^{-1} V D(t)
    solve U^' = (lam 1 - E) U^, V^' = V^ (lam 1 + E) from I, with
    E = diag(0, psi'/psi); tr M = -tr(U^ V^). The log-norms of
    lam 1 -+ E are at most 2 lam + (|e| -+ e)/2 with e = psi'/psi, so

        |tr M(t)| <= 2 |U^|_2 |V^|_2 <= 2 exp(4 lam t + TV_0^t log psi),

    attained at t = 0, where TRACE_BOUND_CONST = 2 = |tr M(0)|. At H = 1/2
    psi is constant, tr M = -(1 + e^{4 lam t}) and the ratio is
    (1 + e^{-4 lam t})/2. For the piecewise-linear psi that the integrator
    sees, TV_0^t log psi is the cumulative sum of |diff(log psi_diag)|.
    trace_bound_ratios holds |tr M(t)| over that envelope per node,
    evaluated in log space; its max must not pass 1.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    stop = _stop_index(qv, horizon)
    times = qv.grid.nodes[: stop + 1]
    dt = qv.grid.dt
    psi = qv.psi_diag[: stop + 1]
    if np.any(psi <= 0.0):
        raise PsiNotPositive(f"min psi on [0, {times[-1]:.6g}] = {float(np.min(psi)):.3e}")

    # stored scale e^{-4 lam t}; a step multiplies the true M by e^{2 lam dt}
    # besides the F factors
    f_left, f_right = _magnus_factors(lam, psi, 1, dt)
    decay = math.exp(-lam * dt)
    f_left *= decay
    f_right *= decay
    m_traj = np.empty((stop + 1, 2, 2))
    m_traj[0] = -_I2
    for j in range(stop):
        m_traj[j + 1] = f_left[j] @ m_traj[j] @ f_right[j]
    if not np.all(np.isfinite(m_traj[-1])):
        raise BlowUp(time=float(times[-1]), magnitude=math.inf)

    fine_left, fine_right = _magnus_factors(lam, psi, 2, dt)
    half_decay = math.exp(-0.5 * lam * dt)
    fine_m = -_ordered_product(fine_left * half_decay, left=True) @ _ordered_product(
        fine_right * half_decay, left=False
    )
    tau = float(np.trace(m_traj[-1]))
    trace_error = (16.0 / 15.0) * abs(float(np.trace(fine_m)) - tau)
    trace_error += stop * _EPS * float(np.max(np.abs(m_traj[-1])))

    traces = np.abs(np.trace(m_traj, axis1=1, axis2=2))
    log_psi_tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(np.log(psi))))))
    log_ratio = np.log(np.maximum(traces, 1e-300)) - math.log(TRACE_BOUND_CONST) - log_psi_tv
    ratios = np.exp(log_ratio)
    return RiccatiRun(
        hurst=qv.hurst,
        grid=qv.grid,
        times=times,
        lam=lam,
        log_scale=4.0 * lam * times,
        m_traj=m_traj,
        trace_bound_ratios=ratios,
        trace_bound_max=float(np.max(ratios)),
        trace_error=trace_error,
    )
