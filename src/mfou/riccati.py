"""Matrix ODE routes to the exponential moment K_T(mu).

The pair (Z, V) is a two-dimensional Gaussian diffusion with coefficient
matrices built from psi(t) alone:

    A = [[1, 1/psi], [psi, 1]],  b = [1/sqrt(psi), sqrt(psi)]^T,
    R = [[psi, 1], [1, 1/psi]],  B = b b^T,

satisfying R = J A and B = A J with J the off-diagonal flip. The tilt CGF
K_T(mu) = (1/T) log E exp(-mu int_0^T Q^2 d<M>) then has two deterministic
routes, both with psi linear between the bracket-table nodes. Both go
through the linear pair Y = [Psi_1 Psi_2] with Y' = Y H from [I 0],

    H = [[(theta/2) A, B], [(mu/2) R, -(theta/2) A^T]],

whose columns separate like e^{4 lam T}, so neither integrates Y itself.

The trace route is K_T = -(mu/4T) int_0^T tr(Gamma R) dt, composite
Simpson over the nodes, for the Riccati solution Gamma = Psi_1^{-1} Psi_2,

    Gamma' = -(theta/2)(A Gamma + Gamma A^T) - (mu/2) Gamma R Gamma + B,
    Gamma(0) = 0.

Each grid interval has a 4 x 4 transfer matrix Phi, Y(t + h) = Y(t) Phi,
and Gamma advances by its Moebius map (Schiff & Shnider, SIAM J. Numer.
Anal. 36, 1999), Gamma <- (Phi_11 + Gamma Phi_21)^{-1} (Phi_12 + Gamma Phi_22).
The matrix inverted is Psi_1(t)^{-1} Psi_1(t + h), so its determinant
turns non-positive exactly where Psi_1 turns singular and Gamma blows up:
the finite-time singularity outside mu > -theta^2/2.

The determinant route is Liouville's formula, K_T = -(1/2T) log det
Psi_1(T) + theta/2. With lam = sqrt(theta^2/4 + mu/2) and
a_+- = theta/2 +- lam (so a_+ a_- = -mu/2),

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

Both routes step with the two-point Gauss fourth-order Magnus method
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009): with H_k at the Gauss
points t + (1/2 -+ sqrt(3)/6) h, Y(t + h) = Y(t) e^{Omega},

    Omega = (h/2)(H_1 + H_2) - (sqrt(3) h^2/12)[H_2, H_1].

The trace route takes every Phi = e^{Omega} from one batched expm call.
A has eigenvalues {0, 2}, so A^2 = 2A, and M advances by the closed-form
step M <- e^{Omega_L} M e^{Omega_R}: with A_k = A(psi_k), K = A - I,

    Omega_L,R = lam h I + (lam h/2)(K_1 + K_2) +- (sqrt(3) lam^2 h^2/12)[A_2, A_1],
    [A_2, A_1] = (psi_1/psi_2 - psi_2/psi_1) diag(1, -1).

The traceless part N of Omega has N^2 = s^2 I, so by Cayley-Hamilton
e^{Omega} = e^{lam h} (cosh s I + (sinh s / s) N), built for every
interval in one array pass; for frozen psi the step is exact.

Both routes have one contract, a step-doubling estimate of the ODE solve:
the same product with two Magnus steps per interval gives K_T again, 16/15
of the change is the returned value's `error`, and past ROUTE_ERROR_BOUND
the route raises ResidualTooLarge. The trace route's quadrature error is
not part of it; the gap between the routes shows it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    BlowUp,
    ComplexEigenvalues,
    NonPositiveDet,
    PsiNotPositive,
    ResidualTooLarge,
)
from .numerics import TimeGrid
from .transform import QVTable

ROUTE_ERROR_BOUND = 1e-6
TRACE_BOUND_CONST = 2.0  # |tr M(0)|

_I2 = np.eye(2)
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RiccatiRun:
    """One trace-route integration over the bracket grid (fields: see solve_riccati)."""

    grid: TimeGrid
    times: np.ndarray
    theta: float
    mu: float
    gamma: np.ndarray
    trace_gamma_r: np.ndarray
    trace_gamma_r_fine: np.ndarray


@dataclass(frozen=True)
class MRun:
    """One M-equation integration with its trace-bound report (fields: see solve_M_equation)."""

    times: np.ndarray
    log_scale: np.ndarray
    m_traj: np.ndarray
    trace_bound_ratios: np.ndarray
    trace_bound_max: float
    trace_error: float


class RouteValue(float):
    """A route's K_T; `error` is the route's a-posteriori error estimate."""

    __slots__ = ("error",)

    def __new__(cls, value: float, error: float):
        self = super().__new__(cls, value)
        self.error = float(error)
        return self


def _psi_prefix(qv: QVTable, horizon: float | None):
    """Nodes and psi values on [0, horizon]; psi must be positive there."""
    stop = qv.grid.cells if horizon is None else qv.grid.index_of(horizon)
    times, psi = qv.grid.nodes[: stop + 1], qv.psi_diag[: stop + 1]
    if np.any(psi <= 0.0):
        raise PsiNotPositive(f"min psi on [0, {times[-1]:.6g}] = {float(np.min(psi)):.3e}")
    return times, psi


def _gauss_points(psi: np.ndarray, substeps: int) -> np.ndarray:
    """psi (linear between nodes) at both Gauss points of `substeps` equal substeps per cell."""
    weights = (np.arange(substeps)[:, None] + np.array(_GAUSS)) / substeps
    return psi[:-1, None, None] + (psi[1:] - psi[:-1])[:, None, None] * weights


def _hamiltonian(theta: float, mu: float, psi: np.ndarray) -> np.ndarray:
    """H = [[(theta/2) A, B], [(mu/2) R, -(theta/2) A^T]] for every entry of psi."""
    inv, ht, hm = 1.0 / psi, 0.5 * theta, 0.5 * mu
    rows = (
        (ht, ht * inv, inv, 1.0),
        (ht * psi, ht, 1.0, psi),
        (hm * psi, hm, -ht, -ht * psi),
        (hm, hm * inv, -ht * inv, -ht),
    )
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)


def _gamma_paths(theta: float, mu: float, times: np.ndarray, psi: np.ndarray, substeps):
    """Gamma at every node, one trajectory per count of Magnus steps per interval.

    Returns shape (len(substeps), cells + 1, 2, 2); every Gauss-4 Magnus
    exponential comes from one expm call. Raises BlowUp with the start of
    the first interval where det(Phi_11 + Gamma Phi_21) is not positive:
    Psi_1 turns singular inside it.
    """
    omegas = []
    for count in substeps:
        points = _gauss_points(psi, count)
        h1, h2 = _hamiltonian(theta, mu, points[..., 0]), _hamiltonian(theta, mu, points[..., 1])
        k = (times[1] - times[0]) / count
        omegas.append(0.5 * k * (h1 + h2) - (math.sqrt(3.0) / 12.0) * k * k * (h2 @ h1 - h1 @ h2))
    exps = np.split(expm(np.concatenate(omegas, axis=1)), np.cumsum(substeps)[:-1], axis=1)
    phi = np.stack([functools.reduce(np.matmul, e.swapaxes(0, 1)) for e in exps])
    gamma = np.zeros((len(substeps), len(times), 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(times) - 1):
            p = phi[:, j, :2, :2] + gamma[:, j] @ phi[:, j, 2:, :2]
            q = phi[:, j, :2, 2:] + gamma[:, j] @ phi[:, j, 2:, 2:]
            if not np.all(p[:, 0, 0] * p[:, 1, 1] - p[:, 0, 1] * p[:, 1, 0] > 0.0):
                raise BlowUp(float(times[j]), "Psi_1 turns singular within the step")
            g = np.linalg.solve(p, q)
            gamma[:, j + 1] = 0.5 * (g + g.swapaxes(1, 2))
    return gamma


def _simpson_weights(cells: int, dt: float) -> np.ndarray:
    """Composite Simpson node weights on `cells` equal cells; an odd count ends in the 3/8 rule."""
    if cells == 1:
        return np.full(2, 0.5 * dt)
    even = cells - 3 * (cells % 2)
    w = np.zeros(cells + 1)
    if even:
        w[1:even:2], w[2:even:2], w[0], w[even] = 4.0, 2.0, 1.0, 1.0
        w *= dt / 3.0
    if even < cells:
        w[even:] += (3.0 * dt / 8.0) * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def solve_riccati(theta: float, mu: float, qv: QVTable, horizon: float | None = None) -> RiccatiRun:
    """Gamma trajectory of the matrix Riccati equation on [0, horizon].

    Moebius steps of the Gauss-4 Magnus transfer matrices from Gamma(0) = 0
    (module docstring), with one Magnus step per interval (gamma,
    trace_gamma_r) and with two (trace_gamma_r_fine, for the error
    estimate). Raises BlowUp at the first interval where Psi_1 turns
    singular, the expected outcome for tilts outside mu > -theta^2/2.
    """
    times, psi = _psi_prefix(qv, horizon)
    gamma = _gamma_paths(theta, mu, times, psi, (1, 2))
    # tr(Gamma R) with Gamma symmetric
    trace = gamma[..., 0, 0] * psi + 2.0 * gamma[..., 0, 1] + gamma[..., 1, 1] / psi
    return RiccatiRun(
        grid=qv.grid,
        times=times,
        theta=theta,
        mu=mu,
        gamma=gamma[0],
        trace_gamma_r=trace[0],
        trace_gamma_r_fine=trace[1],
    )


def k_T_via_riccati(run: RiccatiRun, horizon: float | None = None) -> RouteValue:
    """K_T = -(mu/4T) int_0^T tr(Gamma R) dt by composite Simpson over the run's nodes.

    The same sum over the two-step trajectory gives the step-doubling
    estimate of the ODE solve's error (not the quadrature's), 16/15 of the
    change: the returned value's `error`, past ROUTE_ERROR_BOUND a
    ResidualTooLarge.
    """
    if run.mu == 0.0:
        return RouteValue(0.0, 0.0)
    stop = len(run.times) - 1
    if horizon is not None:
        stop = run.grid.index_of(horizon)
        if stop > len(run.times) - 1:
            raise ValueError(f"run stops at t={run.times[-1]:.6g}, requested {horizon}")
    weights = -run.mu / (4.0 * float(run.times[stop])) * _simpson_weights(stop, run.grid.dt)
    value = float(weights @ run.trace_gamma_r[: stop + 1])
    error = (16.0 / 15.0) * abs(float(weights @ run.trace_gamma_r_fine[: stop + 1]) - value)
    if not error <= ROUTE_ERROR_BOUND:
        raise ResidualTooLarge(error, ROUTE_ERROR_BOUND, "trace route error estimate")
    return RouteValue(value, error)


def k_T_via_liouville(
    theta: float, mu: float, qv: QVTable, horizon: float | None = None
) -> RouteValue:
    """K_T from log det Psi_1(T), the determinant route, read off one M-equation run.

    K_T = theta/2 - lam + (log 4 lam^2 - log(a_+^2 + a_+ a_- tau + a_-^2
    e^{-4 lam T}))/(2T) with tau = tr M(T) e^{-4 lam T} (module docstring).
    The run's step-doubling estimate of tau, carried through that formula,
    is the returned value's `error`; past ROUTE_ERROR_BOUND it raises
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
    if not error <= ROUTE_ERROR_BOUND:
        raise ResidualTooLarge(error, ROUTE_ERROR_BOUND, "determinant route error estimate")
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

    Each interval takes `substeps` substeps of length k = h/substeps.
    Returns (F_L, F_R), each of shape (cells * substeps, 2, 2), with
    e^{Omega} = e^{lam k} F for the left and the right action.
    """
    points = _gauss_points(psi, substeps).reshape(-1, 2)
    p1, p2 = points[:, 0], points[:, 1]
    k = h / substeps
    beta = 0.5 * lam * k * (1.0 / p1 + 1.0 / p2)
    gamma = 0.5 * lam * k * (p1 + p2)
    delta = (math.sqrt(3.0) / 12.0) * (lam * k) ** 2 * (p1 / p2 - p2 / p1)
    s = np.sqrt(delta * delta + beta * gamma)
    cosh = np.cosh(s)
    sinhc = np.sinh(s) / np.where(s > 0.0, s, 1.0)  # N = 0 where s = 0

    def factor(d, b, c):
        out = np.empty((len(s), 2, 2))
        out[:, 0, 0] = cosh + sinhc * d
        out[:, 1, 1] = cosh - sinhc * d
        out[:, 0, 1] = sinhc * b
        out[:, 1, 0] = sinhc * c
        return out

    return factor(delta, beta, gamma), factor(-delta, beta, gamma)


def solve_M_equation(lam: float, qv: QVTable, horizon: float | None = None) -> MRun:
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
    times, psi = _psi_prefix(qv, horizon)
    stop = len(times) - 1
    dt = qv.grid.dt

    # stored scale e^{-4 lam t}: a step multiplies the true M by e^{2 lam dt}
    # besides the F factors. Both trajectories, with one and with two Magnus
    # steps per interval, advance together.
    f_left, f_right = _magnus_factors(lam, psi, 1, dt)
    fine_left, fine_right = _magnus_factors(lam, psi, 2, dt)
    decay = math.exp(-lam * dt)
    left = decay * np.stack((f_left, fine_left[1::2] @ fine_left[0::2]))
    right = decay * np.stack((f_right, fine_right[0::2] @ fine_right[1::2]))
    m = np.empty((2, stop + 1, 2, 2))
    m[:, 0] = -_I2
    for j in range(stop):
        m[:, j + 1] = left[:, j] @ m[:, j] @ right[:, j]
    m_traj = m[0]
    if not np.all(np.isfinite(m_traj[-1])):
        raise BlowUp(float(times[-1]), "M(T) is not finite")
    tau = float(np.trace(m_traj[-1]))
    trace_error = (16.0 / 15.0) * abs(float(np.trace(m[1, -1])) - tau)
    trace_error += stop * _EPS * float(np.max(np.abs(m_traj[-1])))

    traces = np.abs(np.trace(m_traj, axis1=1, axis2=2))
    log_psi_tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(np.log(psi))))))
    log_ratio = np.log(np.maximum(traces, 1e-300)) - math.log(TRACE_BOUND_CONST) - log_psi_tv
    ratios = np.exp(log_ratio)
    return MRun(
        times=times,
        log_scale=4.0 * lam * times,
        m_traj=m_traj,
        trace_bound_ratios=ratios,
        trace_bound_max=float(np.max(ratios)),
        trace_error=trace_error,
    )
