"""Limiting cumulant generating functions and rate functions.

The estimator's sufficient statistics (int Q dZ, int Q^2 d<M>) have the
normalized CGF L_T(a, b) = (1/T) log E exp(a int Q dZ + b int Q^2 d<M>),
whose T -> infinity limit is the closed form

    L(a, b) = -(1/2) (a - theta + sqrt(theta^2 - 2b)),   theta^2 - 2b > 0,

and +inf outside that region. The exponential tilt K(mu) = L(0, -mu) has
its own one-parameter form. The numeric rate of the estimator at x is the
Chernoff exponent I(x) = -inf_a L(a, x*a): the pairing b = +x*a is the
estimator's own coordinate, and I vanishes at x = theta.

The printed two-branch rate formula (Florens-Landais & Pham 1999; Bercu &
Rouault 2002) is stated for the reflected drift, with its zero at -theta.
`rate_function_printed` keeps it verbatim; `rate_function_printed_reflected`
reads it at -x, the estimator's coordinate, and every tail and table value
goes through that one reflection. The two rates still differ: at x = 0.2
the printed value is 0.6 and the numeric one 0.8, and for x < 0 the numeric
objective is unbounded below (rate +inf) where the printed one is finite.

`empirical_cgf` estimates L_T(a, b) by Monte Carlo over simulated paths
with an overflow-safe log-mean-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .inference import path_statistics_batch
from .paths import ProcessSpec, sample_state_batch
from .transform import QVTable, TransferKernel

# CGF value outside the finiteness region; the true limit diverges there,
# so +inf doubles as an explicit domain marker that survives arithmetic.
OUT_OF_DOMAIN = math.inf

# infimum search controls: geometric bracket expansion cap and golden-section
# width tolerance in a
BRACKET_LIMIT = 1e6
GOLDEN_XTOL = 1e-10

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Monte Carlo CGF reliability gates
ESS_RELIABLE = 100.0
TOP_SHARE_HEAVY = 0.5


def cgf_limit(a: float, b: float, theta: float) -> float:
    """Limit of the normalized CGF at coefficients (a, b).

    Finite exactly when theta^2 - 2b > 0; returns OUT_OF_DOMAIN (+inf) on
    and beyond the boundary rather than raising.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    disc = theta * theta - 2.0 * b
    if disc <= 0.0:
        return OUT_OF_DOMAIN
    return -0.5 * (a - theta + math.sqrt(disc))


def k_limit(mu: float, theta: float) -> float:
    """Limit of the tilt CGF K(mu) = L(0, -mu); OUT_OF_DOMAIN for mu <= -theta^2/2."""
    return cgf_limit(0.0, -mu, theta)


def rate_function_printed(x: float, theta: float) -> float:
    """The closed-form two-branch rate: -(x+theta)^2/(4x) below -theta/3, 2x+theta above."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if x < -theta / 3.0:
        return -((x + theta) ** 2) / (4.0 * x)
    return 2.0 * x + theta


def rate_function_printed_reflected(x: float, theta: float) -> float:
    """The printed formula in the estimator's coordinate: its value at -x, zero at x = theta."""
    return rate_function_printed(-x, theta)


def _golden_section(f, lo: float, hi: float) -> float:
    while hi - lo > GOLDEN_XTOL:
        d = _INV_GOLDEN * (hi - lo)
        p, r = hi - d, lo + d
        if f(p) <= f(r):
            hi = r
        else:
            lo = p
    return 0.5 * (lo + hi)


def rate_function_numeric(x: float, theta: float) -> float:
    """-inf_a L(a, x*a) by geometric bracket expansion plus golden-section refinement.

    The objective is extended continuously to the domain boundary (sqrt
    clamped at 0); the open-domain values decrease to the boundary value, so
    minimizing over the closed interval leaves the infimum unchanged. The
    probe set grows outward from a = 0 (always feasible) by doubling until
    the domain boundary or BRACKET_LIMIT is reached; the minimum is then
    refined between the probes bracketing it. If the objective is still
    decreasing at the expansion cap, the rate is +inf.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    c = 2.0 * x

    def f(a: float) -> float:
        return -0.5 * (a - theta + math.sqrt(max(theta * theta - c * a, 0.0)))

    if c > 0.0:
        lo, hi = -BRACKET_LIMIT, min(theta * theta / c, BRACKET_LIMIT)
    elif c < 0.0:
        lo, hi = max(theta * theta / c, -BRACKET_LIMIT), BRACKET_LIMIT
    else:
        lo, hi = -BRACKET_LIMIT, BRACKET_LIMIT
    probes = [0.0]
    step = 1.0
    while probes[-1] < hi:
        probes.append(min(probes[-1] + step, hi))
        step *= 2.0
    step = 1.0
    while probes[0] > lo:
        probes.insert(0, max(probes[0] - step, lo))
        step *= 2.0
    values = [f(a) for a in probes]
    i = int(np.argmin(values))

    at_cap_right = i == len(probes) - 1 and math.isclose(probes[i], BRACKET_LIMIT)
    at_cap_left = i == 0 and math.isclose(probes[i], -BRACKET_LIMIT)
    if at_cap_right or at_cap_left:
        return math.inf

    bl = probes[i - 1] if i > 0 else probes[i]
    bh = probes[i + 1] if i < len(probes) - 1 else probes[i]
    return -f(_golden_section(f, bl, bh))


def _tail_window(gamma_lo: float, gamma_hi: float, theta: float) -> tuple[float, float]:
    """The tail interval with infinite ends truncated 10*theta past the other end."""
    lo = gamma_lo if math.isfinite(gamma_lo) else min(-10.0 * theta, gamma_hi - 10.0 * theta)
    hi = gamma_hi if math.isfinite(gamma_hi) else max(10.0 * theta, gamma_lo + 10.0 * theta)
    return lo, hi


def tail_rate_numeric(gamma_lo: float, gamma_hi: float, theta: float, points: int = 129) -> float:
    """inf over the tail interval of the numeric rate, scanned on a finite grid.

    Infinite endpoints are truncated where the rate is already far above the
    interval minimum (the numeric rate grows without bound along the tails).
    """
    lo, hi = _tail_window(gamma_lo, gamma_hi, theta)
    return min(rate_function_numeric(float(x), theta) for x in np.linspace(lo, hi, points))


def tail_rate_printed(gamma_lo: float, gamma_hi: float, theta: float, points: int = 513) -> float:
    """inf over the tail interval of the reflected printed formula."""
    lo, hi = _tail_window(gamma_lo, gamma_hi, theta)
    xs = np.linspace(lo, hi, points)
    vals = [rate_function_printed_reflected(float(x), theta) for x in xs]
    # the reflected formula's only interior minimum candidates are its zero and branch point
    for x in (theta, theta / 3.0):
        if lo <= x <= hi:
            vals.append(rate_function_printed_reflected(x, theta))
    return float(min(vals))


@dataclass(frozen=True)
class CgfEstimate:
    """Monte Carlo estimate of L_T(a, b) with its reliability diagnostics."""

    a: float
    b: float
    value: float
    stderr: float
    reps: int
    ess: float
    top_share: float
    heavy_tail: bool
    unreliable: bool


def _log_mean_exp(w: np.ndarray) -> tuple[float, np.ndarray]:
    m = float(np.max(w))
    p = np.exp(w - m)
    return m + math.log(float(np.mean(p))), p


def empirical_cgf(
    a: float,
    b: float,
    spec: ProcessSpec,
    kernel: TransferKernel,
    qv: QVTable,
    reps: int,
    stream,
    *,
    bootstrap: int = 200,
    batch: int = 512,
) -> CgfEstimate:
    """L_T(a, b) estimated over `reps` simulated paths.

    Uses max-shifted log-mean-exp, reports a bootstrap standard error (the
    resampling generator is the child stream one past the replication ids),
    the effective sample size of the exponential weights, and the share of
    mass carried by the single largest replication. Estimates with
    ESS < 100 are flagged unreliable; top share > 50% flags a heavy tail.
    """
    if kernel.grid != qv.grid or kernel.grid != spec.grid:
        raise GridMismatch("spec, kernel and bracket table must share one grid")
    horizon = spec.grid.horizon
    w = np.empty(reps)
    for start in range(0, reps, batch):
        ids = range(start, min(start + batch, reps))
        states = sample_state_batch(spec, stream, ids)
        nums, dens = path_statistics_batch(states, kernel, qv)
        w[start : start + len(nums)] = a * nums + b * dens

    lme, p = _log_mean_exp(w)
    value = lme / horizon
    total = float(np.sum(p))
    ess = total * total / float(np.sum(p * p))
    top_share = float(np.max(p)) / total

    gen = stream.child(reps).generator()
    idx = gen.integers(0, reps, size=(bootstrap, reps))
    boot = np.array([_log_mean_exp(w[row])[0] / horizon for row in idx])
    stderr = float(np.std(boot, ddof=1))

    return CgfEstimate(
        a=a,
        b=b,
        value=value,
        stderr=stderr,
        reps=reps,
        ess=ess,
        top_share=top_share,
        heavy_tail=top_share > TOP_SHARE_HEAVY,
        unreliable=ess < ESS_RELIABLE,
    )
