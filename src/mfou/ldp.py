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

Both rates fall to their zero at theta and rise past it: the reflected
printed formula is convex and C^1 (its branches meet with slope -2 at
theta/3), and the numeric rate is (x - theta)^2/(4x) for x > 0 and +inf for
x <= 0. So the infimum over an interval (lo, hi) is the rate at the point
of the closed interval nearest theta, clamp(theta, lo, hi), and the tail
rates evaluate there once.

`empirical_cgf` estimates L_T(a, b) by Monte Carlo over simulated paths
with an overflow-safe log-mean-exp. Its standard error is the delta
method's: with the max-shifted weights p of R replications,
se = sd(p) / (mean(p) sqrt(R)) / T, and NaN for R < 2, where no spread
can be measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .inference import path_statistics_batch
from .paths import ProcessSpec, sample_state_chunks
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


def tail_rate_numeric(gamma_lo: float, gamma_hi: float, theta: float) -> float:
    """inf over the tail interval of the numeric rate, at clamp(theta, lo, hi)."""
    return rate_function_numeric(min(max(theta, gamma_lo), gamma_hi), theta)


def tail_rate_printed(gamma_lo: float, gamma_hi: float, theta: float) -> float:
    """inf over the tail interval of the reflected printed rate, at clamp(theta, lo, hi)."""
    return rate_function_printed_reflected(min(max(theta, gamma_lo), gamma_hi), theta)


@dataclass(frozen=True)
class CgfEstimate:
    """Monte Carlo estimate of L_T(a, b) with its reliability diagnostics."""

    value: float
    stderr: float
    ess: float
    top_share: float
    heavy_tail: bool
    unreliable: bool


def empirical_cgf(
    a: float,
    b: float,
    spec: ProcessSpec,
    kernel: TransferKernel,
    qv: QVTable,
    reps: int,
    stream,
) -> CgfEstimate:
    """L_T(a, b) estimated over `reps` simulated paths.

    Uses max-shifted log-mean-exp, reports the delta-method standard error
    (NaN below two replications), the effective sample size of the
    exponential weights, and the share of mass carried by the single largest
    replication. Estimates with ESS < 100 are flagged unreliable; top share
    > 50% flags a heavy tail.
    """
    if kernel.grid != qv.grid or kernel.grid != spec.grid:
        raise GridMismatch("spec, kernel and bracket table must share one grid")
    horizon = spec.grid.horizon
    chunks = []
    for states in sample_state_chunks(spec, stream, reps):
        nums, dens = path_statistics_batch(states, kernel, qv)
        chunks.append(a * nums + b * dens)
    w = np.concatenate(chunks)

    m = float(np.max(w))
    p = np.exp(w - m)
    mean = float(np.mean(p))
    value = (m + math.log(mean)) / horizon
    total = float(np.sum(p))
    ess = total * total / float(np.sum(p * p))
    top_share = float(np.max(p)) / total
    stderr = math.nan
    if reps > 1:
        # d log(mean) = d mean / mean, so Var(log mean) ~ Var(p) / (R mean^2)
        stderr = float(np.std(p, ddof=1)) / (mean * math.sqrt(reps)) / horizon

    return CgfEstimate(
        value=value,
        stderr=stderr,
        ess=ess,
        top_share=top_share,
        heavy_tail=top_share > TOP_SHARE_HEAVY,
        unreliable=ess < ESS_RELIABLE,
    )
