import math

import numpy as np
import pytest

from mfou.experiments import _importance_weights
from mfou.inference import compute_Q_batch, compute_Z_batch, sufficient_statistics_batch
from mfou.ldp import (
    OUT_OF_DOMAIN,
    cgf_limit,
    empirical_cgf,
    k_limit,
    rate_function_numeric,
    rate_function_printed,
    rate_function_printed_reflected,
    tail_rate_numeric,
    tail_rate_printed,
)
from mfou.numerics import RandomStream
from mfou.paths import ProcessSpec, sample_state_batch


def test_cgf_limit_closed_form():
    # L(a, b) = -(a - theta + sqrt(theta^2 - 2b)) / 2 inside the domain
    for a, b, theta in ((0.0, 0.0, 1.0), (1.0, -0.5, 1.0), (-2.0, 0.3, 2.0)):
        expected = -0.5 * (a - theta + math.sqrt(theta * theta - 2 * b))
        assert cgf_limit(a, b, theta) == pytest.approx(expected)


def test_cgf_limit_domain_marker():
    # finite strictly inside, OUT_OF_DOMAIN exactly at theta^2 - 2b = 0
    theta = 1.3
    edge = theta * theta / 2
    assert math.isfinite(cgf_limit(0.0, edge - 1e-9, theta))
    assert cgf_limit(0.0, edge, theta) == OUT_OF_DOMAIN
    assert cgf_limit(0.0, edge + 1.0, theta) == OUT_OF_DOMAIN
    with pytest.raises(ValueError):
        cgf_limit(0.0, 0.0, 0.0)


def test_k_limit_values_and_domain():
    assert k_limit(0.0, 1.0) == 0.0
    assert k_limit(0.5, 1.0) == pytest.approx(0.5 - math.sqrt(0.5))
    # K(mu) = -mu / (theta + sqrt(theta^2 + 2 mu)), the resolvent form
    for mu in (0.25, 1.0, 3.0):
        assert k_limit(mu, 1.0) == pytest.approx(-mu / (1.0 + math.sqrt(1.0 + 2 * mu)))
    edge = -0.5  # -theta^2/2 at theta = 1
    assert math.isfinite(k_limit(edge + 1e-9, 1.0))
    assert k_limit(edge, 1.0) == OUT_OF_DOMAIN
    assert k_limit(edge - 1.0, 1.0) == OUT_OF_DOMAIN


def test_rate_printed_known_values():
    assert rate_function_printed(-1.0, 1.0) == 0.0
    assert rate_function_printed(0.5, 1.0) == pytest.approx(2.0)
    assert rate_function_printed(-2.0, 1.0) == pytest.approx(0.125)


def test_rate_printed_branch_continuity():
    theta = 1.0
    kink = -theta / 3.0
    left = rate_function_printed(kink - 1e-8, theta)
    right = rate_function_printed(kink + 1e-8, theta)
    assert abs(left - right) < 1e-6
    assert left == pytest.approx(theta / 3.0, abs=1e-7)


def test_rate_printed_nonnegative_unique_zero():
    theta = 1.0
    xs = np.linspace(-4.0, 2.0, 241)
    vals = np.array([rate_function_printed(float(x), theta) for x in xs])
    assert np.all(vals >= 0.0)
    zero = np.flatnonzero(vals == 0.0)
    assert zero.size == 1
    assert xs[zero[0]] == pytest.approx(-theta)


def test_rate_numeric_finite_above_unbounded_below():
    # b = +x*a: finite on the upper tail, unbounded below (+inf) at its mirror point
    assert rate_function_numeric(1.5, 1.0) == pytest.approx(1.0 / 24.0, abs=1e-6)
    assert rate_function_numeric(-1.5, 1.0) == math.inf


def test_rate_numeric_zero_at_theta():
    assert rate_function_numeric(1.0, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert rate_function_numeric(2.0, 2.0) == pytest.approx(0.0, abs=1e-8)


def test_rate_numeric_validation():
    with pytest.raises(ValueError):
        rate_function_numeric(1.0, 0.0)


def test_rate_printed_reflected():
    # the printed formula read at -x: zero at x = theta, 1/24 at x = 1.5
    for x in (-2.0, -0.2, 0.2, 1.0, 1.5):
        assert rate_function_printed_reflected(x, 1.0) == rate_function_printed(-x, 1.0)
    assert rate_function_printed_reflected(1.0, 1.0) == 0.0
    assert rate_function_printed_reflected(1.5, 1.0) == pytest.approx(1.0 / 24.0)


def test_tail_rates_frozen():
    # reference values reported by every tail experiment at theta = 1
    assert tail_rate_printed(1.5, math.inf, 1.0) == pytest.approx(1.0 / 24.0)
    assert tail_rate_printed(1.0, math.inf, 1.0) == 0.0
    assert tail_rate_numeric(1.5, math.inf, 1.0) == pytest.approx(1.0 / 24.0, abs=1e-6)


TAIL_RATES = [(tail_rate_printed, rate_function_printed_reflected),
              (tail_rate_numeric, rate_function_numeric)]


@pytest.mark.parametrize("tail", [tail for tail, _ in TAIL_RATES])
@pytest.mark.parametrize("gamma", [(0.55, 1.37), (0.3, 1.2), (-2.0, 3.0), (0.0, 2.0)])
def test_tail_rate_zero_when_interval_holds_theta(tail, gamma):
    # theta inside the interval, wherever it falls, gives the rate's zero
    assert tail(*gamma, 1.0) == 0.0


@pytest.mark.parametrize("tail, rate", TAIL_RATES)
@pytest.mark.parametrize(
    "gamma, window",
    [
        ((1.5, math.inf), (1.5, 11.5)),
        ((2.0, math.inf), (2.0, 12.0)),
        ((-math.inf, 0.5), (-9.5, 0.5)),
        ((0.2, 0.9), None),
        ((1.01, 1.02), None),
        ((1.2, 2.0), None),
    ],
)
def test_tail_rate_is_the_interval_minimum(tail, rate, gamma, window):
    # one evaluation at clamp(theta, lo, hi) against a dense scan of the interval
    lo, hi = window or gamma
    vals = np.array([rate(float(x), 1.0) for x in np.linspace(lo, hi, 10_001)])
    got = tail(*gamma, 1.0)
    assert np.all(got <= vals)
    assert vals.min() - got <= 1e-9


def _tail_draws(theta, kernel, qv, reps, seed):
    spec = ProcessSpec(0.7, theta, kernel.grid)
    states = sample_state_batch(spec, RandomStream(seed), range(reps))
    z = compute_Z_batch(states, kernel)
    q, _ = compute_Q_batch(z, qv)
    return sufficient_statistics_batch(q, z, qv)


@pytest.mark.parametrize("phi", [-0.7, -1.35])
def test_girsanov_weight_has_unit_mean(kernel_07, qv_07, phi):
    # dP(-phi)/dP(theta) on paths drawn under theta; keep the drift change
    # modest, the weight variance explodes with it
    theta = 1.0
    w = _importance_weights(-phi, theta, *_tail_draws(theta, kernel_07, qv_07, 2000, 404))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert w.mean() == pytest.approx(1.0, abs=3.5 * se)
    assert se < 0.05


def test_girsanov_weight_trivial_at_matching_drift(kernel_07, qv_07):
    stats = _tail_draws(1.0, kernel_07, qv_07, 8, 404)
    assert np.array_equal(_importance_weights(1.0, 1.0, *stats), np.ones(8))


def test_empirical_cgf_diagnostics(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    est = empirical_cgf(0.0, -0.25, spec, kernel_07, qv_07, 64, RandomStream(77, (9,)))
    again = empirical_cgf(0.0, -0.25, spec, kernel_07, qv_07, 64, RandomStream(77, (9,)))
    assert est.value == again.value
    assert est.stderr == again.stderr
    assert math.isfinite(est.value)
    assert est.ess <= 64.0
    assert est.unreliable  # ESS can never reach the reliability floor here
    assert 0.0 < est.top_share <= 1.0
