import io

import numpy as np
import pytest

from mfou.errors import DegeneratePath, GridMismatch
from mfou.inference import (
    ESTIMATE_COLUMNS,
    compute_Q,
    compute_Q_batch,
    compute_Q_direct,
    compute_Z,
    compute_Z_batch,
    estimate_batch,
    log_likelihood,
    mle,
    reconstruct_X,
    score,
    sufficient_statistics,
    sufficient_statistics_batch,
    transform_path,
    write_estimates_csv,
)
from mfou.numerics import RandomStream, TimeGrid, trapezoid_integral
from mfou.paths import ProcessSpec, sample_mixed_path, sample_state_batch
from mfou.transform import inverse_kernel


@pytest.fixture(scope="module")
def path_half(grid_half):
    spec = ProcessSpec(0.5, 1.0, grid_half)
    return sample_mixed_path(spec, RandomStream(7, (0,)))


@pytest.fixture(scope="module")
def tp_half(path_half, kernel_half, qv_half):
    return transform_path(path_half, kernel_half, qv_half, 1.0)


def test_h_half_z_is_half_state(path_half, kernel_half):
    z = compute_Z(path_half, kernel_half)
    assert np.max(np.abs(z - path_half.state / 2)) < 1e-9


def test_h_half_q_recovers_state(path_half, tp_half):
    assert np.max(np.abs(tp_half.Q - path_half.state)) < 1e-9


def test_h_half_mle_is_classical(path_half, tp_half, qv_half, grid_half):
    # theta_hat = -sum X dX / trapezoid(X^2 dt), same quadrature both sides
    x = path_half.state
    num = float(np.sum(x[:-1] * np.diff(x)))
    den = trapezoid_integral(x**2, np.full(grid_half.cells, grid_half.dt))
    assert mle(tp_half, qv_half) == pytest.approx(-num / den, abs=1e-10)


def test_score_vanishes_at_estimate(tp_half, qv_half):
    theta_hat = mle(tp_half, qv_half)
    assert score(theta_hat, tp_half, qv_half) == pytest.approx(0.0, abs=1e-12)
    assert score(theta_hat - 0.5, tp_half, qv_half) > 0.0
    assert score(theta_hat + 0.5, tp_half, qv_half) < 0.0


def test_likelihood_peaks_at_estimate(tp_half, qv_half):
    theta_hat = mle(tp_half, qv_half)
    peak = log_likelihood(theta_hat, tp_half, qv_half)
    assert log_likelihood(theta_hat - 0.3, tp_half, qv_half) < peak
    assert log_likelihood(theta_hat + 0.3, tp_half, qv_half) < peak


def test_batch_matches_single(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(31), range(5))
    z_batch = compute_Z_batch(states, kernel_07)
    q_batch, v_batch = compute_Q_batch(z_batch, qv_07)
    nums, dens = sufficient_statistics_batch(q_batch, z_batch, qv_07)
    for r in range(5):
        z = compute_Z(states[r], kernel_07)
        q, v = compute_Q(z, qv_07)
        assert np.allclose(z_batch[r], z, atol=1e-12)
        assert np.allclose(q_batch[r], q, atol=1e-12)
        assert np.allclose(v_batch[r], v, atol=1e-12)
        tp = transform_path(states[r], kernel_07, qv_07, 1.0)
        num, den = sufficient_statistics(tp, qv_07)
        assert nums[r] == pytest.approx(num, abs=1e-12)
        assert dens[r] == pytest.approx(den, abs=1e-12)


def test_q_representations_agree(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    bundle = sample_mixed_path(spec, RandomStream(13, (2,)))
    z = compute_Z(bundle, kernel_07)
    q, _ = compute_Q(z, qv_07)
    q_direct = compute_Q_direct(bundle, kernel_07, qv_07)
    gap = np.max(np.abs(q - q_direct)) / np.max(np.abs(q_direct))
    assert gap < 0.05


def test_estimate_scale_invariant(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(5), range(3))
    base = estimate_batch(states, kernel_07, qv_07, 1.0, range(3))
    scaled = estimate_batch(17.0 * states, kernel_07, qv_07, 1.0, range(3))
    for a, b in zip(base, scaled):
        assert b.theta_hat == pytest.approx(a.theta_hat, rel=1e-12)


def test_estimate_records(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.2, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(9), [4, 8])
    records = estimate_batch(states, kernel_07, qv_07, 1.2, [4, 8])
    assert [r.rep_id for r in records] == [4, 8]
    for r in records:
        assert r.hurst == 0.7
        assert r.theta_true == 1.2
        assert r.horizon == kernel_07.grid.horizon
        assert r.cells == kernel_07.grid.cells
        assert r.denominator > 0.0
        assert r.theta_hat == pytest.approx(-r.numerator / r.denominator)


def test_degenerate_path(kernel_07, qv_07):
    zero = np.zeros((1, kernel_07.grid.cells + 1))
    record = estimate_batch(zero, kernel_07, qv_07, 1.0, [0])[0]
    assert np.isnan(record.theta_hat)
    tp = transform_path(zero[0], kernel_07, qv_07, 1.0)
    with pytest.raises(DegeneratePath):
        mle(tp, qv_07)


def test_grid_mismatch_raises(kernel_07, qv_07):
    with pytest.raises(GridMismatch):
        compute_Z(np.zeros(10), kernel_07)
    with pytest.raises(GridMismatch):
        compute_Z_batch(np.zeros((2, 10)), kernel_07)
    inv = inverse_kernel(kernel_07, qv_07)
    with pytest.raises(GridMismatch):
        reconstruct_X(np.zeros(10), inv)


def test_estimates_csv_contract(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(1), range(2))
    records = estimate_batch(states, kernel_07, qv_07, 1.0, range(2))
    buf = io.StringIO()
    write_estimates_csv(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(ESTIMATE_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == len(ESTIMATE_COLUMNS)
    assert float(row[ESTIMATE_COLUMNS.index("theta_hat")]) == pytest.approx(
        records[0].theta_hat
    )
