from types import SimpleNamespace

import numpy as np
import pytest

from mfou.cli import EXIT_OK, main
from mfou import inference
from mfou.errors import GridMismatch
from mfou.inference import (
    DEGENERATE_DENOMINATOR,
    ESTIMATE_COLUMNS,
    compute_Q_batch,
    compute_Z_batch,
    estimate_batch,
    sufficient_statistics_batch,
)
from mfou.numerics import RandomStream
from mfou.paths import ProcessSpec, sample_mixed_path, sample_state_batch
from oracles import compute_Q_direct, inverse_kernel, reconstruct_X, trapezoid_integral


@pytest.fixture(scope="module")
def path_half(grid_half):
    spec = ProcessSpec(0.5, 1.0, grid_half)
    return sample_mixed_path(spec, RandomStream(7, (0,)))


@pytest.fixture(scope="module")
def record_half(path_half, kernel_half, qv_half):
    arrays = estimate_batch(path_half.state[None], kernel_half, qv_half)
    theta_hat, numerator, denominator = (float(a[0]) for a in arrays)
    return SimpleNamespace(theta_hat=theta_hat, numerator=numerator, denominator=denominator)


def _log_likelihood(theta, record):
    return -theta * record.numerator - 0.5 * theta**2 * record.denominator


def test_h_half_z_is_half_state(path_half, kernel_half):
    z = compute_Z_batch(path_half.state[None], kernel_half)[0]
    assert np.max(np.abs(z - path_half.state / 2)) < 1e-9


def test_h_half_q_recovers_state(path_half, kernel_half, qv_half):
    q, _ = compute_Q_batch(compute_Z_batch(path_half.state[None], kernel_half), qv_half)
    assert np.max(np.abs(q[0] - path_half.state)) < 1e-9


def test_h_half_mle_is_classical(path_half, record_half, grid_half):
    # theta_hat = -sum X dX / trapezoid(X^2 dt), same quadrature both sides
    x = path_half.state
    num = float(np.sum(x[:-1] * np.diff(x)))
    den = trapezoid_integral(x**2, np.full(grid_half.cells, grid_half.dt))
    assert record_half.theta_hat == pytest.approx(-num / den, abs=1e-10)


def test_score_vanishes_at_estimate(record_half):
    # the score is the derivative -num - theta*den of the log-likelihood
    def score(theta):
        return -record_half.numerator - theta * record_half.denominator

    theta_hat = record_half.theta_hat
    assert score(theta_hat) == pytest.approx(0.0, abs=1e-12)
    assert score(theta_hat - 0.5) > 0.0
    assert score(theta_hat + 0.5) < 0.0


def test_likelihood_peaks_at_estimate(record_half):
    theta_hat = record_half.theta_hat
    peak = _log_likelihood(theta_hat, record_half)
    assert _log_likelihood(theta_hat - 0.3, record_half) < peak
    assert _log_likelihood(theta_hat + 0.3, record_half) < peak


def test_batch_matches_single(kernel_07, qv_07):
    # every batch row against the sums written out for that one path:
    # Z_j = sum_{i<j} g(t_i, t_j) dX_i, V = left-endpoint sum of psi dZ,
    # numerator = left-endpoint sum of Q dZ, denominator = trapezoid of Q^2 d<M>
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(31), range(5))
    z_batch = compute_Z_batch(states, kernel_07)
    q_batch, v_batch = compute_Q_batch(z_batch, qv_07)
    nums, dens = sufficient_statistics_batch(q_batch, z_batch, qv_07)
    n = kernel_07.grid.cells
    psi, bracket = qv_07.psi_diag, qv_07.bracket
    for r in range(5):
        dx = np.diff(states[r])
        z = [0.0]
        for j in range(1, n + 1):
            z.append(sum(kernel_07.matrix[j - 1, i] * dx[i] for i in range(j)))
        v = [0.0]
        for i in range(n):
            v.append(v[-1] + psi[i] * (z[i + 1] - z[i]))
        q = [0.5 * (psi[k] * z[k] + v[k]) for k in range(n + 1)]
        num = sum(q[i] * (z[i + 1] - z[i]) for i in range(n))
        den = sum(
            0.5 * (q[i] ** 2 + q[i + 1] ** 2) * (bracket[i + 1] - bracket[i]) for i in range(n)
        )
        assert np.allclose(z_batch[r], z, rtol=0.0, atol=1e-12)
        assert np.allclose(v_batch[r], v, rtol=0.0, atol=1e-12)
        assert np.allclose(q_batch[r], q, rtol=0.0, atol=1e-12)
        assert nums[r] == pytest.approx(num, abs=1e-12)
        assert dens[r] == pytest.approx(den, abs=1e-12)


def test_q_representations_agree(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    bundle = sample_mixed_path(spec, RandomStream(13, (2,)))
    q, _ = compute_Q_batch(compute_Z_batch(bundle.state[None], kernel_07), qv_07)
    q_direct = compute_Q_direct(bundle.state, 0.7, kernel_07, qv_07)
    gap = np.max(np.abs(q[0] - q_direct)) / np.max(np.abs(q_direct))
    assert gap < 0.05


def test_estimate_scale_invariant(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(5), range(3))
    base = estimate_batch(states, kernel_07, qv_07)[0]
    scaled = estimate_batch(17.0 * states, kernel_07, qv_07)[0]
    assert np.allclose(scaled, base, rtol=1e-12, atol=0.0)


def test_estimate_records(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.2, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(9), [4, 8])
    theta_hat, numerator, denominator = estimate_batch(states, kernel_07, qv_07)
    assert theta_hat.shape == numerator.shape == denominator.shape == (2,)
    assert np.all(denominator > 0.0)
    assert np.array_equal(theta_hat, -numerator / denominator)


def test_degenerate_path(kernel_07, qv_07):
    zero = np.zeros((1, kernel_07.grid.cells + 1))
    theta_hat, numerator, denominator = estimate_batch(zero, kernel_07, qv_07)
    assert np.isnan(theta_hat[0])
    assert numerator[0] == 0.0 and denominator[0] == 0.0


def test_non_finite_statistics_give_nan(kernel_07, qv_07, monkeypatch):
    # one rule: theta_hat is NaN unless both statistics are finite and the
    # denominator clears DEGENERATE_DENOMINATOR
    numerator = np.array([1.0, np.inf, np.nan, 1.0, 1.0, 1.0, -2.0])
    denominator = np.array([np.inf, 1.0, 1.0, np.nan, DEGENERATE_DENOMINATOR, 0.0, 4.0])
    monkeypatch.setattr(inference, "path_statistics_batch", lambda *_: (numerator, denominator))
    theta_hat = estimate_batch(None, kernel_07, qv_07)[0]
    assert np.all(np.isnan(theta_hat[:-1]))
    assert theta_hat[-1] == 0.5


def test_grid_mismatch_raises(kernel_07, qv_07):
    with pytest.raises(GridMismatch):
        compute_Z_batch(np.zeros(kernel_07.grid.cells + 1), kernel_07)
    with pytest.raises(GridMismatch):
        compute_Z_batch(np.zeros((2, 10)), kernel_07)
    with pytest.raises(GridMismatch):
        compute_Q_direct(np.zeros(10), 0.7, kernel_07, qv_07)
    inv = inverse_kernel(0.7, kernel_07, qv_07)
    with pytest.raises(GridMismatch):
        reconstruct_X(np.zeros(10), inv)


def test_estimates_csv_contract(kernel_07, qv_07, tmp_path):
    # the estimates CSV is written by `mfou estimate`; its rows are estimate_batch's records
    args = ["estimate", "--set", "T=2.0", "--set", "cells=64", "--set", "seed=1", "--set", "reps=2"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(1, (0,)), range(2))
    theta_hat = estimate_batch(states, kernel_07, qv_07)[0]
    lines = (tmp_path / "estimates.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(ESTIMATE_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == len(ESTIMATE_COLUMNS)
    column = ESTIMATE_COLUMNS.index("theta_hat")
    assert float(row[column]) == pytest.approx(theta_hat[0])


def test_triangular_z_matches_dense_product(kernel_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(32), range(70))
    z = compute_Z_batch(states, kernel_07)
    dense = np.diff(states, axis=1) @ kernel_07.matrix.T
    assert np.all(z[:, 0] == 0.0)
    assert np.max(np.abs(z[:, 1:] - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_denominator_matches_two_sided_trapezoid(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    states = sample_state_batch(spec, RandomStream(33), range(70))
    z = compute_Z_batch(states, kernel_07)
    q, _ = compute_Q_batch(z, qv_07)
    _, dens = sufficient_statistics_batch(q, z, qv_07)
    q2 = q**2
    trapezoid = (0.5 * (q2[:, :-1] + q2[:, 1:])) @ qv_07.bracket_increments()
    assert np.max(np.abs(dens - trapezoid) / trapezoid) <= 1e-13
