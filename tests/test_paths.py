import io

import numpy as np
import pytest

from mfou import paths
from mfou.errors import LengthMismatch, NodeSetTooLarge
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import (
    ExperimentalHurstWarning,
    PathBundle,
    ProcessSpec,
    exact_ou_covariance_oracle,
    fbm_covariance,
    fgn_autocovariance,
    fgn_covariance_matrix,
    sample_fbm_increments,
    sample_mixed_path,
    sample_state_batch,
    write_path_csv,
)


def _spec(hurst, theta=1.0, horizon=1.0, cells=32):
    return ProcessSpec(hurst, theta, TimeGrid(horizon, cells))


def test_fbm_covariance_values():
    assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0)  # min(s, t)
    assert fbm_covariance(1.5, 2.0, 1.0) == pytest.approx(3.0)  # s * t
    assert fbm_covariance(1.0, 2.0, 0.7) == pytest.approx(0.5 * 2.0**1.4)
    assert fbm_covariance(0.0, 2.0, 0.7) == pytest.approx(0.0)


def test_fgn_matrix_matches_bridge_of_fbm():
    hurst, dt, n = 0.7, 0.25, 6
    got = fgn_covariance_matrix(n, hurst, dt)
    t = dt * np.arange(n + 1)
    brute = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            brute[i, j] = (
                fbm_covariance(t[i + 1], t[j + 1], hurst)
                - fbm_covariance(t[i + 1], t[j], hurst)
                - fbm_covariance(t[i], t[j + 1], hurst)
                + fbm_covariance(t[i], t[j], hurst)
            )
    assert np.allclose(got, brute, atol=1e-12)
    assert np.allclose(np.diag(got), dt ** (2 * hurst))


def test_fgn_autocovariance_h_half_is_white():
    auto = fgn_autocovariance(np.arange(5), 0.5, 0.2)
    assert auto[0] == pytest.approx(0.2)
    assert np.allclose(auto[1:], 0.0, atol=1e-15)


def test_fbm_total_variance():
    # Var B^H(1) = 1 for every H; seeded empirical check
    for hurst, idx in ((0.55, 0), (0.8, 1)):
        spec = _spec(hurst)
        total = np.empty(4000)
        base = RandomStream(42, (idx,))
        for r in range(total.size):
            total[r] = sample_fbm_increments(spec, base.child(r)).sum()
        assert np.var(total) == pytest.approx(1.0, rel=0.08)
        assert np.mean(total) == pytest.approx(0.0, abs=0.05)


def test_fbm_h_one_is_a_random_line():
    spec = _spec(1.0, cells=16)
    inc_a = sample_fbm_increments(spec, RandomStream(5, (0,)))
    inc_b = sample_fbm_increments(spec, RandomStream(5, (1,)))
    assert np.all(inc_a == inc_a[0])
    assert inc_a[0] != inc_b[0]


def test_mixed_path_components_add_up():
    spec = _spec(0.7, theta=0.8, horizon=2.0, cells=64)
    bundle = sample_mixed_path(spec, RandomStream(11, (3,)))
    assert np.allclose(bundle.mixed, bundle.brownian + bundle.fractional, atol=1e-14)
    assert bundle.state[0] == 0.0
    assert bundle.brownian[0] == 0.0


def test_state_follows_euler_recursion():
    spec = _spec(0.7, theta=0.8, horizon=2.0, cells=64)
    bundle = sample_mixed_path(spec, RandomStream(11, (3,)))
    dt = spec.grid.dt
    d_mix = np.diff(bundle.mixed)
    replay = np.zeros(65)
    for j in range(64):
        replay[j + 1] = (1.0 - spec.theta * dt) * replay[j] + d_mix[j]
    assert np.allclose(bundle.state, replay, atol=1e-12)


@pytest.mark.parametrize(
    "hurst, fallback", [(0.7, False), (1.0, False), (0.7, True)], ids=["0.7", "1.0", "0.7-fallback"]
)
def test_batch_rows_equal_single_paths(hurst, fallback, monkeypatch):
    if fallback:
        # reject the circulant embedding: both paths take the Cholesky branch
        monkeypatch.setattr(paths, "_embedding_eigenvalues", lambda *args: None)
    spec = _spec(hurst, cells=32)
    base = RandomStream(77)
    rep_ids = [9, 0, 3]
    batch = sample_state_batch(spec, base, rep_ids)
    assert batch.shape == (3, 33)
    for row, rep in zip(batch, rep_ids):
        single = sample_mixed_path(spec, base.child(rep)).state
        assert np.array_equal(row, single)


def test_batch_deterministic_and_rep_keyed():
    spec = _spec(0.6, cells=32)
    base = RandomStream(123)
    a = sample_state_batch(spec, base, range(4))
    b = sample_state_batch(spec, base, range(4))
    c = sample_state_batch(spec, base, range(4, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ou_covariance_oracle_closed_form():
    # H = 1/2: Btilde is a variance-2 Brownian motion, so
    # Cov(X_s, X_t) = (1/theta)(exp(-theta|t-s|) - exp(-theta(t+s)))
    theta = 0.8
    spec = _spec(0.5, theta=theta, horizon=2.0, cells=64)
    nodes = np.array([0.5, 1.0, 2.0])
    got = exact_ou_covariance_oracle(spec, nodes, refine=32)
    s, t = nodes[:, None], nodes[None, :]
    closed = (np.exp(-theta * np.abs(t - s)) - np.exp(-theta * (t + s))) / theta
    assert np.allclose(got, closed, rtol=1e-3)


def test_ou_covariance_oracle_limits():
    spec = _spec(0.5)
    with pytest.raises(NodeSetTooLarge):
        exact_ou_covariance_oracle(spec, np.linspace(0.1, 1.0, 33))
    with pytest.raises(ValueError):
        exact_ou_covariance_oracle(spec, np.array([0.0, 0.5]))


def test_spec_validation():
    grid = TimeGrid(1.0, 32)
    with pytest.raises(ValueError):
        ProcessSpec(0.0, 1.0, grid)
    with pytest.raises(ValueError):
        ProcessSpec(1.1, 1.0, grid)
    with pytest.raises(ValueError):
        ProcessSpec(0.7, 0.0, grid)
    with pytest.warns(ExperimentalHurstWarning):
        ProcessSpec(0.3, 1.0, grid)


def test_bundle_length_check():
    spec = _spec(0.7, cells=32)
    good = np.zeros(33)
    with pytest.raises(LengthMismatch):
        PathBundle(spec=spec, brownian=good, fractional=good, mixed=good, state=np.zeros(32))


def test_path_csv_shape():
    spec = _spec(0.7, cells=16)
    bundle = sample_mixed_path(spec, RandomStream(2, (0,)))
    buf = io.StringIO()
    write_path_csv(bundle, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,B,B^H,Btilde,X"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 0.0
