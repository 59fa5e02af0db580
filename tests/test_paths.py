import sys
from collections import Counter

import numpy as np
import pytest
import scipy.signal

from mfou import DEFAULT_SEED, paths
from mfou.cli import EXIT_OK, _fmt, main
from mfou.errors import EmbeddingFailed, LengthMismatch
from mfou.experiments import ExperimentConfig, run_tail_slopes
from mfou.inference import estimate_batch
from mfou.ldp import empirical_cgf
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import (
    ExperimentalHurstWarning,
    PathBundle,
    ProcessSpec,
    fgn_autocovariance,
    sample_fbm_increments,
    sample_mixed_path,
    sample_state_batch,
)
from mfou.transform import build_kernel, quadratic_variation
from oracles import (
    NodeSetTooLarge,
    exact_ou_covariance_oracle,
    fbm_covariance,
    fgn_covariance_matrix,
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


def _fgn_full_spectrum(eig, draws):
    # the circulant factor written out: the whole 2n-point Hermitian spectrum
    # through one complex FFT
    reps, m = draws.shape
    n = m // 2
    spectrum = np.zeros((reps, m), dtype=complex)
    spectrum[:, 0] = np.sqrt(eig[0]) * draws[:, 0]
    spectrum[:, n] = np.sqrt(eig[n]) * draws[:, -1]
    spectrum[:, 1:n] = np.sqrt(0.5 * eig[1:n]) * (draws[:, 1 : m - 2 : 2] + 1j * draws[:, 2 : m - 1 : 2])
    spectrum[:, n + 1 :] = np.conj(spectrum[:, 1:n][:, ::-1])
    return (np.fft.fft(spectrum, axis=1) / np.sqrt(m)).real[:, :n]


@pytest.mark.parametrize("n", [8, 9, 512])
@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_half_spectrum_matches_full_fft(n, hurst):
    eig = paths._embedding_eigenvalues(n, hurst, 1.0 / n)
    # 70 rows: a full FFT block and a partial one
    draws = np.random.default_rng(n).standard_normal((70, 2 * n))
    got = paths._fgn_from_embedding_batch(eig, draws)
    want = _fgn_full_spectrum(eig, draws)
    assert got.shape == (70, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 128, 512])
@pytest.mark.parametrize("rows", [1, 3, 2048])
def test_euler_states_match_lfilter(rows, n):
    phi = 1.0 - 0.8 * 5.0 / n  # theta = 0.8 on [0, 5]
    increments = np.random.default_rng(rows * n).standard_normal((rows, n))
    before = increments.copy()
    state = paths._euler_states(increments, phi)
    want = scipy.signal.lfilter([1.0], [1.0, -phi], increments, axis=1)
    assert state.shape == (rows, n + 1)
    assert np.all(state[:, 0] == 0.0)
    assert np.array_equal(state[:, 1:], want)
    # the input is never written, also when it is a single row
    assert np.array_equal(increments, before)


@pytest.mark.parametrize(
    "hurst, fft_rows, reps",
    [
        (0.7, None, 3),
        (1.0, None, 3),
        (0.7, 2, 3),
        (0.7, None, 65),
    ],
    ids=["0.7", "1.0", "0.7-fft-blocks", "0.7-65-rows"],
)
def test_batch_rows_equal_single_paths(hurst, fft_rows, reps, monkeypatch):
    if fft_rows is not None:
        # the three rows span two FFT blocks, the second one partial
        monkeypatch.setattr(paths, "_FFT_ROWS", fft_rows)
    spec = _spec(hurst, cells=32)
    base = RandomStream(77)
    # 65 rows fill one FFT block of _FFT_ROWS = 64 and start a second
    rep_ids = [9, 0, 3] if reps == 3 else list(range(reps))
    batch = sample_state_batch(spec, base, rep_ids)
    assert batch.shape == (reps, 33)
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


def _estimate_chunks(tmp_path):
    argv = ["estimate", "--set", "reps=1300", "--set", "cells=16", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    return (tmp_path / "estimates.csv").read_text().strip().split("\n")[1:]


def _tilted_tails_chunks(tmp_path):
    config = ExperimentConfig(horizons=(2.0,), cells=16, reps=1300, tilt=1.4)
    run_tail_slopes(config)


def _empirical_cgf_chunks(tmp_path):
    kernel = build_kernel(0.7, TimeGrid(2.0, 16))
    spec = ProcessSpec(0.7, 1.0, kernel.grid)
    empirical_cgf(0.0, -0.25, spec, kernel, quadratic_variation(kernel), 1300, RandomStream(5))


@pytest.mark.parametrize(
    "consume",
    [_estimate_chunks, _tilted_tails_chunks, _empirical_cgf_chunks],
    ids=["estimate", "tails-tilted", "empirical-cgf"],
)
def test_no_consumer_holds_more_than_one_chunk(consume, tmp_path, monkeypatch):
    # every Monte Carlo consumer draws its 1,300 replications in batches of at most 512
    rows = Counter()
    sizes = []

    def recording(spec, base, rep_ids):
        rep_ids = list(rep_ids)
        rows[spec.theta] += len(rep_ids)
        sizes.append(len(rep_ids))
        return sample_state_batch(spec, base, rep_ids)

    for module in [m for name, m in sys.modules.items() if name.startswith("mfou")]:
        if getattr(module, "sample_state_batch", None) is sample_state_batch:
            monkeypatch.setattr(module, "sample_state_batch", recording)
    lines = consume(tmp_path)
    assert max(sizes) <= 512
    # one cell per drift: the tilted study's plain and tilted passes draw 1,300 each
    assert set(rows.values()) == {1300}
    if lines is not None:
        # the chunked CSV equals the estimates of one 1,300-row batch
        kernel = build_kernel(0.7, TimeGrid(10.0, 16))  # the estimate command's default T
        spec = ProcessSpec(0.7, 1.0, kernel.grid)
        states = sample_state_batch(spec, RandomStream(DEFAULT_SEED, (0,)), range(1300))
        columns = estimate_batch(states, kernel, quadratic_variation(kernel))
        expected = [[_fmt(v) for v in row] for row in zip(*(c.tolist() for c in columns))]
        assert [line.split(",")[-3:] for line in lines] == expected
        assert [int(line.split(",")[0]) for line in lines] == list(range(1300))


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


@pytest.mark.parametrize("hurst", [0.5, 0.7, 0.9])
def test_euler_chain_law_converges_to_ou_oracle(hurst):
    # the sampled chain is X[1:] = L e with L[k, j] = phi^(k-j) and innovations
    # e ~ N(0, dt I + fGn covariance), so its exact node covariance is L Sigma L^T;
    # against the continuous-time law the gap must halve with the step (first order)
    theta, nodes = 0.8, np.array([0.5, 1.0, 2.0])
    gaps = {}
    for cells in (256, 512):
        spec = _spec(hurst, theta=theta, horizon=2.0, cells=cells)
        dt = spec.grid.dt
        sigma = dt * np.eye(cells) + fgn_covariance_matrix(cells, hurst, dt)
        lags = np.subtract.outer(np.arange(cells), np.arange(cells))
        lower = np.where(lags >= 0, (1.0 - theta * dt) ** np.maximum(lags, 0), 0.0)
        rows = np.rint(nodes / dt).astype(int) - 1
        chain = lower[rows] @ sigma @ lower[rows].T
        oracle = exact_ou_covariance_oracle(spec, nodes, refine=32)
        gaps[cells] = float(np.max(np.abs(chain - oracle)) / np.max(np.abs(oracle)))
    assert gaps[512] <= 2.5e-3
    assert 1.9 <= gaps[256] / gaps[512] <= 2.1


def test_ou_covariance_oracle_limits():
    spec = _spec(0.5)
    with pytest.raises(NodeSetTooLarge):
        exact_ou_covariance_oracle(spec, np.linspace(0.1, 1.0, 33))
    with pytest.raises(ValueError):
        exact_ou_covariance_oracle(spec, np.array([0.0, 0.5]))


def test_indefinite_embedding_raises(monkeypatch):
    # autocovariance 1 at lag 1 and 0 elsewhere: the circulant has eigenvalues
    # 2 cos(pi k / n), down to -2, so neither sampler may draw from it
    monkeypatch.setattr(paths, "fgn_autocovariance", lambda lags, hurst, dt: (lags == 1) * 1.0)
    spec = _spec(0.7, cells=16)
    with pytest.raises(EmbeddingFailed):
        sample_fbm_increments(spec, RandomStream(1))
    with pytest.raises(EmbeddingFailed):
        sample_state_batch(spec, RandomStream(1), range(2))


def test_spec_validation():
    grid = TimeGrid(1.0, 32)
    with pytest.raises(ValueError):
        ProcessSpec(0.0, 1.0, grid)
    with pytest.raises(ValueError):
        ProcessSpec(1.1, 1.0, grid)
    with pytest.raises(ValueError):
        ProcessSpec(0.7, 0.0, grid)
    with pytest.warns(ExperimentalHurstWarning) as record:
        ProcessSpec(0.3, 1.0, grid)
    # the warning names the line that built the spec, not the generated __init__
    assert record[0].filename == __file__


def test_bundle_length_check():
    spec = _spec(0.7, cells=32)
    good = np.zeros(33)
    with pytest.raises(LengthMismatch):
        PathBundle(spec=spec, brownian=good, fractional=good, mixed=good, state=np.zeros(32))


def test_path_csv_shape(tmp_path):
    # the path CSV is written by `mfou simulate`: one row per node, starting at t = 0, X = 0
    args = ["simulate", "--set", "T=1.0", "--set", "cells=16", "--set", "seed=2"]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "t,B,B^H,Btilde,X"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 0.0
