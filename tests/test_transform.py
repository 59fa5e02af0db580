import warnings

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular, toeplitz

from mfou import transform
from mfou.errors import NodeOutOfRange, NonMonotoneBracket, ResidualTooLarge
from mfou.numerics import RandomStream, TimeGrid
from mfou.paths import ProcessSpec, fgn_covariance_matrix, sample_mixed_path
from mfou.inference import compute_Z_batch
from mfou.transform import (
    RESIDUAL_BOUND,
    SCHEME_VERSION,
    TransferKernel,
    build_kernel,
    collocation_column,
    quadratic_variation,
)
from oracles import inverse_kernel, reconstruct_X


def test_kernel_h_half_is_constant():
    kern = build_kernel(0.5, TimeGrid(2.0, 32))
    for j in (1, 7, 32):
        g = kern.column(j)
        assert g.shape == (j,)
        assert np.max(np.abs(g - 0.5)) < 1e-8


def test_kernel_residual_contract(kernel_07):
    assert kernel_07.residuals.shape == (64,)
    assert np.all(np.isfinite(kernel_07.residuals))
    assert np.max(kernel_07.residuals) <= RESIDUAL_BOUND
    assert kernel_07.meta["scheme_version"] == SCHEME_VERSION
    assert kernel_07.meta["max_residual"] == np.max(kernel_07.residuals)
    assert 0.0 < kernel_07.meta["min_pivot"] <= collocation_column(0.7, kernel_07.grid)[0]


def test_kernel_column_layout(kernel_07):
    col = kernel_07.column(10)
    assert col.shape == (10,)
    assert np.array_equal(col, kernel_07.matrix[9, :10])
    assert np.all(kernel_07.matrix[9, 10:] == 0.0)
    with pytest.raises(NodeOutOfRange):
        kernel_07.column(65)


def test_solve_g_validation():
    # the horizon-index checks of the former per-column solver, now on the kernel
    kern = build_kernel(0.7, TimeGrid(2.0, 32))
    with pytest.raises(NodeOutOfRange):
        kern.column(0)
    with pytest.raises(NodeOutOfRange):
        kern.column(33)


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_every_column_matches_dense_solve(hurst):
    # n = 1100 reaches past column 1024; columns 1025..1027 are also solved one by one below
    grid = TimeGrid(10.0, 1100)
    kern = build_kernel(hurst, grid)
    a = toeplitz(collocation_column(hurst, grid))
    # block j of A = L L^T has Cholesky factor L[:j, :j], so one dense
    # factorisation gives every column: g_j = L_j^{-T} (L^{-1} 1)[:j]
    lower = cholesky(a, lower=True)
    u = solve_triangular(lower, np.ones(grid.cells), lower=True)
    worst = max(
        float(np.max(np.abs(kern.column(j) - solve_triangular(lower[:j, :j].T, u[:j]))))
        for j in range(1, grid.cells + 1)
    )
    assert worst <= 1e-12
    for j in (1, 2, 550, 1025, 1026, 1027, 1100):
        exact = np.linalg.solve(a[:j, :j], np.ones(j))
        assert np.max(np.abs(kern.column(j) - exact)) <= 1e-12


@pytest.mark.parametrize("hurst", [0.01, 0.999])
@pytest.mark.parametrize("cells", [8, 1024])
def test_kernel_edge_hurst(hurst, cells):
    grid = TimeGrid(10.0, cells)
    kern = build_kernel(hurst, grid)
    assert np.all(np.isfinite(kern.matrix))
    assert kern.meta["max_residual"] <= RESIDUAL_BOUND
    assert kern.meta["min_pivot"] > 0.0
    assert np.all(np.diff(quadratic_variation(kern).bracket) > 0.0)


def test_bracket_h_half_linear(kernel_half, qv_half):
    # g = 1/2 makes <M>_t = t/2 with constant derivative, so psi = 2 exactly
    nodes = kernel_half.grid.nodes
    assert np.max(np.abs(qv_half.bracket - nodes / 2)) < 1e-8
    assert np.max(np.abs(qv_half.psi_diag - 2.0)) < 1e-8
    assert np.max(np.abs(qv_half.derivative - 0.5)) < 1e-8


def test_bracket_monotone(qv_07):
    assert np.all(np.diff(qv_07.bracket) > 0.0)
    assert np.all(qv_07.derivative > 0.0)
    assert np.all(qv_07.psi_diag > 0.0)
    assert np.array_equal(qv_07.bracket_increments(), np.diff(qv_07.bracket))


def test_bracket_variance_oracle(kernel_07, qv_07):
    # Var(M_t) = g^T C g with C the covariance of the mixed increments
    grid = kernel_07.grid
    for j in (16, 32, 64):
        g = kernel_07.column(j)
        c = grid.dt * np.eye(j) + fgn_covariance_matrix(j, kernel_07.hurst, grid.dt)
        quad = float(g @ c @ g)
        assert quad == pytest.approx(qv_07.bracket[j], rel=5e-3)


def test_quadratic_variation_rejects_nonmonotone():
    grid = TimeGrid(1.0, 8)
    matrix = np.tril(np.ones((8, 8)))
    matrix[1] *= -1.0  # second row sum below the first
    kern = TransferKernel(
        hurst=0.7,
        grid=grid,
        matrix=matrix,
        residuals=np.zeros(8),
    )
    with pytest.raises(NonMonotoneBracket):
        quadratic_variation(kern)


def test_roundtrip_reconstruction(kernel_07, qv_07):
    spec = ProcessSpec(0.7, 1.0, kernel_07.grid)
    bundle = sample_mixed_path(spec, RandomStream(3, (1,)))
    z = compute_Z_batch(bundle.state[None], kernel_07)[0]
    inv = inverse_kernel(kernel_07, qv_07)
    back = reconstruct_X(z, inv)
    rel = np.max(np.abs(back - bundle.state)) / np.max(np.abs(bundle.state))
    assert rel < 0.02


def test_residual_guard_raises(monkeypatch):
    # exp(-(d/8)^2) is a symmetric Toeplitz column with condition number ~1e20,
    # too ill-conditioned for the recursion to meet the bound: it must fail loudly
    grid = TimeGrid(2.0, 32)
    smooth = np.exp(-((np.arange(32) / 8.0) ** 2))
    # a zero pivot leaves NaN in the solution, which must not pass as a small residual
    zero_pivot = collocation_column(0.7, grid)
    zero_pivot[0] = 0.0
    for column in (smooth, zero_pivot):
        monkeypatch.setattr(transform, "collocation_column", lambda hurst, grid: column.copy())
        # the failure is the taxonomy error alone, with no numpy warning printed before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ResidualTooLarge):
                build_kernel(0.7, grid)
