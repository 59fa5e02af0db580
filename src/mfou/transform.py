"""Fundamental martingale transform of the mixed noise Btilde = B + B^H.

For a horizon t the transfer kernel g(., t) solves the integro-differential
equation

    g(s, t) + H * d/ds int_0^t g(r, t) |s - r|^{2H-1} sign(s - r) dr = 1

for 0 < s < t. Then M_t = int_0^t g(s, t) dBtilde_s is a Gaussian martingale
with bracket <M>_t = int_0^t g(s, t) ds, and the transform applied to an
observed semimartingale path is invertible through a second kernel.

Discretization: g(., t_j) is represented as a constant on every grid cell
[t_i, t_{i+1}) and collocated at cell midpoints. For a cellwise-constant
kernel the inner operator is exact because

    int_a^b |s - r|^{2H-1} sign(s - r) dr = (|s-a|^{2H} - |s-b|^{2H}) / (2H),

so d/ds of the cell contribution is |s-a|^{2H-1} sign(s-a) - |s-b|^{2H-1}
sign(s-b) and no quadrature error enters the collocation matrix. At H = 1/2
the matrix reduces to 2*I and g = 1/2 exactly.

Cost: entry (i, k) of the collocation operator depends on |i - k| only,
because m_i - t_k = (i - k + 1/2) dt and |x|^{2H-1} sign(x) is odd, so the
operator A is the symmetric Toeplitz matrix of its first column. The
Levinson-Durbin recursion (Levinson 1947; Golub & Van Loan, Matrix
Computations, sec. 4.7) solves A_j g = 1 for every leading block j in one
O(n^2) pass, which is exactly one kernel column per horizon. Every column is
then checked against RESIDUAL_BOUND through the single product matrix @ A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .errors import (
    GridMismatch,
    NodeOutOfRange,
    NonMonotoneBracket,
    ResidualTooLarge,
)
from .numerics import TimeGrid, finite_diff_derivative

SCHEME_VERSION = 2

# Contract bound on the collocation residual of every kernel column.
RESIDUAL_BOUND = 1e-9


def _phi(x: np.ndarray, hurst: float) -> np.ndarray:
    """|x|^{2H-1} sign(x); the s-derivative of -|x|^{2H}/(2H)."""
    return np.sign(x) * np.abs(x) ** (2.0 * hurst - 1.0)


def collocation_column(hurst: float, grid: TimeGrid) -> np.ndarray:
    """First column c of the n x n midpoint-collocation operator A = toeplitz(c).

    c(d) = delta_0(d) + H (phi((d + 1/2) dt) - phi((d - 1/2) dt)), d = 0..n-1;
    horizon t_j uses the leading j x j block of A.
    """
    offsets = (np.arange(grid.cells) + 0.5) * grid.dt
    column = hurst * (_phi(offsets, hurst) - _phi(offsets - grid.dt, hurst))
    column[0] += 1.0
    return column


def _levinson(column: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Solve toeplitz(column)[:j, :j] g = 1 for every j by the Levinson recursion.

    Golub & Van Loan, Algorithm 4.7.2, on the unit-diagonal matrix A / c_0.
    Row j-1 of `rows`, when given, receives the block-j solution. Returns the
    full-size solution and the smallest pivot beta * c_0 (the ratio of
    consecutive leading minors). A zero or NaN pivot leaves non-finite
    values in the solutions, which the residual check rejects.
    """
    n = column.size
    c0 = column[0]
    x = np.empty(n)  # block-k solution of A x = 1
    y = np.empty(n)  # block-k solution of the Yule-Walker system
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = column[1:] / c0
        b = 1.0 / c0
        x[0] = b
        if rows is not None:
            rows[0, 0] = b
        beta, min_pivot = 1.0, c0
        alpha = -r[0] if n > 1 else 0.0
        y[0] = alpha
        for k in range(1, n):
            beta *= 1.0 - alpha * alpha
            min_pivot = min(min_pivot, beta * c0)
            mu = (b - r[:k] @ x[k - 1 :: -1]) / beta
            x[:k] += mu * y[k - 1 :: -1]
            x[k] = mu
            if rows is not None:
                rows[k, : k + 1] = x[: k + 1]
            if k < n - 1:
                alpha = (-r[k] - r[:k] @ y[k - 1 :: -1]) / beta
                y[:k] += alpha * y[k - 1 :: -1]
                y[k] = alpha
    return x, float(min_pivot)


def _residual(image: np.ndarray, j: int) -> float:
    """max |A_j g - 1| given the image A_j g of kernel column j; raises over the bound."""
    residual = float(np.max(np.abs(image - 1.0)))
    if not residual <= RESIDUAL_BOUND:  # so NaN from a zero or NaN pivot fails too
        raise ResidualTooLarge(residual, RESIDUAL_BOUND, f"kernel column {j}")
    return residual


def solve_g(hurst: float, grid: TimeGrid, horizon_index: int, column=None) -> np.ndarray:
    """Cell values of g(., t_j) for horizon index j (1-based node index).

    `column` replaces the operator's Toeplitz column (at least j entries).
    """
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"kernel equation requires H in (0, 1), got {hurst}")
    j = int(horizon_index)
    if j < 1 or j > grid.cells:
        raise NodeOutOfRange(f"horizon index {j} outside 1..{grid.cells}")
    c = collocation_column(hurst, grid) if column is None else np.asarray(column, dtype=float)
    c = c[:j]
    g, _ = _levinson(c)
    _residual(toeplitz(c) @ g, j)
    return g


@dataclass(frozen=True)
class TransferKernel:
    """Triangular table of kernel values.

    `matrix[j-1, i]` is the value of g on cell i for horizon t_j (zero for
    i >= j); `residuals[j-1]` is that column's collocation residual. `meta`
    records the worst residual (`max_residual`) and the smallest Levinson
    pivot (`min_pivot`).
    """

    hurst: float
    grid: TimeGrid
    matrix: np.ndarray
    residuals: np.ndarray
    meta: dict = field(default_factory=dict)

    def column(self, horizon_index: int) -> np.ndarray:
        j = int(horizon_index)
        if j < 1 or j > self.grid.cells:
            raise NodeOutOfRange(f"horizon index {j} outside 1..{self.grid.cells}")
        return self.matrix[j - 1, :j]


def build_kernel(hurst: float, grid: TimeGrid) -> TransferKernel:
    """Solve the kernel column of every horizon on the grid in one Levinson pass."""
    n = grid.cells
    column = collocation_column(hurst, grid)
    matrix = np.zeros((n, n))
    _, min_pivot = _levinson(column, matrix)
    # A is symmetric, so row j-1 of matrix @ A holds A_j g_j in its first j entries
    image = matrix @ toeplitz(column)
    residuals = np.array([_residual(image[j - 1, :j], j) for j in range(1, n + 1)])
    return TransferKernel(
        hurst=float(hurst),
        grid=grid,
        matrix=matrix,
        residuals=residuals,
        meta={
            "scheme_version": SCHEME_VERSION,
            "max_residual": float(residuals.max()),
            "min_pivot": min_pivot,
        },
    )


@dataclass(frozen=True)
class QVTable:
    """Bracket <M>_t at the nodes, its time derivative, and psi = 1/derivative.

    The bracket integrates the cellwise-constant kernel exactly, so
    <M>_{t_j} = dt * sum of column j. The derivative uses the shared
    finite-difference stencils; the first and last node are one-sided. The
    value psi(0) is tabulated for interpolation but no downstream integral
    ever gives it weight.
    """

    hurst: float
    grid: TimeGrid
    bracket: np.ndarray
    derivative: np.ndarray
    psi_diag: np.ndarray

    def bracket_increments(self) -> np.ndarray:
        return np.diff(self.bracket)

    def node_index(self, t: float) -> int:
        try:
            return self.grid.index_of(t)
        except ValueError as exc:
            raise NodeOutOfRange(str(exc)) from exc

    def psi_at_nodes(self, times) -> np.ndarray:
        return np.array([self.psi_diag[self.node_index(t)] for t in np.atleast_1d(times)])


def quadratic_variation(kernel: TransferKernel) -> QVTable:
    """Bracket table for the martingale defined by `kernel`."""
    n = kernel.grid.cells
    bracket = np.empty(n + 1)
    bracket[0] = 0.0
    bracket[1:] = kernel.grid.dt * kernel.matrix.sum(axis=1)
    if np.any(np.diff(bracket) <= 0.0):
        raise NonMonotoneBracket("bracket is not strictly increasing")
    derivative = finite_diff_derivative(bracket, kernel.grid.dt)
    if np.any(derivative <= 0.0):
        raise NonMonotoneBracket("bracket derivative is not positive")
    return QVTable(
        hurst=kernel.hurst,
        grid=kernel.grid,
        bracket=bracket,
        derivative=derivative,
        psi_diag=1.0 / derivative,
    )


def psi_offdiag(qv: QVTable, s: float, t: float) -> float:
    """psi(s, t) = (psi(s, s) + psi(t, t)) / 2 at grid nodes."""
    return 0.5 * float(qv.psi_diag[qv.node_index(s)] + qv.psi_diag[qv.node_index(t)])


@dataclass(frozen=True)
class InverseKernel:
    """Triangular table for reconstructing X from Z; same layout as TransferKernel."""

    hurst: float
    grid: TimeGrid
    matrix: np.ndarray

    def column(self, horizon_index: int) -> np.ndarray:
        j = int(horizon_index)
        if j < 1 or j > self.grid.cells:
            raise NodeOutOfRange(f"horizon index {j} outside 1..{self.grid.cells}")
        return self.matrix[j - 1, :j]


def inverse_kernel(kernel: TransferKernel, qv: QVTable) -> InverseKernel:
    """Reconstruction kernel for X = int ghat(s, t) dZ_s.

    Because M has independent increments, the reconstruction kernel is the
    bracket-derivative of the cross-moment F(s, t) = E[Btilde_t M_s]:

        ghat(s, t) = d F(s, t) / d<M>_s.

    Expanding M_s against the mixed covariance and eliminating the
    dBtilde-part with the integrated kernel equation gives

        F(s, t) = s + H int_0^s g(r, s) [(t-r)^{2H-1} - (s-r)^{2H-1}] dr,

    which is exact for the cellwise-constant kernel since each cell has the
    closed primitive ((t-a)^{2H} - (t-b)^{2H}) / (2H). The kernel value on
    cell i is the cell-centered ratio (F(t_{i+1}, t) - F(t_i, t)) / (bracket
    increment), second-order at the cell midpoint. At H = 1/2 the bracket
    term vanishes, F(s, t) = s and ghat = 2 exactly.

    The shorter identity for the same inverse (1 - d/d<M>_s of an integral
    of g) does not survive the H = 1/2 closed form when read with the
    triangular kernel table, so the cross-moment construction above is used
    instead; the round-trip tests arbitrate.
    """
    if kernel.grid != qv.grid:
        raise GridMismatch("kernel and bracket table built on different grids")
    n = kernel.grid.cells
    nodes = kernel.grid.nodes
    two_h = 2.0 * kernel.hurst

    # P[x-1, i] = (t_x - t_i)^{2H} - (t_x - t_{i+1})^{2H} for cells i < x.
    gap_lo = nodes[1:, None] - nodes[None, :-1]
    gap_hi = nodes[1:, None] - nodes[None, 1:]
    p = np.maximum(gap_lo, 0.0) ** two_h - np.maximum(gap_hi, 0.0) ** two_h
    s = kernel.matrix @ p.T  # s[a-1, x-1] = sum_i g_i^{(a)} P[x-1, i]

    f = np.zeros((n + 1, n))  # f[a, j-1] = F(t_a, t_j), meaningful for a <= j
    f[1:, :] = nodes[1:, None] + 0.5 * (s - np.diag(s)[:, None])
    ghat = np.tril((np.diff(f, axis=0) / qv.bracket_increments()[:, None]).T)
    return InverseKernel(hurst=kernel.hurst, grid=kernel.grid, matrix=ghat)
