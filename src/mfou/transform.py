"""Fundamental martingale transform of the mixed noise Btilde = B + B^H.

For a horizon t the transfer kernel g(., t) solves the integro-differential
equation

    g(s, t) + H * d/ds int_0^t g(r, t) |s - r|^{2H-1} sign(s - r) dr = 1

for 0 < s < t. Then M_t = int_0^t g(s, t) dBtilde_s is a Gaussian martingale
with bracket <M>_t = int_0^t g(s, t) ds, and the transform applied to an
observed semimartingale path is invertible through a second kernel (built in
tests/oracles.py, where it checks the round trip X -> Z -> X).

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

from .errors import NodeOutOfRange, NonMonotoneBracket, ResidualTooLarge
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
    # A is symmetric, so row j-1 of matrix @ A holds A_j g_j in its first j entries;
    # non-finite entries from a zero or NaN pivot are left to the residual check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    one-sided end values carry weight downstream: `compute_Q_batch` weights
    V's first increment by psi(0) and Z_T by psi(T), and the ODE routes
    interpolate psi on the first and last interval from them.
    """

    hurst: float
    grid: TimeGrid
    bracket: np.ndarray
    derivative: np.ndarray
    psi_diag: np.ndarray

    def bracket_increments(self) -> np.ndarray:
        return np.diff(self.bracket)


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
