"""Reference computations that only the tests use.

They stay outside `src/mfou` so that production code never shares them with
the checks they serve: the trapezoid rule, the fBm covariance and the exact
covariance of the continuous-time model, the definitional route to Q, the
dense residual product of the kernel columns, and the reconstruction kernel of
the round trip X -> Z -> X.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from mfou.errors import GridMismatch, LengthMismatch, NumericalError
from mfou.numerics import TimeGrid
from mfou.paths import ProcessSpec
from mfou.transform import QVTable, TransferKernel, build_kernel


def trapezoid_integral(values, increments) -> float:
    """Trapezoid rule for int f dG given node values of f and cell increments of G."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(increments, dtype=float)
    if v.ndim != 1 or w.ndim != 1:
        raise LengthMismatch("expected 1-d arrays")
    if w.shape[0] != v.shape[0] - 1:
        raise LengthMismatch(
            f"need len(increments) == len(values)-1, got {w.shape[0]} vs {v.shape[0]}"
        )
    return float(np.dot(0.5 * (v[:-1] + v[1:]), w))


def dense_kernel_residuals(matrix: np.ndarray, column: np.ndarray) -> np.ndarray:
    """max |A_j g_j - 1| of every kernel row by the dense O(n^3) product matrix @ toeplitz(column).

    A is symmetric, so row j-1 of matrix @ A holds A_j g_j in its first j entries.
    """
    image = matrix @ toeplitz(column)
    return np.array([np.max(np.abs(image[j - 1, :j] - 1.0)) for j in range(1, column.size + 1)])


def fbm_covariance(s, t, hurst: float):
    """Cov(B^H_s, B^H_t) = (s^2H + t^2H - |t-s|^2H) / 2, vectorized."""
    if not (0.0 < hurst <= 1.0):
        raise ValueError(f"hurst must lie in (0, 1], got {hurst}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("time arguments must be nonnegative")
    two_h = 2.0 * hurst
    return 0.5 * (s**two_h + t**two_h - np.abs(t - s) ** two_h)


class NodeSetTooLarge(NumericalError, ValueError):
    """Oracle node set exceeds the supported size."""


def exact_ou_covariance_oracle(spec: ProcessSpec, nodes, refine: int = 8) -> np.ndarray:
    """Exact-in-law covariance of the continuous-time model at the given times.

    Uses X_t = int_0^t exp(-theta (t-u)) dBtilde_u: the quadrature pairs the
    cell-averaged exponential kernel with the exact increment covariance of
    Btilde on a refined subdivision, so the only approximation is the kernel
    variation within a cell (second order in the refinement step). Intended
    as an oracle for validating sampled paths, not for production use; the
    node set is limited to 32 entries.
    """
    times = np.asarray(nodes, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise NodeSetTooLarge("nodes must be a nonempty 1-d array")
    if times.size > 32:
        raise NodeSetTooLarge(f"at most 32 oracle nodes supported, got {times.size}")
    if np.any(times <= 0.0) or np.any(times > spec.grid.horizon):
        raise ValueError("oracle nodes must lie in (0, horizon]")
    if refine < 8:
        raise ValueError(f"refinement factor must be >= 8, got {refine}")

    cuts = np.unique(np.concatenate([[0.0], times]))
    gaps = np.diff(cuts)
    step = float(np.min(gaps)) / refine
    bounds = [np.array([0.0])]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = int(np.ceil((hi - lo) / step))
        bounds.append(np.linspace(lo, hi, pieces + 1)[1:])
    edges = np.concatenate(bounds)
    if edges.size > 4097:
        raise NodeSetTooLarge(
            f"refined grid would need {edges.size - 1} cells (> 4096); "
            "use fewer/more even nodes or a smaller refine factor"
        )

    lo, hi = edges[:-1], edges[1:]
    inc_cov = np.diag(hi - lo) + (
        fbm_covariance(hi[:, None], hi[None, :], spec.hurst)
        - fbm_covariance(hi[:, None], lo[None, :], spec.hurst)
        - fbm_covariance(lo[:, None], hi[None, :], spec.hurst)
        + fbm_covariance(lo[:, None], lo[None, :], spec.hurst)
    )

    # Row k: trapezoid average of exp(-theta (t_k - u)) over each cell u in [0, t_k].
    weights = np.zeros((times.size, lo.size))
    for k, t in enumerate(times):
        inside = hi <= t + 1e-12
        w = 0.5 * (np.exp(-spec.theta * (t - lo)) + np.exp(-spec.theta * (t - hi)))
        weights[k, inside] = w[inside]
    return weights @ inc_cov @ weights.T


def compute_Q_direct(
    state: np.ndarray, hurst: float, kernel: TransferKernel, qv: QVTable
) -> np.ndarray:
    """Q from its definition: d/d<M>_t of N(t) = int_0^t g(s, t) X_s ds.

    Summation by parts against the kernel primitive G(s, t) = int_0^s g(r, t) dr
    turns N into <M>_t X_t - int_0^t G(s, t) dX_s; since G(t, t) = <M>_t the
    X'(t) contributions cancel when differentiating, leaving

        Q_t = X_t - psi(t) int_0^t dG/dt(s, t) dX_s.

    This form is exact at H = 1/2 (G is then horizon-independent) and puts
    coefficient one on the newest path increment, so no path-roughness noise
    enters the comparison with compute_Q_batch. G extends past the diagonal by
    G(s, t) = <M>_t for s >= t, which the cumulative sums produce on their
    own. Its horizon derivative at t_j is the central difference between
    horizons t_{j-1} and t_{j+1} (one extra horizon is solved past T for the
    last one), taken at the nodes t_0..t_{j-1} that the sum over cells i < j
    reads; none lies past t_{j-1}, where t -> G(s, t) would have its kink
    t = s inside the stencil.
    Cross-check only, for one state path; the estimator pipeline uses
    compute_Q_batch.
    """
    x = np.asarray(state, dtype=float)
    n, dt = kernel.grid.cells, kernel.grid.dt
    if kernel.grid != qv.grid:
        raise GridMismatch("kernel and bracket table built on different grids")
    if x.shape != (n + 1,):
        raise GridMismatch(f"path has {x.shape[0]} nodes, kernel grid has {n + 1}")
    ext = build_kernel(hurst, TimeGrid(horizon=kernel.grid.horizon + dt, cells=n + 1))
    ext = ext.matrix[n, : n + 1]

    # big_g[j, s] = G(t_s, t_j) for horizons j = 0..n+1; rows saturate at <M>_{t_j}
    # and row 0 is the horizon-0 continuation G(s, 0) = 0
    big_g = np.zeros((n + 2, n + 1))
    big_g[1:-1, 1:] = dt * np.cumsum(kernel.matrix, axis=1)
    big_g[-1, 1:] = dt * np.cumsum(ext[:n])

    # row j-1: dG/dt(t_i, t_j) on the cells i < j that the Ito sum reads
    dg_dt = np.tril(big_g[2:, :n] - big_g[:-2, :n]) / (2.0 * dt)
    q = np.empty(n + 1)
    q[0] = 0.0
    q[1:] = x[1:] - (dg_dt @ np.diff(x)) / qv.derivative[1:]
    return q


@dataclass(frozen=True)
class InverseKernel:
    """Triangular table for reconstructing X from Z; same layout as TransferKernel."""

    grid: TimeGrid
    matrix: np.ndarray

    def column(self, horizon_index: int) -> np.ndarray:
        j = int(horizon_index)
        if j < 1 or j > self.grid.cells:
            raise IndexError(f"horizon index {j} outside 1..{self.grid.cells}")
        return self.matrix[j - 1, :j]


def inverse_kernel(hurst: float, kernel: TransferKernel, qv: QVTable) -> InverseKernel:
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
    two_h = 2.0 * hurst

    # P[x-1, i] = (t_x - t_i)^{2H} - (t_x - t_{i+1})^{2H} for cells i < x.
    gap_lo = nodes[1:, None] - nodes[None, :-1]
    gap_hi = nodes[1:, None] - nodes[None, 1:]
    p = np.maximum(gap_lo, 0.0) ** two_h - np.maximum(gap_hi, 0.0) ** two_h
    s = kernel.matrix @ p.T  # s[a-1, x-1] = sum_i g_i^{(a)} P[x-1, i]

    f = np.zeros((n + 1, n))  # f[a, j-1] = F(t_a, t_j), meaningful for a <= j
    f[1:, :] = nodes[1:, None] + 0.5 * (s - np.diag(s)[:, None])
    ghat = np.tril((np.diff(f, axis=0) / qv.bracket_increments()[:, None]).T)
    return InverseKernel(grid=kernel.grid, matrix=ghat)


def reconstruct_X(z: np.ndarray, inverse: InverseKernel) -> np.ndarray:
    """X at every node from Z increments via the reconstruction kernel."""
    n = inverse.grid.cells
    if z.shape != (n + 1,):
        raise GridMismatch(f"Z has {z.shape[0]} nodes, inverse kernel grid has {n + 1}")
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = inverse.matrix @ np.diff(z)
    return out
