"""Transformed observation process and drift estimator.

From an observed path X the fundamental semimartingale is

    Z_t = int_0^t g(s, t) dX_s,

computed per horizon with that horizon's kernel column against the raw path
increments (left-endpoint sums). Z decomposes as dZ = -theta Q d<M> + dM
where

    Q_t = (1/2) (psi(t) Z_t + V_t),     V_t = int_0^t psi(s) dZ_s,

and psi is the reciprocal bracket derivative from the transform tables. The
drift estimator and likelihood only need two path functionals,

    numerator   = int_0^T Q dZ        (left-endpoint sum),
    denominator = int_0^T Q^2 d<M>    (trapezoid against bracket increments),

giving theta_hat = -numerator/denominator, the maximiser of the
log-likelihood l(theta) = -theta*numerator - theta^2/2 * denominator.
The chain Z -> Q -> statistics runs in `path_statistics_batch` on
(reps, nodes) batches of state paths, for the estimator and for every Monte
Carlo study; one path is the batch state[None].

A slower definitional route for Q (derivative of int_0^t g(s,t) X_s ds with
respect to the bracket) is kept as a cross-check of the two-term formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .numerics import TimeGrid
from .transform import InverseKernel, QVTable, TransferKernel, solve_g

DEGENERATE_DENOMINATOR = 1e-14


@dataclass(frozen=True)
class EstimateRecord:
    """One replication's estimate and its sufficient statistics."""

    rep_id: int
    hurst: float
    theta_true: float
    horizon: float
    cells: int
    theta_hat: float
    numerator: float
    denominator: float


def compute_Z_batch(states: np.ndarray, kernel: TransferKernel) -> np.ndarray:
    """Z at every node: horizon t_j pairs kernel column j with the X increments.

    `states` is a (reps, nodes) batch of state paths; so is the result.
    """
    n = kernel.grid.cells
    if states.ndim != 2 or states.shape[1] != n + 1:
        raise GridMismatch(f"state batch must have {n + 1} columns")
    out = np.empty_like(states)
    out[:, 0] = 0.0
    out[:, 1:] = np.diff(states, axis=1) @ kernel.matrix.T
    return out


def compute_Q_batch(z: np.ndarray, qv: QVTable) -> tuple[np.ndarray, np.ndarray]:
    """Q and V from a batch of Z via the two-term representation."""
    v = np.empty_like(z)
    v[:, 0] = 0.0
    np.cumsum(qv.psi_diag[:-1] * np.diff(z, axis=1), axis=1, out=v[:, 1:])
    q = 0.5 * (qv.psi_diag * z + v)
    return q, v


def compute_Q_direct(state: np.ndarray, kernel: TransferKernel, qv: QVTable) -> np.ndarray:
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
    ext = solve_g(kernel.hurst, TimeGrid(horizon=kernel.grid.horizon + dt, cells=n + 1), n + 1)

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


def sufficient_statistics_batch(q: np.ndarray, z: np.ndarray, qv: QVTable):
    """(int Q dZ, int Q^2 d<M>) per row: left-endpoint and trapezoid sums."""
    dm = qv.bracket_increments()
    numerator = np.einsum("rj,rj->r", q[:, :-1], np.diff(z, axis=1))
    q2 = q**2
    denominator = (0.5 * (q2[:, :-1] + q2[:, 1:])) @ dm
    return numerator, denominator


def path_statistics_batch(states: np.ndarray, kernel: TransferKernel, qv: QVTable):
    """(int Q dZ, int Q^2 d<M>) per state path: the Z -> Q -> statistics chain."""
    z = compute_Z_batch(states, kernel)
    q, _ = compute_Q_batch(z, qv)
    return sufficient_statistics_batch(q, z, qv)


def reconstruct_X(z: np.ndarray, inverse: InverseKernel) -> np.ndarray:
    """X at every node from Z increments via the reconstruction kernel."""
    n = inverse.grid.cells
    if z.shape != (n + 1,):
        raise GridMismatch(f"Z has {z.shape[0]} nodes, inverse kernel grid has {n + 1}")
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = inverse.matrix @ np.diff(z)
    return out


def estimate_batch(
    states: np.ndarray,
    kernel: TransferKernel,
    qv: QVTable,
    theta_true: float,
    rep_ids,
) -> list[EstimateRecord]:
    """Estimates for a batch of state paths; records carry both statistics."""
    numerator, denominator = path_statistics_batch(states, kernel, qv)
    records = []
    for r, rep in enumerate(rep_ids):
        den = float(denominator[r])
        theta_hat = np.nan if den <= DEGENERATE_DENOMINATOR else -float(numerator[r]) / den
        records.append(
            EstimateRecord(
                rep_id=int(rep),
                hurst=kernel.hurst,
                theta_true=float(theta_true),
                horizon=kernel.grid.horizon,
                cells=kernel.grid.cells,
                theta_hat=theta_hat,
                numerator=float(numerator[r]),
                denominator=den,
            )
        )
    return records


ESTIMATE_COLUMNS = (
    "rep_id",
    "H",
    "theta_true",
    "T",
    "n",
    "theta_hat",
    "numerator",
    "denominator",
)


def write_estimates_csv(records, fileobj) -> None:
    """Append-style CSV of EstimateRecords, floats at round-trip precision."""
    fileobj.write(",".join(ESTIMATE_COLUMNS) + "\n")
    for rec in records:
        row = (
            str(rec.rep_id),
            repr(float(rec.hurst)),
            repr(float(rec.theta_true)),
            repr(float(rec.horizon)),
            str(rec.cells),
            repr(float(rec.theta_hat)),
            repr(float(rec.numerator)),
            repr(float(rec.denominator)),
        )
        fileobj.write(",".join(row) + "\n")
