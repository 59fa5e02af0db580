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
`estimate_batch` is the one place that rule is applied: a replication's
estimate counts when both statistics are finite and the denominator exceeds
DEGENERATE_DENOMINATOR, and is NaN otherwise; the CLI and every study read
it from there.
The chain Z -> Q -> statistics runs in `path_statistics_batch` on
(reps, nodes) batches of state paths, for the estimator and for every Monte
Carlo study; one path is the batch state[None]. The definitional route for
Q (derivative of int_0^t g(s,t) X_s ds with respect to the bracket) lives in
tests/oracles.py as the cross-check of the two-term formula.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmm

from .errors import GridMismatch
from .transform import QVTable, TransferKernel

DEGENERATE_DENOMINATOR = 1e-14


def compute_Z_batch(states: np.ndarray, kernel: TransferKernel) -> np.ndarray:
    """Z at every node: horizon t_j pairs kernel column j with the X increments.

    `states` is a (reps, nodes) batch of state paths; so is the result.
    """
    n = kernel.grid.cells
    if states.ndim != 2 or states.shape[1] != n + 1:
        raise GridMismatch(f"state batch must have {n + 1} columns")
    out = np.empty_like(states)
    out[:, 0] = 0.0
    # kernel.matrix is lower-triangular: one triangular product on the Fortran
    # views of K.T and of the increments, written over the increments
    dx = np.diff(states, axis=1)
    out[:, 1:] = dtrmm(1.0, kernel.matrix.T, dx.T, side=0, lower=0, trans_a=1, overwrite_b=1).T
    return out


def compute_Q_batch(z: np.ndarray, qv: QVTable) -> tuple[np.ndarray, np.ndarray]:
    """Q and V from a batch of Z via the two-term representation."""
    v = np.empty_like(z)
    v[:, 0] = 0.0
    np.cumsum(qv.psi_diag[:-1] * np.diff(z, axis=1), axis=1, out=v[:, 1:])
    q = 0.5 * (qv.psi_diag * z + v)
    return q, v


def sufficient_statistics_batch(q: np.ndarray, z: np.ndarray, qv: QVTable):
    """(int Q dZ, int Q^2 d<M>) per row: left-endpoint and trapezoid sums."""
    dm = qv.bracket_increments()
    numerator = np.einsum("rj,rj->r", q[:, :-1], np.diff(z, axis=1))
    # the trapezoid as node weights: half of each adjacent cell's bracket increment
    weights = 0.5 * (np.pad(dm, (0, 1)) + np.pad(dm, (1, 0)))
    denominator = q**2 @ weights
    return numerator, denominator


def path_statistics_batch(states: np.ndarray, kernel: TransferKernel, qv: QVTable):
    """(int Q dZ, int Q^2 d<M>) per state path: the Z -> Q -> statistics chain."""
    z = compute_Z_batch(states, kernel)
    q = compute_Q_batch(z, qv)[0]
    return sufficient_statistics_batch(q, z, qv)


def estimate_batch(states: np.ndarray, kernel: TransferKernel, qv: QVTable):
    """(theta_hat, numerator, denominator) per state path: the one estimator rule.

    theta_hat = -numerator/denominator where both statistics are finite and
    the denominator exceeds DEGENERATE_DENOMINATOR, NaN everywhere else.
    """
    numerator, denominator = path_statistics_batch(states, kernel, qv)
    good = np.isfinite(numerator) & np.isfinite(denominator)
    good &= denominator > DEGENERATE_DENOMINATOR
    theta_hat = np.full(numerator.shape, np.nan)
    theta_hat[good] = -numerator[good] / denominator[good]
    return theta_hat, numerator, denominator


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
