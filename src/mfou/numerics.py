"""Shared numerical primitives: grids, random streams, Cholesky, quadrature.

Conventions used by every downstream module are fixed here once:

* time grids are uniform with at least 8 cells, nodes t_k = k*T/n;
* random streams are counter-based and splittable, so a replication's draws
  depend only on its address (master seed + key path), never on scheduling;
* time integrals are trapezoidal against supplied integrator increments;
* grid derivatives are second-order central differences with second-order
  one-sided stencils at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import GridTooCoarse, LengthMismatch, NotPositiveDefinite, NotSymmetric

MIN_CELLS = 8

# Cholesky jitter policy: start at 1e-12 * trace/dim, escalate x10, at most
# three escalations before giving up with the original failure pivot.
_JITTER_BASE = 1e-12
_JITTER_ESCALATIONS = 3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `cells` cells (cells+1 nodes)."""

    horizon: float
    cells: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if int(self.cells) != self.cells:
            raise ValueError(f"cells must be an integer, got {self.cells!r}")
        if self.cells < MIN_CELLS:
            raise GridTooCoarse(f"need at least {MIN_CELLS} cells, got {self.cells}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "cells", int(self.cells))

    @property
    def dt(self) -> float:
        return self.horizon / self.cells

    @cached_property
    def nodes(self) -> np.ndarray:
        out = np.linspace(0.0, self.horizon, self.cells + 1)
        out.flags.writeable = False
        return out

    def index_of(self, t: float, *, atol: float = 1e-9) -> int:
        """Index of the node equal to `t` (within atol); raises if absent."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.cells or abs(k * self.dt - t) > atol:
            raise ValueError(f"t={t!r} is not a node of {self}")
        return k


@dataclass(frozen=True)
class RandomStream:
    """Counter-based splittable random source.

    A stream is addressed by (master_seed, key); `child` extends the key
    tuple. Streams at distinct addresses are statistically independent and
    every draw depends only on the address, so replications reproduce
    bit-identically regardless of evaluation order or thread schedule.
    """

    master_seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.master_seed, (int, np.integer)) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {self.master_seed!r}")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "key", tuple(int(k) for k in self.key))

    def child(self, *indices: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.key + indices)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(seq))


def cholesky_factor(matrix) -> np.ndarray:
    """Lower-triangular L with L L^T = matrix.

    A matrix that fails by a hair (sampling covariance rounded to indefinite)
    is retried with a jitter of 1e-12*trace/dim added to the diagonal,
    escalated tenfold at most three times. The error reports the 1-based
    pivot index of the first failing leading minor of the unjittered matrix.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    base = _JITTER_BASE * max(float(np.trace(a)), 1.0) / dim
    first_pivot = None
    for attempt in range(_JITTER_ESCALATIONS + 1):
        trial = a if attempt == 0 else a + (base * 10.0 ** (attempt - 1)) * np.eye(dim)
        c, info = lapack.dpotrf(trial, lower=1)
        if info == 0:
            return np.tril(c)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        if first_pivot is None:
            first_pivot = info
    raise NotPositiveDefinite(first_pivot)


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


def finite_diff_derivative(values, dx: float) -> np.ndarray:
    """Second-order derivative estimates on a uniform grid.

    Central differences inside, one-sided three-point stencils at both ends.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch("expected a 1-d array")
    if v.shape[0] < MIN_CELLS + 1:
        raise GridTooCoarse(f"need at least {MIN_CELLS + 1} nodes, got {v.shape[0]}")
    if dx <= 0:
        raise ValueError(f"dx must be positive, got {dx}")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return out
