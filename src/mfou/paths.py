"""Sampling of mixed fractional Brownian paths and the driven linear SDE.

The driving noise is Btilde = B + B^H with B a standard Brownian motion and
B^H an independent fractional Brownian motion, both started at 0. The state
process solves dX = -theta*X dt + dBtilde with X_0 = 0 and is discretized by
the Euler recursion X_{k+1} = X_k - theta*X_k*dt + (Btilde increment).

Fractional increments are exact in law: stationary fractional Gaussian noise
is sampled through a circulant embedding of its autocovariance (FFT route),
with a dense Cholesky fallback if the embedding is not nonnegative definite.
H = 1 is the degenerate perfectly-correlated case B^1_t = t * xi and is
sampled directly.

`sample_mixed_path` draws one replication from generators built by
`RandomStream.generator`, as numpy builds them; it is the reference for
replay. `sample_state_batch` reproduces it bit for bit: it derives the Philox
keys of every replication's substreams in one pass (`RandomStream.child_keys`)
and re-keys one generator to each, with no SeedSequence per replication.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import EmbeddingFailed, LengthMismatch, NodeSetTooLarge
from .numerics import RandomStream, TimeGrid, cholesky_factor, rekeyed

# Substream indices within one replication's stream; fixed so that a path is
# reproducible from its stream address alone.
_SUB_BM = 0
_SUB_FBM = 1

# Circulant eigenvalues this far below zero (relative to the largest) are
# treated as roundoff and clipped; anything worse triggers the fallback.
_EIG_CLIP_REL = 1e-12


class ExperimentalHurstWarning(UserWarning):
    """Raised once per process spec with H < 0.5 (supported but experimental)."""


@dataclass(frozen=True)
class ProcessSpec:
    """Model parameters: Hurst index, drift theta > 0, and the time grid."""

    hurst: float
    theta: float
    grid: TimeGrid

    def __post_init__(self):
        if not (0.0 < self.hurst <= 1.0):
            raise ValueError(f"hurst must lie in (0, 1], got {self.hurst}")
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.hurst < 0.5:
            warnings.warn(
                f"H={self.hurst} < 0.5: kernel accuracy degrades; treated as experimental",
                ExperimentalHurstWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class PathBundle:
    """One sampled trajectory: node values of B, B^H, Btilde and X."""

    spec: ProcessSpec
    brownian: np.ndarray
    fractional: np.ndarray
    mixed: np.ndarray
    state: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.spec.grid.cells + 1
        for name in ("brownian", "fractional", "mixed", "state"):
            arr = getattr(self, name)
            if arr.shape != (m,):
                raise LengthMismatch(f"{name} must have {m} nodes, got {arr.shape}")

    @property
    def grid(self) -> TimeGrid:
        return self.spec.grid


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


def fgn_autocovariance(lags, hurst: float, dt: float) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise on step dt at integer lags."""
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return dt**two_h * gamma


def fgn_covariance_matrix(n: int, hurst: float, dt: float) -> np.ndarray:
    """Dense n x n covariance of consecutive fGn increments."""
    idx = np.arange(n)
    return fgn_autocovariance(np.abs(idx[:, None] - idx[None, :]), hurst, dt)


def _embedding_eigenvalues(n: int, hurst: float, dt: float) -> np.ndarray | None:
    """Eigenvalues of the 2n circulant embedding, or None if not usable."""
    gamma = fgn_autocovariance(np.arange(n + 1), hurst, dt)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    floor = -_EIG_CLIP_REL * float(np.max(eig))
    if np.min(eig) < floor:
        return None
    return np.clip(eig, 0.0, None)


def _fgn_from_embedding_batch(eig: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Map rows of 2n standard normals through the circulant factor to n fGn samples.

    `draws` has shape (R, 2n). Draw layout is fixed: draws[:, 0] feeds
    frequency 0, draws[:, 2k-1] and draws[:, 2k] feed frequency k for
    1 <= k < n, draws[:, 2n-1] feeds frequency n.
    """
    reps, m = draws.shape
    n = m // 2
    spectrum = np.zeros((reps, m), dtype=complex)
    spectrum[:, 0] = np.sqrt(eig[0]) * draws[:, 0]
    spectrum[:, n] = np.sqrt(eig[n]) * draws[:, -1]
    half = np.sqrt(0.5 * eig[1:n])
    spectrum[:, 1:n] = half * (draws[:, 1 : m - 2 : 2] + 1j * draws[:, 2 : m - 1 : 2])
    spectrum[:, n + 1 :] = np.conj(spectrum[:, 1:n][:, ::-1])
    return (np.fft.fft(spectrum, axis=1) / np.sqrt(m)).real[:, :n]


def sample_fbm_increments(spec: ProcessSpec, stream: RandomStream) -> np.ndarray:
    """Increments of B^H on the grid cells; exact in law for all H in (0, 1]."""
    n = spec.grid.cells
    rng = stream.child(_SUB_FBM).generator()
    if spec.hurst == 1.0:
        xi = rng.standard_normal()
        return np.full(n, spec.grid.dt * xi)
    eig = _embedding_eigenvalues(n, spec.hurst, spec.grid.dt)
    if eig is not None:
        return _fgn_from_embedding_batch(eig, rng.standard_normal(2 * n)[None])[0]
    cov = fgn_covariance_matrix(n, spec.hurst, spec.grid.dt)
    try:
        factor = cholesky_factor(cov)
    except Exception as exc:
        raise EmbeddingFailed(
            f"circulant embedding rejected and Cholesky fallback failed: {exc}"
        ) from exc
    return factor @ rng.standard_normal(n)


def sample_mixed_path(spec: ProcessSpec, stream: RandomStream) -> PathBundle:
    """Sample one PathBundle; B and B^H come from independent substreams."""
    n, dt = spec.grid.cells, spec.grid.dt
    d_bm = np.sqrt(dt) * stream.child(_SUB_BM).generator().standard_normal(n)
    d_fbm = sample_fbm_increments(spec, stream)
    d_mix = d_bm + d_fbm
    state = np.empty(n + 1)
    state[0] = 0.0
    state[1:] = lfilter([1.0], [1.0, -(1.0 - spec.theta * dt)], d_mix)
    meta = {"fbm_degenerate": spec.hurst == 1.0}
    zero = np.zeros(1)
    return PathBundle(
        spec=spec,
        brownian=np.concatenate([zero, np.cumsum(d_bm)]),
        fractional=np.concatenate([zero, np.cumsum(d_fbm)]),
        mixed=np.concatenate([zero, np.cumsum(d_mix)]),
        state=state,
        meta=meta,
    )


def sample_state_batch(spec: ProcessSpec, base: RandomStream, rep_ids) -> np.ndarray:
    """State paths for many replications, shape (len(rep_ids), cells+1).

    Row r equals sample_mixed_path(spec, base.child(rep_ids[r])).state bit for
    bit: one generator, re-keyed to each replication's substream keys in
    turn, draws straight into the rows; the FFT/filter stages are batched.
    """
    rep_ids = list(rep_ids)
    n, dt = spec.grid.cells, spec.grid.dt
    reps = len(rep_ids)
    gen = base.generator()

    def substream(sub):
        return rekeyed(gen, base.child_keys(rep_ids, sub))

    d_bm = np.empty((reps, n))
    for row, rng in zip(d_bm, substream(_SUB_BM)):
        rng.standard_normal(out=row)
    d_bm *= np.sqrt(dt)

    if spec.hurst == 1.0:
        xi = np.array([rng.standard_normal() for rng in substream(_SUB_FBM)])
        d_fbm = dt * xi[:, None] * np.ones(n)
    else:
        eig = _embedding_eigenvalues(n, spec.hurst, dt)
        draws = np.empty((reps, n if eig is None else 2 * n))
        for row, rng in zip(draws, substream(_SUB_FBM)):
            rng.standard_normal(out=row)
        if eig is not None:
            d_fbm = _fgn_from_embedding_batch(eig, draws)
        else:
            factor = cholesky_factor(fgn_covariance_matrix(n, spec.hurst, dt))
            # one matrix-vector product per row, as the single path takes: the
            # rounding of a matrix product's rows depends on how many there are
            d_fbm = np.empty_like(draws)
            for r, row in enumerate(draws):
                d_fbm[r] = factor @ row

    d_mix = d_bm + d_fbm
    state = np.empty((reps, n + 1))
    state[:, 0] = 0.0
    state[:, 1:] = lfilter([1.0], [1.0, -(1.0 - spec.theta * dt)], d_mix, axis=1)
    return state


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


def write_path_csv(bundle: PathBundle, fileobj) -> None:
    """Write node columns t, B, B^H, Btilde, X at round-trip precision."""
    fileobj.write("t,B,B^H,Btilde,X\n")
    t = bundle.grid.nodes
    for k in range(t.size):
        row = (t[k], bundle.brownian[k], bundle.fractional[k], bundle.mixed[k], bundle.state[k])
        fileobj.write(",".join(repr(float(v)) for v in row) + "\n")
