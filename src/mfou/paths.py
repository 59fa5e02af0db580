"""Sampling of mixed fractional Brownian paths and the driven linear SDE.

The driving noise is Btilde = B + B^H with B a standard Brownian motion and
B^H an independent fractional Brownian motion, both started at 0. The state
process solves dX = -theta*X dt + dBtilde with X_0 = 0 and is discretized by
the Euler recursion X_{k+1} = X_k - theta*X_k*dt + (Btilde increment).

Fractional increments are exact in law: stationary fractional Gaussian noise
is sampled through a circulant embedding of its autocovariance (FFT route:
one Hermitian half-spectrum transform per row, `np.fft.hfft`). The 2n-point
embedding is nonnegative definite for H <= 1/2 (Craigmile, J. Time Ser. Anal.
24, 2003), and a scan of n up to 8192 and H up to 0.9999 found no negative
eigenvalue above it; an embedding that is not raises EmbeddingFailed.
H = 1 is the degenerate perfectly-correlated case B^1_t = t * xi and is
sampled directly.

`sample_mixed_path` draws one replication from generators built by
`RandomStream.generator`, as numpy builds them; it is the reference for
replay. `sample_state_batch` reproduces it bit for bit: it derives the Philox
keys of every replication's substreams in one pass (`RandomStream.child_keys`)
and re-keys one generator to each, with no SeedSequence per replication.
Every Monte Carlo consumer draws through `sample_state_chunks`, 512 rows at a
time, so its memory does not grow with the replication count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingFailed, LengthMismatch
from .numerics import RandomStream, TimeGrid, rekeyed

# Substream indices within one replication's stream; fixed so that a path is
# reproducible from its stream address alone.
_SUB_BM = 0
_SUB_FBM = 1

# Circulant eigenvalues this far below zero (relative to the largest) are
# treated as roundoff and clipped; anything worse raises EmbeddingFailed.
_EIG_CLIP_REL = 1e-12

# Replications whose paths `sample_state_chunks` holds at once; a row's bits
# depend only on its replication's stream address, not on its chunk.
_CHUNK_ROWS = 512

# Rows per FFT block in the circulant embedding: the half spectrum (n + 1
# complex values, 16 bytes per row and lattice cell), the conjugate copy that
# `hfft` makes of it and its real 2n-point transform take about 48 bytes per
# row and lattice cell, so transforming a whole chunk at once would dominate a
# run's peak memory. Rows transform independently, so the block size does not
# change a single bit of the output.
_FFT_ROWS = 64


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
                stacklevel=3,  # past the dataclass-generated __init__, to its caller
            )


@dataclass(frozen=True)
class PathBundle:
    """One sampled trajectory: node values of B, B^H, Btilde and X."""

    spec: ProcessSpec
    brownian: np.ndarray
    fractional: np.ndarray
    mixed: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        m = self.spec.grid.cells + 1
        for name in ("brownian", "fractional", "mixed", "state"):
            arr = getattr(self, name)
            if arr.shape != (m,):
                raise LengthMismatch(f"{name} must have {m} nodes, got {arr.shape}")

    @property
    def grid(self) -> TimeGrid:
        return self.spec.grid


def fgn_autocovariance(lags, hurst: float, dt: float) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise on step dt at integer lags."""
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return dt**two_h * gamma


def _embedding_eigenvalues(n: int, hurst: float, dt: float) -> np.ndarray:
    """Eigenvalues of the 2n circulant embedding, roundoff below zero clipped."""
    gamma = fgn_autocovariance(np.arange(n + 1), hurst, dt)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    floor = -_EIG_CLIP_REL * float(np.max(eig))
    if not np.min(eig) >= floor:
        raise EmbeddingFailed(
            f"circulant embedding of fGn (n={n}, H={hurst}) has eigenvalue "
            f"{float(np.min(eig)):.3e} below {floor:.3e}"
        )
    return np.clip(eig, 0.0, None)


def _fgn_from_embedding_batch(eig: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Map rows of 2n standard normals through the circulant factor to n fGn samples.

    `draws` has shape (R, 2n). Draw layout is fixed: draws[:, 0] feeds
    frequency 0, draws[:, 2k-1] and draws[:, 2k] feed frequency k for
    1 <= k < n, draws[:, 2n-1] feeds frequency n. The spectrum is Hermitian,
    so only its n + 1 nonnegative frequencies are built and `hfft` returns
    the transform of the whole 2n-point signal.
    """
    reps, m = draws.shape
    n = m // 2
    scale = np.sqrt(eig[: n + 1] / m)
    scale[1:n] *= np.sqrt(0.5)
    # frequencies 0 and n stay real: their imaginary parts are never written
    half = np.zeros((min(reps, _FFT_ROWS), n + 1), dtype=complex)
    out = np.empty((reps, n))
    for start in range(0, reps, _FFT_ROWS):
        block = draws[start : start + _FFT_ROWS]
        spectrum = half[: len(block)]
        np.multiply(block[:, :1], scale[:1], out=spectrum.real[:, :1])
        np.multiply(block[:, 1::2], scale[1:], out=spectrum.real[:, 1:])
        np.multiply(block[:, 2::2], scale[1:n], out=spectrum.imag[:, 1:n])
        out[start : start + len(block)] = np.fft.hfft(spectrum, n=m, axis=1)[:, :n]
    return out


def _euler_states(increments: np.ndarray, phi: float) -> np.ndarray:
    """Rows of the Euler chain x[k] = increments[k-1] + phi*x[k-1] from x[0] = 0.

    `increments` has shape (R, n) and is never written; the result is a new
    (R, n + 1) array. The loop runs over time steps, each one update of a
    whole column. It adds in the order of scipy.signal's direct-form filter
    with b = [1], a = [1, -phi] along axis 1, so the bits are that filter's.
    """
    state = np.zeros((len(increments), increments.shape[1] + 1))
    state[:, 1:] = increments
    columns = state.T
    for prev, col in zip(columns[1:], columns[2:]):
        col += phi * prev
    return state


def sample_fbm_increments(spec: ProcessSpec, stream: RandomStream) -> np.ndarray:
    """Increments of B^H on the grid cells; exact in law for all H in (0, 1]."""
    n = spec.grid.cells
    rng = stream.child(_SUB_FBM).generator()
    if spec.hurst == 1.0:
        xi = rng.standard_normal()
        return np.full(n, spec.grid.dt * xi)
    eig = _embedding_eigenvalues(n, spec.hurst, spec.grid.dt)
    return _fgn_from_embedding_batch(eig, rng.standard_normal(2 * n)[None])[0]


def sample_mixed_path(spec: ProcessSpec, stream: RandomStream) -> PathBundle:
    """Sample one PathBundle; B and B^H come from independent substreams."""
    n, dt = spec.grid.cells, spec.grid.dt
    d_bm = np.sqrt(dt) * stream.child(_SUB_BM).generator().standard_normal(n)
    d_fbm = sample_fbm_increments(spec, stream)
    d_mix = d_bm + d_fbm
    state = _euler_states(d_mix[None], 1.0 - spec.theta * dt)[0]
    zero = np.zeros(1)
    return PathBundle(
        spec=spec,
        brownian=np.concatenate([zero, np.cumsum(d_bm)]),
        fractional=np.concatenate([zero, np.cumsum(d_fbm)]),
        mixed=np.concatenate([zero, np.cumsum(d_mix)]),
        state=state,
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
        draws = np.empty((reps, 2 * n))
        for row, rng in zip(draws, substream(_SUB_FBM)):
            rng.standard_normal(out=row)
        d_fbm = _fgn_from_embedding_batch(eig, draws)
        del draws  # released before the filter stage, like the increments below

    # in place; addition commutes, so this is d_bm + d_fbm bit for bit
    d_mix = np.add(d_fbm, d_bm, out=d_fbm)
    # the filter stage sets the batch's peak memory: hold no input arrays through it
    del d_bm, d_fbm
    return _euler_states(d_mix, 1.0 - spec.theta * dt)


def sample_state_chunks(spec: ProcessSpec, base: RandomStream, reps: int):
    """State batches of replications 0 .. reps - 1 in order, at most _CHUNK_ROWS rows each."""
    for start in range(0, reps, _CHUNK_ROWS):
        yield sample_state_batch(spec, base, range(start, min(start + _CHUNK_ROWS, reps)))
