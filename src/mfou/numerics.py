"""Shared numerical primitives: grids, random streams, derivatives.

Conventions used by every downstream module are fixed here once:

* time grids are uniform with at least 8 cells, nodes t_k = k*T/n;
* random streams are counter-based and splittable, so a replication's draws
  depend only on its address (master seed + key path), never on scheduling.
  An address seeds Philox through numpy's SeedSequence; `child_keys` runs
  that hash for a whole batch of child addresses in one vectorised pass, and
  `rekeyed` points one generator at each key in turn, so a batch needs no
  SeedSequence per replication and draws exactly what `generator()` would;
* grid derivatives are second-order central differences with second-order
  one-sided stencils at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import MIN_CELLS
from .errors import GridTooCoarse, LengthMismatch

# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, mixed with these multipliers and a 16-bit xorshift
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PHILOX_BUFFER = 4


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

    def child_keys(self, indices, *suffix: int) -> np.ndarray:
        """Philox keys of child(i, *suffix) for every i in `indices`, shape (len, 2).

        Row r is the uint64 key that `child(indices[r], *suffix).generator()`
        seeds its Philox with, computed for all rows in one vectorised pass of
        numpy's SeedSequence hash instead of one SeedSequence per child. Only
        the index word varies between rows, so each index must fit one 32-bit
        word: indices outside [0, 2**32) raise ValueError.
        """
        ids = np.asarray(indices)
        if ids.size == 0:
            return np.empty((0, 2), dtype=np.uint64)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError("child indices must be a 1-d sequence of integers")
        if ids.min() < 0 or ids.max() > _MASK32:
            raise ValueError(f"child indices must lie in [0, 2**32), got {ids.min()}..{ids.max()}")
        # SeedSequence zero-pads the run entropy to the pool size when a spawn
        # key is present, then appends the spawn key's words
        run = _uint32_words(self.master_seed)
        head = run + [0] * (_POOL_SIZE - len(run))
        head += [w for k in self.key for w in _uint32_words(k)]
        tail = [w for k in suffix for w in _uint32_words(k)]
        entropy = np.empty((len(head) + 1 + len(tail), ids.size), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = ids
        entropy[len(head) + 1 :] = np.array(tail, dtype=np.uint32)[:, None]
        return _seed_sequence_keys(entropy)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, [0] for 0 (as SeedSequence)."""
    if value < 0:
        raise ValueError(f"stream address entries must be nonnegative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(2, np.uint64) for each column of uint32 words.

    `entropy` has shape (words, R) and at least the pool size of words per
    column, as SeedSequence assembles them when a spawn key is present. The
    hash constants advance the same way for every column, so each step of
    numpy's scalar loop becomes one array operation over the R columns.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        out = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        out = out * np.uint32(const)
        return out ^ (out >> _XSHIFT)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> _XSHIFT)

    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL_SIZE, entropy.shape[0]):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[src]))
        # generate_state(2, np.uint64) draws four 32-bit words, one per pool word
        const = _INIT_B
        state = np.empty((entropy.shape[1], _POOL_SIZE), dtype=np.uint32)
        for i, word in enumerate(pool):
            out = word ^ np.uint32(const)
            const = (const * _MULT_B) & _MASK32
            out = out * np.uint32(const)
            state[:, i] = out ^ (out >> _XSHIFT)
    # consecutive words are the low and high halves of one 64-bit key word
    return state.astype("<u4").view("<u8").astype(np.uint64)


def rekeyed(generator: np.random.Generator, keys):
    """Yield `generator` re-keyed to each Philox key of `keys` in turn.

    Every re-keying assigns the whole Philox state that a fresh
    `Philox(key=...)` has: counter 0, an empty buffer and no spare 32-bit
    word. The generator yielded for a key therefore draws exactly what a new
    generator on that key draws, whatever was drawn from it before. The same
    object is yielded each time, so draw from it before advancing.
    """
    bitgen = generator.bit_generator
    # plain lists: the state setter reads them several times faster than arrays
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": [0] * _PHILOX_BUFFER,
        "buffer_pos": _PHILOX_BUFFER,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in np.asarray(keys, dtype=np.uint64).tolist():
        inner["key"] = key
        bitgen.state = state
        yield generator


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
