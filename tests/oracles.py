"""Reference computations that only the tests use.

They stay outside `src/mfou` so that production code never shares them with
the checks they serve.
"""

import numpy as np

from mfou.errors import LengthMismatch


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
