"""Simulation and drift inference for a mixed Brownian/fractional OU process.

Submodules are imported lazily so the command-line front end can size the
BLAS thread pool before numpy loads (the pool size is fixed at first import).
"""

from importlib import import_module

__version__ = "0.1.0"

# master seed of the CLI and of ExperimentConfig when none is given
DEFAULT_SEED = 20260814

# fewest lattice cells a time grid accepts; the CLI checks configs against it
# without importing numpy
MIN_CELLS = 8

_SUBMODULES = (
    "cli",
    "errors",
    "experiments",
    "inference",
    "ldp",
    "numerics",
    "paths",
    "riccati",
    "transform",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
