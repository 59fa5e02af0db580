"""Exception taxonomy.

Two families matter to callers: `ConfigError` (bad user input, CLI exit
code 2) and `NumericalError` (a computation that could not be completed to
contract, CLI exit code 3). Everything numerical carries enough context to
diagnose the failure without re-running.
"""

from __future__ import annotations


class MfouError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MfouError, ValueError):
    """Invalid configuration input (file, key, value, or combination)."""


class NumericalError(MfouError):
    """A numerical routine failed to meet its contract."""


class GridTooCoarse(NumericalError, ValueError):
    """Grid has too few cells for the requested operation."""


class GridMismatch(NumericalError, ValueError):
    """Two objects were built on different grids."""


class LengthMismatch(NumericalError, ValueError):
    """Array arguments have incompatible lengths."""


class EmbeddingFailed(NumericalError):
    """The circulant embedding of fractional Gaussian noise is not nonnegative definite."""


class ResidualTooLarge(NumericalError):
    """Kernel solve residual exceeded the contract bound."""

    def __init__(self, residual: float, bound: float, context: str = ""):
        self.residual = float(residual)
        self.bound = float(bound)
        msg = f"residual {residual:.3e} exceeds bound {bound:.3e}"
        super().__init__(msg + (f" ({context})" if context else ""))


class NonMonotoneBracket(NumericalError):
    """Quadratic-variation bracket failed to be strictly increasing."""


class PsiNotPositive(NumericalError):
    """Bracket derivative reciprocal psi must be positive to build the ODE matrices."""


class BlowUp(NumericalError):
    """An ODE route reached a finite-time singularity; `time` is where it was detected."""

    def __init__(self, time: float, reason: str):
        self.time = float(time)
        super().__init__(f"{reason} at t={time:.6g}")


class NonPositiveDet(NumericalError):
    """det(Psi1) <= 0 where the log-determinant route needs it positive."""


class ComplexEigenvalues(NumericalError):
    """Eigenvalue split undefined: theta^2/4 + mu/2 < 0."""


class ExperimentInvalid(NumericalError):
    """An experiment cell failed a validity gate (e.g. attrition too high)."""
