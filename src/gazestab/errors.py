"""Exception types shared across the package.

Everything user-facing derives from GazestabError so callers can catch one
base class; InvalidInput additionally subclasses ValueError because that is
what misuse of a plain numerical function ought to raise.
"""

from __future__ import annotations


class GazestabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GazestabError, ValueError):
    """Bad argument: wrong shape, non-finite value, out-of-range parameter.
    `links` names the chain links a HeadModel rule concerns (else empty)."""

    def __init__(self, message: str, links: tuple[int, ...] = ()):
        super().__init__(message)
        self.links = links


class OracleFailure(GazestabError):
    """A finite-difference probe produced a non-finite value.

    `column` identifies the offending input component (joint index).
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class SingularConfiguration(GazestabError):
    """Stereo rays are (numerically) parallel: no unique fixation point.

    `denom` carries the offending denominator value so callers can log it.
    """

    def __init__(self, message: str, denom: float | None = None):
        super().__init__(message)
        self.denom = denom


class SingularMatrix(GazestabError):
    """Undamped pseudo-inverse requested for a rank-deficient matrix."""


class SimulationDiverged(GazestabError):
    """A plant state stopped being finite; carries the simulation time."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InsufficientCoverage(GazestabError):
    """Too few cloud points remained valid for a meaningful flow average."""


class JointLimitWarning(RuntimeWarning):
    """A plant tick clamped joints at their position limits; carries the tick
    time and the mechanical joint indices."""

    def __init__(self, t: float, joints: list[int]):
        super().__init__(f"joint position limit reached at t={t:.3f}s (mechanical joints {joints}); clamping")
        self.t = t
        self.joints = joints


class InvalidComparison(GazestabError):
    """Log comparison across mismatched scripts, durations, or time grids."""


class FileFormatError(GazestabError):
    """Model/script/config text could not be parsed or validated.

    Remembers the file and line so the CLI can point straight at the problem.
    """

    def __init__(self, path: str, line: int, message: str):
        where = f"{path}:{line}" if line else path
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
