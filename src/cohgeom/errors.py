"""Exception types shared across the package, the hbar and level-count
domain checks, and ``worst``, the one fold of deviations: every check that
combines deviations takes the worst of them through it, so a NaN deviation
stays NaN and fails its bound."""

import math


class CohgeomError(Exception):
    """Base class for all package errors."""


class BasisMismatch(CohgeomError):
    """Two state vectors refer to different bases or dimensions."""


class NormalizationError(CohgeomError):
    """A state required to be normalized is not, within its declared budget."""


class DimensionTooSmall(CohgeomError):
    """Requested truncation dimension is too small to be meaningful."""


class InvalidSpin(CohgeomError):
    """j is not a positive half-integer."""


class TruncationError(CohgeomError):
    """The truncated representation cannot meet the requested tail budget."""


class KernelError(CohgeomError):
    """An operator has no kernel, or no one-dimensional one."""


class DomainError(CohgeomError):
    """Argument lies outside the domain of the map (disc, half plane, cone)."""


class StepError(CohgeomError):
    """Finite-difference step outside the supported range."""


class NonHermitian(CohgeomError):
    """Operator expected to be Hermitian is not, within tolerance."""


class DegenerateOrbit(CohgeomError):
    """Operation undefined on the degenerate (point) orbit t = 0."""


class UnsupportedBasePoint(CohgeomError):
    """No closed-form reference is available at this base point."""


class QuadratureError(CohgeomError):
    """Quadrature failed its refinement convergence gate."""


class VerificationError(CohgeomError):
    """A closed form failed the check it is verified against before use."""


def check_hbar(hbar) -> None:
    """DomainError unless hbar is finite and positive."""
    if not 0 < hbar < math.inf:
        raise DomainError(f"hbar must be finite and positive, got {hbar}")


def check_levels(N) -> int:
    """N as an int; DomainError unless it is a whole number of levels.

    A whole float such as 7.0 counts as 7.
    """
    if not (math.isfinite(N) and N == math.floor(N)):
        raise DomainError(f"N must be a whole number of levels, got {N}")
    return int(N)


def worst(values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    Python's ``max`` keeps a NaN only when it comes first.  An empty
    ``values`` raises ValueError, as ``max`` does.
    """
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)
