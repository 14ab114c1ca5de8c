"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(Error):
    """Operands declare a different number of degrees of freedom."""


class GradingError(Error):
    """An operation required homogeneous input and did not get it."""


class RealityViolationError(Error):
    """A complex-chart block claimed to represent a real one has an
    imaginary residual above tolerance (polyalg.REALITY_TOL)."""


class NotEllipticError(Error):
    """The quadratic part has hyperbolic or zero-frequency directions."""


class ConditioningError(Error):
    """The symplectic eigenproblem is too close to defective to trust."""


class ResonanceError(Error):
    """A frequency vector failed the non-resonance check.

    Carries the integer vector `k` realizing the smallest divisor, the
    divisor value, and the full certificate when one was computed.
    """

    def __init__(self, message, k=None, divisor=None, certificate=None):
        super().__init__(message)
        self.k = k
        self.divisor = divisor
        self.certificate = certificate


class SmallDivisorError(ResonanceError):
    """A divisor fell below tolerance while solving a homological equation.

    `order` is the normalization order that failed; `state` holds the partial
    ledger up to the last completed order when raised by the full construction.
    """

    def __init__(self, message, k=None, divisor=None, order=None, state=None):
        super().__init__(message, k=k, divisor=divisor)
        self.order = order
        self.state = state


class OrderRangeError(Error):
    """An order outside the stored ledger, or a degree the keys cannot hold."""


class StabilityDomainError(Error):
    """Escape-time arguments outside their domain (e.g. rho <= rho0)."""


class HyperbolicOrbitError(Error):
    """Eccentricity >= 1 has no Poincare representation."""


class DegenerateRadiusError(Error):
    """A secular radius is zero; it cannot normalize a polydisc."""


class FormatError(Error):
    """A text file failed to parse.  Carries a 1-based line number."""

    def __init__(self, message, line=None, path=None):
        loc = ":".join(str(v) for v in (path, line) if v is not None)
        super().__init__(f"{loc}: {message}" if loc else message)
        self.line = line
        self.path = path


class UnknownFixtureError(Error):
    """No packaged fixture with the requested name."""
