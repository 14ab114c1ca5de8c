"""Birkhoff normal forms and effective stability times.

The package normalizes polynomial Hamiltonians around an elliptic
equilibrium order by order with truncated Lie series, then turns the
surviving remainder at each order into a drift bound and an escape time,
optimizing over the order.  A small celestial-mechanics layer converts
orbital elements into the Poincare variables the secular application
needs.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DegenerateRadiusError,
    DimensionMismatchError,
    Error,
    FormatError,
    GradingError,
    HyperbolicOrbitError,
    NotEllipticError,
    OrderRangeError,
    RealityViolationError,
    ResonanceError,
    SmallDivisorError,
    StabilityDomainError,
    UnknownFixtureError,
)
from .polyalg import (
    GradedSeries,
    Polynomial,
    poisson_bracket,
    polydisc_norm,
)
from .spectrum import (
    LinearSymplecticMap,
    ResonanceCertificate,
    check_nonresonance,
    diagonalize_quadratic,
)
from .birkhoff import (
    ActionPolynomial,
    NormalFormState,
    birkhoff_normal_form,
)
from .stability import (
    drift_bound,
    sweep,
)
from .celestial import (
    BodyParameters,
    PoincareState,
    load_fixture,
    poincare_variables,
    secular_radii,
)

__all__ = [
    "ActionPolynomial",
    "BodyParameters",
    "ConditioningError",
    "DegenerateRadiusError",
    "DimensionMismatchError",
    "Error",
    "FormatError",
    "GradedSeries",
    "GradingError",
    "HyperbolicOrbitError",
    "LinearSymplecticMap",
    "NormalFormState",
    "NotEllipticError",
    "OrderRangeError",
    "PoincareState",
    "Polynomial",
    "RealityViolationError",
    "ResonanceCertificate",
    "ResonanceError",
    "SmallDivisorError",
    "StabilityDomainError",
    "UnknownFixtureError",
    "birkhoff_normal_form",
    "check_nonresonance",
    "diagonalize_quadratic",
    "drift_bound",
    "load_fixture",
    "poincare_variables",
    "poisson_bracket",
    "polydisc_norm",
    "secular_radii",
    "sweep",
]
