"""Orbital elements, Poincare variables, and the packaged planetary fixture.

Units follow the usual secular-dynamics bookkeeping: lengths in AU, times
in years, G = 1, so the central (solar) mass is 4 pi^2.  For each planet
the canonical fast pair is

    Lambda = mu sqrt((m0 + m) a),   lambda = ell + omega_peri,

with mu = m0 m / (m0 + m) the reduced mass, and the slow (secular) pair

    xi  =  sqrt(2 Lambda) sqrt(1 - sqrt(1 - e^2)) cos(omega_peri),
    eta = -sqrt(2 Lambda) sqrt(1 - sqrt(1 - e^2)) sin(omega_peri),

so xi = eta = 0 is the circular orbit.  Inclination and node are carried
through ingestion but never converted; the reduced secular model drops
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import _records
from .errors import (
    DegenerateRadiusError,
    DimensionMismatchError,
    FormatError,
    HyperbolicOrbitError,
    UnknownFixtureError,
)

__all__ = [
    "BodyParameters",
    "PoincareState",
    "SOLAR_MASS",
    "poincare_variables",
    "secular_radii",
    "eccentricities",
    "parse_elements",
    "elements_text",
    "load_fixture",
    "fixture_path",
    "FIXTURES",
]

SOLAR_MASS = 4.0 * math.pi ** 2          # G = 1, AU, years

_TWO_PI = 2.0 * math.pi

FIXTURES = {
    "sjs-jd2451220.5": "sjs-jd2451220.5.txt",
}

_ELEMENT_KEYS = (
    "mass",
    "semi_major_axis",
    "eccentricity",
    "inclination",
    "mean_anomaly",
    "perihelion_argument",
    "node_longitude",
)


def _wrap_angle(theta):
    theta = math.fmod(float(theta), _TWO_PI)
    if theta < 0.0:
        theta += _TWO_PI
    return theta


@dataclass(frozen=True)
class BodyParameters:
    """Heliocentric osculating elements of one planet plus its mass.

    Angles are stored in radians and reduced to [0, 2*pi) on construction.
    """

    mass: float
    semi_major_axis: float
    eccentricity: float
    inclination: float
    mean_anomaly: float
    perihelion_argument: float
    node_longitude: float
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.semi_major_axis <= 0.0:
            raise ValueError("semi-major axis must be positive")
        if not 0.0 <= self.eccentricity < 1.0:
            raise HyperbolicOrbitError(
                f"eccentricity {self.eccentricity} outside [0, 1): "
                "orbit is not elliptic")
        for attr in ("inclination", "mean_anomaly",
                     "perihelion_argument", "node_longitude"):
            object.__setattr__(self, attr, _wrap_angle(getattr(self, attr)))


@dataclass(frozen=True)
class PoincareState:
    """Canonical variables of the planetary system, one entry per body."""

    names: tuple
    Lambda: tuple
    lam: tuple
    xi: tuple
    eta: tuple

    def __post_init__(self):
        n = len(self.Lambda)
        if not (len(self.names) == len(self.lam)
                == len(self.xi) == len(self.eta) == n):
            raise DimensionMismatchError("component tuples differ in length")
        if any(L <= 0.0 for L in self.Lambda):
            raise ValueError("fast actions must be positive")

    @property
    def num_bodies(self):
        return len(self.Lambda)

    def to_text(self):
        number = _records.number
        lines = []
        for i in range(self.num_bodies):
            name = self.names[i] or f"body{i + 1}"
            vals = (self.Lambda[i], self.lam[i], self.xi[i], self.eta[i])
            lines.append(" ".join([name] + [number(v) for v in vals]))
        lines.append("RADII " + " ".join(
            number(math.hypot(x, e)) for x, e in zip(self.xi, self.eta)))
        return _records.record("POINCARE", {"n": self.num_bodies}, lines)

    @classmethod
    def from_text(cls, text, path=None):
        reader = _records.RecordReader(text, "POINCARE", {"n": int},
                                       path=path)
        n = reader.header["n"]
        names, rows = [], []
        radii_line = None
        for tokens in reader:
            if tokens[0] == "RADII":
                radii_line = reader.finite(tokens[1:], "RADII line")
            elif len(tokens) != 5:
                raise reader.error("expected `name Lambda lambda xi eta`")
            else:
                names.append(tokens[0])
                rows.append(reader.finite(tokens[1:], "body line"))
        if len(names) != n:
            raise FormatError(
                f"header announces {n} bodies, found {len(names)}",
                path=path)
        Lam, lam, xi, eta = zip(*rows) if rows else [()] * 4
        state = cls(names=tuple(names), Lambda=Lam, lam=lam, xi=xi, eta=eta)
        if radii_line is not None and len(radii_line) != n:
            raise FormatError("RADII length disagrees with n", path=path)
        return state


def poincare_variables(bodies, m0=SOLAR_MASS):
    """Convert heliocentric elements to Poincare variables (G = 1)."""
    if not bodies:
        raise DimensionMismatchError("no bodies supplied")
    if m0 <= 0.0:
        raise ValueError("central mass must be positive")
    names, Lam, lam, xi, eta = [], [], [], [], []
    for body in bodies:
        mu = m0 * body.mass / (m0 + body.mass)
        L = mu * math.sqrt((m0 + body.mass) * body.semi_major_axis)
        e = body.eccentricity
        amp = math.sqrt(2.0 * L) * math.sqrt(1.0 - math.sqrt(1.0 - e * e))
        w = body.perihelion_argument
        names.append(body.name)
        Lam.append(L)
        lam.append(_wrap_angle(body.mean_anomaly + w))
        xi.append(amp * math.cos(w))
        eta.append(-amp * math.sin(w))
    return PoincareState(names=tuple(names), Lambda=tuple(Lam),
                         lam=tuple(lam), xi=tuple(xi), eta=tuple(eta))


def secular_radii(state):
    """Polydisc radii putting the current data on the rho = 1 boundary."""
    radii = tuple(math.hypot(x, e) for x, e in zip(state.xi, state.eta))
    for i, R in enumerate(radii):
        if R <= 0.0:
            name = state.names[i] or f"body{i + 1}"
            raise DegenerateRadiusError(
                f"secular amplitude of {name} is zero; polydisc radii "
                "must be positive")
    return radii


def eccentricities(state):
    """Invert the secular map: e from (Lambda, xi, eta) per body."""
    out = []
    for L, x, e in zip(state.Lambda, state.xi, state.eta):
        u = 1.0 - (x * x + e * e) / (2.0 * L)
        if not -1.0 <= u <= 1.0:
            raise ValueError(
                "secular amplitude exceeds the physical range of its action")
        out.append(math.sqrt(max(0.0, 1.0 - u * u)))
    return tuple(out)


# -- element files -------------------------------------------------------------

def parse_elements(text, path=None):
    """Parse a key-value element file into (bodies, m0).

    The format is `m0 = <value>` at top level and one `[body]` section per
    planet carrying mass, semi_major_axis, eccentricity, inclination,
    mean_anomaly, perihelion_argument, node_longitude (plus an optional
    name).  Raises FormatError with a line number on any malformed or
    missing field.
    """
    m0 = None
    sections = []        # (lineno, {key: value}) per [body]
    current = None
    for lineno, line in _records.content_lines(text):
        if line.startswith("["):
            if line != "[body]":
                raise FormatError(f"unknown section {line!r}",
                                  line=lineno, path=path)
            current = {}
            sections.append((lineno, current))
            continue
        if "=" not in line:
            raise FormatError("expected `key = value`",
                              line=lineno, path=path)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            if key != "m0":
                raise FormatError(
                    f"key {key!r} outside a [body] section (only m0 is "
                    "allowed there)", line=lineno, path=path)
            if m0 is not None:
                raise FormatError("duplicate m0", line=lineno, path=path)
            m0 = _records.finite_floats([value], "m0", lineno, path)[0]
            continue
        if key in current:
            raise FormatError(f"duplicate key {key!r}",
                              line=lineno, path=path)
        if key == "name":
            current[key] = value
            continue
        if key not in _ELEMENT_KEYS:
            raise FormatError(f"unknown key {key!r}",
                              line=lineno, path=path)
        current[key] = _records.finite_floats([value], key, lineno, path)[0]

    if m0 is None:
        raise FormatError("missing m0", path=path)
    if not sections:
        raise FormatError("no [body] sections", path=path)
    bodies = []
    for lineno, sec in sections:
        missing = [k for k in _ELEMENT_KEYS if k not in sec]
        if missing:
            raise FormatError(
                f"[body] section is missing {missing}",
                line=lineno, path=path)
        bodies.append(BodyParameters(**sec))
    return bodies, m0


def elements_text(bodies, m0):
    """Render (bodies, m0) in the element-file format."""
    lines = [f"m0 = {_records.number(m0)}"]
    for body in bodies:
        lines.append("")
        lines.append("[body]")
        if body.name:
            lines.append(f"name = {body.name}")
        for key in _ELEMENT_KEYS:
            lines.append(f"{key} = {_records.number(getattr(body, key))}")
    return "\n".join(lines) + "\n"


def fixture_path(name):
    """Filesystem path of a packaged fixture element file."""
    try:
        fname = FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: "
            f"{sorted(FIXTURES)}") from None
    return Path(str(resources.files(__package__) / "data" / fname))


def load_fixture(name):
    """Load a packaged fixture, returning (bodies, m0)."""
    path = fixture_path(name)
    return parse_elements(path.read_text(), path=str(path))
