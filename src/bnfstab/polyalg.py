"""Sparse graded polynomial algebra on canonically conjugate variables.

A polynomial in n degrees of freedom lives on the 2n variables
(x_1..x_n, y_1..y_n) with {x_l, y_l} = 1.  Terms are stored sparsely in a
dict keyed by a packed exponent vector (8 bits per exponent, x-block most
significant), so that monomial products are integer additions and iteration
in increasing key order is graded-lexicographic within a degree.

Polynomials are immutable once constructed; every function here is pure, so
values can be shared freely across threads.

Coefficients below 1e-15 relative to the largest coefficient of the same
homogeneous degree are pruned after every arithmetic operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import _records
from .errors import (
    DimensionMismatchError,
    GradingError,
    RealityViolationError,
    TruncationOrderError,
)

__all__ = [
    "Polynomial",
    "GradedSeries",
    "PolydiscSpec",
    "add",
    "subtract",
    "scale",
    "multiply",
    "poisson_bracket",
    "lie_exp",
    "theta_weight",
    "polydisc_norm",
    "complexify",
    "realify",
    "oscillator",
    "linear_substitute",
    "evaluate",
    "evaluate_batch",
    "differentiate",
    "sample_polydisc",
]

PRUNE_REL = 1e-15

_EXP_BITS = 8
_EXP_MASK = (1 << _EXP_BITS) - 1
_MAX_EXP = _EXP_MASK


@lru_cache(maxsize=None)
def _shifts(num_dof):
    # field t in [0, 2n): t < n is x_{t+1}, t >= n is y_{t-n+1}; x_1 most significant
    width = 2 * num_dof
    return tuple((width - 1 - t) * _EXP_BITS for t in range(width))


def _pack(num_dof, j, k):
    key = 0
    shifts = _shifts(num_dof)
    for t, e in enumerate(tuple(j) + tuple(k)):
        if not 0 <= e <= _MAX_EXP:
            raise ValueError(f"exponent {e} outside [0, {_MAX_EXP}]")
        key |= int(e) << shifts[t]
    return key


def _unpack(num_dof, key):
    shifts = _shifts(num_dof)
    exps = tuple((key >> s) & _EXP_MASK for s in shifts)
    return exps[:num_dof], exps[num_dof:]


def _is_action_key(num_dof, key):
    """True when the x and y exponent vectors agree, as in Z^p W^p."""
    half = _EXP_BITS * num_dof
    return key >> half == key & ((1 << half) - 1)


def _key_degree(num_dof, key):
    d = 0
    for s in _shifts(num_dof):
        d += (key >> s) & _EXP_MASK
    return d


def _pruned(raw, num_dof):
    """Drop zeros and coefficients below PRUNE_REL of their degree block.

    Raises ValueError on an overflowed coefficient: an infinite block
    maximum (or a complex one whose abs() overflows), or a nan (which no
    comparison keeps) among the dropped terms.
    """
    if not raw:
        return {}
    block_max = {}
    deg_of = {}
    try:
        for key, c in raw.items():
            d = _key_degree(num_dof, key)
            deg_of[key] = d
            a = abs(c)
            if a > block_max.get(d, 0.0):
                block_max[d] = a
    except OverflowError:  # abs() of a huge finite complex
        block_max[d] = math.inf
    if math.inf in block_max.values():
        raise ValueError("coefficient overflow: an infinite coefficient")
    out = {}
    for key, c in raw.items():
        a = abs(c)
        if a > 0.0 and a >= PRUNE_REL * block_max[deg_of[key]]:
            out[key] = c
        elif a != a:
            raise ValueError("coefficient overflow: a nan coefficient")
    return out


class Polynomial:
    """Immutable sparse polynomial on (x_1..x_n, y_1..y_n).

    Parameters
    ----------
    num_dof : int
        Number of conjugate pairs n.
    terms : dict, optional
        Either packed-integer keys or ((j_1..j_n), (k_1..k_n)) tuple pairs,
        mapping to coefficients.  j are x-exponents, k are y-exponents.
    field : str
        "real" or "complex".  Real coefficients are stored as floats; a
        complex value with nonzero imaginary part is rejected for field="real".
    """

    __slots__ = ("num_dof", "field", "_terms")

    def __init__(self, num_dof, terms=None, field="real"):
        if num_dof < 1:
            raise ValueError("num_dof must be >= 1")
        if field not in ("real", "complex"):
            raise ValueError(f"unknown coefficient field {field!r}")
        raw = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(key, int):
                    j, k = key
                    if len(j) != num_dof or len(k) != num_dof:
                        raise DimensionMismatchError(
                            f"exponent tuples must have length {num_dof}")
                    key = _pack(num_dof, j, k)
                if field == "real":
                    if isinstance(c, complex):
                        if c.imag != 0.0:
                            raise ValueError(
                                "complex coefficient in a real polynomial")
                        c = c.real
                    c = float(c)
                else:
                    c = complex(c)
                raw[key] = raw.get(key, 0.0) + c
        object.__setattr__(self, "num_dof", num_dof)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", _pruned(raw, num_dof))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, num_dof, terms, field):
        # internal: terms already packed, coerced and pruned
        obj = object.__new__(cls)
        object.__setattr__(obj, "num_dof", num_dof)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "_terms", terms)
        return obj

    @classmethod
    def zero(cls, num_dof, field="real"):
        return cls._raw(num_dof, {}, field)

    @classmethod
    def monomial(cls, num_dof, j, k, coeff=1.0, field=None):
        if field is None:
            field = "complex" if isinstance(coeff, complex) else "real"
        return cls(num_dof, {(tuple(j), tuple(k)): coeff}, field=field)

    @classmethod
    def x(cls, num_dof, index):
        """The coordinate x_{index+1}."""
        j = tuple(1 if t == index else 0 for t in range(num_dof))
        return cls.monomial(num_dof, j, (0,) * num_dof)

    @classmethod
    def y(cls, num_dof, index):
        k = tuple(1 if t == index else 0 for t in range(num_dof))
        return cls.monomial(num_dof, (0,) * num_dof, k)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self):
        return not self._terms

    @property
    def num_terms(self):
        return len(self._terms)

    def terms(self):
        """Sorted list of (j, k, coeff), graded-lexicographic order."""
        n = self.num_dof
        keys = sorted(self._terms, key=lambda key: (_key_degree(n, key), key))
        return [(*_unpack(n, key), self._terms[key]) for key in keys]

    def coefficient(self, j, k):
        return self._terms.get(_pack(self.num_dof, j, k), 0.0)

    def degrees(self):
        n = self.num_dof
        return tuple(sorted({_key_degree(n, key) for key in self._terms}))

    @property
    def degree_min(self):
        ds = self.degrees()
        return ds[0] if ds else None

    @property
    def degree_max(self):
        ds = self.degrees()
        return ds[-1] if ds else None

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def homogeneous_part(self, degree):
        n = self.num_dof
        part = {key: c for key, c in self._terms.items()
                if _key_degree(n, key) == degree}
        return Polynomial._raw(n, part, self.field)

    def max_abs_coeff(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def scale(self, factor):
        if isinstance(factor, complex) and self.field == "real":
            out_field = "complex"
        else:
            out_field = self.field
        raw = {key: c * factor for key, c in self._terms.items()}
        return Polynomial._raw(self.num_dof, _pruned(raw, self.num_dof), out_field)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        return self.scale(1.0 / factor)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.num_dof == other.num_dof
                and self.field == other.field
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.num_dof, self.field,
                     frozenset(self._terms.items())))

    def __repr__(self):
        return (f"Polynomial(num_dof={self.num_dof}, field={self.field!r}, "
                f"terms={self.num_terms}, degrees={self.degrees()})")

    def evaluate(self, point):
        return evaluate(self, point)

    def differentiate(self, var_index):
        return differentiate(self, var_index)


def _check_pair(f, g):
    if f.num_dof != g.num_dof:
        raise DimensionMismatchError(
            f"operands have {f.num_dof} and {g.num_dof} degrees of freedom")
    return "complex" if "complex" in (f.field, g.field) else "real"


def add(f, g):
    field = _check_pair(f, g)
    raw = dict(f._terms)
    for key, c in g._terms.items():
        raw[key] = raw.get(key, 0.0) + c
    return Polynomial._raw(f.num_dof, _pruned(raw, f.num_dof), field)


def subtract(f, g):
    field = _check_pair(f, g)
    raw = dict(f._terms)
    for key, c in g._terms.items():
        raw[key] = raw.get(key, 0.0) - c
    return Polynomial._raw(f.num_dof, _pruned(raw, f.num_dof), field)


def scale(f, factor):
    return f.scale(factor)


def multiply(f, g, cap=None):
    """Product of two polynomials, discarding terms of degree > cap."""
    field = _check_pair(f, g)
    n = f.num_dof
    raw = _capped(_raw_mul(f._terms, g._terms), n, cap)
    return Polynomial._raw(n, _pruned(raw, n), field)


def _capped(raw, num_dof, cap):
    """The terms of degree <= cap, in a new dict; raw itself if cap is None."""
    if cap is None:
        return raw
    return {key: c for key, c in raw.items()
            if _key_degree(num_dof, key) <= cap}


def _raw_mul(a, b):
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = get(key, 0.0) + ca * cb
    return out


def _deriv_items(terms, shift):
    # d/dv of every term: exponent down by one, coefficient times old exponent
    step = 1 << shift
    out = []
    for key, c in terms.items():
        e = (key >> shift) & _EXP_MASK
        if e:
            out.append((key - step, e * c))
    return out


def _derivs(terms, num_dof):
    """_deriv_items of a term dict for every variable, in slot order."""
    return [_deriv_items(terms, shift) for shift in _shifts(num_dof)]


def _bracket_terms(f_terms, g_derivs, num_dof):
    """Raw {f, g} from the terms of f and the _derivs of g."""
    shifts = _shifts(num_dof)
    out = {}
    get = out.get
    for l in range(num_dof):
        fx = _deriv_items(f_terms, shifts[l])
        gy = g_derivs[num_dof + l]
        if fx and gy:
            for ka, ca in fx:
                for kb, cb in gy:
                    key = ka + kb
                    out[key] = get(key, 0.0) + ca * cb
        fy = _deriv_items(f_terms, shifts[num_dof + l])
        gx = g_derivs[l]
        if fy and gx:
            for ka, ca in fy:
                for kb, cb in gx:
                    key = ka + kb
                    out[key] = get(key, 0.0) - ca * cb
    return out


def poisson_bracket(f, g, cap=None):
    """{f, g} = sum_l (df/dx_l dg/dy_l - df/dy_l dg/dx_l), capped by degree.

    Homogeneous operands of degrees p, q produce a homogeneous result of
    degree p + q - 2 (or zero when that exceeds the cap).
    """
    field = _check_pair(f, g)
    n = f.num_dof
    if f.is_zero or g.is_zero:
        return Polynomial.zero(n, field)

    homogeneous = f.is_homogeneous() and g.is_homogeneous()
    if homogeneous:
        target = f.degree_max + g.degree_max - 2
        if target < 0 or (cap is not None and target > cap):
            return Polynomial.zero(n, field)

    raw = _bracket_terms(f._terms, _derivs(g._terms, n), n)
    if not homogeneous:
        raw = _capped(raw, n, cap)
    return Polynomial._raw(n, _pruned(raw, n), field)


def _lie_series(g, chi_derivs, num_dof, degree, step, cap, p=1):
    """The terms g_p = {g_(p-1), chi}/p, p = p, p+1, ..., of a Lie series.

    g is the term g_(p-1), homogeneous of the given degree; chi_derivs are
    the _derivs of chi, and step = deg(chi) - 2 is the degree each bracket
    adds.  Yields (degree, terms) and stops at a zero term or once the
    degree passes cap.
    """
    while True:
        degree += step
        if degree > cap:
            return
        g = _pruned(_bracket_terms(g, chi_derivs, num_dof), num_dof)
        if not g:
            return
        if p > 1:
            g = {key: c / p for key, c in g.items()}
        yield degree, g
        p += 1


def lie_exp(chi, f, cap):
    """exp(L_chi) f = sum_m L_chi^m f / m!, truncated at total degree cap.

    chi must be homogeneous of degree >= 3, so each bracket application
    raises the degree by at least one and the sum below the cap is finite.
    """
    field = _check_pair(chi, f)
    n = f.num_dof
    if cap is None or cap < 0:
        raise ValueError("lie_exp requires a nonnegative degree cap")
    if chi.is_zero:
        return Polynomial._raw(n, dict(f._terms), field)
    if chi.degree_min < 3:
        raise TruncationOrderError(
            "generator has terms of degree < 3; the capped Lie series "
            "would not terminate")
    if not chi.is_homogeneous():
        raise GradingError("lie_exp requires a homogeneous generator")
    raw = _capped(f._terms, n, cap)
    # L_chi g = {chi, g} = {g, -chi}
    minus_chi = _derivs({key: -c for key, c in chi._terms.items()}, n)
    for d in f.degrees():
        part = f.homogeneous_part(d)._terms
        for _, g in _lie_series(part, minus_chi, n, d, chi.degree_max - 2,
                                cap):
            for key, c in g.items():
                raw[key] = raw.get(key, 0.0) + c
    return Polynomial._raw(n, _pruned(raw, n), field)


def theta_weight(j, k):
    """Componentwise weight sqrt(j^j k^k / (j+k)^(j+k)) with 0^0 = 1.

    Equals max over angles of |cos^j sin^k| per pair, so the weighted
    coefficient sum majorizes the sup of the monomial on a polydisc.
    """
    j, k = tuple(j), tuple(k)
    if len(j) != len(k):
        raise DimensionMismatchError("exponent tuples differ in length")
    w = 1.0
    for a, b in zip(j, k):
        if a < 0 or b < 0:
            raise ValueError("exponents must be nonnegative")
        if a == 0 or b == 0:
            continue  # pure power: weight exactly 1
        w *= math.exp(0.5 * (a * math.log(a) + b * math.log(b)
                             - (a + b) * math.log(a + b)))
    return w


def _check_radii(radii, num_dof):
    """The radii as a tuple of floats; DimensionMismatchError unless there
    are num_dof of them, ValueError unless each lies in (0, inf)."""
    radii = tuple(float(R) for R in radii)
    if len(radii) != num_dof:
        raise DimensionMismatchError(
            f"expected {num_dof} radii, got {len(radii)}")
    if not all(0 < R < math.inf for R in radii):
        raise ValueError("radii must be positive and finite")
    return radii


def polydisc_norm(f, radii):
    """Weighted coefficient norm sum |c| R^(j+k) Theta(j, k).

    f must be homogeneous (a single graded component); the norm majorizes
    sup |f| over the polydisc of radii rho*R by rho^deg times this value.
    """
    radii = _check_radii(radii, f.num_dof)
    if not f.is_homogeneous():
        raise GradingError("polydisc_norm requires a homogeneous polynomial")
    total = 0.0
    for j, k, c in f.terms():
        w = abs(c) * theta_weight(j, k)
        for l, R in enumerate(radii):
            w *= R ** (j[l] + k[l])
        total += w
    return total


# -- chart changes ---------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _chart_matrix(n, sign):
    # rows: the old pair of each mode in the new one.  sign -1 complexifies,
    # x_l = (Z_l - i W_l)/sqrt2, y_l = (W_l - i Z_l)/sqrt2 ({Z_l, W_l} = 1);
    # sign +1 realifies, Z_l = (x_l + i y_l)/sqrt2, W_l = (y_l + i x_l)/sqrt2
    M = [[0j] * (2 * n) for _ in range(2 * n)]
    for l in range(n):
        M[l][l] = 1 / _SQRT2
        M[l][n + l] = sign * 1j / _SQRT2
        M[n + l][l] = sign * 1j / _SQRT2
        M[n + l][n + l] = 1 / _SQRT2
    return M


def linear_substitute(f, matrix):
    """Compose f with a linear change of variables: old_i = sum_t M[i][t] new_t.

    Returns f(M v) as a polynomial in the new variables, complex when M
    or f is.  Degree is preserved; rows of M must have length 2n.
    """
    n = f.num_dof
    width = 2 * n
    rows = [list(row) for row in matrix]
    if len(rows) != width or any(len(r) != width for r in rows):
        raise DimensionMismatchError(
            f"substitution matrix must be {width}x{width}")
    has_complex = any(isinstance(v, complex) for r in rows for v in r)
    field = "complex" if (has_complex or f.field == "complex") else "real"

    shifts = _shifts(n)
    unit_keys = [1 << s for s in shifts]
    linear = []
    for i in range(width):
        row = {}
        for t, v in enumerate(rows[i]):
            if v != 0:
                row[unit_keys[t]] = v
        linear.append(row)

    # cache powers of each substituted variable up to its largest exponent
    powers = [[{0: 1.0}] for _ in range(width)]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_raw_mul(cache[-1], linear[i]))
        return cache[e]

    out = {}
    for key, c in f._terms.items():
        acc = {0: c}
        for i in range(width):
            e = (key >> shifts[i]) & _EXP_MASK
            if e:
                acc = _raw_mul(acc, power(i, e))
        for k2, c2 in acc.items():
            out[k2] = out.get(k2, 0.0) + c2
    return Polynomial._raw(n, _pruned(out, n), field)


def complexify(f):
    """Express f in the canonical complex chart.

    Substitutes x_l = (Z_l - i W_l)/sqrt2, y_l = (W_l - i Z_l)/sqrt2, with
    Z_l = (x_l + i y_l)/sqrt2 and W_l = i conj(Z_l) on real points.  The
    substitution is canonical ({Z_l, W_l} = 1), so poisson_bracket applies
    unchanged in either chart.  Slot l holds the Z_l exponent, slot n+l the
    W_l exponent.
    """
    return linear_substitute(f, _chart_matrix(f.num_dof, -1))


def realify(f, tol=1e-9):
    """Map a complex-chart polynomial back to real (x, y) variables.

    Raises RealityViolationError when the imaginary residual exceeds tol
    relative to the largest coefficient (the input was not conjugation
    symmetric); otherwise imaginary parts are dropped.
    """
    if f.field != "complex":
        raise ValueError("realify expects a complex-chart polynomial")
    g = linear_substitute(f, _chart_matrix(f.num_dof, +1))
    if g.is_zero:
        return Polynomial.zero(f.num_dof, "real")
    top = g.max_abs_coeff()
    worst = max(abs(c.imag) for c in g._terms.values())
    if worst > tol * top:
        raise RealityViolationError(
            f"imaginary residual {worst / top:.3e} exceeds tolerance {tol:.3e}")
    raw = {key: c.real for key, c in g._terms.items()}
    return Polynomial._raw(f.num_dof, _pruned(raw, f.num_dof), "real")


def oscillator(omega):
    """H0 = sum_l omega_l (x_l^2 + y_l^2)/2 as a real polynomial.

    Each mode puts x_l^2 before y_l^2: term order sets the order in which
    later sums accumulate, so every caller gets the same bits.
    """
    n = len(omega)
    zero = (0,) * n
    terms = {}
    for l, w in enumerate(omega):
        square = tuple(2 if t == l else 0 for t in range(n))
        terms[(square, zero)] = 0.5 * w
        terms[(zero, square)] = 0.5 * w
    return Polynomial(n, terms)


# -- evaluation ------------------------------------------------------------

def evaluate(f, point):
    """Value of f at a point (x_1..x_n, y_1..y_n)."""
    n = f.num_dof
    point = tuple(point)
    if len(point) != 2 * n:
        raise DimensionMismatchError(
            f"expected a point of length {2 * n}, got {len(point)}")
    shifts = _shifts(n)
    total = 0.0
    for key, c in f._terms.items():
        v = c
        for i, s in enumerate(shifts):
            e = (key >> s) & _EXP_MASK
            if e:
                v = v * point[i] ** e
        total += v
    return total


def evaluate_batch(f, points):
    """Vectorized evaluate over an (m, 2n) array of points."""
    import numpy as np

    pts = np.asarray(points)
    n = f.num_dof
    if pts.ndim != 2 or pts.shape[1] != 2 * n:
        raise DimensionMismatchError(f"points must have shape (m, {2 * n})")
    shifts = _shifts(n)
    out = np.zeros(pts.shape[0],
                   dtype=complex if f.field == "complex" else float)
    for key, c in f._terms.items():
        v = np.full(pts.shape[0], c)
        for i, s in enumerate(shifts):
            e = (key >> s) & _EXP_MASK
            if e:
                v = v * pts[:, i] ** e
        out += v
    return out


def differentiate(f, var_index):
    """Partial derivative by variable index (0..n-1 are x, n..2n-1 are y)."""
    n = f.num_dof
    if not 0 <= var_index < 2 * n:
        raise DimensionMismatchError(
            f"variable index {var_index} outside [0, {2 * n})")
    shift = _shifts(n)[var_index]
    raw = dict(_deriv_items(f._terms, shift))
    return Polynomial._raw(n, _pruned(raw, n), f.field)


# -- polydisc geometry -------------------------------------------------------

@dataclass(frozen=True)
class PolydiscSpec:
    """A polydisc x_l^2 + y_l^2 <= (rho R_l)^2 per degree of freedom."""

    radii: tuple
    rho: float

    def __post_init__(self):
        radii = tuple(self.radii)
        if not radii:
            raise ValueError("radii must be nonempty")
        object.__setattr__(self, "radii", _check_radii(radii, len(radii)))
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")

    @property
    def num_dof(self):
        return len(self.radii)


def sample_polydisc(spec, size, rng):
    """Uniform sample of `size` points inside the polydisc (area measure
    per conjugate plane).  Returns an (size, 2n) array."""
    import numpy as np

    n = spec.num_dof
    out = np.empty((size, 2 * n))
    for l, R in enumerate(spec.radii):
        r = spec.rho * R * np.sqrt(rng.uniform(size=size))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
        out[:, l] = r * np.cos(phi)
        out[:, n + l] = r * np.sin(phi)
    return out


# -- graded series and text format -------------------------------------------

def _term_lines(poly):
    lines = []
    want_im = poly.field == "complex"
    for j, k, c in poly.terms():
        vals = (c.real, c.imag) if want_im else (c,)
        lines.append(" ".join([str(sum(j) + sum(k))] + [str(e) for e in j]
                              + [str(e) for e in k]
                              + [_records.number(v) for v in vals]))
    return lines


def _parse_term_line(reader, tokens, num_dof, field):
    want = 1 + 2 * num_dof + (2 if field == "complex" else 1)
    if len(tokens) != want:
        raise reader.error(
            f"expected {want} fields on a term line, got {len(tokens)}")
    try:
        degree = int(tokens[0])
        exps = [int(t) for t in tokens[1:1 + 2 * num_dof]]
        vals = [float(t) for t in tokens[1 + 2 * num_dof:]]
    except ValueError as exc:
        raise reader.error(f"bad numeric field: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise reader.error("non-finite coefficient")
    if not 0 <= min(exps) <= max(exps) <= _MAX_EXP:
        raise reader.error(f"exponent outside [0, {_MAX_EXP}]")
    if sum(exps) != degree:
        raise reader.error(
            f"degree column {degree} disagrees with exponent sum {sum(exps)}")
    j = tuple(exps[:num_dof])
    k = tuple(exps[num_dof:])
    coeff = complex(vals[0], vals[1]) if field == "complex" else vals[0]
    return degree, j, k, coeff


class GradedSeries:
    """A polynomial split into homogeneous components, indexed by degree."""

    __slots__ = ("num_dof", "field", "d_max", "_parts")

    def __init__(self, num_dof, parts, d_max, field="real"):
        clean = {}
        for d, p in parts.items():
            if p.is_zero:
                continue
            if p.num_dof != num_dof:
                raise DimensionMismatchError(
                    "component num_dof disagrees with series")
            if not p.is_homogeneous() or p.degree_max != d:
                raise GradingError(
                    f"component at degree {d} is not homogeneous of degree {d}")
            if d > d_max:
                raise GradingError(
                    f"component degree {d} exceeds d_max={d_max}")
            if p.field != field:
                raise ValueError("component field disagrees with series")
            clean[d] = p
        object.__setattr__(self, "num_dof", num_dof)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "d_max", int(d_max))
        object.__setattr__(self, "_parts", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSeries is immutable")

    @classmethod
    def from_polynomial(cls, poly, d_max=None):
        if d_max is None:
            d_max = poly.degree_max if poly.degree_max is not None else 0
        parts = {d: poly.homogeneous_part(d) for d in poly.degrees()}
        return cls(poly.num_dof, parts, d_max, field=poly.field)

    def component(self, degree):
        part = self._parts.get(degree)
        if part is None:
            return Polynomial.zero(self.num_dof, self.field)
        return part

    def degrees(self):
        return tuple(sorted(self._parts))

    def __iter__(self):
        for d in self.degrees():
            yield d, self._parts[d]

    def __eq__(self, other):
        return (isinstance(other, GradedSeries)
                and self.num_dof == other.num_dof
                and self.field == other.field
                and self.d_max == other.d_max
                and self._parts == other._parts)

    def __repr__(self):
        return (f"GradedSeries(num_dof={self.num_dof}, d_max={self.d_max}, "
                f"degrees={self.degrees()})")

    def truncate(self, d_max):
        parts = {d: p for d, p in self._parts.items() if d <= d_max}
        return GradedSeries(self.num_dof, parts, d_max, field=self.field)

    def to_polynomial(self):
        total = Polynomial.zero(self.num_dof, self.field)
        for _, p in self:
            total = add(total, p)
        return total

    def evaluate(self, point):
        return sum(evaluate(p, point) for _, p in self)

    def to_text(self):
        lines = [line for _, p in self for line in _term_lines(p)]
        return _records.record(
            "HAM", {"n": self.num_dof, "dmax": self.d_max,
                    "field": self.field}, lines, end=False)

    @classmethod
    def from_text(cls, text, path=None):
        reader = _records.RecordReader(
            text, "HAM", {"n": int, "dmax": int, "field": str}, path=path,
            end=False)
        num_dof = reader.header["n"]
        d_max = reader.header["dmax"]
        field = reader.header["field"]
        if field not in ("real", "complex"):
            raise reader.error(f"unknown field {field!r}")
        if num_dof < 1 or d_max < 0:
            raise reader.error("n must be >= 1 and dmax >= 0")
        terms = {}
        for tokens in reader:
            degree, j, k, coeff = _parse_term_line(
                reader, tokens, num_dof, field)
            if degree > d_max:
                raise reader.error(
                    f"term degree {degree} exceeds dmax={d_max}")
            if (j, k) in terms:
                raise reader.error("duplicate exponent vector")
            terms[(j, k)] = coeff
        poly = Polynomial(num_dof, terms, field=field)
        return cls.from_polynomial(poly, d_max=d_max)
