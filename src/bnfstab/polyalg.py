"""Sparse graded polynomial algebra on canonically conjugate variables.

A polynomial in n degrees of freedom lives on the 2n variables
(x_1..x_n, y_1..y_n) with {x_l, y_l} = 1.

Storage.  A Polynomial keeps its terms in a dict keyed by a packed
exponent vector (one byte an exponent, x_1 most significant), so that
monomial products are integer additions and increasing key order is
lexicographic in the exponents.  The work of normalization runs on
blocks as arrays instead: a uint8 exponent matrix, one row a monomial, and
a coefficient vector, homogeneous and in key order, the indexed storage
of Giorgilli & Sansottera.  The Poisson bracket (_bracket_terms), the Lie
series (_lie_series) and the chart changes (_chart_change) take and
return such blocks; equal rows are summed by _merge, which adds each
monomial's contributions in row order, as a dict accumulating them in
turn would.  Dicts are built only where a Polynomial is.

Pruning.  Coefficients below PRUNE_REL = 1e-15 relative to the largest
coefficient of the same homogeneous degree are dropped after every
arithmetic operation (_kept), and an overflowed coefficient is a
ValueError there, never pruned.

Polynomials are immutable once constructed; every function here is pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

import numpy as np

from . import _records
from .errors import (
    DimensionMismatchError,
    FormatError,
    GradingError,
    OrderRangeError,
    RealityViolationError,
)

__all__ = [
    "Polynomial",
    "GradedSeries",
    "add",
    "subtract",
    "poisson_bracket",
    "theta_weight",
    "polydisc_norm",
    "complexify",
    "realify",
    "oscillator",
    "linear_substitute",
    "evaluate",
]

PRUNE_REL = 1e-15

# A packed key holds one exponent a byte, big-endian, x_1 first: its
# key.to_bytes(2n, "big") is the exponent vector.  _pack, _unpack, _exps,
# _words and _keys read and write it as bytes; _EXP_BITS is that byte
# width for the code that shifts fields in place.
_EXP_BITS = 8
_EXP_MASK = 0xFF
_MAX_EXP = _EXP_MASK
_WORD = (1 << 64) - 1


@lru_cache(maxsize=None)
def _shifts(num_dof):
    # field t in [0, 2n): t < n is x_{t+1}, t >= n is y_{t-n+1}; x_1 most significant
    width = 2 * num_dof
    return tuple((width - 1 - t) * _EXP_BITS for t in range(width))


def _pack(num_dof, j, k):
    exps = [int(e) for e in tuple(j) + tuple(k)]
    for e in exps:
        if not 0 <= e <= _MAX_EXP:
            raise ValueError(f"exponent {e} outside [0, {_MAX_EXP}]")
    return int.from_bytes(bytes(exps), "big")


def _unpack(num_dof, key):
    exps = tuple(key.to_bytes(2 * num_dof, "big"))
    return exps[:num_dof], exps[num_dof:]


def _sizes(coeffs):
    """abs() of a coefficient array; ValueError on an overflowed coefficient:
    an infinite abs() (a complex one may overflow in abs() alone), else a
    nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(coeffs)
    if not np.isfinite(a).all():
        what = "an infinite" if np.isinf(a).any() else "a nan"
        raise ValueError(f"coefficient overflow: {what} coefficient")
    return a


def _kept(coeffs, degrees=None):
    """The mask of the coefficients that survive pruning: nonzero and at
    least PRUNE_REL of the largest abs() in their degree block.

    degrees is an integer array of the same length, or None for a
    homogeneous block.  ValueError on an overflowed coefficient (_sizes).
    """
    a = _sizes(coeffs)
    if degrees is None:
        return (a > 0.0) & (a >= PRUNE_REL * a.max(initial=0.0))
    floor = np.empty_like(a)
    for d in set(degrees.tolist()):
        block = degrees == d
        floor[block] = PRUNE_REL * a[block].max()
    return (a > 0.0) & (a >= floor)


def _degrees(keys, num_dof):
    """The total degrees of packed keys, as an integer array."""
    return _exps(keys, 2 * num_dof).sum(axis=1)


def _graded(terms, num_dof):
    """(keys, exponent matrix, degrees) of a term dict in graded order:
    by key when every term has one degree, else by degree, then key."""
    keys = sorted(terms)
    exps = _exps(keys, 2 * num_dof)
    degrees = exps.sum(axis=1, dtype=np.intp)
    if len(keys) and degrees.min() != degrees.max():
        order = np.argsort(degrees, kind="stable")
        keys = [keys[i] for i in order.tolist()]
        exps, degrees = exps[order], degrees[order]
    return keys, exps, degrees


def _pruned(raw, num_dof):
    """raw without zeros and coefficients below PRUNE_REL of their degree
    block, in raw's order; ValueError on an overflowed coefficient."""
    if not raw:
        return {}
    keep = _kept(np.array(list(raw.values())), _degrees(list(raw), num_dof))
    return dict(compress(raw.items(), keep.tolist()))


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
        keys, exps, _ = _graded(self._terms, n)
        return [(tuple(e[:n]), tuple(e[n:]), self._terms[key])
                for key, e in zip(keys, exps.tolist())]

    def coefficient(self, j, k):
        return self._terms.get(_pack(self.num_dof, j, k), 0.0)

    def degrees(self):
        return tuple(sorted(set(_degrees(list(self._terms),
                                         self.num_dof).tolist())))

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
        mask = _degrees(list(self._terms), n) == degree
        return Polynomial._raw(n, dict(compress(self._terms.items(),
                                                mask.tolist())), self.field)

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
            field = _check_pair(self, other)
            n = self.num_dof
            _check_product_exponents(self, other)
            raw = _raw_mul(self._terms, other._terms)
            return Polynomial._raw(n, _pruned(raw, n), field)
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


def _check_product_exponents(f, g):
    """OrderRangeError when an exponent of f * g would pass _MAX_EXP.

    A field of the product reaches the sum of the largest exponents of f
    and g in that field, on the product of the two terms holding them.
    """
    if not (f._terms and g._terms):
        return
    width = 2 * f.num_dof
    top = [_exps(list(p._terms), width).max(axis=0).astype(int)
           for p in (f, g)]
    if (top[0] + top[1]).max() > _MAX_EXP:
        raise OrderRangeError(
            f"an exponent of the product exceeds {_MAX_EXP}, the largest a "
            "packed key holds")


def _raw_mul(a, b):
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            out[key] = get(key, 0.0) + ca * cb
    return out


# -- the bracket kernel ------------------------------------------------------
#
# Every bracket in the package is a sum of products of homogeneous blocks.
# An exponent vector of the output degree D is encoded in mixed radix
# B = D + 1 over its first 2n - 1 fields (the last one follows from D).  No
# field of a product exceeds D, so no digit carries and the index of a
# product of monomials is the sum of their indices: each of the 2n
# derivative pair products is an outer sum of indices and an outer product
# of coefficients, added into a bin array.

_PAIR_CHUNK = 1 << 14   # pairs per outer product: bounds its temporaries
_MAX_BINS = 1 << 20     # bins per output block; past it the leading fields split


def _exps(keys, width):
    """The exponents of packed keys, as a uint8 matrix with one row a key."""
    words = -(-width // 8)
    cols = np.empty((len(keys), words), ">u8")
    for w in range(words):
        shift = 64 * (words - 1 - w)
        # up to 4 DOF a key is one word, taken whole without a Python loop
        cols[:, w] = keys if words == 1 else [key >> shift & _WORD
                                              for key in keys]
    return cols.view(np.uint8)[:, 8 * words - width:]


def _words(exps):
    """The packed keys of the rows of a uint8 exponent matrix, as a native
    uint64 matrix of their 64-bit words, most significant first."""
    rows, width = exps.shape
    pad = -width % 8
    buf = np.zeros((rows, width + pad), np.uint8)
    buf[:, pad:] = exps
    return buf.view(">u8").astype(np.uint64)


def _keys(exps):
    """The packed keys, as Python ints, of the rows of an exponent matrix."""
    cols = _words(exps)
    keys = cols[:, 0].tolist()
    for w in range(1, cols.shape[1]):
        keys = [key << 64 | low for key, low in zip(keys, cols[:, w].tolist())]
    return keys


def _arrays(f):
    """The block of a Polynomial: its uint8 exponent matrix and coefficient
    vector, in the order of its terms."""
    keys = list(f._terms)
    return (_exps(keys, 2 * f.num_dof),
            np.array(list(f._terms.values()),
                     complex if f.field == "complex" else float))


def _polynomial(num_dof, exps, coeffs, field):
    """The Polynomial of a pruned block: the one place a block becomes a
    packed-key dict of Python scalars."""
    return Polynomial._raw(num_dof, dict(zip(_keys(exps), coeffs.tolist())),
                           field)


def _merge(exps, coeffs):
    """A block with its equal exponent rows summed, in key order.

    A stable sort groups equal rows; np.bincount adds the coefficients of
    each group in row order, from 0.0, as a dict accumulating the rows in
    turn would.
    """
    if not len(coeffs):
        return exps, coeffs
    words = _words(exps)
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0], kind="stable")
    else:
        order = np.lexsort(words.T[::-1])
    ordered = words[order]
    first = np.empty(len(order), bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    group = np.empty(len(order), np.intp)
    group[order] = np.cumsum(first) - 1
    size = np.count_nonzero(first)
    if np.iscomplexobj(coeffs):
        sums = np.empty(size, complex)
        sums.real = np.bincount(group, coeffs.real, size)
        sums.imag = np.bincount(group, coeffs.imag, size)
    else:
        sums = np.bincount(group, coeffs, size)
    return exps[order[first]], sums


def _summed(blocks):
    """The sum of a list of blocks, each monomial adding its terms in the
    order of the blocks (_merge); one block is returned as it is."""
    if len(blocks) == 1:
        return blocks[0]
    return _merge(np.concatenate([e for e, _ in blocks]),
                  np.concatenate([c for _, c in blocks]))


def _empty(width, complex_):
    """A block without terms."""
    return np.empty((0, width), np.uint8), np.empty(0, complex if complex_
                                                    else float)


def _deriv_parts(exps, coeffs, lead, tail_w, num_dof, y_sign):
    """(head, tail, coefficient parts) of d/dv for each variable v in slot
    order, the y-derivatives times y_sign.  The head holds the exponents of
    the first lead fields, the tail the index of the others."""
    parts = [coeffs.real, coeffs.imag] if np.iscomplexobj(coeffs) else [coeffs]
    tail = exps @ tail_w
    out = []
    for t in range(2 * num_dof):
        e = exps[:, t]
        rows = np.flatnonzero(e)
        head = exps[rows, :lead]
        if t < lead:
            head[:, t] -= 1
        scale = e[rows] if t < num_dof else y_sign * e[rows]
        out.append((head, tail[rows] - tail_w[t],
                    [c[rows] * scale for c in parts]))
    return out


def _groups(part):
    """part split by head, as {head tuple: (tail, coefficient parts)}."""
    head, tail, coeffs = part
    if not len(tail):
        return {}
    if not head.shape[1]:
        return {(): (tail, coeffs)}
    rows = {}
    for row, h in enumerate(map(tuple, head.tolist())):
        rows.setdefault(h, []).append(row)
    return {h: (tail[r], [c[r] for c in coeffs]) for h, r in rows.items()}


def _add_products(bins, a, b, touched):
    """Add the outer product of a and b, (tail, coefficient parts) each, into
    the bin arrays, _PAIR_CHUNK pairs at a time; append the bin indices to
    the list touched, unless it is None."""
    a_tail, a_c = a
    b_tail, b_c = b
    rows = max(1, _PAIR_CHUNK // len(b_tail))
    outer = np.multiply.outer
    for lo in range(0, len(a_tail), rows):
        hi = lo + rows
        idx = np.add.outer(a_tail[lo:hi], b_tail).ravel()
        if touched is not None:
            touched.append(idx)
        if len(bins) == 1:
            np.add.at(bins[0], idx, outer(a_c[0][lo:hi], b_c[0]).ravel())
            continue
        (ar, ai), (br, bi) = [c[lo:hi] for c in a_c], b_c
        re = outer(ar, br)
        re -= outer(ai, bi)
        np.add.at(bins[0], idx, re.ravel())
        im = outer(ar, bi)
        im += outer(ai, br)
        np.add.at(bins[1], idx, im.ravel())


def _nonzero(parts):
    """The mask of the entries where any of the coefficient parts is not 0."""
    mask = parts[0] != 0
    for part in parts[1:]:
        mask |= part != 0
    return mask


def _bracket_terms(f, g, num_dof):
    """Raw {f, g} of homogeneous blocks f and g, (exponent matrix,
    coefficient vector) each, as a block in key order.

    When the B^(2n-1) bins of the output degree exceed _MAX_BINS, the
    output is split by the exponents of its leading fields, and each part
    fills the bin array in turn.  A part with fewer pairs than bins/16
    reads and clears only the bins its pairs touch.  Overflowed
    coefficients come out as inf or nan, for _kept to refuse; an
    exponent above _MAX_EXP is an OrderRangeError.
    """
    width = 2 * num_dof
    f_coeffs, g_coeffs = f[1], g[1]
    complex_ = np.iscomplexobj(f_coeffs) or np.iscomplexobj(g_coeffs)
    if not (len(f_coeffs) and len(g_coeffs)):
        return _empty(width, complex_)
    f_exps, g_exps = f[0].astype(np.int64), g[0].astype(np.int64)
    degree = int(f_exps[0].sum() + g_exps[0].sum()) - 2
    if degree < 0:
        return _empty(width, complex_)
    base = degree + 1
    lead = 0
    while base ** (width - 1 - lead) > _MAX_BINS:
        lead += 1
    # the place value of each tail field; the last field is not encoded
    place = [base ** (width - 2 - t) if lead <= t < width - 1 else 0
             for t in range(width)]
    tail_w = np.array(place, np.int64)
    if complex_:
        f_coeffs, g_coeffs = f_coeffs.astype(complex), g_coeffs.astype(complex)

    with np.errstate(over="ignore", invalid="ignore"):
        # the bracket's minus sign rides on the y-derivatives of f
        f_parts = _deriv_parts(f_exps, f_coeffs, lead, tail_w, num_dof, -1)
        g_parts = _deriv_parts(g_exps, g_coeffs, lead, tail_w, num_dof, 1)
        # output head -> the (a, b) products that land in its bins
        blocks = {}
        for t in range(width):
            a = _groups(f_parts[t])
            b = _groups(g_parts[(t + num_dof) % width])
            for ha, a_part in a.items():
                for hb, b_part in b.items():
                    head = tuple(p + q for p, q in zip(ha, hb))
                    blocks.setdefault(head, []).append((a_part, b_part))

        out_exps, out_vals = [], []
        num_bins = base ** (width - 1 - lead)
        bins = [np.zeros(num_bins) for _ in f_parts[0][2]]
        for head in sorted(blocks):
            pairs = sum(len(a[0]) * len(b[0]) for a, b in blocks[head])
            touched = [] if 16 * pairs < num_bins else None
            for a, b in blocks[head]:
                _add_products(bins, a, b, touched)
            if touched is None:
                tails = np.flatnonzero(_nonzero(bins))
            else:
                tails = np.sort(np.concatenate(touched))
                tails = tails[np.diff(tails, prepend=-1) != 0]
                tails = tails[_nonzero([b[tails] for b in bins])]
            if len(bins) == 1:
                vals = bins[0][tails]
            else:
                vals = np.empty(len(tails), complex)
                vals.real, vals.imag = bins[0][tails], bins[1][tails]
            for b in bins:
                b[tails] = 0.0
            exps = np.empty((len(tails), width), np.int64)
            exps[:, :lead] = head
            for t in range(lead, width - 1):
                exps[:, t] = tails // place[t] % base
            exps[:, -1] = degree - exps[:, :-1].sum(axis=1)
            if exps.max(initial=0) > _MAX_EXP:
                raise OrderRangeError(
                    f"an exponent of the bracket exceeds {_MAX_EXP}, the "
                    "largest a packed key holds")
            out_exps.append(exps.astype(np.uint8))
            out_vals.append(vals)
    if not out_exps:
        return _empty(width, complex_)
    return np.concatenate(out_exps), np.concatenate(out_vals)


def poisson_bracket(f, g, cap=None):
    """{f, g} = sum_l (df/dx_l dg/dy_l - df/dy_l dg/dx_l), capped by degree.

    Each pair of homogeneous parts, of degrees p and q, adds a part of
    degree p + q - 2, skipped when that exceeds the cap.
    """
    field = _check_pair(f, g)
    n = f.num_dof
    g_parts = [(q, _arrays(g.homogeneous_part(q))) for q in g.degrees()]
    parts = []
    for p in f.degrees():
        f_part = _arrays(f.homogeneous_part(p))
        for q, g_part in g_parts:
            if cap is None or p + q - 2 <= cap:
                parts.append(_bracket_terms(f_part, g_part, n))
    if not parts:
        return Polynomial.zero(n, field)
    exps, coeffs = _summed(parts)
    keep = _kept(coeffs, exps.sum(axis=1, dtype=np.intp))
    return _polynomial(n, exps[keep], coeffs[keep], field)


def _lie_series(g, chi, num_dof, degree, step, cap, p=1):
    """The terms g_p = {g_(p-1), chi}/p, p = p, p+1, ..., of a Lie series.

    g is the term g_(p-1), a block homogeneous of the given degree; chi is
    a block too, and step = deg(chi) - 2 is the degree each bracket adds.
    Yields (degree, block), each block pruned and in key order, and stops
    at a zero term or once the degree passes cap.
    """
    while True:
        degree += step
        if degree > cap:
            return
        exps, coeffs = _bracket_terms(g, chi, num_dof)
        keep = _kept(coeffs)
        if not keep.any():
            return
        coeffs = coeffs[keep]
        if p > 1:
            coeffs = coeffs / p
        g = exps[keep], coeffs
        yield degree, g
        p += 1


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


def _xlogx(e):
    """e log e of an integer array, with 0 log 0 = 0."""
    return e * np.log(np.maximum(e, 1))


def polydisc_norm(f, radii):
    """Weighted coefficient norm sum |c| R^(j+k) Theta(j, k).

    f must be homogeneous (a single graded component); the norm majorizes
    sup |f| over the polydisc of radii rho*R by rho^deg times this value.
    Each term is |c| Theta(j, k) R_1^(j_1+k_1) ... R_n^(j_n+k_n), its
    factors taken in that order, and the terms are summed one after
    another in the order of terms(), as a term-by-term loop would.  A
    norm that overflows the floats, or that underflows to 0 although f is
    not zero, is a ValueError naming the radii.
    """
    radii = _check_radii(radii, f.num_dof)
    if not f.is_homogeneous():
        raise GradingError("polydisc_norm requires a homogeneous polynomial")
    if f.is_zero:
        return 0.0
    n = f.num_dof
    # one degree: the order of terms() is the order of the keys
    keys = sorted(f._terms)
    exps = _exps(keys, 2 * n).astype(np.int64)
    j, k = exps[:, :n], exps[:, n:]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # log Theta per pair; a pure power (j or k zero) gives exp(0) = 1
        theta = np.exp(0.5 * (_xlogx(j) + _xlogx(k) - _xlogx(j + k)))
        w = np.abs(np.array([f._terms[key] for key in keys]))
        w *= theta.prod(axis=1)
        for l, R in enumerate(radii):
            w *= np.power(R, j[:, l] + k[:, l], dtype=float)
        total = float(np.cumsum(w)[-1])
    if not math.isfinite(total):
        raise ValueError(f"the polydisc norm at radii {radii} overflows")
    if total == 0.0:
        raise ValueError(f"the polydisc norm at radii {radii} underflows to 0")
    return total


# -- chart changes ---------------------------------------------------------

def _check_degree(degree):
    """OrderRangeError unless a change of variables of a polynomial of this
    degree fits the keys."""
    if degree > _MAX_EXP:
        raise OrderRangeError(f"degree {degree} exceeds {_MAX_EXP}, "
                              "the largest exponent a packed key holds")


@lru_cache(maxsize=None)    # d <= _MAX_EXP and two signs: at most 512 tables
def _mode_table(d, sign):
    """x^j y^(d-j) of one mode in its new pair (u, v), for j = 0..d, as a
    read-only (d+1, d+1) complex array whose row j holds the coefficient of
    u^m v^(d-m) at column m.

    x = a u + b v and y = b u + a v with a = 1/sqrt2, b = sign i/sqrt2, so
    that coefficient is a^d (sign i)^(j+m) times the exact integer sum
    sum_p (-1)^p C(j, p) C(d-j, m-p).
    """
    scale = 2.0 ** (-0.5 * d)
    table = np.zeros((d + 1, d + 1), complex)
    for j in range(d + 1):
        k = d - j
        for m in range(d + 1):
            K = sum((-1) ** p * math.comb(j, p) * math.comb(k, m - p)
                    for p in range(max(0, m - k), min(j, m) + 1))
            table[j, m] = (1, 1j, -1, -1j)[sign * (j + m) % 4] * K * scale
    table.setflags(write=False)
    return table


def _chart_change(exps, coeffs, sign):
    """A block with each mode changed by _mode_table, one pass a mode: the
    merged complex block in key order, not pruned.

    A pass expands every term (j, k) of its mode against the table of
    degree j + k, one row (term, m) for each nonzero coefficient, and
    merges the rows (_merge), so every output monomial sums its
    contributions in (term, m) order.  A term of degree above 255, which
    the keys cannot hold, is an OrderRangeError.
    """
    coeffs = coeffs.astype(complex)
    if not len(coeffs):
        return exps, coeffs
    _check_degree(int(exps.sum(axis=1, dtype=np.intp).max()))
    n = exps.shape[1] // 2
    for l in range(n):
        j = exps[:, l].astype(np.intp)
        d = j + exps[:, n + l]
        # the tables of the mode degrees present, end to end
        degrees = sorted(set(d.tolist()))
        tables = [_mode_table(e, sign).ravel() for e in degrees]
        start = np.zeros(degrees[-1] + 1, np.intp)
        start[degrees] = np.cumsum([0] + [len(t) for t in tables[:-1]])
        table = np.concatenate(tables)
        count = d + 1
        term = np.repeat(np.arange(len(d)), count)
        m = np.arange(len(term)) - np.repeat(np.cumsum(count) - count, count)
        t = table[(start[d] + j * count)[term] + m]
        hit = t != 0
        term, m, t = term[hit], m[hit], t[hit]
        new = exps[term]
        new[:, l] = m
        new[:, n + l] = d[term] - m
        # an overflow comes out as inf or nan, for _sizes to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            exps, coeffs = _merge(new, coeffs[term] * t)
    return exps, coeffs


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
    _check_degree(f.degree_max or 0)
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
    W_l exponent.  The substitution is applied one mode at a time; a term
    of degree above 255, which the keys cannot hold, is an OrderRangeError.
    """
    exps, coeffs = _chart_change(*_arrays(f), -1)
    keep = _kept(coeffs, exps.sum(axis=1, dtype=np.intp))
    return _polynomial(f.num_dof, exps[keep], coeffs[keep], "complex")


def realify(f, tol=1e-9):
    """Map a complex-chart polynomial back to real (x, y) variables.

    Substitutes Z_l = (x_l + i y_l)/sqrt2, W_l = (y_l + i x_l)/sqrt2 one
    mode at a time, as complexify does.  Raises RealityViolationError when
    the largest imaginary part exceeds tol relative to the largest
    coefficient (the input was not conjugation symmetric); otherwise the
    real parts are pruned, once, and the imaginary parts dropped.
    """
    if f.field != "complex":
        raise ValueError("realify expects a complex-chart polynomial")
    exps, coeffs = _chart_change(*_arrays(f), +1)
    top = _sizes(coeffs).max(initial=0.0)
    worst = np.abs(coeffs.imag).max(initial=0.0)
    if worst > tol * top:
        raise RealityViolationError(
            f"imaginary residual {worst / top:.3e} exceeds tolerance {tol:.3e}")
    coeffs = coeffs.real
    keep = _kept(coeffs, exps.sum(axis=1, dtype=np.intp))
    return _polynomial(f.num_dof, exps[keep], coeffs[keep], "real")


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


# -- graded series and text format -------------------------------------------

def _term_lines(poly):
    """The term lines `degree j k re [im]` of a polynomial, in the order of
    terms(), each written by one template of _records.NUMBER fields."""
    keys, exps, degrees = _graded(poly._terms, poly.num_dof)
    vals = list(map(poly._terms.__getitem__, keys))
    if poly.field == "complex":
        vals = [[c.real for c in vals], [c.imag for c in vals]]
    else:
        vals = [vals]
    template = " ".join(["%d"] * (1 + exps.shape[1])
                        + [_records.NUMBER] * len(vals))
    return [template % row
            for row in zip(degrees.tolist(), *exps.T.tolist(), *vals)]


def _int_column(values, lo, hi):
    """Python ints as an int64 array, each clipped to [lo, hi]."""
    if values and (min(values) < lo or max(values) > hi):
        values = [min(max(v, lo), hi) for v in values]
    return np.array(values, np.int64)


def _columns(rows, ints, fields):
    """The columns of token rows of the given number of fields: the first
    ints of them converted by int(), the others by float()."""
    cols = list(zip(*rows)) or [()] * fields
    return ([list(map(int, c)) for c in cols[:ints]],
            [list(map(float, c)) for c in cols[ints:]])


def _first_bad_row(rows, ints, fields):
    """(index, ValueError) of the first row that _columns refuses."""
    for i, tokens in enumerate(rows):
        try:
            _columns([tokens], ints, fields)
        except ValueError as exc:
            return i, exc


def _read_terms(rows, lines, num_dof, field, path, degrees, degree_error):
    """The term lines of one block of a record, as {degree: {key: coeff}}.

    rows are the token lists of the lines and lines their line numbers.  A
    term line is `degree j_1..j_n k_1..k_n re [im]`, the imaginary part
    only for field="complex".  Tokens convert with int() and float().  The
    lines are checked as arrays: the field count, the conversion, finite
    coefficients, exponents within [0, _MAX_EXP], the degree column against
    the exponent sum, a degree within the inclusive range `degrees`
    (degree_error(d) is the message otherwise), and no repeated exponent
    vector.  The first fault in line order is a FormatError at its line.
    Each degree block is then pruned with one maximum, as _pruned does;
    the terms keep their line order.
    """
    width = 2 * num_dof
    want = 1 + width + (2 if field == "complex" else 1)

    def fault(i, message):
        return FormatError(message, line=lines[i], path=path)

    # rows[:end] have the right field count and convert; late is the fault
    # that ends them, if any
    end = next((i for i, t in enumerate(rows) if len(t) != want), len(rows))
    late = None
    if end < len(rows):
        late = fault(end, f"expected {want} fields on a term line, "
                          f"got {len(rows[end])}")
    try:
        ints, vals = _columns(rows[:end], 1 + width, want)
    except ValueError:
        end, exc = _first_bad_row(rows[:end], 1 + width, want)
        late = fault(end, f"bad numeric field: {exc}")
        ints, vals = _columns(rows[:end], 1 + width, want)

    degree = _int_column(ints[0], -1, width * _MAX_EXP + 1)
    exps = np.stack([_int_column(c, -1, _MAX_EXP + 1) for c in ints[1:]],
                    axis=1)
    # -0.0 reads as 0.0, as a sum onto a 0.0 start would have it
    coeffs = np.array(vals, float).T + 0.0
    checks = (
        (~np.isfinite(coeffs).all(axis=1), lambda i: "non-finite coefficient"),
        (((exps < 0) | (exps > _MAX_EXP)).any(axis=1),
         lambda i: f"exponent outside [0, {_MAX_EXP}]"),
        (exps.sum(axis=1) != degree,
         lambda i: f"degree column {ints[0][i]} disagrees with exponent sum "
                   f"{sum(c[i] for c in ints[1:])}"),
        ((degree < degrees[0]) | (degree > degrees[1]),
         lambda i: degree_error(ints[0][i])),
    )
    bad = np.stack([mask for mask, _ in checks])
    rows_bad = bad.any(axis=0)
    if rows_bad.any():
        end = int(rows_bad.argmax())
        message = checks[int(bad[:, end].argmax())][1]
        late = fault(end, message(end))
    keys = _keys(exps[:end].astype(np.uint8))
    if len(set(keys)) < end:
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                raise fault(i, "duplicate exponent vector")
            seen.add(key)
    if late is not None:
        raise late

    if not end:
        return {}
    if field == "complex":
        re, im = coeffs.T
        coeffs = np.empty(end, complex)
        coeffs.real, coeffs.imag = re, im
    else:
        coeffs = coeffs[:, 0]
    keep = _kept(coeffs, degree)
    out = {}
    for d in sorted(set(degree[keep].tolist())):
        block = keep & (degree == d)
        out[d] = dict(zip(compress(keys, block.tolist()),
                          coeffs[block].tolist()))
    return out


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
        rows, lines = [], []
        for tokens in reader:
            rows.append(tokens)
            lines.append(reader.lineno)
        blocks = _read_terms(
            rows, lines, num_dof, field, path, (0, d_max),
            lambda degree: f"term degree {degree} exceeds dmax={d_max}")
        parts = {d: Polynomial._raw(num_dof, terms, field)
                 for d, terms in blocks.items()}
        return cls(num_dof, parts, d_max, field=field)
