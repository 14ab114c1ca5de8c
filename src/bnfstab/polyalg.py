"""Sparse graded polynomial algebra on canonically conjugate variables.

A polynomial in n degrees of freedom lives on the 2n variables
(x_1..x_n, y_1..y_n) with {x_l, y_l} = 1.

Storage.  A Polynomial is one block, the indexed storage of Giorgilli &
Sansottera: a read-only uint8 exponent matrix, one row a monomial and one
column a variable (x_1 first, y_n last), and a float coefficient vector:
a Polynomial is real.  The rows are pruned and in graded key order: by
degree, then lexicographically in the exponents (key order).  All the
work runs on such blocks: the product and the Poisson bracket share one
kernel (_products), which sums products into several output segments at
once, the segment the top digit of the bin index; the Lie series
(_lie_series) steps every chain of an order together, one kernel pass a
step and one segment a chain; linear_substitute takes and returns
blocks, and relabels the exponent column of each variable whose linear
form is one term instead of expanding it; and equal rows are summed by
_merge, which adds each monomial's contributions in row order, as a dict
accumulating them in turn would.  A GradedSeries is one Polynomial and
its d_max: its homogeneous components are the runs of one degree of the
block.

The complex chart.  Only chart blocks hold complex coefficients: the
normalization uses the chart for the homological equation alone, which is
diagonal there.  A chart change never leaves a row's mode-degree class
(d_1..d_n), d_l = j_l + k_l, and spreads the row over its whole class, so
it runs on a _Layout of the block: one slot for each monomial of each
class present, in graded key order.  A mode pass is one matrix product
with the mode's table per distinct d_l, over every fiber of that degree,
and sorts nothing.  complexify and realify are block functions on such a
layout; the normalization builds one layout per order and changes its
block into the chart, and the generator and action part back, on it.

Pruning.  Coefficients below PRUNE_REL = 1e-15 relative to the largest
coefficient of the same homogeneous degree are dropped after every
arithmetic operation (_kept), and an overflowed coefficient is a
ValueError there, never pruned.

Polynomials are immutable once constructed; every function here is pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

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
    "polydisc_norm",
    "complexify",
    "realify",
    "oscillator",
    "linear_substitute",
]

PRUNE_REL = 1e-15

# the largest imaginary part realify accepts, relative to the largest
# coefficient of the chart change's output
REALITY_TOL = 1e-9

# the largest exponent a uint8 exponent matrix holds
_MAX_EXP = 255

# the most degrees of freedom whose 2n exponent columns an array holds
_MAX_DOF = np.iinfo(np.intp).max // 2


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


def _runs_kept(a, starts):
    """The mask of the abs() values a that survive pruning, each run of
    rows, from starts[i] to the next start (the last to the end), pruned
    as _kept prunes a homogeneous block: one segmented maximum.  starts is
    strictly increasing from 0, so no run is empty."""
    if not len(a):
        return np.zeros(0, bool)
    top = np.maximum.reduceat(a, starts)
    floor = np.repeat(PRUNE_REL * top, np.diff(starts, append=len(a)))
    return (a > 0.0) & (a >= floor)


def _canonical(exps, coeffs):
    """The storage of a Polynomial from a merged block in key order: the
    rows that survive pruning (_kept), stably sorted by degree."""
    degrees = exps.sum(axis=1, dtype=np.intp)
    keep = _kept(coeffs, degrees)
    order = np.flatnonzero(keep)
    order = order[np.argsort(degrees[order], kind="stable")]
    return np.take(exps, order, axis=0), coeffs[order]


class Polynomial:
    """Immutable sparse polynomial with real coefficients on
    (x_1..x_n, y_1..y_n).

    Parameters
    ----------
    num_dof : int
        Number of conjugate pairs n.
    terms : dict, optional
        ((j_1..j_n), (k_1..k_n)) tuple pairs mapping to coefficients.  j
        are x-exponents, k are y-exponents, each within [0, 255].  The
        coefficients are stored as floats; a complex value with nonzero
        imaginary part is rejected.
    """

    __slots__ = ("num_dof", "_block")

    def __init__(self, num_dof, terms=None):
        if num_dof < 1:
            raise ValueError("num_dof must be >= 1")
        rows, vals = [], []
        for (j, k), c in (terms or {}).items():
            if len(j) != num_dof or len(k) != num_dof:
                raise DimensionMismatchError(
                    f"exponent tuples must have length {num_dof}")
            if isinstance(c, (complex, np.complexfloating)):
                if c.imag != 0.0:
                    raise ValueError(
                        "complex coefficient in a real polynomial")
                c = c.real
            rows.append(tuple(j) + tuple(k))
            vals.append(c)
        exps = np.array(rows, np.int64).reshape(len(rows), 2 * num_dof)
        bad = exps[(exps < 0) | (exps > _MAX_EXP)]
        if len(bad):
            raise ValueError(f"exponent {bad[0]} outside [0, {_MAX_EXP}]")
        coeffs = np.array(vals, float)
        object.__setattr__(self, "num_dof", num_dof)
        object.__setattr__(self, "_block", _read_only(
            _canonical(*_merge(exps.astype(np.uint8), coeffs))))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, num_dof, block):
        # internal: block is (exps, coeffs), its rows in graded key order
        # and its coefficients floats
        obj = object.__new__(cls)
        object.__setattr__(obj, "num_dof", num_dof)
        object.__setattr__(obj, "_block", _read_only(block))
        return obj

    @classmethod
    def zero(cls, num_dof):
        return cls._raw(num_dof, _empty(2 * num_dof))

    @classmethod
    def monomial(cls, num_dof, j, k, coeff=1.0):
        return cls(num_dof, {(tuple(j), tuple(k)): coeff})

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
        return not len(self._block[1])

    @property
    def num_terms(self):
        return len(self._block[1])

    def terms(self):
        """List of (j, k, coeff) in graded key order."""
        n = self.num_dof
        exps, coeffs = self._block
        return [(tuple(e[:n]), tuple(e[n:]), c)
                for e, c in zip(exps.tolist(), coeffs.tolist())]

    def coefficient(self, j, k):
        if len(j) != self.num_dof or len(k) != self.num_dof:
            raise DimensionMismatchError(
                f"exponent tuples must have length {self.num_dof}")
        exps, coeffs = self._block
        row = np.array(tuple(j) + tuple(k))
        hit = np.flatnonzero((exps == row).all(axis=1))
        return coeffs[hit[0]].item() if len(hit) else 0.0

    def _degree_column(self):
        return self._block[0].sum(axis=1, dtype=np.intp)

    def degrees(self):
        return tuple(sorted(set(self._degree_column().tolist())))

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
        column = self._degree_column()
        lo, hi = column.searchsorted([degree, degree + 1])
        exps, coeffs = self._block
        return Polynomial._raw(self.num_dof, (exps[lo:hi], coeffs[lo:hi]))

    def max_abs_coeff(self):
        return float(np.abs(self._block[1]).max(initial=0.0))

    # -- arithmetic --------------------------------------------------------

    def scale(self, factor):
        """The polynomial times a real factor; ValueError on a complex one."""
        if isinstance(factor, (complex, np.complexfloating)):
            raise ValueError(f"complex factor {factor!r} for a real "
                             "polynomial")
        exps, coeffs = self._block
        # an overflow comes out as inf, for _kept to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = coeffs * factor
        return Polynomial._raw(self.num_dof, _canonical(exps, coeffs))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            _check_pair(self, other)
            return Polynomial._raw(self.num_dof,
                                   _canonical(*_product(self, other)))
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        return self.scale(1.0 / factor)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.num_dof == other.num_dof
                and all(map(np.array_equal, self._block, other._block)))

    def __hash__(self):
        return hash((self.num_dof, *(a.tobytes() for a in self._block)))

    def __repr__(self):
        return (f"Polynomial(num_dof={self.num_dof}, "
                f"terms={self.num_terms}, degrees={self.degrees()})")


def _read_only(block):
    """Read-only views of a block's arrays."""
    views = tuple(a.view() for a in block)
    for a in views:
        a.setflags(write=False)
    return views


def _check_pair(f, g):
    if f.num_dof != g.num_dof:
        raise DimensionMismatchError(
            f"operands have {f.num_dof} and {g.num_dof} degrees of freedom")


def add(f, g):
    _check_pair(f, g)
    return Polynomial._raw(f.num_dof,
                           _canonical(*_summed([f._block, g._block])))


def subtract(f, g):
    _check_pair(f, g)
    exps, coeffs = g._block
    return Polynomial._raw(
        f.num_dof, _canonical(*_summed([f._block, (exps, -coeffs)])))


# -- blocks -------------------------------------------------------------------

def _words(exps):
    """The rows of a uint8 exponent matrix as a native uint64 matrix of
    64-bit words, one byte an exponent, most significant first: increasing
    words are key order."""
    rows, width = exps.shape
    pad = -width % 8
    buf = np.zeros((rows, width + pad), np.uint8)
    buf[:, pad:] = exps
    return buf.view(">u8").astype(np.uint64)


def _key_order(exps, group=None):
    """(order, words): order sorts the rows of an exponent matrix stably
    into key order, by group first when given (an integer array of the same
    length); words are the rows as _words."""
    words = _words(exps)
    keys = [*words.T[::-1]] + ([] if group is None else [group])
    return np.lexsort(keys), words


def _runs(exps, group=None):
    """(order, first) of the rows of an exponent matrix: order sorts them
    stably into key order, and first marks each sorted row that starts a
    run of equal rows.  With group, an integer array of the same length,
    the rows sort by group first, and a run never spans two groups."""
    order, words = _key_order(exps, group)
    ordered = words[order]
    first = np.empty(len(order), bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    if group is not None:
        group = group[order]
        first[1:] |= group[1:] != group[:-1]
    return order, first


def _merge(exps, coeffs, group=None):
    """A block with its equal exponent rows summed, in key order.

    A stable sort groups equal rows (_runs); np.bincount adds the
    coefficients of each run in row order, from 0.0, as a dict
    accumulating the rows in turn would.  With group, an integer array of
    the same length, rows of different groups are never summed, the output
    sorts by group first, and the group of each output row comes third.
    """
    if not len(coeffs):
        return (exps, coeffs) if group is None else (exps, coeffs, group)
    order, first = _runs(exps, group)
    run = np.empty(len(order), np.intp)
    run[order] = np.cumsum(first) - 1
    sums = np.bincount(run, coeffs, np.count_nonzero(first))
    rows = order[first]
    exps = np.take(exps, rows, axis=0)
    return (exps, sums) if group is None else (exps, sums, group[rows])


def _summed(blocks):
    """The sum of a list of blocks, each monomial adding its terms in the
    order of the blocks (_merge)."""
    return _merge(np.concatenate([e for e, _ in blocks]),
                  np.concatenate([c for _, c in blocks]))


def _empty(width):
    """A block without terms."""
    return np.empty((0, width), np.uint8), np.empty(0)


# -- the product kernel -------------------------------------------------------
#
# Every product and bracket in the package is a sum of products of
# homogeneous blocks, and one call of the kernel computes several such
# sums, its output segments, each of its own degree: a Lie-series step
# brackets the current term of every chain with chi in one pass, one
# segment a chain.  An exponent vector of a segment of degree D is encoded
# in mixed radix B over its first 2n - 1 fields (the last one follows from
# D), with the segment as the top digit; B is the highest degree of the
# pass + 1, shared by its segments.  No field of a product exceeds D, so no
# digit carries and the index of a product of monomials is the sum of their
# indices: each product of two blocks is an outer sum of indices and an
# outer product of coefficients, added into one bin array for the pass, and
# the segment of each row of the left block rides on its index.  A product
# of head h in a segment of degree D has tail digits that sum to at most
# D - |h|: those vectors, the head's support (_support), are the only bins
# it reads back.

_PAIR_CHUNK = 1 << 14   # pairs per outer product: bounds its temporaries
_MAX_BINS = 1 << 20     # bins per segment; past it the leading fields split
_PASS_BINS = 1 << 17    # bins per pass; segments past it go to further passes


def _passes(degrees, width):
    """The output segments of the given degrees in passes, as (lead,
    segments).  A segment splits by its `lead` leading fields, the fewest
    that bring its B^(width - 1 - lead) bins, B = its degree + 1, within
    _MAX_BINS.  A pass is a run of consecutive segments of one lead, and
    holds more than one segment only while their bins, B the highest
    degree of the pass + 1, stay within _PASS_BINS in all."""
    passes = []
    for s, d in enumerate(degrees):
        lead = 0
        while (d + 1) ** (width - 1 - lead) > _MAX_BINS:
            lead += 1
        if passes and passes[-1][0] == lead:
            segs = passes[-1][1]
            top = max(d, *(degrees[t] for t in segs))
            if (len(segs) + 1) * (top + 1) ** (width - 1 - lead) <= _PASS_BINS:
                segs.append(s)
                continue
        passes.append((lead, [s]))
    return passes


@lru_cache(maxsize=None)
def _support(base, fields):
    """(index, digits, sums) of every vector of `fields` digits whose
    digits sum to below base, in index order: index its mixed-radix index
    in radix base, digits a (vectors, fields) matrix, the most significant
    digit first, and sums the digit sums, both of the narrowest unsigned
    type that holds base - 1.  The vectors of sum at most m are the bins
    a head with room m can fill (_drain).  Read-only: the arrays are
    shared by every pass of that base and tail."""
    small = np.min_scalar_type(base - 1)
    index = np.zeros(1, np.intp)
    digits = np.zeros((1, 0), small)
    sums = np.zeros(1, small)
    place = 1
    room = base - 1 - np.arange(base)[:, None]
    for _ in range(fields):
        # a new leading digit d before every vector of sum base - 1 - d or
        # less, d by d and each in index order
        lead, rows = np.nonzero(sums <= room)
        index = lead * place + index[rows]
        lead = lead.astype(small)
        digits = np.column_stack([lead, digits[rows]])
        sums = lead + sums[rows]
        place *= base
    for a in (index, digits, sums):
        a.flags.writeable = False
    return index, digits, sums


def _groups(block, lead, tail_w, seg, offset=0):
    """A block split by the exponents of its lead fields, as [(head, (bin
    index, coefficients))] in order of first appearance, each group's rows
    in block order; the bin index is the tail's plus offset (a number, or
    one per row).  seg is the segment of each row: a group never spans two
    segments."""
    exps, coeffs = block
    if not len(exps):
        return []
    index = exps @ tail_w + offset
    if not lead:
        return [((), (index, coeffs))]
    keys = np.column_stack([seg, exps[:, :lead]])
    _, first, key = np.unique(keys, axis=0, return_index=True,
                              return_inverse=True)
    # number the keys in order of first appearance
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    group = rank[key.reshape(-1)]
    order = np.argsort(group, kind="stable")
    cuts = np.cumsum(np.bincount(group))[:-1]
    heads = np.take(exps[:, :lead], np.sort(first), axis=0).tolist()
    return [(tuple(h), part) for h, part in zip(heads, zip(
        np.split(index[order], cuts), np.split(coeffs[order], cuts)))]


def _add_products(bins, a, b):
    """Add the outer product of a and b, (bin index, coefficients) each,
    into the bin array, _PAIR_CHUNK pairs at a time."""
    a_idx, a_c = a
    b_idx, b_c = b
    rows = max(1, _PAIR_CHUNK // len(b_idx))
    for lo in range(0, len(a_idx), rows):
        hi = lo + rows
        np.add.at(bins, np.add.outer(a_idx[lo:hi], b_idx).ravel(),
                  np.multiply.outer(a_c[lo:hi], b_c).ravel())


def _drain(bins, offset, support, head, room):
    """(exponent rows, values) of the nonzero bins of one head in one
    segment, in index order, the rows int64; every bin read is then
    cleared.  room is the segment's degree less the head's, >= 0.  The
    bins read are the head's support, where every product of the head in
    the segment lands: offset plus the index of each vector of the
    support (_support) whose digits sum to at most room.  A row is the
    head, the vector's digits and the degree left for the last field."""
    index, digits, sums = support
    rows = np.flatnonzero(sums <= room)
    at = index[rows] + offset
    vals = bins[at]
    bins[at] = 0.0
    nonzero = np.flatnonzero(vals)
    rows = rows[nonzero]
    exps = np.empty((len(rows), len(head) + digits.shape[1] + 1), np.int64)
    exps[:, :len(head)] = head
    exps[:, len(head):-1] = digits[rows]
    exps[:, -1] = room - sums[rows]
    return exps, vals[nonzero]


def _products(pairs, degrees, width):
    """The sums of the products a b over pairs (a, b, seg), as one block in
    key order for each output segment, of the given degrees.

    a and b are blocks, and seg is the segment of each row of a: an integer
    array of indices into degrees, nondecreasing, and all zeros in a call
    of one segment.  The degrees of a row of a and of b add to its
    segment's degree.  Each bin adds its products pair after pair, and
    within a pair a-row then b-row while each segment's rows of a are in
    key order, as every caller passes them (a split segment takes its rows
    of a group by group, _groups).  The segments run in passes (_passes),
    each over the run of rows of its segments, and the segment of a bin is
    the top digit of its index, cut off even when the pass holds one
    segment.  Segments of more than _MAX_BINS bins split by the exponents
    of their leading fields, and each part fills the bin array in turn; a
    group of rows of a then never spans two segments, so that each segment
    adds its products in the order it would alone.  Each part then reads
    and clears, segment by segment, only its support (_drain), whose cached
    digits give the output rows.  Overflowed coefficients come out as inf
    or nan, for _kept to refuse; an exponent above _MAX_EXP is an
    OrderRangeError.
    """
    out = [[] for _ in degrees]
    bins = np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lead, segs in _passes(degrees, width):
            base = max(degrees[s] for s in segs) + 1
            # the place value of each tail field; the last field is not
            # encoded, and the segment's digit comes above the tail's
            tail_w = np.array([base ** (width - 2 - t)
                               if lead <= t < width - 1 else 0
                               for t in range(width)], np.int64)
            seg_bins = base ** (width - 1 - lead)
            support = _support(base, width - 1 - lead)

            # output head -> the (a, b) products that land in its bins
            blocks = {}
            for a, b, seg in pairs:
                lo, hi = seg.searchsorted((segs[0], segs[-1] + 1))
                a, seg = (a[0][lo:hi], a[1][lo:hi]), seg[lo:hi]
                offset = (seg - segs[0]) * seg_bins
                b_groups = _groups(b, lead, tail_w,
                                   np.zeros(len(b[1]), np.intp))
                for ha, a_part in _groups(a, lead, tail_w, seg, offset):
                    for hb, b_part in b_groups:
                        head = tuple(p + q for p, q in zip(ha, hb))
                        blocks.setdefault(head, []).append((a_part, b_part))

            # a pass drains every bin it fills, so a later pass reuses the
            # bins of an earlier one, all zero again
            if len(bins) < len(segs) * seg_bins:
                bins = np.zeros(len(segs) * seg_bins)
            for head in sorted(blocks):
                for a, b in blocks[head]:
                    _add_products(bins, a, b)
                for at, s in enumerate(segs):
                    # a head of more than the segment's degree has no room
                    room = degrees[s] - sum(head)
                    if room < 0:
                        continue
                    exps, vals = _drain(bins, at * seg_bins, support, head,
                                        room)
                    if not len(vals):
                        continue
                    if exps.max() > _MAX_EXP:
                        raise OrderRangeError(
                            f"an exponent of the product exceeds {_MAX_EXP}, "
                            "the largest a uint8 exponent holds")
                    out[s].append((exps.astype(np.uint8), vals))
    return [tuple(map(np.concatenate, zip(*parts))) if parts
            else _empty(width) for parts in out]


def _product(f, g):
    """The raw block of f * g in graded key order: each output degree sums
    the products of the homogeneous parts whose degrees add to it, in the
    order of f's degrees, all in one kernel call (_products, one segment
    a degree)."""
    width = 2 * f.num_dof
    degrees = sorted({p + q for p in f.degrees() for q in g.degrees()})
    g_parts = [(q, g.homogeneous_part(q)._block) for q in g.degrees()]
    pairs = []
    for p in f.degrees():
        a = f.homogeneous_part(p)._block
        for q, b in g_parts:
            pairs.append((a, b, np.full(len(a[1]), degrees.index(p + q))))
    parts = [_empty(width), *_products(pairs, degrees, width)]
    return tuple(map(np.concatenate, zip(*parts)))


def _derivs(block, num_dof, y_sign):
    """d/dv of a block for each variable v in slot order, as (block, rows):
    rows are the rows of the block the derivative keeps, in order, and the
    y-derivatives are times y_sign."""
    exps, coeffs = block
    out = []
    for t in range(2 * num_dof):
        e = exps[:, t].astype(np.int64)
        rows = np.flatnonzero(e)
        lowered = np.take(exps, rows, axis=0)
        lowered[:, t] -= 1
        scale = e[rows] if t < num_dof else y_sign * e[rows]
        out.append(((lowered, coeffs[rows] * scale), rows))
    return out


def _bracket_operand(g, num_dof):
    """The right operand of brackets {f, g} with a homogeneous block g,
    prepared once for every f it meets: (degree of g, None when g has no
    terms; the blocks of dg/dv for each variable v in slot order)."""
    exps, coeffs = g
    degree = int(exps[0].sum(dtype=np.intp)) if len(coeffs) else None
    with np.errstate(over="ignore", invalid="ignore"):
        return degree, [d for d, _ in _derivs(g, num_dof, 1)]


def _bracket_terms(f, seg, degrees, g, num_dof):
    """Raw {f_c, g} for each segment c of a block f, as blocks in key
    order: f holds the rows of the homogeneous blocks f_c, of the given
    degrees, and seg the segment of each row, an integer array (zeros when
    f is one block); g is the operand of a homogeneous block
    (_bracket_operand).  Each is the sum of the products of the
    derivatives df_c/dx_l dg/dy_l and -df_c/dy_l dg/dx_l in slot order of
    the derivative of f_c, all the segments in one kernel call
    (_products)."""
    width = 2 * num_dof
    g_degree, g_d = g
    if not len(f[1]) or g_degree is None:
        return [_empty(width) for _ in degrees]
    with np.errstate(over="ignore", invalid="ignore"):
        # the bracket's minus sign rides on the y-derivatives of f
        f_d = _derivs(f, num_dof, -1)
    pairs = [(d, g_d[(t + num_dof) % width], seg[rows])
             for t, (d, rows) in enumerate(f_d)]
    return _products(pairs, [d + g_degree - 2 for d in degrees], width)


def poisson_bracket(f, g, cap=None):
    """{f, g} = sum_l (df/dx_l dg/dy_l - df/dy_l dg/dx_l), capped by degree.

    Each pair of homogeneous parts, of degrees p and q, adds a part of
    degree p + q - 2, skipped when that exceeds the cap (or is negative:
    then one of them is constant).
    """
    _check_pair(f, g)
    n = f.num_dof
    g_parts = [(q, _bracket_operand(g.homogeneous_part(q)._block, n))
               for q in g.degrees()]
    parts = []
    for p in f.degrees():
        f_part = f.homogeneous_part(p)._block
        seg = np.zeros(len(f_part[1]), np.intp)
        for q, g_part in g_parts:
            if 0 <= p + q - 2 <= (math.inf if cap is None else cap):
                parts.append(_bracket_terms(f_part, seg, [p], g_part, n)[0])
    if not parts:
        return Polynomial.zero(n)
    return Polynomial._raw(n, _canonical(*_summed(parts)))


def _lie_series(chains, chi, num_dof, cap):
    """The terms g_p = {g_(p-1), chi}/p of several Lie series, stepped
    together.

    chains lists (g, degree, p): g the term g_(p-1) of a chain, a block
    homogeneous of the given degree.  chi is the operand of a homogeneous
    block (_bracket_operand), whose degree less 2 is the degree each
    bracket adds.  A step stacks the current terms of the live chains,
    however many, and brackets them with chi in one kernel call
    (_bracket_terms, one segment a chain); then each chain prunes its own
    term (_kept), divides it by its own p (exactly, when p is 1), and
    stops at a zero term or once its degree would pass cap.  Returns, for
    each chain, its terms as [(degree, block)], each block pruned and in
    key order.
    """
    terms = [[] for _ in chains]
    if chi[0] is None:
        return terms
    step = chi[0] - 2
    live = [(c, g, degree, p) for c, (g, degree, p) in enumerate(chains)]
    while True:
        live = [chain for chain in live if chain[2] + step <= cap]
        if not live:
            return terms
        f = tuple(map(np.concatenate, zip(*(g for _, g, _, _ in live))))
        seg = np.repeat(np.arange(len(live)),
                        [len(g[1]) for _, g, _, _ in live])
        brackets = _bracket_terms(f, seg, [d for _, _, d, _ in live], chi,
                                  num_dof)
        stepped = []
        for (c, _, degree, p), (exps, coeffs) in zip(live, brackets):
            keep = _kept(coeffs)
            if not keep.any():
                continue
            g = exps.compress(keep, axis=0), coeffs[keep] / p
            terms[c].append((degree + step, g))
            stepped.append((c, g, degree + step, p + 1))
        live = stepped


def _check_radii(radii, num_dof=None):
    """The radii as a tuple of floats; DimensionMismatchError unless there
    are num_dof of them (when given), ValueError unless each lies in
    (0, inf)."""
    radii = tuple(float(R) for R in radii)
    if num_dof is not None and len(radii) != num_dof:
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
    return _norm_total(_norm_terms(*f._block, radii), radii)


def _norm_terms(exps, coeffs, radii):
    """The terms |c| Theta(j, k) R^(j+k) of polydisc_norm, one a row of a
    block, inf or 0.0 where they leave the floats.  Each row's value
    depends on that row alone, so a block of many polynomials end to end
    gives each of them its own terms.

    Theta(j_l, k_l) comes from one table over the exponent pairs up to the
    block's largest exponent, and R_l^(j_l+k_l) from one table of powers
    per radius, each built by the expression a term would use, so that
    every factor, and their order, is that of the term-by-term sum."""
    n = len(radii)
    e = np.arange(int(exps.max(initial=0)) + 1, dtype=np.int64)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # log Theta per pair; a pure power (j or k zero) gives exp(0) = 1
        theta = np.exp(0.5 * (_xlogx(e[:, None]) + _xlogx(e)
                              - _xlogx(e[:, None] + e)))
        w = np.ones(len(coeffs))
        for l in range(n):
            w *= theta[exps[:, l], exps[:, n + l]]
        w *= np.abs(coeffs)
        degrees = np.arange(2 * len(e) - 1, dtype=np.int64)
        for l, R in enumerate(radii):
            w *= np.power(R, degrees, dtype=float)[
                np.add(exps[:, l], exps[:, n + l], dtype=np.intp)]
    return w


def _norm_total(w, radii):
    """The sum of the nonempty norm terms w (_norm_terms), one after
    another; ValueError naming the radii where it overflows the floats or
    underflows to 0."""
    with np.errstate(over="ignore"):
        total = float(np.cumsum(w)[-1])
    if not math.isfinite(total):
        raise ValueError(f"the polydisc norm at radii {radii} overflows")
    if total == 0.0:
        raise ValueError(f"the polydisc norm at radii {radii} underflows to 0")
    return total


# -- changes of variables -----------------------------------------------------

def _check_degree(degree):
    """OrderRangeError unless a change of variables of a polynomial of this
    degree fits the uint8 exponents."""
    if degree > _MAX_EXP:
        raise OrderRangeError(f"degree {degree} exceeds {_MAX_EXP}, "
                              "the largest a uint8 exponent holds")


@lru_cache(maxsize=None)    # d <= _MAX_EXP and two signs: at most 512 tables
def _mode_table(d, sign):
    """x^j y^(d-j) of one mode in its new pair (u, v), for j = 0..d, as a
    read-only (d+1, d+1) complex array whose row j holds the coefficient of
    u^m v^(d-m) at column m.

    x = a u + b v and y = b u + a v with a = 1/sqrt2, b = sign i/sqrt2, so
    that coefficient is a^d (sign i)^(j+m) times the exact integer K_j(m)
    = sum_p (-1)^p C(j, p) C(d-j, m-p), the coefficient of t^m in
    G_j = (1-t)^j (1+t)^(d-j).  Row j+1 follows from row j in integers,
    as (1+t) G_(j+1) = (1-t) G_j, so a table costs O(d^2) integer steps.
    """
    alt = np.array([(-1) ** m for m in range(d + 1)], object)
    row = np.array([math.comb(d, m) for m in range(d + 1)], object)
    rows = [row]
    for _ in range(d):
        h = row.copy()
        h[1:] -= row[:-1]               # (1-t) G_j
        row = alt * np.cumsum(alt * h)  # divided by (1+t)
        rows.append(row)
    units = np.array([1, 1j, -1, -1j])
    phase = units[sign * np.add.outer(np.arange(d + 1), np.arange(d + 1)) % 4]
    table = phase * (np.array(rows, float) * 2.0 ** (-0.5 * d))
    table.setflags(write=False)
    return table


class _Layout:
    """The slots of a chart change of a block: every monomial of every
    mode-degree class of its rows, in graded key order.

    A chart change maps the x^j y^k of mode l into monomials of the same
    mode degree d_l = j_l + k_l, so it never leaves a row's class
    (d_1..d_n) and spreads each row over its whole class.  A class is a
    (d_1+1) x ... x (d_n+1) tensor indexed by j, so the slots number the
    sum over the classes present of prod(d_l + 1): the size of the output,
    never the count of every monomial of the degree.

    A mode pass applies the (d_l+1) x (d_l+1) table of _mode_table along
    axis l of every class: the slots are gathered into fibers along that
    axis, grouped by d_l, and each group of nonzero d_l is one matrix
    product.  Every mode has a pass, also one absent from every row (its
    pass gathers and multiplies nothing).  Each pass gathers from the
    order the previous one left, and a last gather returns to key order,
    so a change sorts nothing.

    exps is the (slots, 2n) exponent matrix, degrees the degree of each
    slot (None for a homogeneous block), at the slot of each row of the
    block; passes holds (gather, [(d, lo, hi), ...]) a mode, one segment
    for each nonzero d_l, and back the gather into key order.
    """

    __slots__ = ("exps", "degrees", "at", "passes", "back")

    def __init__(self, exps):
        """The layout of the rows of a uint8 exponent matrix, distinct; a
        row of degree above 255, which the uint8 exponents cannot hold
        after the change, is an OrderRangeError."""
        _check_degree(int(exps.sum(axis=1, dtype=np.intp).max(initial=0)))
        n = exps.shape[1] // 2
        j = exps[:, :n].astype(np.intp)
        d = j + exps[:, n:]
        # the classes present, and each row's
        order, first = _runs(d.astype(np.uint8))
        row_class = np.empty(len(d), np.intp)
        row_class[order] = np.cumsum(first) - 1
        dims = d[order[first]]
        shape = dims + 1
        sizes = shape.prod(axis=1)
        starts = np.cumsum(sizes) - sizes
        # C-order strides of each class tensor
        strides = np.ones_like(shape)
        strides[:, :-1] = np.cumprod(shape[:, :0:-1], axis=1)[:, ::-1]

        # the slots in class order: class after class, j in C order within
        # each, so slot t of its class has j_l = t // stride_l % (d_l + 1).
        # np.take gathers rows several times faster than fancy indexing
        slots = int(sizes.sum())
        slot_class = np.repeat(np.arange(len(dims)), sizes)
        t = np.arange(slots) - starts[slot_class]
        widths = [shape[:, l].take(slot_class) for l in range(n)]
        afters = [strides[:, l].take(slot_class) for l in range(n)]
        slot_j = [t // after % width for width, after in zip(widths, afters)]
        tensor = np.empty((slots, 2 * n), np.uint8)
        for l in range(n):
            tensor[:, l] = slot_j[l]
            tensor[:, n + l] = widths[l] - 1 - slot_j[l]
        degree = dims.sum(axis=1)
        degrees = None
        if (degree != degree[:1]).any():
            degrees = degree.take(slot_class)
        key, _ = _key_order(tensor, degrees)
        rank = np.empty(slots, np.intp)
        rank[key] = np.arange(slots)
        self.exps = np.take(tensor, key, axis=0)
        self.exps.setflags(write=False)
        self.degrees = None if degrees is None else degrees.take(key)
        self.at = rank.take(starts.take(row_class)
                            + (j * np.take(strides, row_class, axis=0)).sum(
                                axis=1))

        # each pass gathers from the order the previous one left: prev maps
        # a slot in class order to its place there, first its key rank
        prev = rank
        self.passes = []
        for l in range(n):
            d_l = dims[:, l]
            # the classes by d_l; a fiber is the slots of a class that
            # differ in j_l alone, in order of the indices before axis l,
            # then those after it (b = t % after), then j_l
            by_d = np.argsort(d_l, kind="stable")
            ends = np.cumsum(sizes.take(by_d))
            fiber_start = np.empty(len(dims), np.intp)
            fiber_start[by_d] = ends - sizes.take(by_d)
            width, after = widths[l], afters[l]
            position = (fiber_start.take(slot_class) + t
                        + (width - 1) * (t % after) - (after - 1) * slot_j[l])
            gather = np.empty(slots, np.intp)
            gather[position] = prev
            segments = []
            for d_c, end, size in zip(d_l.take(by_d).tolist(), ends.tolist(),
                                      sizes.take(by_d).tolist()):
                if segments and segments[-1][0] == d_c:
                    segments[-1][2] = end
                elif d_c:
                    segments.append([d_c, end - size, end])
            self.passes.append((gather, segments))
            prev = position
        self.back = prev.take(key)

    def place(self, coeffs):
        """The coefficients of the block's rows as complex slot values."""
        values = np.zeros(len(self.exps), complex)
        values[self.at] = coeffs
        return values

    def change(self, values, sign):
        """Slot values (..., slots), each a block on the layout, with every
        mode changed by _mode_table of the sign (-1 into the chart, +1 back
        to real variables); not pruned.  Each output slot sums its
        contributions in the order of the matrix product.  Overflowed
        coefficients come out as inf or nan, for _sizes to refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            for gather, segments in self.passes:
                values = values.take(gather, axis=-1)
                for d, lo, hi in segments:
                    part = values[..., lo:hi]
                    fibers = part.reshape(*part.shape[:-1], -1, d + 1)
                    # numpy copies an input the output overlaps
                    np.matmul(fibers, _mode_table(d, sign), out=fibers)
            return values.take(self.back, axis=-1)

    def kept(self, values):
        """The mask of the slot values that survive pruning (_kept)."""
        return _kept(values, self.degrees)

    def real(self, values):
        """The real block of slot values changed back to real variables,
        pruned and in graded key order.  Raises RealityViolationError when
        the largest imaginary part exceeds REALITY_TOL relative to the
        largest coefficient (the values were not conjugation symmetric);
        otherwise the real parts are pruned, once, and the imaginary parts
        dropped."""
        top = _sizes(values).max(initial=0.0)
        worst = np.abs(values.imag).max(initial=0.0)
        if worst > REALITY_TOL * top:
            raise RealityViolationError(
                f"imaginary residual {worst / top:.3e} exceeds tolerance "
                f"{REALITY_TOL:.3e}")
        real = values.real
        keep = self.kept(real)
        return self.exps.compress(keep, axis=0), real[keep]


def linear_substitute(f, matrix):
    """Compose f with a linear change of variables: old_i = sum_t M[i][t] new_t.

    Returns f(M v) as a polynomial in the new variables.  Degree is
    preserved; M must be real, and its rows must have length 2n.

    One pass an old variable i, in order; the rows hold the exponents of
    the old variables not yet substituted in their first 2n columns and
    those of the new variables in the last 2n.  When the linear form L_i =
    sum_t M[i][t] new_t is one term m new_c and no row holds new_c yet,
    the pass relabels: old_i's exponent column moves to new_c and each
    coefficient takes m^e, so each term maps to one term and no two rows
    meet.  Otherwise every term expands against the powers L_i^d =
    L_i^(d-1) L_i (_products), one row (term, m) for each term m of L_i^e,
    and the rows are merged (_merge).  Rows a relabel left out of key order
    are merged before they expand, and at the end, so every sum adds its
    terms in the order it would if every pass merged.
    """
    n = f.num_dof
    width = 2 * n
    rows = [list(row) for row in matrix]
    if len(rows) != width or any(len(r) != width for r in rows):
        raise DimensionMismatchError(
            f"substitution matrix must be {width}x{width}")
    _check_degree(f.degree_max or 0)
    M = np.array(rows)
    if np.iscomplexobj(M):
        raise ValueError("substitution matrix must be real")
    M = M.astype(float)

    exps, coeffs = f._block
    old_new = np.zeros((len(coeffs), 2 * width), np.uint8)
    old_new[:, :width] = exps
    # whether the rows are in key order
    merged = True
    # an overflow comes out as inf or nan, for _kept to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(width):
            e = old_new[:, i].astype(np.intp)
            top = int(e.max(initial=0))
            if not top:
                continue
            support = np.flatnonzero(M[i])
            if len(support) == 1 and not old_new[:, width + support[0]].any():
                c = support[0]
                # m^d by repeated multiplication, as the kernel builds L_i^d
                coeffs = coeffs * np.cumprod([1.0] + [M[i, c]] * top)[e]
                old_new[:, width + c] = e
                old_new[:, i] = 0
                merged = False
            else:
                if not merged:
                    old_new, coeffs = _merge(old_new, coeffs)
                    e = old_new[:, i].astype(np.intp)
                linear = np.eye(width, dtype=np.uint8)[support], M[i, support]
                powers = [(np.zeros((1, width), np.uint8), np.ones(1))]
                for d in range(1, top + 1):
                    seg = np.zeros(len(powers[-1][1]), np.intp)
                    powers += _products([(powers[-1], linear, seg)], [d], width)
                # the powers end to end, and where each starts
                table_exps, table_coeffs = map(np.concatenate, zip(*powers))
                sizes = np.array([len(p) for _, p in powers])
                count = sizes[e]
                term = np.repeat(np.arange(len(e)), count)
                m = (np.arange(len(term))
                     - np.repeat(np.cumsum(count) - count, count))
                at = (np.cumsum(sizes) - sizes)[e][term] + m
                new = old_new[term]
                new[:, i] = 0
                new[:, width:] += table_exps[at]
                old_new, coeffs = _merge(new, coeffs[term] * table_coeffs[at])
                merged = True
    if not merged:
        old_new, coeffs = _merge(old_new, coeffs)
    return Polynomial._raw(n, _canonical(old_new[:, width:], coeffs))


def complexify(block):
    """A real block expressed in the canonical complex chart, as a complex
    block, pruned and in graded key order.

    Substitutes x_l = (Z_l - i W_l)/sqrt2, y_l = (W_l - i Z_l)/sqrt2, with
    Z_l = (x_l + i y_l)/sqrt2 and W_l = i conj(Z_l) on real points.  The
    substitution is canonical ({Z_l, W_l} = 1), so poisson_bracket applies
    unchanged in either chart.  Slot l holds the Z_l exponent, slot n+l the
    W_l exponent.  The substitution runs one mode at a time on the block's
    _Layout; a term of degree above 255, which the uint8 exponents cannot
    hold, is an OrderRangeError.
    """
    layout = _Layout(block[0])
    values = layout.change(layout.place(block[1]), -1)
    keep = layout.kept(values)
    return layout.exps.compress(keep, axis=0), values[keep]


def realify(block):
    """A complex-chart block mapped back to real (x, y) variables, as a
    real block, pruned and in graded key order.

    Substitutes Z_l = (x_l + i y_l)/sqrt2, W_l = (y_l + i x_l)/sqrt2 one
    mode at a time on the block's _Layout, as complexify does, and checks
    the imaginary residual (_Layout.real).
    """
    layout = _Layout(block[0])
    return layout.real(layout.change(layout.place(block[1]), +1))


def oscillator(omega):
    """H0 = sum_l omega_l (x_l^2 + y_l^2)/2 as a real polynomial."""
    n = len(omega)
    zero = (0,) * n
    terms = {}
    for l, w in enumerate(omega):
        square = tuple(2 if t == l else 0 for t in range(n))
        terms[(square, zero)] = 0.5 * w
        terms[(zero, square)] = 0.5 * w
    return Polynomial(n, terms)


# -- graded series and text format -------------------------------------------

# the token of an exponent on a term line: its digits and a space,
# NUL-padded to four bytes
_TOKENS = np.array([b"%d " % e for e in range(_MAX_EXP + 1)],
                   "S4").view(np.uint32)


def _term_lines(poly):
    """The term lines `degree j k coeff` of a polynomial, in the order of
    terms().  The int fields of every line come from one pass: each
    exponent is looked up in _TOKENS, each degree in a table of the
    block's degrees, and the lines, their NUL bytes compressed out, are
    one template with a _records.NUMBER field a line, which formats
    every coefficient in one % and is split into the lines."""
    exps, coeffs = poly._block
    rows = len(coeffs)
    if not rows:
        return []
    degrees, row_degree = np.unique(exps.sum(axis=1, dtype=np.intp),
                                    return_inverse=True)
    heads = np.array([b"%d " % d for d in degrees.tolist()])[row_degree]
    number = np.frombuffer(f"{_records.NUMBER}\n".encode(), np.uint8)
    table = np.concatenate([
        heads.view(np.uint8).reshape(rows, -1),
        _TOKENS[exps].view(np.uint8).reshape(rows, -1),
        np.broadcast_to(number, (rows, len(number)))], axis=1).ravel()
    template = table[table != 0].tobytes().decode("ascii")
    return (template % tuple(coeffs.tolist()))[:-1].split("\n")


def _loaded(lines, ints):
    """(int rows, floats) of lines of ints + 1 tokens by one np.loadtxt
    pass, or None where it refuses a line.  Only ASCII lines go to it: on
    some other characters it returns a number that int() refuses.  Where
    it accepts an ASCII token, int() and float() read the same value.  The
    ints load as int16, which keeps the table small: an int past its range
    is refused, not wrapped."""
    if not all(map(str.isascii, lines)):
        return None
    try:
        dtype = np.dtype([("i", np.int16, (ints,)), ("c", float)])
        rows = np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return rows["i"], rows["c"]


def _converted(lines, want):
    """(int rows, floats, fault) of term lines of `want` fields read by
    int() and float() up to the first that does not convert, fault its
    message (else None).  The ints stay exact, however large."""
    rows, coeffs = [], []
    for line in lines:
        tokens = line.split()
        if len(tokens) != want:
            return rows, coeffs, (f"expected {want} fields on a term line, "
                                  f"got {len(tokens)}")
        try:
            row, c = [int(t) for t in tokens[:-1]], float(tokens[-1])
        except ValueError as exc:
            return rows, coeffs, f"bad numeric field: {exc}"
        rows.append(row)
        coeffs.append(c)
    return rows, coeffs, None


def _faulty(table, coeffs, section, low, high, degree_error):
    """(i, message) of the first converted term line at fault, repeats
    aside, or None: line i is of section k = section[i], of degrees within
    [low[k], high[k]].  Each check is one array over the lines, in the
    order of _read_terms."""
    # the exponents are reduced a column at a time, each an array over the
    # lines: numpy reduces across a short row slowly
    degree, exps = table[:, 0], table[:, 1:].T
    sums = sum(exps, np.zeros(len(coeffs), np.int64))
    k = section[:len(coeffs)]
    checks = [~np.isfinite(coeffs),
              (reduce(np.minimum, exps) < 0)
              | (reduce(np.maximum, exps) > _MAX_EXP),
              sums != degree,
              (degree < low[k]) | (degree > high[k])]
    at = np.flatnonzero(np.logical_or.reduce(checks))
    if not len(at):
        return None
    i = int(at[0])
    d = int(degree[i])
    return i, ["non-finite coefficient", f"exponent outside [0, {_MAX_EXP}]",
               f"degree column {d} disagrees with exponent sum {int(sums[i])}",
               degree_error(int(k[i]), d)][[c[i] for c in checks].index(True)]


def _read_terms(lines, linenos, counts, num_dof, path, degrees,
                degree_error):
    """The term lines of the sections of a record, as one block per
    section, pruned and in graded key order.

    lines are the content lines, section after section, linenos their
    line numbers, and counts[k] the number of lines of section k.  A term
    line is `degree j_1..j_n k_1..k_n coeff`; its checks, in order: the
    field count, the conversion by int() and float(), a finite
    coefficient, exponents within [0, _MAX_EXP], the degree column against
    the exponent sum, a degree within the inclusive range degrees[k] of
    its section (degree_error(k, d) is the message otherwise), and no
    exponent vector repeated in its section.  The first line at fault is
    a FormatError with the message of its first failing check.

    The lines convert at once (_loaded); where _loaded refuses them, a
    pass of int() and float() converts them one at a time up to the first
    line it cannot convert (_converted).  Each later check is one array
    over the converted lines (_faulty).  Repeats are found by one stable
    sort on (section, degree, exponents) (_runs) of the lines before the
    first fault, so the first repeat in line order is reported when it
    comes first.  Each degree of a section is then pruned against its own
    maximum, all of them by one segmented maximum (_runs_kept).
    """
    width = 2 * num_dof
    if not lines:
        return [_empty(width) for _ in counts]
    loaded = _loaded(lines, 1 + width)
    fault = None
    if loaded is None:
        rows, coeffs, fault = _converted(lines, 2 + width)
        if not rows:
            # no line before the fault: no key is built, however large n
            raise FormatError(fault, line=linenos[0], path=path)
        loaded = np.array(rows, object), np.array(coeffs)
    hi = width * _MAX_EXP + 1
    section = np.repeat(np.arange(len(counts)), counts)
    # no sound line is of degree hi or more, however large a bound
    low, high = np.array([(d, min(t, hi)) for d, t in degrees], np.int64).T
    table, coeffs = loaded
    at, fault = (_faulty(table, coeffs, section, low, high, degree_error)
                 or (len(coeffs), fault))
    exps = table[:at, 1:].astype(np.uint8)
    # a degree of a line before the first fault is at most hi - 1
    group = section[:at] * hi + table[:at, 0].astype(np.int64)
    # -0.0 reads as 0.0, as a sum onto a 0.0 start would have it; the sum
    # is a new array, not a view of the loaded table
    coeffs = coeffs[:at] + 0.0
    # the loaded table is not needed past here: release it before the
    # sort, which sets the read's peak memory
    del table, loaded, section
    order, first = _runs(exps, group)
    if not first.all():
        # the first repeat in line order: the first line of a run that
        # does not start it
        raise FormatError("duplicate exponent vector",
                          line=linenos[int(order[~first].min())], path=path)
    if fault is not None:
        raise FormatError(fault, line=linenos[at], path=path)

    exps, coeffs, group = exps[order], coeffs[order], group[order]
    # the (section, degree) groups, each a run of the sorted rows
    keep = _runs_kept(np.abs(coeffs),
                      np.flatnonzero(np.diff(group, prepend=-1)))
    # each section's rows are a run, in graded key order
    cuts = group.searchsorted(np.arange(len(counts) + 1) * hi).tolist()
    return [(exps[a:b].compress(keep[a:b], axis=0), coeffs[a:b][keep[a:b]])
            for a, b in zip(cuts, cuts[1:])]


class GradedSeries:
    """A polynomial graded by degree up to d_max >= 0: one Polynomial,
    whose block in graded key order holds the homogeneous component of
    each degree as a run of rows."""

    __slots__ = ("num_dof", "d_max", "_poly")

    def __init__(self, poly, d_max):
        if d_max < 0:
            raise GradingError(f"d_max={d_max} must be >= 0")
        if poly.degree_max is not None and poly.degree_max > d_max:
            raise GradingError(f"component degree {poly.degree_max} exceeds "
                               f"d_max={d_max}")
        object.__setattr__(self, "num_dof", poly.num_dof)
        object.__setattr__(self, "d_max", int(d_max))
        object.__setattr__(self, "_poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSeries is immutable")

    @classmethod
    def from_polynomial(cls, poly, d_max=None):
        return cls(poly, (poly.degree_max or 0) if d_max is None else d_max)

    def component(self, degree):
        return self._poly.homogeneous_part(degree)

    def degrees(self):
        return self._poly.degrees()

    def __iter__(self):
        return ((d, self.component(d)) for d in self.degrees())

    def __eq__(self, other):
        return (isinstance(other, GradedSeries)
                and self.d_max == other.d_max
                and self._poly == other._poly)

    def __repr__(self):
        return (f"GradedSeries(num_dof={self.num_dof}, d_max={self.d_max}, "
                f"degrees={self.degrees()})")

    def truncate(self, d_max):
        """The components up to degree d_max: a prefix of the block."""
        exps, coeffs = self._poly._block
        top = self._poly._degree_column().searchsorted(d_max, side="right")
        return GradedSeries(
            Polynomial._raw(self.num_dof, (exps[:top], coeffs[:top])), d_max)

    def to_polynomial(self):
        return self._poly

    def to_text(self):
        return _records.record(
            "HAM", {"n": self.num_dof, "dmax": self.d_max, "field": "real"},
            _term_lines(self._poly), end=False)

    @classmethod
    def from_text(cls, text, path=None):
        reader = _records.RecordReader(
            text, "HAM", {"n": int, "dmax": int, "field": str}, path=path,
            end=False)
        num_dof = reader.header["n"]
        d_max = reader.header["dmax"]
        field = reader.header["field"]
        if field != "real":
            raise reader.error(f"field must be real, got {field!r}")
        if num_dof < 1 or d_max < 0:
            raise reader.error("n must be >= 1 and dmax >= 0")
        # past _MAX_DOF, the first term line faults (it cannot hold 2 + 2n
        # fields); without one, the header does
        count = len(reader.numbers)
        if num_dof > _MAX_DOF and not count:
            raise reader.error(f"n={num_dof} exceeds {_MAX_DOF}, the most "
                               "degrees of freedom an array holds")
        [block] = _read_terms(
            reader.lines(0, count), reader.numbers, [count], num_dof, path,
            [(0, d_max)],
            lambda k, degree: f"term degree {degree} exceeds dmax={d_max}")
        return cls(Polynomial._raw(num_dof, block), d_max)
