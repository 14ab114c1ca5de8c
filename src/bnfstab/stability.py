"""Effective stability times from a normal-form ledger.

At normalization order r the actions drift only through the first
unnormalized block: |dI_j/dt| < C rho^(r+3) |{I_j, F^(r+1)}|_R on the
polydisc of radii rho*R.  Integrating the worst-case radial growth gives a
per-order escape time tau(rho0, rho, r); the reported stability time is the
best bound over the available orders,

    T(rho0) = max_r tau(rho0, 2*rho0, r),

which grows faster than any fixed power of 1/rho0 because the optimal
order increases as rho0 shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import polyalg as poly
from ._records import NUMBER
from .errors import OrderRangeError, StabilityDomainError

__all__ = ["Sweep", "drift_bound", "sweep", "sweep_csv"]

DEFAULT_C = 2.0


def drift_bound(state, r, radii, c_const=DEFAULT_C):
    """The drift coefficients B[j] of each action j at order r, as an array.

    The drift of I_j under the order-r normal form satisfies
    |dI_j/dt| < B[j] rho^(r+3) on the polydisc of radii rho*R, with
    B[j] = c_const |{I_j, F^(r+1)}|_R.  Uses the remainder block of index
    r+1 from the ledger, so r must satisfy 1 <= r <= state.r and
    r + 1 <= state.r_max.
    """
    if not 1 <= r <= state.r:
        raise OrderRangeError(
            f"order {r} outside the normalized range 1..{state.r}")
    if r + 1 > state.r_max:
        raise OrderRangeError(
            f"order {r} needs block {r + 1}, beyond r_max = {state.r_max}")
    return _drift_bounds(state, [r], radii, c_const)[0]


def _drift_bounds(state, orders, radii, c_const):
    """B[k, j] of the order orders[k] and the action j, in one pass.

    B = c_const |{I_j, F^(r+1)}|_R for every segment (r, j) at once: the
    brackets of the concatenated F blocks (_action_brackets), every
    segment pruned against its own maximum by one segmented maximum
    (poly._runs_kept), and the polydisc-norm terms of all the rows kept
    (poly._norm_terms).  Each segment's terms are then summed
    (poly._norm_total) on their own, so that each B is
    c_const * polydisc_norm(poisson_bracket(oscillator(e_j), F^(r+1))) to
    the bit, and a fault is raised at the first segment in (r, j) order
    that meets one: an overflowed bracket coefficient, else a norm that
    leaves the floats.
    """
    if not 1.0 < c_const < math.inf:
        raise ValueError("the safety constant must exceed 1 and be finite")
    n = state.num_dof
    radii = poly._check_radii(radii, n)
    exps, coeffs, segment = _action_brackets(
        [state.remainder_block(r + 1)._block for r in orders], n)
    a = np.abs(coeffs)
    keep = poly._runs_kept(a, np.flatnonzero(np.diff(segment, prepend=-1)))
    # the segments before the first that holds an overflowed coefficient
    # are summed, and that one is refused after them
    overflowed = np.flatnonzero(~np.isfinite(a))
    last = int(segment[overflowed[0]]) if len(overflowed) else len(orders) * n
    terms = poly._norm_terms(exps.compress(keep, axis=0), coeffs[keep],
                             radii)
    cuts = segment[keep].searchsorted(np.arange(last + 1)).tolist()
    B = np.zeros((len(orders), n))
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if lo < hi:
            B.flat[i] = c_const * poly._norm_total(terms[lo:hi], radii)
    if len(overflowed):
        poly._sizes(coeffs[segment == last])  # raises its ValueError
    return B


def _action_brackets(blocks, n):
    """{I_j, F} = x_j dF/dy_j - y_j dF/dx_j of each real homogeneous block
    F of the list and each action j, before pruning, as one merged block
    and the segment b n + j of each row, b the index of F in the list.

    Two exponent shifts of the rows of every block, merged by segment with
    the rows shifted up in x_j first, as the bracket kernel adds them, so
    that each segment is poisson_bracket(oscillator(e_j), F) to the bit.
    """
    exps = np.concatenate([e for e, _ in blocks])
    coeffs = np.concatenate([c for _, c in blocks])
    block = np.repeat(np.arange(0, len(blocks) * n, n),
                      [len(c) for _, c in blocks])
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            for down, up, sign in ((n + j, j, 1.0), (j, n + j, -1.0)):
                rows = np.flatnonzero(exps[:, down])
                shifted = exps[rows]
                shifted[:, down] -= 1
                shifted[:, up] += 1
                parts.append((shifted,
                              sign * (coeffs[rows] * exps[rows, down]),
                              block[rows] + j))
        return poly._merge(*map(np.concatenate, zip(*parts)))


def _power(v, e):
    """v ** e by math.pow, which calls libm's pow as Python's float power
    does; inf where that overflows or v is zero (math.pow's OverflowError
    and ValueError)."""
    try:
        return math.pow(v, e)
    except (OverflowError, ValueError):
        return math.inf


def _powers(values, e):
    """v ** e of each float of the list values, as an array: libm's pow
    through math.pow, one pass unless a point overflows or is zero, where
    _power takes each point.  e goes to math.pow as a float, once."""
    try:
        return np.fromiter(map(math.pow, values, repeat(float(e))), float,
                           len(values))
    except (OverflowError, ValueError):
        return np.array([_power(v, e) for v in values])


def _escape_times(rho0, rho, orders, B, radii):
    """Worst-action time tau[k, i] to grow from the rho0[i] polydisc to the
    rho[i] one at the order orders[k], with drift coefficients B[k]: the
    closed form of the separable radial bound drho/dt <= B rho^(r+2)/R_j^2,

        tau = min_j R_j^2 (rho0^-(r+1) - rho^-(r+1)) / ((r+1) B[k, j]),

    over the nonzero B[k, j], +inf when there is none.  rho0 and rho are
    float arrays of the points, radii the positive finite R_j.  The float
    operations and the first StabilityDomainError are those of a loop over
    the points and their orders: a point outside 0 < rho0 < rho, or whose
    time leaves the floats.
    """
    tau = np.full((len(orders), len(rho0)), math.inf)
    outside = np.zeros(tau.shape, bool)
    starts, ends = rho0.tolist(), rho.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (r, row) in enumerate(zip(orders, B.tolist())):
            spread = _powers(starts, -(r + 1)) - _powers(ends, -(r + 1))
            for R, b in zip(radii, row):
                if b != 0.0:
                    t = R ** 2 * spread / ((r + 1) * b)
                    outside[k] |= ~((0.0 < t) & (t < math.inf))
                    np.minimum(tau[k], t, out=tau[k])
    domain = ~((0.0 < rho0) & (rho0 < rho))
    bad = np.flatnonzero(domain | outside.any(axis=0))
    if len(bad):
        i = bad[0]
        r = orders[outside[:, i].argmax()]
        raise StabilityDomainError(
            f"need 0 < rho0 < rho, got rho0={float(rho0[i])}, "
            f"rho={float(rho[i])}" if domain[i] else
            f"rho0={float(rho0[i])} puts the order-{r} escape time outside "
            "the float range")
    return tau


def _per_order_bounds(state, radii, c_const):
    """(orders, B): every estimable order and its row of drift
    coefficients."""
    top = min(state.r, state.r_max - 1)
    if top < 1:
        raise OrderRangeError(
            "state has no estimable order (need r >= 1 and r_max >= 2)")
    orders = tuple(range(1, top + 1))
    return orders, _drift_bounds(state, orders, radii, c_const)


@dataclass(frozen=True, eq=False)
class Sweep:
    """Stability times across a grid: tau[k, i] is the escape time of order
    orders[k] from the rho0[i] polydisc to the 2 rho0[i] one, and T[i],
    r_opt[i] the optimum over the orders."""

    rho0: np.ndarray
    T: np.ndarray
    r_opt: np.ndarray
    orders: tuple
    tau: np.ndarray
    radii: tuple
    c_const: float


def sweep(state, rho0_grid, radii, c_const=DEFAULT_C):
    """Optimize the escape time over every estimable order at each point of
    a strictly increasing grid of starting radii, as a Sweep.

    The escape target is rho = 2*rho0.  Orders whose remainder block
    vanishes identically contribute an infinite escape time; T is the best
    finite branch, or +inf when no drift is seen at any order.  Drift
    bounds depend only on the order, so they are computed once and shared
    by every grid point; each order is one pass over the grid.
    """
    grid = [float(v) for v in rho0_grid]
    if not grid:
        raise ValueError("empty grid")
    if any(v <= 0.0 for v in grid):
        raise StabilityDomainError("rho0 must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    radii = poly._check_radii(radii, state.num_dof)
    orders, B = _per_order_bounds(state, radii, c_const)
    rho0 = np.array(grid)
    tau = _escape_times(rho0, 2.0 * rho0, orders, B, radii)
    # infinite branches mean "this order sees no drift at all"; they are
    # reported but only finite branches compete for the optimum, and the
    # first order wins a tie
    finite = np.where(np.isinf(tau), -math.inf, tau)
    best = finite.argmax(axis=0)
    T = finite[best, np.arange(len(grid))]
    T[np.isinf(T)] = math.inf
    return Sweep(rho0, T, np.array(orders)[best], orders, tau, radii,
                 c_const)


def sweep_csv(reports, wide=False):
    """Render the Sweep reports as CSV text, from its arrays.

    Columns: rho0, T, log10_T, r_opt; wide mode appends one tau_r<order>
    column per estimated order.
    """
    T = reports.T.tolist()
    columns = [reports.rho0.tolist(), T, list(map(math.log10, T)),
               reports.r_opt.tolist()]
    header = ["rho0", "T", "log10_T", "r_opt"]
    if wide:
        columns += reports.tau.tolist()
        header += [f"tau_r{r}" for r in reports.orders]
    template = ",".join([NUMBER] * 3 + ["%d"] + [NUMBER] * (len(columns) - 4))
    return "\n".join([",".join(header)]
                     + [template % row for row in zip(*columns)]) + "\n"

