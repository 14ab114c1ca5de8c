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

from . import polyalg as poly
from ._records import number
from .errors import OrderRangeError, StabilityDomainError

__all__ = [
    "DriftBound",
    "StabilityReport",
    "drift_bound",
    "escape_time",
    "stability_time",
    "sweep",
    "sweep_csv",
    "default_grid",
]

DEFAULT_C = 2.0


@dataclass(frozen=True)
class DriftBound:
    """Bound coefficient for one action at one order.

    The drift of I_j under the order-r normal form satisfies
    |dI_j/dt| < B * rho^(r+3) on the polydisc of radii rho*R, with
    B = c_const * |{I_j, F^(r+1)}|_R.  j is a 0-based action index.
    """

    r: int
    j: int
    B: float
    c_const: float

    def __post_init__(self):
        if self.B < 0.0:
            raise ValueError("drift bound must be nonnegative")


@dataclass(frozen=True)
class StabilityReport:
    """Escape-time optimization at a single starting radius."""

    rho0: float
    rho: float
    T: float
    r_opt: int
    per_order: tuple          # ((r, tau), ...) for every estimated order
    radii: tuple
    c_const: float

    @property
    def log10_T(self):
        return math.log10(self.T)


def drift_bound(state, r, radii, c_const=DEFAULT_C):
    """Per-action drift coefficients at order r.

    Uses the remainder block of index r+1 from the ledger, so r must
    satisfy 1 <= r <= state.r and r + 1 <= state.r_max.
    """
    if not 1 <= r <= state.r:
        raise OrderRangeError(
            f"order {r} outside the normalized range 1..{state.r}")
    if r + 1 > state.r_max:
        raise OrderRangeError(
            f"order {r} needs block {r + 1}, beyond r_max = {state.r_max}")
    if not 1.0 < c_const < math.inf:
        raise ValueError("the safety constant must exceed 1 and be finite")
    radii = poly._check_radii(radii, state.num_dof)
    block = state.remainder_block(r + 1)
    bounds = []
    for j in range(state.num_dof):
        # the action I_j is the oscillator of the unit frequency vector e_j
        unit = tuple(1.0 if t == j else 0.0 for t in range(state.num_dof))
        bracket = poly.poisson_bracket(poly.oscillator(unit), block)
        B = c_const * poly.polydisc_norm(bracket, radii)
        bounds.append(DriftBound(r=r, j=j, B=B, c_const=c_const))
    return bounds


def escape_time(rho0, rho, r, bounds, radii):
    """Worst-action time to grow from the rho0 polydisc to the rho one.

    Closed form of the separable radial bound drho/dt <= B rho^(r+2)/R_j^2:

        tau = min_j R_j^2 (rho0^-(r+1) - rho^-(r+1)) / ((r+1) B_j)

    Returns +inf when every bound coefficient is zero.
    """
    if not 0.0 < rho0 < rho:
        raise StabilityDomainError(
            f"need 0 < rho0 < rho, got rho0={rho0}, rho={rho}")
    if not bounds:
        raise ValueError("no drift bounds supplied")
    if any(b.r != r for b in bounds):
        raise ValueError("drift bounds were computed at a different order")
    radii = tuple(float(R) for R in radii)
    spread = rho0 ** (-(r + 1)) - rho ** (-(r + 1))
    best = math.inf
    for b in bounds:
        if b.B == 0.0:
            continue
        tau = radii[b.j] ** 2 * spread / ((r + 1) * b.B)
        if tau < best:
            best = tau
    return best


def _per_order_bounds(state, radii, c_const):
    top = min(state.r, state.r_max - 1)
    if top < 1:
        raise OrderRangeError(
            "state has no estimable order (need r >= 1 and r_max >= 2)")
    return [(r, drift_bound(state, r, radii, c_const))
            for r in range(1, top + 1)]


def _report(rho0, rho, order_bounds, radii, c_const):
    per_order = []
    best_T = -math.inf
    r_opt = None
    for r, bounds in order_bounds:
        tau = escape_time(rho0, rho, r, bounds, radii)
        per_order.append((r, tau))
        # infinite branches mean "this order sees no drift at all"; they
        # are reported but only finite branches compete for the optimum
        if not math.isinf(tau) and tau > best_T:
            best_T = tau
            r_opt = r
    if r_opt is None:
        best_T = math.inf
        r_opt = per_order[0][0]
    return StabilityReport(rho0=rho0, rho=rho, T=best_T, r_opt=r_opt,
                           per_order=tuple(per_order), radii=radii,
                           c_const=c_const)


def stability_time(state, rho0, radii, c_const=DEFAULT_C):
    """Optimize the escape time over every estimable order.

    The escape target is rho = 2*rho0.  Orders whose remainder block
    vanishes identically contribute an infinite escape time; the reported
    T is the best finite branch, or +inf when no drift is seen at any
    order.
    """
    return sweep(state, (rho0,), radii, c_const)[0]


def sweep(state, rho0_grid, radii, c_const=DEFAULT_C):
    """stability_time across a sorted grid of starting radii.

    Drift bounds depend only on the order, so they are computed once and
    shared by every grid point.
    """
    grid = [float(v) for v in rho0_grid]
    if not grid:
        raise ValueError("empty grid")
    if any(v <= 0.0 for v in grid):
        raise StabilityDomainError("rho0 must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    radii = poly._check_radii(radii, state.num_dof)
    order_bounds = _per_order_bounds(state, radii, c_const)
    return [_report(rho0, 2.0 * rho0, order_bounds, radii, c_const)
            for rho0 in grid]


def sweep_csv(reports, wide=False):
    """Render sweep results as CSV text.

    Columns: rho0, T, log10_T, r_opt; wide mode appends one tau_r<order>
    column per estimated order.
    """
    if not reports:
        raise ValueError("no reports to render")
    orders = [r for r, _ in reports[0].per_order]
    header = ["rho0", "T", "log10_T", "r_opt"]
    if wide:
        header += [f"tau_r{r}" for r in orders]
    lines = [",".join(header)]
    for rep in reports:
        row = [number(rep.rho0), number(rep.T), number(rep.log10_T),
               str(rep.r_opt)]
        if wide:
            taus = dict(rep.per_order)
            row += [number(taus[r]) for r in orders]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def default_grid(rho_ref=1.0, points=64):
    """Geometric grid over [0.3, 3.0] times the reference radius."""
    if points < 2:
        raise ValueError("need at least two grid points")
    lo = 0.3 * rho_ref
    hi = 3.0 * rho_ref
    ratio = hi / lo
    return tuple(lo * ratio ** (i / (points - 1)) for i in range(points))
