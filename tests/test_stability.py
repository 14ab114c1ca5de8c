"""Drift bounds, escape times, order optimization, sweep CSV."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import theta_weight
from bnfstab import stability
from bnfstab.birkhoff import NormalFormState, birkhoff_normal_form
from bnfstab.cli import _parse_grid, build_parser, main
from bnfstab.errors import (
    DimensionMismatchError,
    OrderRangeError,
    StabilityDomainError,
)
from bnfstab.polyalg import (
    Polynomial,
    oscillator,
    poisson_bracket,
    polydisc_norm,
)
from bnfstab.stability import _escape_times, drift_bound, sweep, sweep_csv
from util import (
    TWO_DOF_OMEGA,
    load_perfbench,
    mono,
    one_dof_series,
    two_dof_even_series,
)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)


def _quartic_state():
    # r = 1 ledger whose first remainder is exactly x^4
    return NormalFormState((1.0,), 1, 3, f={2: mono(1, (4,), (0,))})


def _escape_time(rho0, rho, r, B, radii):
    """The order-r escape time from rho0 to rho at the drift coefficients
    B[j] by _escape_times: a float, or an array for arrays of points."""
    rho0, rho = np.broadcast_arrays(np.asarray(rho0, float),
                                    np.asarray(rho, float))
    tau = _escape_times(rho0.ravel(), rho.ravel(), (r,),
                        np.array([B], float), radii)[0]
    return tau.reshape(rho0.shape) if rho0.ndim else float(tau[0])


def _one_point(result, i=0):
    """(rho0, T, r_opt, ((r, tau), ...)) of point i of a Sweep."""
    return (float(result.rho0[i]), float(result.T[i]),
            int(result.r_opt[i]),
            tuple(zip(result.orders, result.tau[:, i].tolist())))


def test_action_bracket_value():
    action = mono(1, (2,), (0,), 0.5) + mono(1, (0,), (2,), 0.5)
    br = poisson_bracket(action, mono(1, (4,), (0,)))
    assert br.terms() == [((3,), (1,), -4.0)]
    assert polydisc_norm(br, (1.0,)) == pytest.approx(
        4.0 * theta_weight((3,), (1,)), rel=1e-14)


def test_drift_bound_quartic_remainder():
    state = _quartic_state()
    bounds = drift_bound(state, 1, (1.0,))
    assert bounds.shape == (1,)
    B = bounds[0]
    assert B == pytest.approx(8.0 * theta_weight((3,), (1,)), rel=1e-14)
    half = drift_bound(state, 1, (0.5,))[0]
    assert half == pytest.approx(B / 16.0, rel=1e-12)  # degree-4 block


def test_drift_bound_rejects_bad_orders_and_constant():
    state = _quartic_state()
    with pytest.raises(OrderRangeError):
        drift_bound(state, 2, (1.0,))  # not normalized that far
    with pytest.raises(OrderRangeError):
        drift_bound(state, 0, (1.0,))
    with pytest.raises(ValueError):
        drift_bound(state, 1, (1.0,), c_const=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            drift_bound(state, 1, (1.0,), c_const=bad)


def test_escape_time_closed_form():
    for rho0 in (0.25, 0.5, 1.0, 2.0):
        tau = _escape_time(rho0, 2.0 * rho0, 1, [1.0], (1.0,))
        assert tau == pytest.approx(3.0 / (8.0 * rho0 ** 2), rel=1e-14)


def test_escape_time_doubling_law():
    for r in (1, 2, 5, 11, 18):
        t1 = _escape_time(1.0, 2.0, r, [0.37], (1.0,))
        t2 = _escape_time(0.5, 1.0, r, [0.37], (1.0,))
        assert t2 / t1 == 2.0 ** (r + 1)


def test_escape_time_matches_quadrature():
    radii = (1.3, 0.8)
    for r in (1, 3, 7):
        closed = _escape_time(0.4, 0.8, r, [0.9, 0.2], radii)
        quadr = oracles.escape_time_quadrature(0.4, 0.8, r, (0.9, 0.2),
                                               radii)
        assert closed == pytest.approx(quadr, rel=1e-10)


def test_escape_time_takes_worst_mode():
    tau = _escape_time(0.5, 1.0, 2, [1.0, 10.0], (1.0, 1.0))
    only_fast = _escape_time(0.5, 1.0, 2, [0.0, 10.0], (1.0, 1.0))
    assert tau == only_fast


def test_escape_time_zero_bound_is_infinite():
    assert math.isinf(_escape_time(0.5, 1.0, 1, [0.0], (1.0,)))
    assert math.isinf(_escape_time(0.5, 1.0, 1, [0.0, 0.0], (1.0, 2.0)))


def test_escape_time_domain_errors():
    with pytest.raises(StabilityDomainError):
        _escape_time(1.0, 0.5, 1, [1.0], (1.0,))
    with pytest.raises(StabilityDomainError):
        _escape_time(-1.0, 2.0, 1, [1.0], (1.0,))


def test_stability_time_picks_best_order():
    h = two_dof_even_series()
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    radii = (1.0, 1.0)
    rho0, T, r_opt, per_order = _one_point(sweep(state, (0.3,), radii))
    finite = [(tau, r) for r, tau in per_order if math.isfinite(tau)]
    assert finite, "even couplings must drift at some order"
    best_tau, best_r = max(finite)
    assert T == best_tau
    assert r_opt == best_r
    assert rho0 == 0.3
    # odd orders of an even Hamiltonian contribute, even orders cannot
    taus = dict(per_order)
    assert all(math.isinf(taus[r]) for r in taus if r % 2 == 0)


def test_stability_time_integrable_is_infinite():
    # no remainder at all: the bound never fires
    state = NormalFormState((1.0,), 2, 3)
    result = sweep(state, (1.0,), (1.0,))
    assert math.isinf(result.T[0])
    assert result.r_opt.tolist() == [1]


def test_sweep_matches_pointwise_reports():
    h = two_dof_even_series()
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 6)
    radii = (0.9, 1.1)
    grid = (0.3, 0.5, 0.8)
    result = sweep(state, grid, radii)
    assert result.rho0.tolist() == list(grid)
    for i, rho0 in enumerate(grid):
        assert _one_point(sweep(state, (rho0,), radii)) \
            == _one_point(result, i)


def test_sweep_rejects_bad_grid():
    state = _quartic_state()
    with pytest.raises(ValueError):
        sweep(state, (0.5, 0.5), (1.0,))
    with pytest.raises(ValueError):
        sweep(state, (0.5, 0.4), (1.0,))
    with pytest.raises(ValueError):
        sweep(state, (), (1.0,))


def test_sweep_csv_layout_and_roundtrip():
    h = two_dof_even_series()
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 6)
    result = sweep(state, (0.4, 0.6), (1.0, 1.0))
    rho0, T, r_opt, per_order = _one_point(result)
    text = sweep_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "rho0,T,log10_T,r_opt"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == rho0
    assert float(row[1]) == T  # 17 digits round-trip exactly
    assert int(row[3]) == r_opt

    wide = sweep_csv(result, wide=True)
    head = wide.strip().splitlines()[0].split(",")
    orders = [r for r, _ in per_order]
    assert head == ["rho0", "T", "log10_T", "r_opt"] + [
        f"tau_r{r}" for r in orders]
    taus = dict(per_order)
    wide_row = wide.strip().splitlines()[1].split(",")
    for col, r in zip(wide_row[4:], orders):
        if math.isinf(taus[r]):
            assert col == "inf"
        else:
            assert float(col) == taus[r]


def test_sweep_csv_infinite_time_token():
    state = NormalFormState((1.0,), 2, 3)
    text = sweep_csv(sweep(state, (1.0,), (1.0,)))
    row = text.strip().splitlines()[1].split(",")
    assert row[1] == "inf" and row[2] == "inf"


def test_default_grid_shape():
    args = build_parser().parse_args(["sweep", "--input", "nf.txt",
                                      "--radii", "1"])
    grid = _parse_grid(args.grid)
    assert len(grid) == 64
    assert grid[0] == pytest.approx(0.3, rel=1e-12)
    assert grid[-1] == pytest.approx(3.0, rel=1e-12)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) <= 1e-12


def test_escape_time_refuses_bad_radii():
    # the escape times take their radii from sweep, which checks them
    state = _quartic_state()
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radii must be positive"):
            sweep(state, (0.5,), (bad,))
    # one radius for each action
    for radii in ((), (1.0, 1.0)):
        with pytest.raises(DimensionMismatchError):
            sweep(state, (0.5,), radii)


def test_escape_time_takes_an_array_of_points():
    B = [0.7, 0.2]
    radii = (1.3, 0.8)
    rho0 = np.geomspace(0.05, 3.0, 9)
    taus = _escape_time(rho0, 2.0 * rho0, 3, B, radii)
    assert taus.shape == rho0.shape
    assert [t.hex() for t in taus.tolist()] == [
        _escape_time(v, 2.0 * v, 3, B, radii).hex() for v in rho0.tolist()]
    # the first point whose time leaves the floats is the one named
    with pytest.raises(StabilityDomainError, match="rho0=1e-200 "):
        _escape_time(np.array([0.5, 1e-200, 1e-300]), 1.0, 3, B, radii)


# -- the array grid against a loop over the points ----------------------------

def _rows(points):
    """(T, r_opt, per-order taus) of each point, as sweep_points gives
    them or as the reports of a Sweep hold them, to the bit."""
    return [(T.hex(), r_opt, tuple((r, tau.hex()) for r, tau in per_order))
            for T, r_opt, per_order in points]


def _points(result):
    return [_one_point(result, i)[1:] for i in range(len(result.rho0))]


def _sweep_outcome(run):
    try:
        return "swept", _rows(run())
    except StabilityDomainError as exc:
        return "StabilityDomainError", str(exc)


def _with_tie(draw, grid, orders, B, radii):
    """B with the row of one order replaced by a row of one nonzero entry
    whose time at one grid point equals the optimum there, when a value
    within a few ulps gives it exactly; else as it was."""
    at = draw(st.sampled_from(grid))
    try:
        T, r_opt, _ = oracles.sweep_points([at], orders, B, radii)[0]
    except StabilityDomainError:
        return B
    others = [k for k, r in enumerate(orders) if r != r_opt]
    if math.isinf(T) or not others:
        return B
    k = draw(st.sampled_from(others))
    r = orders[k]
    j = draw(st.integers(0, len(radii) - 1))
    try:
        spread = at ** -(r + 1) - (2.0 * at) ** -(r + 1)
    except OverflowError:
        return B
    b = radii[j] ** 2 * spread / ((r + 1) * T)
    for _ in range(4):
        b = math.nextafter(b, 0.0)
    for _ in range(8):
        if 0.0 < b < math.inf:
            row = np.zeros(len(radii))
            row[j] = b
            try:
                tau = oracles.escape_time_point(at, 2.0 * at, r, row, radii)
            except StabilityDomainError:
                return B
            if tau == T:
                tied = B.copy()
                tied[k] = row
                return tied
        b = math.nextafter(b, math.inf)
    return B


B_VALUES = (st.sampled_from([0.0, 0.0, 1.0, 0.625, 3.0, 1e-300, 1e300])
            | st.floats(1e-200, 1e200))
# powers of two give exact spreads; the extremes overflow or underflow tau
RHO0_VALUES = (st.sampled_from([1.0, 0.5, 0.25, 2.0, 1e-30, 1e30, 1e-200,
                                1e200])
               | st.floats(1e-6, 1e6))


@st.composite
def grid_cases(draw):
    """(grid, (orders, B), radii): drift coefficients with zeros, orders
    whose every B is zero, now and then a tie between orders, and extreme
    radii rho0."""
    n = draw(st.integers(1, 3))
    radii = tuple(draw(st.lists(st.sampled_from([1.0, 0.5, 2.0])
                                | st.floats(1e-3, 1e3), min_size=n,
                                max_size=n)))
    orders = sorted(draw(st.sets(st.integers(1, 24), min_size=1,
                                 max_size=5)))
    silent = draw(st.sampled_from([False] * 5 + [True]))
    B = np.zeros((len(orders), n))
    for k in range(len(orders)):
        # the actions left out keep a zero
        actions = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=n, unique=True))
        for j in actions:
            B[k, j] = 0.0 if silent else draw(B_VALUES)
    grid = sorted(draw(st.lists(RHO0_VALUES, min_size=1, max_size=6,
                                unique=True)))
    if draw(st.booleans()):
        B = _with_tie(draw, grid, orders, B, radii)
    return grid, (orders, B), radii


def _kinds(grid, bounds, outcome):
    """The cases an outcome of sweep_points covers."""
    kinds = set()
    if outcome[0] == "StabilityDomainError":
        rho0 = float(outcome[1].split()[0].split("=")[1])
        kinds.add("overflow" if rho0 < 1.0 else "underflow")
        return kinds
    orders, B = bounds
    if (B == 0.0).any():
        kinds.add("zero B")
    for T, r_opt, per_order in outcome[1]:
        if T == "inf":
            kinds.add("no drift")
            assert r_opt == orders[0]
        elif sum(tau == T for _, tau in per_order) > 1:
            kinds.add("tie")
    return kinds


# (grid, (orders, B), radii) with an exact tie at rho0 = 1: both orders
# give tau = 0.375
EXACT_TIE = ([1.0], ((1, 3), np.array([[1.0], [0.625]])), (1.0,))


def _sweep_of_bounds(grid, bounds, radii):
    """sweep over the grid with the given (orders, B) in place of a
    ledger's."""
    state = NormalFormState((1.0,) * len(radii), 1, 2)
    with mock.patch.object(stability, "_per_order_bounds",
                           lambda *args: bounds):
        return sweep(state, grid, radii)


def test_sweep_grid_matches_the_per_point_loop():
    seen = set()

    @settings(PROPERTY, max_examples=400)
    @given(grid_cases(), st.booleans())
    @example(EXACT_TIE, True)
    def same(case, wide):
        grid, bounds, radii = case
        got = _sweep_outcome(
            lambda: _points(_sweep_of_bounds(grid, bounds, radii)))
        want = _sweep_outcome(
            lambda: oracles.sweep_points(grid, *bounds, radii))
        assert got == want
        seen.update(_kinds(grid, bounds, want))
        if got[0] == "swept":
            result = _sweep_of_bounds(grid, bounds, radii)
            points = oracles.sweep_points(grid, *bounds, radii)
            assert sweep_csv(result, wide) == oracles.sweep_csv(
                grid, points, wide)

    same()
    assert seen >= {"zero B", "no drift", "tie", "overflow", "underflow"}
    assert _sweep_of_bounds(*EXACT_TIE).r_opt.tolist() == [1]


@functools.lru_cache(maxsize=None)
def _monomials(width, degree):
    """Every exponent vector of the given width and degree."""
    if width == 1:
        return ((degree,),)
    return tuple((e,) + rest for e in range(degree + 1)
                 for rest in _monomials(width - 1, degree - e))


@st.composite
def remainder_states(draw):
    """A ledger normalized to order r whose F blocks 2..r+1 are random, or
    zero now and then, with radii and a grid."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 4))
    f = {}
    for s in range(2, r + 2):
        terms = draw(st.dictionaries(st.sampled_from(_monomials(2 * n, s + 2)),
                                     st.floats(-10.0, 10.0), max_size=5))
        f[s] = Polynomial(n, {(e[:n], e[n:]): c for e, c in terms.items()})
    state = NormalFormState((1.0,) * n, r, r + 1, f=f)
    radii = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                max_size=n)))
    grid = sorted(draw(st.lists(RHO0_VALUES, min_size=1, max_size=5,
                                unique=True)))
    return state, radii, grid


@settings(PROPERTY)
@given(remainder_states(), st.booleans())
def test_sweep_matches_the_per_point_loop(case, wide):
    state, radii, grid = case
    orders = range(1, state.r + 1)
    B = [drift_bound(state, r, radii) for r in orders]
    got = _sweep_outcome(lambda: _points(sweep(state, grid, radii)))
    assert got == _sweep_outcome(
        lambda: oracles.sweep_points(grid, orders, B, radii))
    if got[0] == "swept":
        assert sweep_csv(sweep(state, grid, radii), wide) == oracles.sweep_csv(
            grid, oracles.sweep_points(grid, orders, B, radii), wide)


# -- the exponent-shift bracket against the kernel ----------------------------

def _kernel_bound(state, r, j, radii, c_const=2.0):
    """c |{I_j, F^(r+1)}|_R by the bracket kernel."""
    unit = tuple(1.0 if t == j else 0.0 for t in range(state.num_dof))
    bracket = poisson_bracket(oscillator(unit), state.remainder_block(r + 1))
    return c_const * polydisc_norm(bracket, radii)


def _bounds_outcome(bounds):
    try:
        return [B.hex() for B in bounds()]
    except ValueError as exc:   # a norm that overflows the floats
        return str(exc)


@st.composite
def real_blocks(draw):
    """(state, radii): a ledger of 1 to 4 DOF normalized to order s - 1 with
    one random real F block of index s."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(4, 6 if n < 4 else 5))
    coeffs = st.floats(-1e300, 1e300, allow_subnormal=False).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(_monomials(2 * n, degree)),
                                 coeffs, max_size=30))
    block = Polynomial(n, {(e[:n], e[n:]): c for e, c in terms.items()})
    s = degree - 2
    radii = tuple(draw(st.lists(st.floats(0.01, 100.0), min_size=n,
                                max_size=n)))
    return NormalFormState((1.0,) * n, s - 1, s, f={s: block}), radii


@settings(PROPERTY)
@given(real_blocks())
def test_drift_bound_matches_the_bracket_kernel(case):
    state, radii = case
    r = state.r
    assert _bounds_outcome(
        lambda: drift_bound(state, r, radii).tolist()) \
        == _bounds_outcome(lambda: [_kernel_bound(state, r, j, radii)
                                    for j in range(state.num_dof)])


@pytest.mark.parametrize("system, order", [("dense2", 14), ("dense3", 7),
                                           ("even2", 18)])
def test_drift_bound_matches_the_bracket_kernel_on_ledgers(
        tmp_path, monkeypatch, system, order):
    # the benchmark's seed-1 ledgers, written by the bnf command
    systems = load_perfbench("systems")
    ham, ledger = tmp_path / "system.ham", tmp_path / "nf.txt"
    ham.write_text(systems.system_text(system, 1))
    assert main(["bnf", "--input", str(ham), "--order", str(order),
                 "--out", str(ledger)]) == 0
    state = NormalFormState.from_text(ledger.read_text())
    radii = tuple(0.5 + 0.25 * l for l in range(state.num_dof))
    for r in range(1, min(state.r, state.r_max - 1) + 1):
        bounds = drift_bound(state, r, radii).tolist()
        assert [B.hex() for B in bounds] == [
            _kernel_bound(state, r, j, radii).hex()
            for j in range(state.num_dof)]
    # the one pass over every order that sweep and estimate make
    assert _batch_bounds(state, radii) == _kernel_bounds(state, radii)


def test_drift_bound_of_an_action_polynomial_is_zero():
    # F = I_0^2 and F = I_0 I_1 commute with every action
    actions = [mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5),
               mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5)]
    for F in (actions[0] * actions[0], actions[0] * actions[1]):
        state = NormalFormState((1.0, 2.0 ** 0.5), 1, 2, f={2: F})
        bounds = drift_bound(state, 1, (1.0, 0.5))
        assert bounds.tolist() == [0.0, 0.0]
        assert all(_kernel_bound(state, 1, j, (1.0, 0.5)) == 0.0
                   for j in range(2))


# -- the drift bounds of every order in one pass against a per-order loop ----

def _kernel_bounds(state, radii):
    """Every B of the estimable orders by the bracket kernel, order after
    order and action after action, or the message of the first fault."""
    top = min(state.r, state.r_max - 1)
    return _bounds_outcome(lambda: [
        _kernel_bound(state, r, j, radii)
        for r in range(1, top + 1) for j in range(state.num_dof)])


def _batch_bounds(state, radii):
    """Every B of the one pass that sweep makes, or its fault's message."""
    return _bounds_outcome(lambda: stability._per_order_bounds(
        state, radii, 2.0)[1].ravel().tolist())


@settings(PROPERTY)
@given(remainder_states())
def test_drift_bounds_of_every_order_match_a_per_order_loop(case):
    # F blocks 2..r+1 drawn at random, empty or zero now and then
    state, radii, _ = case
    assert _batch_bounds(state, radii) == _kernel_bounds(state, radii)


# coefficients whose brackets overflow, and radii at which the norms of
# the others overflow or underflow
FAULT_COEFFS = st.sampled_from([1e-300, 1.0, -1.0, 1e300, 1.7e308, -1.7e308])
FAULT_RADII = st.sampled_from([1e-80, 1e-10, 1.0, 1e10, 1e80])


@st.composite
def fault_states(draw):
    """(state, radii): a ledger normalized to order r whose F blocks hold
    coefficients and sit at radii that put faults at some of the orders."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 4))
    f = {}
    for s in range(2, r + 2):
        terms = draw(st.dictionaries(st.sampled_from(_monomials(2 * n, s + 2)),
                                     FAULT_COEFFS, max_size=4))
        f[s] = Polynomial(n, {(e[:n], e[n:]): c for e, c in terms.items()})
    radii = tuple(draw(st.lists(FAULT_RADII, min_size=n, max_size=n)))
    return NormalFormState((1.0,) * n, r, r + 1, f=f), radii


def _two_faults(first, second):
    """A 1-DOF ledger whose orders 1 and 2 hold the given coefficients: at
    radius 1e-10, 1e-300 underflows its norm and 1.7e308 overflows its
    bracket."""
    f = {2: mono(1, (3,), (1,), first), 3: mono(1, (4,), (1,), second)}
    return NormalFormState((1.0,), 2, 3, f=f), (1e-10,)


def test_drift_bound_faults_come_at_the_order_of_a_per_order_loop():
    seen = set()

    @settings(PROPERTY, max_examples=300)
    @given(fault_states())
    @example(_two_faults(1e-300, 1.7e308))
    @example(_two_faults(1.7e308, 1e-300))
    def same(case):
        state, radii = case
        want = _kernel_bounds(state, radii)
        assert _batch_bounds(state, radii) == want
        seen.add("bounded" if isinstance(want, list) else next(
            kind for kind in ("coefficient overflow", "overflows",
                              "underflows") if kind in want))

    same()
    assert seen == {"bounded", "coefficient overflow", "overflows",
                    "underflows"}
    assert _batch_bounds(*_two_faults(1e-300, 1.7e308)).endswith(
        "underflows to 0")
    assert _batch_bounds(*_two_faults(1.7e308, 1e-300)).startswith(
        "coefficient overflow")
