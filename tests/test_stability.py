"""Drift bounds, escape times, order optimization, sweep CSV."""

import math

import numpy as np
import pytest

import oracles
from bnfstab.birkhoff import NormalFormState, birkhoff_normal_form
from bnfstab.errors import OrderRangeError, StabilityDomainError
from bnfstab.polyalg import poisson_bracket, polydisc_norm, theta_weight
from bnfstab.stability import (
    DriftBound,
    default_grid,
    drift_bound,
    escape_time,
    stability_time,
    sweep,
    sweep_csv,
)
from util import TWO_DOF_OMEGA, mono, one_dof_series, two_dof_even_series


def _quartic_state():
    # r = 1 ledger whose first remainder is exactly x^4
    return NormalFormState((1.0,), 1, 3, f={2: mono(1, (4,), (0,))})


def test_action_bracket_value():
    action = mono(1, (2,), (0,), 0.5) + mono(1, (0,), (2,), 0.5)
    br = poisson_bracket(action, mono(1, (4,), (0,)))
    assert br.terms() == [((3,), (1,), -4.0)]
    assert polydisc_norm(br, (1.0,)) == pytest.approx(
        4.0 * theta_weight((3,), (1,)), rel=1e-14)


def test_drift_bound_quartic_remainder():
    state = _quartic_state()
    bounds = drift_bound(state, 1, (1.0,))
    assert len(bounds) == 1
    b = bounds[0]
    assert b.r == 1 and b.j == 0 and b.c_const == 2.0
    assert b.B == pytest.approx(8.0 * theta_weight((3,), (1,)), rel=1e-14)
    half = drift_bound(state, 1, (0.5,))[0]
    assert half.B == pytest.approx(b.B / 16.0, rel=1e-12)  # degree-4 block


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
    bounds = [DriftBound(r=1, j=0, B=1.0, c_const=2.0)]
    for rho0 in (0.25, 0.5, 1.0, 2.0):
        tau = escape_time(rho0, 2.0 * rho0, 1, bounds, (1.0,))
        assert tau == pytest.approx(3.0 / (8.0 * rho0 ** 2), rel=1e-14)


def test_escape_time_doubling_law():
    for r in (1, 2, 5, 11, 18):
        bounds = [DriftBound(r=r, j=0, B=0.37, c_const=2.0)]
        t1 = escape_time(1.0, 2.0, r, bounds, (1.0,))
        t2 = escape_time(0.5, 1.0, r, bounds, (1.0,))
        assert t2 / t1 == 2.0 ** (r + 1)


def test_escape_time_matches_quadrature():
    radii = (1.3, 0.8)
    for r in (1, 3, 7):
        bounds = [DriftBound(r=r, j=0, B=0.9, c_const=2.0),
                  DriftBound(r=r, j=1, B=0.2, c_const=2.0)]
        closed = escape_time(0.4, 0.8, r, bounds, radii)
        quadr = oracles.escape_time_quadrature(0.4, 0.8, r, (0.9, 0.2),
                                               radii)
        assert closed == pytest.approx(quadr, rel=1e-10)


def test_escape_time_takes_worst_mode():
    bounds = [DriftBound(r=2, j=0, B=1.0, c_const=2.0),
              DriftBound(r=2, j=1, B=10.0, c_const=2.0)]
    tau = escape_time(0.5, 1.0, 2, bounds, (1.0, 1.0))
    only_fast = escape_time(0.5, 1.0, 2,
                            [DriftBound(r=2, j=1, B=10.0, c_const=2.0)],
                            (1.0, 1.0))
    assert tau == only_fast


def test_escape_time_zero_bound_is_infinite():
    bounds = [DriftBound(r=1, j=0, B=0.0, c_const=2.0)]
    assert math.isinf(escape_time(0.5, 1.0, 1, bounds, (1.0,)))


def test_escape_time_domain_errors():
    bounds = [DriftBound(r=1, j=0, B=1.0, c_const=2.0)]
    with pytest.raises(StabilityDomainError):
        escape_time(1.0, 0.5, 1, bounds, (1.0,))
    with pytest.raises(StabilityDomainError):
        escape_time(-1.0, 2.0, 1, bounds, (1.0,))
    with pytest.raises(ValueError):
        escape_time(0.5, 1.0, 2, bounds, (1.0,))  # bounds carry r=1


def test_stability_time_picks_best_order():
    h = two_dof_even_series()
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    radii = (1.0, 1.0)
    report = stability_time(state, 0.3, radii)
    finite = [(tau, r) for r, tau in report.per_order if math.isfinite(tau)]
    assert finite, "even couplings must drift at some order"
    best_tau, best_r = max(finite)
    assert report.T == best_tau
    assert report.r_opt == best_r
    assert report.rho0 == 0.3 and report.rho == 0.6
    assert report.log10_T == pytest.approx(math.log10(best_tau))
    # odd orders of an even Hamiltonian contribute, even orders cannot
    taus = dict(report.per_order)
    assert all(math.isinf(taus[r]) for r in taus if r % 2 == 0)


def test_stability_time_integrable_is_infinite():
    # no remainder at all: the bound never fires
    state = NormalFormState((1.0,), 2, 3)
    report = stability_time(state, 1.0, (1.0,))
    assert math.isinf(report.T)
    assert report.r_opt == 1


def test_sweep_matches_pointwise_reports():
    h = two_dof_even_series()
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 6)
    radii = (0.9, 1.1)
    grid = (0.3, 0.5, 0.8)
    reports = sweep(state, grid, radii)
    assert [rep.rho0 for rep in reports] == list(grid)
    for rep in reports:
        single = stability_time(state, rep.rho0, radii)
        assert single.T == rep.T
        assert single.r_opt == rep.r_opt


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
    reports = sweep(state, (0.4, 0.6), (1.0, 1.0))
    text = sweep_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "rho0,T,log10_T,r_opt"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == reports[0].rho0
    assert float(row[1]) == reports[0].T  # 17 digits round-trip exactly
    assert int(row[3]) == reports[0].r_opt

    wide = sweep_csv(reports, wide=True)
    head = wide.strip().splitlines()[0].split(",")
    orders = [r for r, _ in reports[0].per_order]
    assert head == ["rho0", "T", "log10_T", "r_opt"] + [
        f"tau_r{r}" for r in orders]
    taus = dict(reports[0].per_order)
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
    grid = default_grid()
    assert len(grid) == 64
    assert grid[0] == pytest.approx(0.3, rel=1e-12)
    assert grid[-1] == pytest.approx(3.0, rel=1e-12)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) <= 1e-12
    scaled = default_grid(rho_ref=2.0, points=5)
    assert scaled[0] == pytest.approx(0.6) and scaled[-1] == pytest.approx(6.0)


def test_drift_bound_requires_positive_bound_invariants():
    with pytest.raises(ValueError):
        DriftBound(r=1, j=0, B=-0.5, c_const=2.0)
