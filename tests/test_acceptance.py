"""End-to-end acceptance battery.

Each test covers one headline guarantee, prints a single PASS/FAIL line
(visible under pytest -s), and enforces its runtime budget.  Tolerances
are pinned here and nowhere else.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import oracles
from bnfstab.birkhoff import birkhoff_normal_form
from bnfstab.celestial import (
    fixture_path,
    load_fixture,
    poincare_variables,
)
from bnfstab.cli import main as cli_main
from bnfstab.errors import SmallDivisorError
from bnfstab.polyalg import (
    GradedSeries,
    polydisc_norm,
)
from bnfstab.spectrum import check_nonresonance
from bnfstab.stability import _escape_times, drift_bound, sweep
from util import (
    TWO_DOF_OMEGA,
    identity_residual,
    mono,
    one_dof_series,
    random_series,
    two_dof_even_series,
)


def _verdict(ok, label, started):
    elapsed = time.monotonic() - started
    print(f"{'PASS' if ok else 'FAIL'} - {label} ({elapsed:.2f} s)")
    assert ok, label


def test_one_dof_quartic_against_both_oracles():
    t0 = time.monotonic()
    h = one_dof_series({(4, 0): 1.0})
    state = birkhoff_normal_form(h, (1.0,), 2)
    coeff = state.z_action(2).coefficient((2,))

    averaged = oracles.circle_average(4, 0)           # = 3/8
    from_average = 4.0 * averaged                     # x^4 = (2I)^2 cos^4
    dense = oracles.one_dof_normal_form_dense(
        {(2, 0): 0.5, (0, 2): 0.5, (4, 0): 1.0}, 1.0, 2)
    from_dense = dense[2][2]

    ok = (abs(averaged - 0.375) <= 1e-12
          and abs(coeff - 1.5) <= 1e-12
          and abs(coeff - from_average) <= 1e-12
          and abs(coeff - from_dense) <= 1e-12
          and state.z_action(1).is_zero
          and time.monotonic() - t0 < 1.0)
    _verdict(ok, "one-DOF quartic: degree-4 kernel is (3/2) I^2 "
                 "(angular average + dense transform, 1e-12)", t0)


def test_homological_identity_every_order_every_run():
    t0 = time.monotonic()
    rng = np.random.default_rng(12021)
    runs = []

    runs.append(birkhoff_normal_form(one_dof_series({(4, 0): 1.0}),
                                     (1.0,), 8))
    for _ in range(3):
        h = random_series(rng, 1, (1.0,), d_max=8)
        runs.append(birkhoff_normal_form(h, (1.0,), 6))
    runs.append(birkhoff_normal_form(
        random_series(rng, 2, TWO_DOF_OMEGA, d_max=7), TWO_DOF_OMEGA, 5))
    omega3 = (1.0, 2.0 ** 0.5, 3.0 ** 0.5)
    runs.append(birkhoff_normal_form(
        random_series(rng, 3, omega3, d_max=6), omega3, 4))
    runs.append(birkhoff_normal_form(two_dof_even_series(d_max=12),
                                     TWO_DOF_OMEGA, 10))
    runs.append(birkhoff_normal_form(
        random_series(rng, 2, TWO_DOF_OMEGA, d_max=6), TWO_DOF_OMEGA, 4))
    # and so does the partial ledger left behind by a small divisor
    try:
        birkhoff_normal_form(GradedSeries.from_polynomial(
            mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
            + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5)
            + mono(2, (3, 0), (0, 0)) + mono(2, (2, 2), (0, 0)),
            d_max=6), (1.0, 1.0), 4)
    except SmallDivisorError as exc:
        runs.append(exc.state)

    worst = 0.0
    checked = 0
    for run in runs:
        for s in range(1, run.r + 1):
            worst = max(worst, identity_residual(run, s))
            checked += 1
    ok = checked >= 40 and worst <= 1e-12
    _verdict(ok, f"homological identity at all {checked} orders of "
                 f"{len(runs)} runs (worst residual {worst:.2e}, 1e-12)", t0)


def test_polydisc_norm_majorizes_sampled_sup():
    t0 = time.monotonic()
    rng = np.random.default_rng(40921)
    violations = 0
    from util import random_polynomial
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 9))
        f = random_polynomial(rng, n, d, num_terms=int(rng.integers(1, 9)))
        if f.is_zero:
            continue
        radii = tuple(rng.uniform(0.3, 2.0, size=n))
        rho = float(rng.uniform(0.1, 2.0))
        bound = rho ** d * polydisc_norm(f, radii)
        pts = oracles.sample_polydisc(radii, rho, 10_000, rng)
        sampled = float(np.max(np.abs(oracles.eval_terms(f.terms(), pts))))
        if sampled > bound * (1.0 + 1e-12):
            violations += 1
    elapsed_ok = time.monotonic() - t0 < 30.0
    _verdict(violations == 0 and elapsed_ok,
             "polydisc norm majorizes the sampled sup on 100 random "
             "homogeneous polynomials x 10^4 points "
             f"({violations} violations)", t0)


def test_escape_time_quadrature_and_doubling():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    worst_double = 0.0
    for r in range(1, 19):
        b_vals = rng.uniform(0.05, 3.0, size=2)
        radii = tuple(rng.uniform(0.5, 2.0, size=2))
        rho0 = float(rng.uniform(0.2, 1.0))
        # rho0 -> 2 rho0 and its halving rho0 / 2 -> rho0, in one call
        closed, half = _escape_times(
            np.array([rho0, rho0 / 2.0]), np.array([2.0 * rho0, rho0]),
            (r,), b_vals[None], radii)[0].tolist()
        quadr = oracles.escape_time_quadrature(
            rho0, 2.0 * rho0, r, b_vals, radii)
        worst_rel = max(worst_rel, abs(closed - quadr) / quadr)
        worst_double = max(worst_double,
                           abs(half / closed - 2.0 ** (r + 1)) / 2.0 ** (r + 1))
    ok = worst_rel <= 1e-9 and worst_double <= 1e-13
    _verdict(ok, "escape time: quadrature agreement over r=1..18 "
                 f"(worst rel {worst_rel:.2e}, 1e-9) and halving law "
                 f"2^(r+1) to rounding ({worst_double:.2e})", t0)


def test_staircase_and_superpolynomial_growth():
    t0 = time.monotonic()
    h = two_dof_even_series(d_max=20)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 18)
    radii = (1.0, 1.0)
    grid = tuple(np.geomspace(0.25, 1.0, 48))
    result = sweep(state, grid, radii)
    rho0s, Ts = result.rho0.tolist(), result.T.tolist()
    r_opts = result.r_opt.tolist()

    assert state.r == 18
    assert all(map(math.isfinite, Ts))

    monotone = all(a >= b for a, b in zip(r_opts, r_opts[1:]))
    segments = len(set(r_opts))

    # within a constant-r_opt segment log T is affine in log rho0 with
    # slope exactly -(r_opt + 1)
    worst_slope = 0.0
    for i in range(1, len(grid)):
        if r_opts[i - 1] != r_opts[i]:
            continue
        slope = ((math.log(Ts[i]) - math.log(Ts[i - 1]))
                 / (math.log(rho0s[i]) - math.log(rho0s[i - 1])))
        worst_slope = max(worst_slope, abs(slope + (r_opts[i - 1] + 1)))

    # the full curve beats the power law of every shallower segment
    beats_all = True
    for rho0, T, r_opt in zip(rho0s[1:], Ts[1:], r_opts[1:]):
        if r_opt >= r_opts[0]:
            continue
        extrapolated = T * (rho0s[0] / rho0) ** -(r_opt + 1)
        if Ts[0] <= extrapolated:
            beats_all = False

    elapsed_ok = time.monotonic() - t0 < 300.0
    ok = (monotone and segments >= 3 and worst_slope <= 1e-9
          and beats_all and elapsed_ok)
    _verdict(ok, f"order-18 sweep staircase: {segments} optimal-order "
                 f"segments, slopes -(r_opt+1) (worst dev "
                 f"{worst_slope:.2e}, 1e-9), growth beats every fixed "
                 "power law", t0)


def test_nonresonance_matches_exhaustive_enumeration():
    t0 = time.monotonic()
    omega = (1.0, 2.0 ** 0.5)
    cert = check_nonresonance(omega, 20)
    md, argmins, shells = oracles.exhaustive_divisor_scan(omega, 20)
    gamma, tau = oracles.diophantine_fit(shells, 20)
    shell_ok = all(shells[K] >= cert.gamma * K ** (-cert.tau_dioph)
                   * (1.0 - 1e-12) for K in range(1, 21))
    ok = (cert.min_divisor == md
          and tuple(cert.argmin_k) in {tuple(k) for k in argmins}
          and cert.gamma == gamma
          and cert.tau_dioph == tau
          and cert.certified
          and shell_ok)
    _verdict(ok, "small-divisor scan equals exhaustive enumeration at "
                 f"k_max=20 exactly (min {md:.6e} at k={cert.argmin_k})", t0)


def test_fixture_bit_exact_and_conversion_oracle():
    t0 = time.monotonic()
    bodies, m0 = load_fixture("sjs-jd2451220.5")
    jup, sat = bodies
    table = [
        (m0, 4.0 * math.pi ** 2),
        (jup.mass, 4.0 * math.pi ** 2 / 1047.355),
        (sat.mass, 4.0 * math.pi ** 2 / 3498.5),
        (jup.semi_major_axis, 5.20092253448245),
        (jup.mean_anomaly, 6.14053316064644),
        (jup.eccentricity, 0.04814707261917873),
        (jup.perihelion_argument, 1.18977636117073),
        (jup.inclination, 0.006301433258242599),
        (jup.node_longitude, 3.51164756250381),
        (sat.semi_major_axis, 9.55716977296997),
        (sat.mean_anomaly, 5.37386251998842),
        (sat.eccentricity, 0.05381979488308911),
        (sat.perihelion_argument, 5.65165124779163),
        (sat.inclination, 0.01552738031933247),
        (sat.node_longitude, 0.370054908914043),
    ]
    epoch_in_name = "2451220.5" in fixture_path("sjs-jd2451220.5").name
    bit_exact = all(a == b for a, b in table) and epoch_in_name

    state = poincare_variables(bodies, m0)
    worst = 0.0
    for i, b in enumerate(bodies):
        expect = oracles.poincare_mp(
            b.mass, m0, b.semi_major_axis, b.eccentricity,
            b.mean_anomaly, b.perihelion_argument)
        got = (state.Lambda[i], state.lam[i], state.xi[i], state.eta[i])
        for g, e in zip(got, expect):
            worst = max(worst, abs(g - e) / abs(e))
    ecc = oracles.eccentricities(state)
    ecc_worst = max(abs(e - b.eccentricity) / b.eccentricity
                    for e, b in zip(ecc, bodies))
    ok = bit_exact and worst <= 1e-13 and ecc_worst <= 1e-13
    _verdict(ok, "ephemeris fixture bit-exact (16 values) and Poincare "
                 f"conversion vs 50-digit oracle (worst {worst:.2e}, "
                 f"1e-13; eccentricity roundtrip {ecc_worst:.2e})", t0)


def test_drift_bound_dominates_measured_rate():
    t0 = time.monotonic()
    h = one_dof_series({(3, 0): 0.3, (4, 0): 0.4}, d_max=8)
    r = 2
    radii = (1.0,)
    # F s=3 of the ledger is block 3 of the order-2 Hamiltonian
    state = birkhoff_normal_form(h, (1.0,), 6)
    bound = drift_bound(state, r, radii, c_const=2.0)[0]

    # the order-2 Hamiltonian through degree 8, by the dict step
    chart = oracles.chart_change(h.to_polynomial().terms(), 1, -1)
    blocks = {}
    for (j, k), c in oracles.pruned(chart).items():
        blocks.setdefault(j[0] + k[0], {})[(j, k)] = c
    for s in range(1, r + 1):
        oracles.step_chart(blocks, s, (1.0,), 1, 1e-9, 8)
    real = oracles.chart_change(
        [(j, k, c) for block in blocks.values()
         for (j, k), c in block.items()], 1, 1)
    truncated = [(j, k, c.real) for (j, k), c in
                 oracles.pruned(real).items()]
    rate = oracles.action_rate_terms(truncated, 0, 1)
    rng = np.random.default_rng(2024)
    ok = True
    ratios = []
    for rho in (0.1, 0.2, 0.4):
        cap = bound * rho ** (r + 3)
        pts = oracles.sample_polydisc(radii, rho, 4000, rng)
        static_max = float(np.max(np.abs(
            oracles.eval_terms(rate, pts).real)))
        # short numerically integrated orbits, rate sampled along the way
        flow_max = 0.0
        for ic in pts[:8]:
            sol = oracles.hamiltonian_flow(truncated, ic,
                                           (0.0, 1.0), 1, max_step=0.05)
            inside = (sol.y[0] ** 2 + sol.y[1] ** 2
                      <= (rho * radii[0]) ** 2 * (1 + 1e-9))
            if inside.any():
                vals = np.abs(oracles.eval_terms(
                    rate, sol.y.T[inside]).real)
                flow_max = max(flow_max, float(np.max(vals)))
        observed = max(static_max, flow_max)
        ratios.append(observed / cap)
        ok = ok and observed <= cap
    elapsed_ok = time.monotonic() - t0 < 60.0
    _verdict(ok and elapsed_ok,
             "analytic drift bound dominates the measured action rate at "
             f"rho=0.1/0.2/0.4 (ratios {', '.join(f'{x:.2f}' for x in ratios)})",
             t0)


def test_repeated_cli_runs_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    ham = tmp_path / "system.txt"
    ham.write_text(two_dof_even_series(d_max=10).to_text())
    nf = tmp_path / "nf.txt"
    csv = tmp_path / "sweep.csv"

    def run_once():
        assert cli_main(["bnf", "--input", str(ham), "--order", "6",
                         "--out", str(nf)]) == 0
        assert cli_main(["sweep", "--input", str(nf),
                         "--grid", "0.3:1.5:16:log", "--radii", "0.8,1.1",
                         "--out", str(csv)]) == 0
        return (hashlib.sha256(nf.read_bytes()).hexdigest(),
                hashlib.sha256((tmp_path / "nf.txt.cert").read_bytes())
                .hexdigest(),
                hashlib.sha256(csv.read_bytes()).hexdigest())

    first = run_once()
    second = run_once()
    ok = first == second
    _verdict(ok, "repeated normalize + sweep runs produce byte-identical "
                 "artifacts (state, certificate, CSV)", t0)
