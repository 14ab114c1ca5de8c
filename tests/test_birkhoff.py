"""Normal-form construction: homological identity, oracle equality,
ledger semantics, transforms."""

import math

import numpy as np
import pytest

import oracles
from bnfstab.birkhoff import (
    ActionPolynomial,
    NormalFormState,
    birkhoff_normal_form,
    compose_transform,
    frequencies_of_actions,
    normalize_step,
    solve_homological,
)
from bnfstab.errors import (
    FormatError,
    GradingError,
    OrderRangeError,
    SmallDivisorError,
)
from bnfstab.polyalg import GradedSeries, Polynomial, poisson_bracket
from util import (
    TWO_DOF_OMEGA,
    mono,
    one_dof_series,
    random_series,
    two_dof_even_series,
)


def _identity_residual(state, s):
    """max coeff of L_H0 chi_s - Z_s + Q_s, relative to the block scale."""
    chi = state.generator(s)
    z = state.z_action(s).to_polynomial()
    q = state.remainder_block(s)
    resid = poisson_bracket(state.h0_polynomial(), chi, cap=s + 2) \
        + z.scale(-1.0) + q
    scale = max(1.0, q.max_abs_coeff(), z.max_abs_coeff())
    return resid.max_abs_coeff() / scale


def test_quartic_kernel_matches_angular_average():
    h = one_dof_series({(4, 0): 1.0})
    state = birkhoff_normal_form(h, (1.0,), 2)
    # the first normalized order is empty, the second averages x^4
    assert state.z_action(1).is_zero
    expected = 4.0 * oracles.circle_average(4, 0)
    assert state.z_action(2).coefficient((2,)) == pytest.approx(
        expected, rel=1e-12)
    assert state.z_action(2).coefficient((2,)) == pytest.approx(1.5,
                                                                rel=1e-12)


def test_frequencies_linear_in_action_for_quartic():
    h = one_dof_series({(4, 0): 1.0})
    state = birkhoff_normal_form(h, (1.0,), 2)
    for I in (0.0, 0.01, 0.3):
        freq = frequencies_of_actions(state, (I,))
        assert freq[0] == pytest.approx(1.0 + 3.0 * I, rel=1e-12)
    with pytest.raises(ValueError):
        frequencies_of_actions(state, (-0.1,))


def test_one_dof_matches_dense_oracle():
    rng = np.random.default_rng(333)
    for trial in range(6):
        terms = {(2, 0): 0.5, (0, 2): 0.5}
        for _ in range(4):
            jx = int(rng.integers(0, 5))
            ky = int(rng.integers(0, 5 - jx))
            if jx + ky < 3:
                continue
            terms[(jx, ky)] = terms.get((jx, ky), 0.0) + float(
                rng.uniform(-0.5, 0.5))
        if all(sum(e) < 3 for e in terms):
            continue
        series = one_dof_series(
            {e: c for e, c in terms.items() if sum(e) > 2}, d_max=8)
        state = birkhoff_normal_form(series, (1.0,), 6)
        expected = oracles.one_dof_normal_form_dense(terms, 1.0, 6)
        for s in range(1, 7):
            mine = dict(state.z_action(s).terms())
            theirs = {(): 0.0}
            for p, c in expected[s].items():
                if abs(c) > 1e-12:
                    theirs[(p,)] = c
            theirs.pop((), None)
            assert set(mine) == set(theirs), (trial, s)
            for p, c in theirs.items():
                assert mine[p] == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_homological_identity_random_systems():
    rng = np.random.default_rng(55)
    for n, omega in [(1, (1.0,)), (2, TWO_DOF_OMEGA),
                     (3, (1.0, 2.0 ** 0.5, 3.0 ** 0.5))]:
        h = random_series(rng, n, omega, d_max=7)
        state = birkhoff_normal_form(h, omega, 5)
        for s in range(1, state.r + 1):
            assert _identity_residual(state, s) <= 1e-12, (n, s)


def test_normalized_part_commutes_with_actions():
    h = two_dof_even_series(d_max=10)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    z_total = state.z_total_action().to_polynomial()
    for l in range(2):
        action = (mono(2, tuple(2 if t == l else 0 for t in range(2)),
                       (0, 0), 0.5)
                  + mono(2, (0, 0),
                         tuple(2 if t == l else 0 for t in range(2)), 0.5))
        br = poisson_bracket(action, z_total)
        assert br.max_abs_coeff() <= 1e-12 * max(1.0,
                                                 z_total.max_abs_coeff())


def test_even_hamiltonian_has_no_odd_orders():
    h = two_dof_even_series(d_max=10)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    for s in range(1, 9):
        if s % 2:
            assert state.z_action(s).is_zero
            assert state.generator(s).is_zero
            assert state.remainder_block(s).is_zero


def test_stepwise_matches_pipeline():
    rng = np.random.default_rng(77)
    omega = TWO_DOF_OMEGA
    h = random_series(rng, 2, omega, d_max=6)
    full = birkhoff_normal_form(h, omega, 4)

    blocks = {s: h.component(s + 2) for s in range(1, 5)}
    state = NormalFormState(omega, 0, 4,
                            f={s: b for s, b in blocks.items()
                               if not b.is_zero})
    while state.r < state.r_max:
        state = normalize_step(state)

    assert state.r == full.r == 4
    for s in range(1, 5):
        za, zb = state.z_action(s), full.z_action(s)
        assert set(dict(za.terms())) == set(dict(zb.terms()))
        for p, c in za.terms():
            assert zb.coefficient(p) == pytest.approx(c, rel=1e-9,
                                                      abs=1e-12)
        dchi = state.generator(s) + full.generator(s).scale(-1.0)
        assert dchi.max_abs_coeff() <= 1e-9 * max(
            1.0, full.generator(s).max_abs_coeff())
        df = state.remainder_block(s) + full.remainder_block(s).scale(-1.0)
        assert df.max_abs_coeff() <= 1e-9 * max(
            1.0, full.remainder_block(s).max_abs_coeff())


def test_normalize_step_past_rmax_raises():
    h = one_dof_series({(3, 0): 1.0}, d_max=5)
    state = birkhoff_normal_form(h, (1.0,), 3)
    with pytest.raises(OrderRangeError):
        normalize_step(state)


def test_small_divisor_carries_partial_state():
    # omega = (1, 1): quartic monomials hit <k, omega> = 0 divisors, the
    # cubic order goes through untouched
    omega = (1.0, 1.0)
    h2 = (mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
          + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5))
    h = GradedSeries.from_polynomial(
        h2 + mono(2, (3, 0), (0, 0)) + mono(2, (2, 2), (0, 0)), d_max=6)
    with pytest.raises(SmallDivisorError) as info:
        birkhoff_normal_form(h, omega, 4)
    err = info.value
    assert err.order == 2
    assert err.state is not None and err.state.r == 1
    assert err.k is not None
    assert abs(sum(e * w for e, w in zip(err.k, omega))) == pytest.approx(
        abs(err.divisor), abs=1e-15)
    # the partial ledger still satisfies the order-1 identity
    assert _identity_residual(err.state, 1) <= 1e-12


def test_normalize_step_small_divisor_keeps_the_input_order():
    # the same 1:1 system, stepped: the cubic order goes through, the
    # quartic order holds exact resonances
    omega = (1.0, 1.0)
    h2 = (mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
          + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5))
    h = GradedSeries.from_polynomial(
        h2 + mono(2, (3, 0), (0, 0)) + mono(2, (2, 2), (0, 0)), d_max=6)
    state = NormalFormState(
        omega, 0, 4, f={s: h.component(s + 2) for s in (1, 2)})
    state = normalize_step(state)
    with pytest.raises(SmallDivisorError) as info:
        normalize_step(state)
    err = info.value
    assert err.order == state.r + 1
    assert err.state.r == state.r
    assert _identity_residual(err.state, 1) <= 1e-12
    # a tolerance outside (0, inf) is refused before any division
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            normalize_step(state, tol=bad)
        with pytest.raises(ValueError):
            birkhoff_normal_form(h, omega, 4, tol=bad)


def test_solve_homological_cubic():
    q = mono(1, (3,), (0,))
    chi, z = solve_homological(q, (1.0,))
    assert z.is_zero  # x^3 has no resonant average
    assert chi.field == "real"
    resid = poisson_bracket(
        Polynomial.monomial(1, (2,), (0,), 0.5)
        + Polynomial.monomial(1, (0,), (2,), 0.5), chi, cap=3) + q
    assert resid.max_abs_coeff() <= 1e-13


def test_solve_homological_resonant_monomial():
    q = mono(2, (2, 0), (0, 2))  # omega.(j - k) = 2 - 2 = 0 at the 1:1 resonance
    with pytest.raises(SmallDivisorError):
        solve_homological(q, (1.0, 1.0))


def test_solve_homological_kernel_passthrough():
    # (x^2 + y^2)^2 / 4 = I^2 is entirely resonant: chi = 0, Z = I^2
    x2y2 = mono(1, (2,), (0,)) + mono(1, (0,), (2,))
    q = (x2y2 * x2y2).scale(0.25)
    chi, z = solve_homological(q, (1.0,))
    assert chi.is_zero
    assert z.coefficient((2,)) == pytest.approx(1.0, rel=1e-14)


def test_birkhoff_rejects_nondiagonal_h2():
    h2 = mono(1, (2,), (0,), 1.0) + mono(1, (0,), (2,), 0.5)
    h = GradedSeries.from_polynomial(h2 + mono(1, (3,), (0,)), d_max=5)
    with pytest.raises(ValueError):
        birkhoff_normal_form(h, (1.0,), 2)


def test_compose_transform_roundtrip_and_energy():
    rng = np.random.default_rng(99)
    omega = TWO_DOF_OMEGA
    h = random_series(rng, 2, omega, d_max=8)
    state = birkhoff_normal_form(h, omega, 6)

    pts = rng.uniform(-0.04, 0.04, size=(25, 4))
    fwd = compose_transform(state, pts, direction="forward")
    back = compose_transform(state, fwd, direction="inverse")
    assert np.max(np.abs(back - pts)) <= 1e-11

    # energy: H(p) agrees with the normal form at the transformed point up
    # to the truncation scale (plus a rounding floor)
    nf = state.normal_form_series()
    for p, q in zip(pts, fwd):
        e_old = h.evaluate(p)
        e_new = nf.evaluate(q)
        trunc = 100.0 * float(np.max(np.abs(p))) ** (state.r + 3)
        assert abs(e_old - e_new) <= trunc + 1e-13 * max(1.0, abs(e_old))


def test_compose_transform_single_point_shape():
    h = one_dof_series({(3, 0): 0.5})
    state = birkhoff_normal_form(h, (1.0,), 3)
    out = compose_transform(state, [0.01, 0.02])
    assert np.asarray(out).shape == (2,)


def test_state_text_roundtrip():
    rng = np.random.default_rng(21)
    h = random_series(rng, 2, TWO_DOF_OMEGA, d_max=6)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 4)
    text = state.to_text()
    again = NormalFormState.from_text(text)
    assert again == state
    assert again.to_text() == text


def test_state_text_errors():
    h = one_dof_series({(3, 0): 1.0}, d_max=5)
    state = birkhoff_normal_form(h, (1.0,), 3)
    text = state.to_text()
    with pytest.raises(FormatError):
        NormalFormState.from_text(text.replace("END\n", ""))
    with pytest.raises(FormatError):
        NormalFormState.from_text(text.replace("NFSTATE", "NFSTATS"))
    with pytest.raises(FormatError):
        NormalFormState.from_text("NFSTATE n=1 r=0 rmax=2\nEND\n")  # no OMEGA
    with pytest.raises(FormatError):
        NormalFormState.from_text("NFSTATE n=0 r=0 rmax=1\nZ s=1\n1\nEND\n")
    for body, line in (("OMEGA nan\n", 2),
                       ("OMEGA 1\nF s=1\n3 3 0 inf\n", 4),
                       ("OMEGA 1\nZ s=2\n2 -inf\n", 4),
                       ("OMEGA 1\nF s=1\n3 3 0 1\nF s=1\n", 5),
                       ("OMEGA 1\nCHI s=1\nCHI s=1\n", 4),
                       ("OMEGA 1\nZ s=2\n2 1\nF s=1\nZ s=2\n", 6),
                       ("OMEGA 1\nZ s=2\n-1 3\n", 4)):
        with pytest.raises(FormatError) as info:
            NormalFormState.from_text(f"NFSTATE n=1 r=2 rmax=2\n{body}END\n")
        assert info.value.line == line


def test_state_validates_grading():
    with pytest.raises(GradingError):
        NormalFormState((1.0,), 1, 3, chi={1: mono(1, (4,), (0,))})
    with pytest.raises(OrderRangeError):
        NormalFormState((1.0,), 1, 3, f={7: mono(1, (9,), (0,))})
    with pytest.raises(GradingError):
        NormalFormState((1.0,), 2, 3,
                        z={2: ActionPolynomial(1, {(1,): 1.0})})


def test_action_polynomial_to_polynomial():
    # I^2 = ((x^2 + y^2)/2)^2
    a = ActionPolynomial(1, {(2,): 1.0})
    p = a.to_polynomial()
    assert p.coefficient((4,), (0,)) == pytest.approx(0.25)
    assert p.coefficient((2,), (2,)) == pytest.approx(0.5)
    assert p.coefficient((0,), (4,)) == pytest.approx(0.25)
    vals = a.evaluate((0.3,))
    assert vals == pytest.approx(0.09)
    assert a.partial(0).evaluate((0.3,)) == pytest.approx(0.6)
