"""Sparse algebra: arithmetic identities, brackets, norms, text format."""

import math

import numpy as np
import pytest

import oracles
from bnfstab.errors import (
    FormatError,
    GradingError,
    RealityViolationError,
    TruncationOrderError,
)
from bnfstab.polyalg import (
    GradedSeries,
    Polynomial,
    PolydiscSpec,
    complexify,
    lie_exp,
    linear_substitute,
    poisson_bracket,
    polydisc_norm,
    realify,
    sample_polydisc,
    theta_weight,
)
from util import mono, random_polynomial


def test_monomial_basics():
    p = mono(2, (2, 0), (1, 3), -1.5)
    assert p.num_dof == 2
    assert p.coefficient((2, 0), (1, 3)) == -1.5
    assert p.coefficient((0, 2), (1, 3)) == 0.0
    assert p.degree_min == p.degree_max == 6
    assert p.is_homogeneous()
    assert not p.is_zero
    assert Polynomial.zero(3).is_zero

    x = Polynomial.x(2, 1)
    assert x.terms() == [((0, 1), (0, 0), 1.0)]
    y = Polynomial.y(2, 0)
    assert y.terms() == [((0, 0), (1, 0), 1.0)]


def test_terms_graded_lex_order():
    p = mono(1, (0,), (3,)) + mono(1, (1,), (0,)) + mono(1, (2,), (1,))
    degrees = [sum(j) + sum(k) for j, k, _ in p.terms()]
    assert degrees == sorted(degrees)


def test_addition_cancels_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_polynomial(rng, 2, int(rng.integers(1, 7)))
        assert (f + f.scale(-1.0)).is_zero


def test_ring_identities():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(40, 4))
    for _ in range(10):
        f = random_polynomial(rng, 2, int(rng.integers(1, 5)))
        g = random_polynomial(rng, 2, int(rng.integers(1, 5)))
        h = random_polynomial(rng, 2, int(rng.integers(1, 5)))
        lhs = (f + g) * h
        rhs = f * h + g * h
        for pt in pts[:10]:
            assert math.isclose(lhs.evaluate(pt), rhs.evaluate(pt),
                                rel_tol=1e-12, abs_tol=1e-12)
        comm = f * g + (g * f).scale(-1.0)
        assert comm.max_abs_coeff() <= 1e-13 * max(1.0, (f * g).max_abs_coeff())


def test_multiply_cap_drops_high_degrees():
    f = mono(1, (2,), (0,)) + mono(1, (1,), (0,))
    g = mono(1, (3,), (0,)) + mono(1, (0,), (1,))
    from bnfstab.polyalg import multiply
    capped = multiply(f, g, cap=3)
    assert capped.degree_max <= 3
    full = multiply(f, g)
    assert full.degree_max == 5


def test_canonical_brackets():
    n = 3
    for a in range(n):
        for b in range(n):
            xb = poisson_bracket(Polynomial.x(n, a), Polynomial.y(n, b))
            expected = 1.0 if a == b else 0.0
            assert xb.coefficient((0,) * n, (0,) * n) == expected
            assert poisson_bracket(Polynomial.x(n, a),
                                   Polynomial.x(n, b)).is_zero
            assert poisson_bracket(Polynomial.y(n, a),
                                   Polynomial.y(n, b)).is_zero


def test_bracket_antisymmetry_and_leibniz():
    rng = np.random.default_rng(23)
    for _ in range(12):
        f = random_polynomial(rng, 2, int(rng.integers(1, 5)))
        g = random_polynomial(rng, 2, int(rng.integers(1, 5)))
        h = random_polynomial(rng, 2, int(rng.integers(1, 4)))
        anti = poisson_bracket(f, g) + poisson_bracket(g, f)
        assert anti.max_abs_coeff() <= 1e-12 * max(
            1.0, f.max_abs_coeff() * g.max_abs_coeff())
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        diff = lhs + rhs.scale(-1.0)
        assert diff.max_abs_coeff() <= 1e-11 * max(1.0, lhs.max_abs_coeff())


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(31)
    for _ in range(8):
        f = random_polynomial(rng, 2, 3, num_terms=4)
        g = random_polynomial(rng, 2, 3, num_terms=4)
        h = random_polynomial(rng, 2, 4, num_terms=4)
        s = (poisson_bracket(f, poisson_bracket(g, h))
             + poisson_bracket(g, poisson_bracket(h, f))
             + poisson_bracket(h, poisson_bracket(f, g)))
        assert s.max_abs_coeff() <= 1e-10


def test_bracket_grading():
    rng = np.random.default_rng(5)
    f = random_polynomial(rng, 2, 4)
    g = random_polynomial(rng, 2, 5)
    br = poisson_bracket(f, g)
    assert br.is_homogeneous() and br.degree_max == 7
    assert poisson_bracket(f, g, cap=6).is_zero


def test_lie_exp_matches_manual_series():
    rng = np.random.default_rng(41)
    chi = random_polynomial(rng, 1, 3, num_terms=3, scale=0.2)
    f = random_polynomial(rng, 1, 2, num_terms=2)
    cap = 8
    total = f
    term = f
    fact = 1.0
    for m in range(1, 10):
        term = poisson_bracket(chi, term, cap)
        fact *= m
        total = total + term.scale(1.0 / fact)
    direct = lie_exp(chi, f, cap)
    diff = direct + total.scale(-1.0)
    assert diff.max_abs_coeff() <= 1e-13


def test_lie_exp_inverse():
    rng = np.random.default_rng(43)
    chi = random_polynomial(rng, 2, 3, num_terms=4, scale=0.3)
    f = random_polynomial(rng, 2, 3, num_terms=4)
    cap = 9
    back = lie_exp(chi.scale(-1.0), lie_exp(chi, f, cap), cap)
    # inverse holds only below the cap; degrees above it were truncated
    diff = back + f.scale(-1.0)
    low = sum((diff.homogeneous_part(d) for d in range(cap - 2)),
              Polynomial.zero(2))
    assert low.max_abs_coeff() <= 1e-12


def test_lie_exp_rejects_low_degree_generator():
    with pytest.raises(TruncationOrderError):
        lie_exp(mono(1, (1,), (1,)), mono(1, (1,), (0,)), cap=6)
    with pytest.raises(GradingError):  # one Lie series per generator degree
        lie_exp(mono(1, (3,), (0,)) + mono(1, (4,), (0,)),
                mono(1, (1,), (0,)), cap=6)


def test_overflowed_coefficients_are_refused_not_pruned():
    with pytest.raises(ValueError):
        Polynomial(1, {((3,), (0,)): math.inf})
    with pytest.raises(ValueError):
        Polynomial(1, {((3,), (0,)): 1.0, ((2,), (1,)): math.nan})
    with pytest.raises(ValueError):
        # finite, but its abs() overflows
        Polynomial(1, {((1,), (0,)): complex(1.5e308, 1.5e308)},
                   field="complex")
    big = mono(1, (3,), (0,), 1e200)
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        poisson_bracket(big, mono(1, (0,), (3,), 1e200))


def test_theta_weight_values():
    assert theta_weight((3,), (0,)) == 1.0
    assert theta_weight((0, 2), (0, 0)) == 1.0
    assert theta_weight((1,), (1,)) == pytest.approx(0.5, rel=1e-15)
    assert theta_weight((3,), (1,)) == pytest.approx(
        math.sqrt(27.0 / 256.0), rel=1e-14)
    # symmetric in j <-> k
    assert theta_weight((2, 1), (0, 3)) == theta_weight((0, 3), (2, 1))


def test_theta_weight_is_circle_sup():
    # theta(j, k) = sup |x^j y^k| over x^2 + y^2 = 1, per conjugate pair
    t = np.linspace(0.0, 2.0 * math.pi, 20001)
    for a, b in [(1, 1), (2, 3), (4, 1), (5, 5)]:
        sup = np.max(np.abs(np.cos(t) ** a * np.sin(t) ** b))
        assert theta_weight((a,), (b,)) == pytest.approx(float(sup), rel=1e-6)


def test_polydisc_norm_values():
    x = Polynomial.x(1, 0)
    y = Polynomial.y(1, 0)
    assert polydisc_norm(x * y, (1.0,)) == pytest.approx(0.5, rel=1e-15)
    assert polydisc_norm(x * x + y * y, (1.0,)) == pytest.approx(2.0)
    assert polydisc_norm(x * x * x * x, (2.0,)) == pytest.approx(16.0)
    with pytest.raises(GradingError):
        polydisc_norm(x + x * y, (1.0,))


def test_polydisc_norm_scaling():
    rng = np.random.default_rng(3)
    f = random_polynomial(rng, 2, 5)
    base = polydisc_norm(f, (1.0, 1.0))
    assert polydisc_norm(f, (2.0, 2.0)) == pytest.approx(32.0 * base,
                                                         rel=1e-12)


def test_polydisc_norm_majorizes_samples():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        f = random_polynomial(rng, n, d)
        radii = tuple(rng.uniform(0.5, 2.0, size=n))
        rho = float(rng.uniform(0.2, 1.5))
        spec = PolydiscSpec(radii, rho)
        pts = sample_polydisc(spec, 500, rng)
        sampled = np.max(np.abs(oracles.eval_terms(f.terms(), pts)))
        assert sampled <= rho ** d * polydisc_norm(f, radii) * (1 + 1e-12)


def test_sample_polydisc_stays_inside():
    rng = np.random.default_rng(13)
    spec = PolydiscSpec((0.5, 2.0), 1.3)
    pts = sample_polydisc(spec, 1000, rng)
    for l, R in enumerate(spec.radii):
        r2 = pts[:, l] ** 2 + pts[:, 2 + l] ** 2
        assert np.all(r2 <= (1.3 * R) ** 2 * (1 + 1e-12))
    for radii, rho in (((math.nan, 1.0), 1.0), ((math.inf,), 1.0),
                       ((1.0,), math.nan), ((1.0,), math.inf)):
        with pytest.raises(ValueError):
            PolydiscSpec(radii, rho)


def test_evaluate_matches_dense_oracle():
    rng = np.random.default_rng(17)
    f = random_polynomial(rng, 3, 4, num_terms=8)
    pts = rng.uniform(-1, 1, size=(50, 6))
    mine = np.array([f.evaluate(p) for p in pts])
    dense = oracles.eval_terms(f.terms(), pts).real
    assert np.max(np.abs(mine - dense)) <= 1e-12


def test_differentiate_monomial_rule():
    p = mono(2, (3, 0), (0, 2), 2.0)
    dx = p.differentiate(0)
    assert dx.terms() == [((2, 0), (0, 2), 6.0)]
    dy = p.differentiate(3)
    assert dy.terms() == [((3, 0), (0, 1), 4.0)]
    assert p.differentiate(1).is_zero


def test_complexify_realify_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = random_polynomial(rng, 2, int(rng.integers(1, 6)))
        g = realify(complexify(f))
        diff = g + f.scale(-1.0)
        assert diff.max_abs_coeff() <= 1e-12 * max(1.0, f.max_abs_coeff())
        realify(complexify(f), tol=1e-13)  # raises above 1e-13


def test_realify_rejects_non_real():
    z = mono(1, (1,), (0,), 1.0 + 0.0j)  # plain Z is not a real series
    with pytest.raises(RealityViolationError):
        realify(z)


def test_linear_substitute_rotation_preserves_actions():
    c, s = math.cos(0.7), math.sin(0.7)
    M = np.array([[c, -s], [s, c]])
    f = mono(1, (2,), (0,)) + mono(1, (0,), (2,))
    g = linear_substitute(f, M)
    diff = g + f.scale(-1.0)
    assert diff.max_abs_coeff() <= 1e-13


def test_linear_substitute_evaluates_as_composition():
    rng = np.random.default_rng(29)
    M = rng.uniform(-1, 1, size=(4, 4))
    f = random_polynomial(rng, 2, 3)
    g = linear_substitute(f, M)
    for pt in rng.uniform(-1, 1, size=(20, 4)):
        assert math.isclose(g.evaluate(pt), f.evaluate(M @ pt),
                            rel_tol=1e-11, abs_tol=1e-11)


def test_graded_series_roundtrip():
    rng = np.random.default_rng(37)
    h = Polynomial.zero(2)
    for d in range(2, 7):
        h = h + random_polynomial(rng, 2, d, num_terms=5)
    series = GradedSeries.from_polynomial(h, d_max=8)
    assert series.component(3).is_homogeneous()
    assert series.truncate(4).to_polynomial().degree_max <= 4
    text = series.to_text()
    again = GradedSeries.from_text(text)
    assert again.to_text() == text
    diff = again.to_polynomial() + h.scale(-1.0)
    assert diff.max_abs_coeff() <= 1e-15


def test_graded_series_text_errors():
    with pytest.raises(FormatError):
        GradedSeries.from_text("not a header\n")
    good = GradedSeries.from_polynomial(mono(1, (2,), (0,)), d_max=4)
    text = good.to_text()
    # degree column must match the exponents
    bad = text.replace("2 2 0 ", "3 2 0 ", 1)
    with pytest.raises(FormatError):
        GradedSeries.from_text(bad)
    dup = text + "2 2 0 1\n2 2 0 1\n"
    with pytest.raises(FormatError) as info:
        GradedSeries.from_text(dup, path="h.txt")
    assert "h.txt" in str(info.value)
    with pytest.raises(FormatError):
        GradedSeries.from_text("HAM n=1 dmax=4 field=real\n2 2 0 oops\n")
    with pytest.raises(FormatError):
        GradedSeries.from_text("HAM n=1 dmax=4 field=real extra=1\n")
    with pytest.raises(FormatError) as info:
        GradedSeries.from_text("HAM n=1 dmax=4 field=real\n2 2 0 nan\n")
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:  # beyond a packed key's field
        GradedSeries.from_text("HAM n=1 dmax=300 field=real\n256 256 0 1\n")
    assert info.value.line == 2


def test_graded_series_accepts_comments_and_blank_lines():
    src = "# leading comment\nHAM n=1 dmax=4 field=real\n\n2 2 0 0.5\n"
    series = GradedSeries.from_text(src)
    assert series.component(2).coefficient((2,), (0,)) == 0.5
