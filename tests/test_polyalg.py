"""Sparse algebra: arithmetic identities, brackets, norms, text format."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import theta_weight
from bnfstab import polyalg
from bnfstab.errors import (
    DimensionMismatchError,
    FormatError,
    GradingError,
    OrderRangeError,
    RealityViolationError,
)
from bnfstab.polyalg import (
    GradedSeries,
    Polynomial,
    complexify,
    linear_substitute,
    poisson_bracket,
    polydisc_norm,
    realify,
)
from util import full_block, mono, random_polynomial


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
        for a, b in zip(oracles.eval_terms(lhs.terms(), pts[:10]).real,
                        oracles.eval_terms(rhs.terms(), pts[:10]).real):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        comm = f * g + (g * f).scale(-1.0)
        assert comm.max_abs_coeff() <= 1e-13 * max(1.0, (f * g).max_abs_coeff())


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
    # mixed degrees: the cap drops the degree-7 part {f, g}
    h = random_polynomial(rng, 2, 3)
    assert poisson_bracket(f + h, g, cap=6) == poisson_bracket(h, g)


def _assert_matches_oracle(got, want):
    """got, a Polynomial, against an oracle dict {(j, k): coeff}: the same
    terms once the oracle drops what the package prunes (zeros, and values
    below 1e-15 of the largest coefficient of their degree), and each
    coefficient within 1e-14 of that largest coefficient."""
    top = {}
    for (j, k), c in want.items():
        top[sum(j + k)] = max(top.get(sum(j + k), 0.0), abs(c))
    want = {(j, k): c for (j, k), c in want.items()
            if abs(c) > 0.0 and abs(c) >= 1e-15 * top[sum(j + k)]}
    have = {(j, k): c for j, k, c in got.terms()}
    assert set(have) == set(want)
    for (j, k), c in want.items():
        assert abs(have[(j, k)] - c) <= 1e-14 * top[sum(j + k)]


@pytest.mark.parametrize("max_bins", [None, 50, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bracket_kernel_matches_dict_oracle(n, max_bins, monkeypatch):
    # a bin limit below the default splits the output by its leading fields;
    # from 5 DOF an exponent row is wider than one 64-bit word
    if max_bins:
        monkeypatch.setattr(polyalg, "_MAX_BINS", max_bins)
    rng = np.random.default_rng(200 + n)
    f = random_polynomial(rng, n, 5, num_terms=30)
    g = random_polynomial(rng, n, 4, num_terms=30)
    f_mixed = f + random_polynomial(rng, n, 3, num_terms=10)
    g_mixed = g + random_polynomial(rng, n, 2, num_terms=10)
    for a, b, cap in ((f, g, None), (g, f, 6), (f_mixed, g_mixed, None),
                      (f_mixed, g_mixed, 5)):
        want = oracles.bracket_terms(a.terms(), b.terms(), n, cap)
        _assert_matches_oracle(poisson_bracket(a, b, cap=cap), want)


def test_bracket_kernel_on_full_blocks():
    # every monomial of its degree: each derivative product spans several
    # pair chunks
    rng = np.random.default_rng(211)
    f, g = full_block(rng, 3, 6), full_block(rng, 3, 5)
    want = oracles.bracket_terms(f.terms(), g.terms(), 3)
    _assert_matches_oracle(poisson_bracket(f, g), want)


def test_wide_bracket_splits_its_bins():
    # the degree-14 output of 4 DOF has 15^7 (171 M) bins; split by its
    # leading fields the bracket stays under 8 MiB
    rng = np.random.default_rng(223)
    f = random_polynomial(rng, 4, 8, num_terms=40)
    g = random_polynomial(rng, 4, 8, num_terms=40)
    tracemalloc.start()
    try:
        got = poisson_bracket(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    _assert_matches_oracle(got, oracles.bracket_terms(f.terms(), g.terms(), 4))


def _terms(block):
    """A block as the oracle's list of (exponent row, coeff)."""
    exps, coeffs = block
    return list(zip(map(tuple, exps.tolist()), coeffs.tolist()))


def _assert_kernel_sums(pairs, degrees, width):
    """_products of pairs against the oracle that adds each product in
    turn: the same rows, and every sum the same to the bit."""
    got = polyalg._products(pairs, degrees, width)
    want = oracles.kernel_sums(
        [(_terms(a), _terms(b), seg.tolist()) for a, b, seg in pairs],
        degrees)
    for (exps, coeffs), sums in zip(got, want):
        assert exps.dtype == np.uint8
        assert exps.tolist() == [list(row) for row, _ in sums]
        assert coeffs.tobytes() == np.array([v for _, v in sums]).tobytes()


# the segment degrees of a, and the degree of b: outputs of degree 8, 7,
# 7 and 5, which at the default budgets share one pass up to 2 DOF, run in
# two passes of two at 3 DOF and split by their leading fields from 4 DOF
KERNEL_A_DEGREES = (5, 4, 4, 2)
KERNEL_B_DEGREE = 3


@pytest.mark.parametrize("pass_bins", [None, 50, 1])
@pytest.mark.parametrize("max_bins", [None, 50, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_sums_match_the_oracle_to_the_bit(n, max_bins, pass_bins,
                                                  monkeypatch):
    # a stacked left operand of several segments, as a Lie-series step
    # passes it, against two right operands that add into the same bins
    if max_bins:
        monkeypatch.setattr(polyalg, "_MAX_BINS", max_bins)
    if pass_bins:
        monkeypatch.setattr(polyalg, "_PASS_BINS", pass_bins)
    rng = np.random.default_rng(600 + n)
    parts = [random_polynomial(rng, n, d, num_terms=15)._block
             for d in KERNEL_A_DEGREES]
    a = tuple(map(np.concatenate, zip(*parts)))
    seg = np.repeat(np.arange(len(parts)), [len(c) for _, c in parts])
    pairs = [(a, random_polynomial(rng, n, KERNEL_B_DEGREE,
                                   num_terms=15)._block, seg)
             for _ in range(2)]
    _assert_kernel_sums(pairs, [d + KERNEL_B_DEGREE for d in
                                KERNEL_A_DEGREES], 2 * n)


def test_kernel_oracle_cases_split_and_share_passes():
    degrees = [d + KERNEL_B_DEGREE for d in KERNEL_A_DEGREES]
    assert polyalg._passes(degrees, 4) == [(0, [0, 1, 2, 3])]
    assert polyalg._passes(degrees, 6) == [(0, [0, 1]), (0, [2, 3])]
    assert [lead for lead, _ in polyalg._passes(degrees, 8)] == [1, 1, 1, 0]


def test_kernel_drains_a_tail_of_no_fields(monkeypatch):
    # at one bin a segment, a 1-DOF output splits by its one encoded
    # field, leaving a tail of no fields; both segments share one pass,
    # and the head x^8 of the first leaves the second, of degree 5, no
    # room
    monkeypatch.setattr(polyalg, "_MAX_BINS", 1)
    assert polyalg._passes([8, 5], 2) == [(1, [0, 1])]
    a = (np.array([[5, 0], [3, 2], [2, 0], [0, 2]], np.uint8),
         np.array([1.5, -0.25, 3.0, 0.75]))
    b = (np.array([[3, 0], [1, 2], [0, 3]], np.uint8),
         np.array([2.0, 1.0 / 3.0, -5.0]))
    pairs = [(a, b, np.array([0, 0, 1, 1])), (a, b, np.array([0, 0, 1, 1]))]
    _assert_kernel_sums(pairs, [8, 5], 2)
    (top, _), (low, _) = polyalg._products(pairs, [8, 5], 2)
    assert top[:, 0].max() == 8 and len(low) == 5


def _chain_alone(g, degree, p, chi, cap):
    """The terms of one Lie series computed one bracket at a time by
    poisson_bracket: each the pruned bracket of the term before with chi,
    divided by its p, until a zero term or the cap."""
    n = chi.num_dof
    step = chi.degree_max - 2
    out = []
    while degree + step <= cap:
        exps, coeffs = poisson_bracket(Polynomial._raw(n, g), chi)._block
        if not len(coeffs):
            break
        if p > 1:
            coeffs = coeffs / p
        degree, p, g = degree + step, p + 1, (exps, coeffs)
        out.append((degree, g))
    return out


@pytest.mark.parametrize("max_bins", [None, 50, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chains_stepped_together_match_each_chain_alone(n, max_bins,
                                                        monkeypatch):
    # chains of mixed degree, the last one starting at p = 2 as the
    # oscillator's chain does; a bin limit below the default splits each
    # segment by its leading fields and runs the segments of a step in
    # several passes
    if max_bins:
        monkeypatch.setattr(polyalg, "_MAX_BINS", max_bins)
        monkeypatch.setattr(polyalg, "_PASS_BINS", max_bins)
    rng = np.random.default_rng(500 + n)
    no_y = (0,) * n
    x_only = Polynomial.zero(n)
    for _ in range(4):
        j = tuple(rng.multinomial(3, [1 / n] * n).tolist())
        x_only = x_only + mono(n, j, no_y, rng.uniform(-1.0, 1.0))
    starts = [(random_polynomial(rng, n, 6, num_terms=20), 6, 1),
              (mono(n, (0,) * (n - 1) + (5,), no_y), 5, 1),
              (random_polynomial(rng, n, 4, num_terms=12), 4, 1),
              (random_polynomial(rng, n, 3, num_terms=8), 3, 1),
              (random_polynomial(rng, n, 4, num_terms=10), 4, 2)]
    cap = 10
    products = polyalg._products
    calls = []

    def counted(*args):
        calls.append(args)
        return products(*args)

    # a cubic chi steps each chain up one degree: the chains pass the cap
    # at different steps; chi in the x alone lowers the y-degree by one a
    # step, so each chain stops at a zero term once its y-degree is spent,
    # the pure x power at once
    for chi in (random_polynomial(rng, n, 3, num_terms=10), x_only):
        chains = [(f._block, d, p) for f, d, p in starts]
        calls.clear()
        monkeypatch.setattr(polyalg, "_products", counted)
        got = polyalg._lie_series(
            chains, polyalg._bracket_operand(chi._block, n), n, cap)
        monkeypatch.setattr(polyalg, "_products", products)
        # one kernel call a step, for every live chain
        assert len(calls) <= max(map(len, got)) + 1
        lengths = set()
        for (f, d, p), terms in zip(starts, got):
            want = _chain_alone(f._block, d, p, chi, cap)
            assert [t[0] for t in terms] == [t[0] for t in want]
            for (_, (e, c)), (_, (e_want, c_want)) in zip(terms, want):
                assert e.dtype == np.uint8 and c.dtype == np.float64
                assert np.array_equal(e, e_want)
                assert np.array_equal(c, c_want)
            lengths.add(len(terms))
        assert len(lengths) >= 3
        # the first term of a p = 1 chain is the bracket itself
        f, d, _ = starts[0]
        _assert_matches_oracle(Polynomial._raw(n, got[0][0][1]),
                               oracles.bracket_terms(f.terms(), chi.terms(),
                                                     n))
    # the first step of the cubic chi: one pass under the default budgets
    # up to 2 DOF, several under the small ones
    passes = len(polyalg._passes([7, 6, 5, 4, 5], 2 * n))
    if max_bins == 1 or (max_bins and n > 1):
        assert passes > 1
    elif n < 3:
        assert passes == 1


def test_bracket_refuses_exponents_the_keys_cannot_hold():
    x200 = mono(2, (200, 0), (0, 0))
    # degree 299, but no exponent above 255: computed
    br = poisson_bracket(x200, mono(2, (0, 100), (1, 0)))
    assert br.terms() == [((199, 100), (0, 0), 200.0)]
    # x_1^299 does not fit a uint8 exponent
    with pytest.raises(OrderRangeError, match="255"):
        poisson_bracket(x200, mono(2, (100, 0), (1, 0)))


def test_product_refuses_exponents_the_keys_cannot_hold():
    x200 = mono(1, (200,), (0,))
    assert (x200 * mono(1, (55,), (3,))).terms() == [((255,), (3,), 1.0)]
    # x^300 does not fit a uint8 exponent
    with pytest.raises(OrderRangeError, match="255"):
        x200 * mono(1, (100,), (0,))
    with pytest.raises(OrderRangeError, match="255"):
        (x200 + mono(1, (0,), (1,))) * mono(1, (100,), (0,))


def _assert_close_to_pruned_oracle(got, want, rel):
    """got, a Polynomial, against an unpruned oracle dict {(j, k): coeff}:
    the terms the oracle keeps once pruned, each within rel of the largest
    coefficient of its degree block."""
    want = oracles.pruned(want)
    have = {(j, k): c for j, k, c in got.terms()}
    assert set(have) == set(want)
    _assert_close_per_degree(have, want, rel)


def _as_dict(f):
    return {(j, k): c for j, k, c in f.terms()}


@pytest.mark.parametrize("max_bins", [None, 50])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_product_and_substitution_match_dict_oracles(n, max_bins,
                                                           monkeypatch):
    # mixed degrees; a bin limit below the default splits each product by
    # its leading fields
    if max_bins:
        monkeypatch.setattr(polyalg, "_MAX_BINS", max_bins)
    rng = np.random.default_rng(400 + n)
    f = (random_polynomial(rng, n, 4, num_terms=15)
         + random_polynomial(rng, n, 1, num_terms=3)
         + random_polynomial(rng, n, 0, num_terms=1))
    g = (random_polynomial(rng, n, 3, num_terms=12)
         + random_polynomial(rng, n, 2, num_terms=6))
    for a, b in ((f, g), (g, f), (f, f)):
        _assert_close_to_pruned_oracle(
            a * b, oracles.raw_mul(_as_dict(a), _as_dict(b)), 1e-13)
    matrices = [rng.uniform(-1, 1, size=(2 * n, 2 * n)),
                # a permutation with a zero row and a zero column
                np.eye(2 * n)[::-1] * (np.arange(2 * n) > 0)]
    for M in matrices:
        _assert_close_to_pruned_oracle(
            linear_substitute(f, M.tolist()),
            oracles.linear_substitute(f.terms(), M.tolist(), n), 1e-13)
    # full blocks: every product spans several pair chunks
    a, b = full_block(rng, n, 3), full_block(rng, n, 2)
    _assert_close_to_pruned_oracle(
        a * b, oracles.raw_mul(_as_dict(a), _as_dict(b)), 1e-13)
    # an exponent above 255 in one pair of a product of mixed degrees
    big = mono(n, (200,) + (0,) * (n - 1), (0,) * n)
    with pytest.raises(OrderRangeError, match="255"):
        (big + f) * (g + mono(n, (56,) + (0,) * (n - 1), (0,) * n))


def test_overflowed_coefficients_are_refused_not_pruned():
    with pytest.raises(ValueError):
        Polynomial(1, {((3,), (0,)): math.inf})
    with pytest.raises(ValueError):
        Polynomial(1, {((3,), (0,)): 1.0, ((2,), (1,)): math.nan})
    with pytest.raises(ValueError):
        # a complex coefficient, whose abs() overflows besides
        Polynomial(1, {((1,), (0,)): complex(1.5e308, 1.5e308)})
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
        pts = oracles.sample_polydisc(radii, rho, 500, rng)
        sampled = np.max(np.abs(oracles.eval_terms(f.terms(), pts)))
        assert sampled <= rho ** d * polydisc_norm(f, radii) * (1 + 1e-12)


def _norm_term_by_term(f, radii):
    """The polydisc norm of nonzero f one term at a time, with the
    refusals of polydisc_norm."""
    total = 0.0
    try:
        for j, k, c in f.terms():
            w = abs(c) * theta_weight(j, k)
            for l, R in enumerate(radii):
                w *= R ** (j[l] + k[l])
            total += w
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("overflows")
    if total == 0.0:
        raise ValueError("underflows")
    return total


def test_polydisc_norm_matches_the_term_by_term_sum():
    rng = np.random.default_rng(229)
    for n in range(1, 5):
        for d in (1, 2, 5, 9):
            f = random_polynomial(rng, n, d, num_terms=25)
            radii = tuple(rng.uniform(0.05, 4.0, size=n))
            want = _norm_term_by_term(f, radii)
            assert polydisc_norm(f, radii) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("f, radii, refusal", [
    (mono(1, (200,), (0,)), (1e10,), "overflows"),
    (mono(1, (3,), (1,), 1e300), (1e3,), "overflows"),
    # R_1^2 underflows to 0 before R_2^2 overflows: still an overflow
    (mono(2, (2, 2), (0, 0)), (1e-200, 1e200), "overflows"),
    (mono(1, (2,), (2,)), (1e-300,), "underflows"),
    (mono(2, (1, 1), (1, 1), 1e-300), (1e-10, 1e-10), "underflows"),
])
def test_polydisc_norm_refuses_what_the_floats_cannot_hold(f, radii,
                                                           refusal):
    with pytest.raises(ValueError, match=refusal):
        _norm_term_by_term(f, radii)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=refusal):
            polydisc_norm(f, radii)


def _mixed_terms(rng, n):
    """{(j, k): coeff} of several degrees, in random order, with zeros,
    signed zeros and coefficients at and around the pruning threshold of
    their degree."""
    raw = {}
    for d in (2, 3, 5):
        f = random_polynomial(rng, n, d, num_terms=12)
        for i, (j, k, c) in enumerate(f.terms()):
            raw[(j, k)] = (c, 0.0 * c, -0.0 * c, 1e-16 * c, 2e-15 * c)[i % 5]
    return dict(sorted(raw.items(), key=lambda kv: rng.random()))


def _graded_key(jk):
    return sum(jk[0] + jk[1]), jk[0] + jk[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_pass_degrees_match_per_key_oracle(n):
    # a raw block in random order, merged and made canonical: the terms
    # the per-key oracle keeps, bit for bit, in graded key order
    rng = np.random.default_rng(233 + n)
    raw = _mixed_terms(rng, n)
    exps = np.array([j + k for j, k in raw], np.uint8)
    coeffs = np.array(list(raw.values()))
    p = Polynomial._raw(n, polyalg._canonical(*polyalg._merge(exps, coeffs)))
    want = sorted(oracles.pruned(raw).items(),
                  key=lambda kv: _graded_key(kv[0]))
    assert [((j, k), c) for j, k, c in p.terms()] == want
    assert p.degrees() == tuple(sorted({sum(j + k) for j, k in
                                        oracles.pruned(raw)}))
    for d in p.degrees():
        assert p.homogeneous_part(d).terms() == [
            t for t in p.terms() if sum(t[0] + t[1]) == d]


def test_pruning_refuses_an_overflow_without_a_warning():
    exps = np.array([[1, 0], [1, 1]], np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (complex(1.5e308, 1.5e308), math.inf, complex(math.nan, 0)):
            with pytest.raises(ValueError, match="overflow"):
                polyalg._canonical(exps, np.array([c, 1.0]))


def test_sample_polydisc_stays_inside():
    rng = np.random.default_rng(13)
    radii = (0.5, 2.0)
    pts = oracles.sample_polydisc(radii, 1.3, 1000, rng)
    for l, R in enumerate(radii):
        r2 = pts[:, l] ** 2 + pts[:, 2 + l] ** 2
        assert np.all(r2 <= (1.3 * R) ** 2 * (1 + 1e-12))


def test_complexify_realify_roundtrip(monkeypatch):
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = random_polynomial(rng, 2, int(rng.integers(1, 6)))
        g = Polynomial._raw(2, realify(complexify(f._block)))
        diff = g + f.scale(-1.0)
        assert diff.max_abs_coeff() <= 1e-12 * max(1.0, f.max_abs_coeff())
        with monkeypatch.context() as m:
            m.setattr(polyalg, "REALITY_TOL", 1e-13)
            realify(complexify(f._block))  # raises above 1e-13


def test_realify_rejects_non_real():
    z = mono(1, (1,), (0,))._block  # plain Z is not a real series
    with pytest.raises(RealityViolationError):
        realify(z)
    # i f is not real when f is
    f = random_polynomial(np.random.default_rng(23), 2, 5)
    exps, coeffs = complexify(f._block)
    with pytest.raises(RealityViolationError):
        realify((exps, 1j * coeffs))


def _block_terms(exps, coeffs, n):
    """A block of arrays as {(j, k): coeff}."""
    return {(tuple(e[:n]), tuple(e[n:])): c
            for e, c in zip(exps.tolist(), coeffs.tolist())}


def _max_rel_diff(got, want):
    """The largest difference of two {(j, k): coeff}, a missing term as 0,
    relative to the largest abs() in want."""
    diff = max(abs(got.get(key, 0.0) - want.get(key, 0.0))
               for key in set(got) | set(want))
    return diff / max(map(abs, want.values()))


def test_chart_change_matches_general_substitution():
    # the per-mode chart change against the whole-matrix expansion of the
    # dict oracle
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        to_complex = oracles.chart_matrix(n, -1)
        to_real = oracles.chart_matrix(n, +1)
        for degree in range(13):
            f = random_polynomial(rng, n, degree, num_terms=4)
            g = complexify(f._block)
            g_terms = _block_terms(*g, n)
            want = oracles.linear_substitute(f.terms(), to_complex, n)
            assert _max_rel_diff(g_terms, want) <= 1e-13
            back = oracles.linear_substitute(
                [(j, k, c) for (j, k), c in g_terms.items()], to_real, n)
            real = _block_terms(*realify(g), n)
            assert _max_rel_diff(real, back) <= 1e-13
            assert _max_rel_diff(real, _as_dict(f)) <= 1e-13


def test_complexify_evaluates_at_chart_points():
    # complexify(f)(Z, W) = f(x, y) at Z = (x + i y)/sqrt2, W = (y + i x)/sqrt2
    rng = np.random.default_rng(43)
    for n in (1, 2, 3):
        f = random_polynomial(rng, n, 5) + random_polynomial(rng, n, 2)
        g = [(j, k, c) for (j, k), c
             in _block_terms(*complexify(f._block), n).items()]
        for pt in rng.uniform(-1, 1, size=(10, 2 * n)):
            x, y = pt[:n], pt[n:]
            chart = np.concatenate([x + 1j * y, y + 1j * x]) / math.sqrt(2.0)
            assert abs(oracles.eval_terms(g, chart)[0]
                       - oracles.eval_terms(f.terms(), pt)[0]) <= 1e-12


def test_chart_change_refuses_degrees_the_keys_cannot_hold():
    # W^400 does not fit a uint8 exponent
    f = Polynomial(1, {((200,), (200,)): 1.0})
    for change in (lambda f: complexify(f._block),
                   lambda f: realify(f._block),
                   lambda f: linear_substitute(f, [[1.0, 0.0], [0.0, 1.0]])):
        with pytest.raises(OrderRangeError, match="255"):
            change(f)


def _assert_close_per_degree(got, want, rel):
    """got and want, {(j, k): coeff}, agree within rel of the largest
    abs() of their degree in want; a missing term counts as 0."""
    top = {}
    for (j, k), c in want.items():
        top[sum(j + k)] = max(top.get(sum(j + k), 0.0), abs(c))
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) \
            <= rel * top.get(sum(key[0] + key[1]), 0.0), key


def _assert_layout_change_matches_oracle(block, n, sign):
    """A block changed on its layout (polyalg._Layout), unpruned, against
    the dict oracle: one slot per monomial of the row classes, in graded
    key order; every oracle term a slot, within 1e-15 of the largest of
    its degree, and every other slot zero."""
    layout = polyalg._Layout(block[0])
    values = layout.change(layout.place(block[1]), sign)
    rows = [(sum(e), tuple(e)) for e in layout.exps.tolist()]
    assert rows == sorted(set(rows))
    terms = [(j, k, c) for (j, k), c in _block_terms(*block, n).items()]
    want = oracles.chart_change(terms, n, sign)
    got = _block_terms(layout.exps, values, n)
    assert set(want) <= set(got)
    assert all(c == 0 for key, c in got.items() if key not in want)
    _assert_close_per_degree(got, want, 1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_chart_change_matches_dict_oracle(n):
    # sparse blocks of mixed degrees and full blocks, real and with seeded
    # imaginary parts, as chart blocks are
    rng = np.random.default_rng(300 + n)
    full_degree = {1: 12, 2: 8, 3: 6, 4: 5}[n]
    real = [random_polynomial(rng, n, 6, num_terms=20)
            + random_polynomial(rng, n, 2, num_terms=5)
            + random_polynomial(rng, n, 9, num_terms=10),
            full_block(rng, n, full_degree), full_block(rng, n, 3)]
    for f in real:
        exps, coeffs = f._block
        charted = exps, coeffs + 1j * rng.uniform(-1, 1, len(coeffs))
        for block in (f._block, charted):
            for sign in (-1, 1):
                _assert_layout_change_matches_oracle(block, n, sign)
        # complexify prunes that block; realify takes the real parts of a
        # real polynomial's chart block and prunes them
        want = oracles.pruned(oracles.chart_change(f.terms(), n, -1))
        g = complexify(f._block)
        got = _block_terms(*g, n)
        assert set(got) == set(want)
        _assert_close_per_degree(got, want, 1e-15)
        back = oracles.chart_change(
            [(j, k, c) for (j, k), c in got.items()], n, +1)
        want = oracles.pruned({key: c.real for key, c in back.items()})
        exps, coeffs = realify(g)
        assert coeffs.dtype == np.float64
        got = _block_terms(exps, coeffs, n)
        assert set(got) == set(want)
        _assert_close_per_degree(got, want, 1e-15)


def test_sparse_high_degree_chart_change_stays_on_its_classes():
    # three 2-DOF monomials of degrees 250, 240 and 246 and one 3-DOF
    # monomial of degree 60: the layout holds the slots of their classes
    # alone, about 46 000 and 9 000, not every monomial of the degree
    # (C(253, 3), about 2.7 million at degree 250, well over 40 MiB)
    sparse = [Polynomial(2, {((100, 20), (30, 100)): 1.0,
                             ((0, 120), (120, 0)): -0.5,
                             ((60, 60), (60, 66)): 0.25}),
              Polynomial(3, {((10, 5, 15), (10, 15, 5)): 1.0})]
    for f in sparse:
        n = f.num_dof
        for sign in (-1, 1):
            _assert_layout_change_matches_oracle(f._block, n, sign)
        polyalg._mode_table.cache_clear()
        tracemalloc.start()
        realify(complexify(f._block))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def test_array_chart_change_refusals():
    # a term the uint8 exponents cannot hold, in a block of mixed degrees
    f = mono(2, (1, 0), (0, 2)) + mono(2, (200, 0), (0, 56))
    for change in (complexify, realify):
        with pytest.raises(OrderRangeError, match="255"):
            change(f._block)
    # a coefficient that overflows in the change is refused, not pruned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for change in (complexify, realify):
            with pytest.raises(ValueError, match="overflow"):
                change(mono(1, (0,), (8,), 1e308)._block)
    # the zero polynomial changes to zero
    zero = Polynomial.zero(3)._block
    assert not len(complexify(zero)[1]) and not len(realify(zero)[1])


def test_complex_operands_are_refused():
    # a Polynomial is real: a complex factor or substitution is refused
    f = mono(2, (1, 0), (0, 2), 0.5)
    with pytest.raises(ValueError, match="complex factor"):
        f.scale(1j)
    for factor in (np.complex128(2.0), np.complex64(2.0)):
        with pytest.raises(ValueError, match="complex factor"):
            f * factor
    with pytest.raises(ValueError, match="complex coefficient"):
        Polynomial(1, {((1,), (0,)): np.complex64(1 + 1j)})
    M = np.eye(4, dtype=complex)
    M[0, 2] = 1j
    for matrix in (M, M.tolist()):
        with pytest.raises(ValueError, match="must be real"):
            linear_substitute(f, matrix)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_substitute_relabels_a_permutation_and_scale(n, monkeypatch):
    # a matrix with one nonzero entry a row and a column maps each term to
    # one term: no call of the product kernel, and bit for bit the dict
    # oracle's coefficients, in graded key order
    rng = np.random.default_rng(90 + n)
    f = Polynomial.zero(n)
    for degree in (0, 1, 2, 3, 5):
        f = f + random_polynomial(rng, n, degree, num_terms=12)
    M = np.zeros((2 * n, 2 * n))
    M[np.arange(2 * n), rng.permutation(2 * n)] = (
        rng.uniform(0.25, 4.0, size=2 * n) * rng.choice([-1.0, 1.0], 2 * n))
    M[0, M[0] != 0] = 1.0 + 2.0 ** -52
    products = polyalg._products
    monkeypatch.setattr(polyalg, "_products", None)
    got = linear_substitute(f, M.tolist())
    monkeypatch.setattr(polyalg, "_products", products)
    want = oracles.pruned(oracles.linear_substitute(f.terms(), M.tolist(), n))
    assert [(j, k, c.hex()) for j, k, c in got.terms()] == [
        (j, k, c.hex()) for (j, k), c in sorted(
            want.items(), key=lambda t: (sum(t[0][0] + t[0][1]),
                                         t[0][0] + t[0][1]))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_substitute_sums_in_the_order_of_its_passes(n):
    # every sum adds its terms as the passes would if each merged its rows
    # into key order: bit for bit the pass-by-pass oracle, for a coupled
    # map, a permutation, and maps whose form of variable t alone is one
    # term, so that a later form adds to the column the relabel filled and
    # the relabeled rows must be merged before they expand
    rng = np.random.default_rng(70 + n)
    f = Polynomial.zero(n)
    for degree in (2, 3, 4, 5):
        f = f + random_polynomial(rng, n, degree, num_terms=25)
    coupled = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    maps = [coupled, np.diag(rng.uniform(0.5, 2.0, size=2 * n))[::-1]]
    for t in range(2 * n - 1):
        mixed = coupled.copy()
        mixed[t] = 0.0
        mixed[t, t] = rng.uniform(0.5, 2.0)
        maps.append(mixed)
    for M in maps:
        got = linear_substitute(f, M.tolist())
        want = oracles.pruned(oracles.linear_substitute_by_pass(
            f.terms(), M.tolist(), n))
        assert {(j, k): c.hex() for j, k, c in got.terms()} == {
            key: c.hex() for key, c in want.items()}


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
    pts = rng.uniform(-1, 1, size=(20, 4))
    for a, b in zip(oracles.eval_terms(g.terms(), pts).real,
                    oracles.eval_terms(f.terms(), pts @ M.T).real):
        assert math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-11)


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


def test_graded_series_keeps_its_d_max():
    # d_max is the series' own, not its top degree: it survives the text
    # round trip, truncation and the constructor's check
    p = random_polynomial(np.random.default_rng(38), 2, 4, num_terms=6)
    series = GradedSeries.from_polynomial(p, d_max=8)
    assert series.d_max == 8
    assert GradedSeries.from_polynomial(p).d_max == 4
    text = series.to_text()
    assert text.splitlines()[0] == "HAM n=2 dmax=8 field=real"
    again = GradedSeries.from_text(text)
    assert again.d_max == 8 and again == series
    assert again.to_polynomial() == p
    # a d_max past the int64 range bounds the degrees as any other
    huge = GradedSeries.from_text(text.replace("dmax=8", f"dmax={2 ** 70}"))
    assert huge.d_max == 2 ** 70 and huge.to_polynomial() == p
    assert series.truncate(3).d_max == 3 and series.truncate(3).degrees() == ()
    with pytest.raises(GradingError, match="exceeds d_max=3"):
        GradedSeries(p, 3)


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
    with pytest.raises(FormatError) as info:  # beyond a uint8 exponent
        GradedSeries.from_text("HAM n=1 dmax=300 field=real\n256 256 0 1\n")
    assert info.value.line == 2
    # a term line of a record whose n no array can hold has too few fields
    with pytest.raises(FormatError, match="fields on a term line") as info:
        GradedSeries.from_text(f"HAM n={2 ** 70} dmax=2 field=real\n2 2 0 1\n")
    assert info.value.line == 2


def test_a_huge_record_faults_at_its_first_term_line():
    # n and dmax past the int64 range: the first term line's field count
    # is the fault, raised before any degree bound or key is built
    for n in (2 ** 62, 2 ** 70):
        with pytest.raises(FormatError, match="fields on a term line") as info:
            GradedSeries.from_text(
                f"HAM n={n} dmax={2 ** 70} field=real\n2 2 0 1\n")
        assert info.value.line == 2


def test_graded_series_accepts_comments_and_blank_lines():
    src = "# leading comment\nHAM n=1 dmax=4 field=real\n\n2 2 0 0.5\n"
    series = GradedSeries.from_text(src)
    assert series.component(2).coefficient((2,), (0,)) == 0.5


def test_layout_of_a_block_with_an_absent_mode():
    # a 3-DOF block in modes 1 and 3 alone: mode 2's pass has no segments
    # and gathers the slots through unchanged
    rng = np.random.default_rng(41)
    terms = {}
    for degree in (2, 3, 5):
        for _ in range(6):
            j1, k1, j3 = rng.multinomial(degree, [0.25] * 4)[:3].tolist()
            k3 = degree - j1 - k1 - j3
            terms[((j1, 0, j3), (k1, 0, k3))] = rng.uniform(-1.0, 1.0)
    f = Polynomial(3, terms)
    layout = polyalg._Layout(f._block[0])
    assert len(layout.passes) == 3 and layout.passes[1][1] == []
    exps, coeffs = f._block
    charted = exps, coeffs + 1j * rng.uniform(-1, 1, len(coeffs))
    for block in (f._block, charted):
        for sign in (-1, 1):
            _assert_layout_change_matches_oracle(block, 3, sign)


def test_coefficient_refuses_exponents_of_the_wrong_length():
    p = mono(2, (2, 0), (1, 3), -1.5)
    for j, k in (((2,), (1, 3)), ((2, 0), (1, 3, 0)), ((), ())):
        with pytest.raises(DimensionMismatchError, match="length 2"):
            p.coefficient(j, k)
