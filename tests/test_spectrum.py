"""Symplectic diagonalization and small-divisor certification."""

import math

import numpy as np
import pytest

import oracles
from bnfstab.errors import (
    ConditioningError,
    FormatError,
    GradingError,
    NotEllipticError,
    ResonanceError,
)
from bnfstab.polyalg import Polynomial
from bnfstab.spectrum import (
    LinearSymplecticMap,
    ResonanceCertificate,
    check_nonresonance,
    default_tolerance,
    diagonalize_quadratic,
)
from util import mono


def _symplectic_form(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _random_elliptic_quadratic(rng, n):
    # positive definite S makes the equilibrium elliptic with positive
    # Krein signatures throughout
    B = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    S = B.T @ B + (2.0 * n) * np.eye(2 * n)
    terms = {}
    for a in range(2 * n):
        for b in range(a, 2 * n):
            c = S[a, b] if a == b else 2.0 * S[a, b]
            exps = [0] * (2 * n)
            exps[a] += 1
            exps[b] += 1
            key = (tuple(exps[:n]), tuple(exps[n:]))
            terms[key] = terms.get(key, 0.0) + 0.5 * c
    p = Polynomial.zero(n)
    for (j, k), c in terms.items():
        p = p + Polynomial.monomial(n, j, k, c)
    return p, S


def test_diagonalize_random_definite_forms():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        h2, S = _random_elliptic_quadratic(rng, n)
        omega, smap = diagonalize_quadratic(h2)
        J = _symplectic_form(n)
        assert np.max(np.abs(smap.matrix.T @ J @ smap.matrix - J)) <= 1e-9
        # frequencies must match the spectrum of J S computed directly
        ev = np.linalg.eigvals(J @ S)
        nu = np.sort(ev.imag[ev.imag > 1e-12])[::-1]
        assert np.allclose(sorted(map(abs, omega), reverse=True), nu,
                           rtol=1e-9)
        assert all(w > 0 for w in omega)  # definite S: positive signatures
        assert tuple(sorted(map(abs, omega), reverse=True)) == tuple(
            map(abs, omega))
        # pushforward lands exactly on the normal oscillator form
        pushed = smap.pushforward(h2)
        for l, w in enumerate(omega):
            jj = tuple(2 if t == l else 0 for t in range(n))
            zz = (0,) * n
            assert pushed.coefficient(jj, zz) == pytest.approx(w / 2, rel=1e-9)
            assert pushed.coefficient(zz, jj) == pytest.approx(w / 2, rel=1e-9)


def test_diagonalize_one_dof_rescaling():
    a, b = 2.0, 8.0
    h2 = mono(1, (2,), (0,), a / 2) + mono(1, (0,), (2,), b / 2)
    omega, smap = diagonalize_quadratic(h2)
    assert omega[0] == pytest.approx(math.sqrt(a * b), rel=1e-12)
    # the rescaling x -> (b/a)^(1/4) x, y -> (a/b)^(1/4) y does the job
    assert abs(smap.matrix[0, 0]) == pytest.approx((b / a) ** 0.25, rel=1e-9)
    assert abs(smap.matrix[1, 1]) == pytest.approx((a / b) ** 0.25, rel=1e-9)


def test_diagonalize_negative_definite_flips_sign():
    h2 = mono(1, (2,), (0,), -0.5) + mono(1, (0,), (2,), -0.5)
    omega, smap = diagonalize_quadratic(h2)
    assert omega[0] == pytest.approx(-1.0, rel=1e-12)
    pushed = smap.pushforward(h2)
    assert pushed.coefficient((2,), (0,)) == pytest.approx(-0.5)


def test_diagonalize_mixed_signature():
    # one ordinary mode, one negative-energy mode
    h2 = (mono(2, (2, 0), (0, 0), 1.5) + mono(2, (0, 0), (2, 0), 1.5)
          + mono(2, (0, 2), (0, 0), -0.5) + mono(2, (0, 0), (0, 2), -0.5))
    omega, smap = diagonalize_quadratic(h2)
    assert sorted(omega) == pytest.approx([-1.0, 3.0])
    J = _symplectic_form(2)
    assert np.max(np.abs(smap.matrix.T @ J @ smap.matrix - J)) <= 1e-10


def test_diagonalize_rejects_hyperbolic():
    with pytest.raises(NotEllipticError):
        diagonalize_quadratic(mono(1, (2,), (0,), 0.5)
                              + mono(1, (0,), (2,), -0.5))
    with pytest.raises(NotEllipticError):
        diagonalize_quadratic(mono(1, (1,), (1,), 1.0))


def test_diagonalize_rejects_non_quadratic():
    with pytest.raises(GradingError):
        diagonalize_quadratic(mono(1, (3,), (0,)))
    with pytest.raises(GradingError):
        diagonalize_quadratic(mono(1, (2,), (0,)) + mono(1, (1,), (0,)))


def test_symplectic_map_rejects_bad_matrix():
    with pytest.raises(ConditioningError):
        LinearSymplecticMap(np.diag([2.0, 2.0]))
    LinearSymplecticMap(np.diag([2.0, 0.5]))  # fine


def test_symplectic_map_inverse_and_points():
    rng = np.random.default_rng(7)
    h2, _ = _random_elliptic_quadratic(rng, 2)
    _, smap = diagonalize_quadratic(h2)
    inv = smap.inverse()
    assert np.max(np.abs(inv.matrix @ smap.matrix - np.eye(4))) <= 1e-12
    pts = rng.uniform(-1, 1, size=(30, 4))
    back = smap.old_to_new(smap.new_to_old(pts))
    assert np.max(np.abs(back - pts)) <= 1e-12


def test_pushforward_is_composition():
    rng = np.random.default_rng(9)
    h2, _ = _random_elliptic_quadratic(rng, 2)
    _, smap = diagonalize_quadratic(h2)
    from util import random_polynomial
    f = random_polynomial(rng, 2, 3)
    g = smap.pushforward(f)
    # plain Python floats, not numpy scalars (np.float64 subclasses float)
    assert all(type(c) is float for _, _, c in g.terms())
    pts = rng.uniform(-0.5, 0.5, size=(20, 4))
    old = smap.new_to_old(pts)
    for p_new, p_old in zip(pts, old):
        assert math.isclose(g.evaluate(p_new), f.evaluate(p_old),
                            rel_tol=1e-10, abs_tol=1e-12)


def test_check_nonresonance_matches_exhaustive_scan():
    omega = (1.0, 2.0 ** 0.5)
    cert = check_nonresonance(omega, 12)
    md, argmins, shells = oracles.exhaustive_divisor_scan(omega, 12)
    gamma, tau = oracles.diophantine_fit(shells, 12)
    assert cert.min_divisor == md
    assert tuple(cert.argmin_k) in {tuple(k) for k in argmins}
    assert cert.gamma == gamma
    assert cert.tau_dioph == tau
    assert cert.certified
    assert cert.k_max == 12


def test_check_nonresonance_detects_exact_resonance():
    with pytest.raises(ResonanceError) as info:
        check_nonresonance((1.0, 2.0), 5)
    err = info.value
    assert err.divisor == 0.0
    assert abs(err.k[0] * 1.0 + err.k[1] * 2.0) == 0.0
    assert err.certificate is not None
    assert not err.certificate.certified


def test_check_nonresonance_near_resonance_tolerance():
    omega = (1.0, 1.0 + 1e-12)
    with pytest.raises(ResonanceError):
        check_nonresonance(omega, 3)
    # explicit loose tolerance accepts the same vector
    cert = check_nonresonance(omega, 3, tol=1e-13)
    assert cert.min_divisor == pytest.approx(1e-12, rel=1e-3)
    # a tolerance outside (0, inf) is refused before the scan
    for bad in (0.0, -1e-13, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_nonresonance(omega, 3, tol=bad)


def test_default_tolerance_scales_with_omega():
    assert default_tolerance((2.0, -4.0)) == pytest.approx(4e-10)


def test_certificate_shells_bound_divisors():
    omega = (1.0, 2.0 ** 0.5)
    cert = check_nonresonance(omega, 10)
    _, _, shells = oracles.exhaustive_divisor_scan(omega, 10)
    for K in range(1, 11):
        assert shells[K] >= cert.gamma * K ** (-cert.tau_dioph) * (1 - 1e-12)


def test_certificate_text_roundtrip():
    cert = check_nonresonance((1.0, 2.0 ** 0.5, 3.0 ** 0.5), 6)
    text = cert.to_text()
    again = ResonanceCertificate.from_text(text)
    assert again == cert
    assert again.to_text() == text


def test_certificate_text_errors():
    cert = check_nonresonance((1.0, 2.0 ** 0.5), 4)
    text = cert.to_text()
    with pytest.raises(FormatError):
        ResonanceCertificate.from_text(text.replace("END\n", ""))
    with pytest.raises(FormatError):
        ResonanceCertificate.from_text(text.replace("gamma", "gamme"))
    with pytest.raises(FormatError):
        ResonanceCertificate.from_text("bogus\n")
