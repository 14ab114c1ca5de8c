"""Symplectic diagonalization and small-divisor certification."""

import math

import numpy as np
import pytest

import oracles
from bnfstab import spectrum
from bnfstab.errors import (
    ConditioningError,
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
    for a, b in zip(oracles.eval_terms(g.terms(), pts).real,
                    oracles.eval_terms(f.terms(), old).real):
        assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-12)


def _bits(poly):
    """{(j, k): coeff} of a polynomial, each coefficient to the bit."""
    return {(j, k): c.hex() for j, k, c in poly.terms()}


def _counting(monkeypatch, module, name):
    """Count the calls of module.name into the returned list."""
    func = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pushforward_relabels_a_permutation_and_expands_a_coupled_map(
        n, monkeypatch):
    # a map that permutes and scales the modes relabels the exponent
    # columns without the product kernel, bit for bit what the dict oracle
    # gives; a coupled map goes through the substitution once, and agrees
    # with the dict oracle
    from bnfstab import polyalg
    from util import random_polynomial

    rng = np.random.default_rng(60 + n)
    f = Polynomial.zero(n)
    for degree in (2, 3, 4, 5):
        f = f + random_polynomial(rng, n, degree, num_terms=12)
    # x_l -> a_l x, y_l -> y / a_l of mode l + 1, a_l = -1 and 1 + 2^-52
    # among them
    modes = np.roll(np.arange(n), 1)
    a = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    a[:2] = (1.0000000000000002, -1.0)[:n]
    M = np.zeros((2 * n, 2 * n))
    M[np.arange(n), modes] = a
    M[np.arange(n) + n, modes + n] = 1.0 / a
    kernel = _counting(monkeypatch, polyalg, "_products")
    got = LinearSymplecticMap(M).pushforward(f)
    assert not kernel
    assert _bits(got) == {key: c.hex() for key, c in oracles.pruned(
        oracles.linear_substitute(f.terms(), M.tolist(), n)).items()}

    calls = _counting(monkeypatch, polyalg, "linear_substitute")
    h2, _ = _random_elliptic_quadratic(rng, n)
    _, smap = diagonalize_quadratic(h2)
    calls.clear()
    got = {(j, k): c for j, k, c in smap.pushforward(f).terms()}
    assert len(calls) == 1
    want = oracles.pruned(oracles.linear_substitute(
        f.terms(), smap.matrix.tolist(), n))
    assert set(got) == set(want)
    top = {}
    for (j, k), c in want.items():
        top[sum(j + k)] = max(top.get(sum(j + k), 0.0), abs(c))
    for (j, k), c in want.items():
        assert abs(got[(j, k)] - c) <= 1e-12 * top[sum(j + k)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_pushforward_is_the_pushforward_of_each_component(n):
    # the series goes through the substitution as one block: each of its
    # components comes out bit for bit as it does alone, and d_max stays
    from bnfstab.polyalg import GradedSeries
    from util import random_polynomial

    rng = np.random.default_rng(80 + n)
    h2, _ = _random_elliptic_quadratic(rng, n)
    f = h2
    for degree in (0, 1, 3, 4, 5):
        f = f + random_polynomial(rng, n, degree, num_terms=10)
    series = GradedSeries.from_polynomial(f, d_max=7)
    # (x, y) -> (y, -x); and, past one DOF, a map coupling every mode but
    # the last, which it keeps, so relabeled and expanded variables
    # alternate
    permutation = np.eye(2 * n)[np.roll(np.arange(2 * n), n)]
    permutation[n:] *= -1.0
    maps = [diagonalize_quadratic(h2)[1], LinearSymplecticMap(permutation)]
    if n > 1:
        _, inner = diagonalize_quadratic(
            _random_elliptic_quadratic(rng, n - 1)[0])
        coupled = [*range(n - 1), *range(n, 2 * n - 1)]
        mixed = np.eye(2 * n)
        mixed[np.ix_(coupled, coupled)] = inner.matrix
        maps.append(LinearSymplecticMap(mixed))
    for smap in maps:
        pushed = smap.pushforward(series)
        assert pushed.d_max == 7
        assert pushed.degrees() == series.degrees()
        for d, part in series:
            alone = smap.pushforward(part)
            assert _bits(pushed.component(d)) == _bits(alone)
            assert list(_bits(pushed.component(d))) == list(_bits(alone))


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


def _certificate_text(omega, k_max):
    """The certificate text of check_nonresonance, that of a refused one
    with the error message when it raises ResonanceError."""
    try:
        return check_nonresonance(omega, k_max).to_text()
    except ResonanceError as exc:
        return f"{exc}\n{exc.certificate.to_text()}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_matches_the_vector_by_vector_scan(n, monkeypatch):
    # the shell matrices against the one-vector-at-a-time loop, through
    # the whole certificate text: generic, signed, near-resonant and
    # exactly resonant frequencies
    rng = np.random.default_rng(500 + n)
    k_max = {1: 20, 2: 14, 3: 9, 4: 6}[n]
    cases = [tuple(rng.uniform(0.2, 3.0, size=n)),
             tuple(rng.uniform(-3.0, 3.0, size=n)),
             tuple(math.sqrt(p) for p in (2.0, 3.0, 5.0, 7.0)[:n]),
             tuple(1.0 + 1e-12 * t for t in range(n)),
             tuple(float(t + 1) for t in range(n))]
    for omega in cases:
        got = _certificate_text(omega, k_max)
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "_shell_minima", oracles.shell_minima)
            want = _certificate_text(omega, k_max)
        assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_shells_serve_every_frequency_and_order(n, monkeypatch):
    # one process, a cold cache, then several frequency vectors of one
    # dimension at a growing k_max: every scan reads shells that earlier
    # scans built, and each certificate is the vector-by-vector one
    spectrum._shell.cache_clear()
    rng = np.random.default_rng(600 + n)
    omegas = [tuple(rng.uniform(-3.0, 3.0, size=n)) for _ in range(3)]
    for k_max in {1: (2, 9, 30), 2: (3, 8, 16), 3: (2, 5, 10),
                  4: (2, 4, 7)}[n]:
        for omega in omegas + [tuple(float(t + 1) for t in range(n))]:
            got = _certificate_text(omega, k_max)
            with monkeypatch.context() as patch:
                patch.setattr(spectrum, "_shell_minima",
                              oracles.shell_minima)
                want = _certificate_text(omega, k_max)
            assert got == want
    assert spectrum._shell.cache_info().hits > 0
    shell = spectrum._shell(n, 3, True)
    with pytest.raises(ValueError):
        shell[0, 0] = 0


@pytest.mark.parametrize("n, norm", [(1, 300), (2, 127), (2, 128),
                                     (2, 200)])
def test_shell_rows_hold_their_norm(n, norm):
    # a norm past the int8 range widens the rows instead of wrapping
    # them: the shell is the half lattice, entry for entry
    half = spectrum._shell(n, norm, True)
    assert half.tolist() == [list(k) for k in oracles.half_lattice(n, norm)]
    full = spectrum._shell(n, norm, False)
    assert full.min() == -norm and full.max() == norm
    assert (np.abs(full.astype(np.int64)).sum(axis=1) == norm).all()
    assert len(full) == 2 * len(half)


def test_check_nonresonance_refuses_non_finite_frequencies():
    for omega in ((1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            check_nonresonance(omega, 3)


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
    again = ResonanceCertificate(**oracles.read_certificate(text))
    assert again == cert
    assert again.to_text() == text
