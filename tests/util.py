"""Shared builders for the test suite."""

import importlib.util
import itertools
from pathlib import Path

from bnfstab.polyalg import (
    GradedSeries,
    Polynomial,
    oscillator,
    poisson_bracket,
)


def mono(n, j, k, c=1.0):
    return Polynomial.monomial(n, j, k, c)


def one_dof_series(perturbation, omega=1.0, d_max=8):
    """omega (x^2+y^2)/2 plus {(jx, ky): coeff} perturbation terms."""
    h = oscillator((omega,))
    for (jx, ky), c in perturbation.items():
        h = h + mono(1, (jx,), (ky,), c)
    return GradedSeries.from_polynomial(h, d_max=d_max)


TWO_DOF_OMEGA = (1.0, 2.0 ** 0.5)


def two_dof_even_series(d_max=20):
    """Even 2-DOF Hamiltonian with quartic and sextic couplings; strong
    enough that the optimal order walks through several values on a
    [0.25, 1] radius sweep."""
    w = TWO_DOF_OMEGA
    h = (mono(2, (2, 0), (0, 0), w[0] / 2) + mono(2, (0, 0), (2, 0), w[0] / 2)
         + mono(2, (0, 2), (0, 0), w[1] / 2) + mono(2, (0, 0), (0, 2), w[1] / 2)
         + mono(2, (4, 0), (0, 0), 0.25) + mono(2, (2, 2), (0, 0), 0.5)
         + mono(2, (0, 4), (0, 0), 0.25) + mono(2, (0, 0), (2, 2), 0.25)
         + mono(2, (1, 1), (1, 1), 0.25)
         + mono(2, (2, 4), (0, 0), 0.125) + mono(2, (2, 0), (0, 4), 0.125)
         + mono(2, (0, 2), (4, 0), 0.0625))
    return GradedSeries.from_polynomial(h, d_max=d_max)


def random_polynomial(rng, n, degree, num_terms=6, scale=1.0,
                      even_only=False):
    """Random homogeneous polynomial of the given total degree."""
    raw = {}
    for _ in range(20 * num_terms):
        if len(raw) >= num_terms:
            break
        cuts = rng.integers(0, degree + 1, size=2 * n - 1)
        cuts = sorted(cuts.tolist()) + [degree]
        exps = [cuts[0]] + [cuts[i + 1] - cuts[i] for i in range(2 * n - 1)]
        j, k = tuple(exps[:n]), tuple(exps[n:])
        if even_only and (sum(j) + sum(k)) % 2:
            continue
        raw[(j, k)] = scale * (rng.uniform(-1.0, 1.0))
    p = Polynomial.zero(n)
    for (j, k), c in raw.items():
        p = p + Polynomial.monomial(n, j, k, c)
    return p


def full_block(rng, n, degree):
    """Every monomial of the degree, with seeded coefficients."""
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=2 * n):
        if sum(exps) == degree:
            terms[(exps[:n], exps[n:])] = rng.uniform(-1.0, 1.0)
    return Polynomial(n, terms)


def random_series(rng, n, omega, d_max, amplitude=0.3):
    """Random perturbed oscillator: diagonal H2 plus random homogeneous
    blocks of every degree from 3 through d_max."""
    h = oscillator(omega)
    for d in range(3, d_max + 1):
        h = h + random_polynomial(rng, n, d, num_terms=4,
                                  scale=amplitude ** (d - 2))
    return GradedSeries.from_polynomial(h, d_max=d_max)


def normal_form(state):
    """H0 + Z_1 + ... + Z_r of a ledger as one real polynomial."""
    return sum((state.z[s].to_polynomial() for s in sorted(state.z)),
               state.h0_polynomial())


def identity_residual(state, s):
    """max coeff of L_H0 chi_s - Z_s + Q_s, relative to the block scale."""
    chi = state.generator(s)
    z = state.z_action(s).to_polynomial()
    q = state.remainder_block(s)
    resid = poisson_bracket(state.h0_polynomial(), chi, cap=s + 2) \
        + z.scale(-1.0) + q
    scale = max(1.0, q.max_abs_coeff(), z.max_abs_coeff())
    return resid.max_abs_coeff() / scale


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The module perfbench/<name>.py, loaded from its file."""
    source = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
