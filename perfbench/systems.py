"""Seeded input systems for the benchmark, written as HAM text.

Nothing here imports bnfstab or the test helpers: a change to either cannot
change what the benchmark feeds the program.

- ``even2``: the even 2-DOF Hamiltonian with omega = (1, sqrt2), quartic and
  sextic couplings (the coefficients of ``two_dof_even_series``).  It has no
  random part, so the seed does not change it.
- ``dense2`` / ``dense3``: the diagonal oscillator with omega = (1, sqrt2) or
  (1, sqrt2, sqrt3) plus a random cubic and then a random quartic block of
  up to 40 distinct terms each, scale 0.3^(d-2), drawn from one
  ``numpy.random.default_rng`` in the same order as
  ``random_polynomial(num_terms=40)``.  Generator seed 1 is the ROADMAP
  baseline (4 830 ledger F-terms for dense2 at r=14, 18 520 for dense3 at
  r=10).
"""

import numpy as np

# The benchmark stores reference results for this many generator seeds; a
# command-line seed picks one of them (generator seed = seed mod SYSTEMS).
SYSTEMS = 8

OMEGA = (1.0, 2.0 ** 0.5, 3.0 ** 0.5)

# (x exponents, y exponents, coefficient) on top of the oscillator
_EVEN2_COUPLINGS = (
    ((4, 0), (0, 0), 0.25),
    ((2, 2), (0, 0), 0.5),
    ((0, 4), (0, 0), 0.25),
    ((0, 0), (2, 2), 0.25),
    ((1, 1), (1, 1), 0.25),
    ((2, 4), (0, 0), 0.125),
    ((2, 0), (0, 4), 0.125),
    ((0, 2), (4, 0), 0.0625),
)


def generator_seed(seed):
    return seed % SYSTEMS


def _oscillator(n):
    terms = {}
    zero = (0,) * n
    for l in range(n):
        sq = tuple(2 if t == l else 0 for t in range(n))
        terms[(sq, zero)] = OMEGA[l] / 2.0
        terms[(zero, sq)] = OMEGA[l] / 2.0
    return terms


def _random_block(rng, n, degree, num_terms, scale):
    # draw for draw the same rng calls as tests/util.py random_polynomial
    # (field="real", even_only=False): a repeated monomial keeps its last draw
    raw = {}
    for _ in range(20 * num_terms):
        if len(raw) >= num_terms:
            break
        cuts = rng.integers(0, degree + 1, size=2 * n - 1)
        cuts = sorted(cuts.tolist()) + [degree]
        exps = [cuts[0]] + [cuts[i + 1] - cuts[i] for i in range(2 * n - 1)]
        raw[(tuple(exps[:n]), tuple(exps[n:]))] = scale * rng.uniform(-1.0, 1.0)
    return raw


def even2_terms():
    terms = _oscillator(2)
    for j, k, c in _EVEN2_COUPLINGS:
        terms[(j, k)] = c
    return terms


def dense_terms(n, seed):
    rng = np.random.default_rng(generator_seed(seed))
    terms = _oscillator(n)
    for degree in (3, 4):
        terms.update(_random_block(rng, n, degree, 40, 0.3 ** (degree - 2)))
    return terms


def ham_text(n, d_max, terms):
    """HAM file text, terms in the order GradedSeries.to_text writes them."""
    lines = [f"HAM n={n} dmax={d_max} field=real"]
    keyed = sorted((sum(j) + sum(k), j + k, c)
                   for (j, k), c in terms.items() if c != 0.0)
    for degree, exps, c in keyed:
        lines.append(" ".join([str(degree)] + [str(e) for e in exps]
                              + [format(float(c), ".17g")]))
    return "\n".join(lines) + "\n"


def system_text(name, seed):
    """HAM text of a named system: even2 (d_max 20), dense2 or dense3."""
    if name == "even2":
        return ham_text(2, 20, even2_terms())
    if name == "dense2":
        return ham_text(2, 4, dense_terms(2, seed))
    if name == "dense3":
        return ham_text(3, 4, dense_terms(3, seed))
    raise ValueError(f"unknown system {name!r}")
