"""Property tests of the four record formats: what a writer writes, its
reader reads back exactly, and no text makes a reader raise anything but
bnfstab.Error."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfstab import Error
from bnfstab.birkhoff import ActionPolynomial, NormalFormState
from bnfstab.celestial import PoincareState
from bnfstab.polyalg import GradedSeries, Polynomial
from bnfstab.spectrum import ResonanceCertificate

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

# finite, and small enough that abs() of a complex coefficient and the
# hypot of a RADII entry stay finite
values = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
positive = st.floats(min_value=1e-150, max_value=1e150)


def _exponents(width, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=width)
            if sum(e) == degree]


def homogeneous(n, degree, field="real"):
    """A Polynomial in n degrees of freedom, homogeneous of the degree."""
    coeffs = values if field == "real" else st.complex_numbers(
        max_magnitude=1e150, allow_nan=False, allow_infinity=False)
    monomials = _exponents(2 * n, degree)
    return st.dictionaries(st.sampled_from(monomials), coeffs,
                           max_size=4).map(
        lambda terms: Polynomial(
            n, {(e[:n], e[n:]): c for e, c in terms.items()}, field=field))


@st.composite
def graded_series(draw):
    n = draw(st.integers(1, 2))
    field = draw(st.sampled_from(["real", "complex"]))
    d_max = draw(st.integers(0, 5))
    parts = {d: draw(homogeneous(n, d, field)) for d in range(d_max + 1)}
    return GradedSeries(n, parts, d_max, field=field)


@st.composite
def ledgers(draw):
    n = draw(st.integers(1, 2))
    r_max = draw(st.integers(1, 4))
    r = draw(st.integers(0, r_max))
    omega = tuple(draw(st.lists(values, min_size=n, max_size=n)))
    z = {}
    for s in range(2, r + 1, 2):
        monomials = _exponents(n, (s + 2) // 2)
        z[s] = ActionPolynomial(n, draw(st.dictionaries(
            st.sampled_from(monomials), values, max_size=3)))
    chi = {s: draw(homogeneous(n, s + 2)) for s in range(1, r + 1)}
    f = {s: draw(homogeneous(n, s + 2)) for s in range(1, r_max + 1)}
    return NormalFormState(omega, r, r_max, z=z, chi=chi, f=f)


@st.composite
def certificates(draw):
    n = draw(st.integers(1, 3))
    return ResonanceCertificate(
        omega=tuple(draw(st.lists(values, min_size=n, max_size=n))),
        k_max=draw(st.integers(1, 40)),
        min_divisor=draw(values),
        argmin_k=tuple(draw(st.lists(st.integers(-9, 9), min_size=n,
                                     max_size=n))),
        gamma=draw(values),
        tau_dioph=draw(values | st.just(float("inf"))),
        tol=draw(values),
        certified=draw(st.booleans()))


@st.composite
def poincare_states(draw):
    n = draw(st.integers(0, 3))
    name = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)

    def column(elements):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    return PoincareState(names=column(name), Lambda=column(positive),
                         lam=column(values), xi=column(values),
                         eta=column(values))


FORMATS = {
    "HAM": (GradedSeries, graded_series()),
    "NFSTATE": (NormalFormState, ledgers()),
    "NONRESONANCE": (ResonanceCertificate, certificates()),
    "POINCARE": (PoincareState, poincare_states()),
}


@pytest.mark.parametrize("magic", sorted(FORMATS))
def test_record_round_trips(magic):
    cls, records = FORMATS[magic]

    @PROPERTY
    @given(records)
    def round_trip(x):
        text = x.to_text()
        assert text.startswith(magic + " ")
        y = cls.from_text(text)
        assert y == x
        assert y.to_text() == text

    round_trip()


# headers that parse, and some that do not, for each format
HEADERS = {
    "HAM": ["HAM n=1 dmax=4 field=real", "HAM n=2 dmax=6 field=complex",
            "HAM n=0 dmax=2 field=real", "HAM n=1 dmax=-1 field=real"],
    "NFSTATE": ["NFSTATE n=1 r=2 rmax=3", "NFSTATE n=2 r=0 rmax=2",
                "NFSTATE n=0 r=0 rmax=1", "NFSTATE n=-1 r=1 rmax=1"],
    "NONRESONANCE": ["NONRESONANCE n=1 kmax=3", "NONRESONANCE n=2 kmax=4",
                     "NONRESONANCE n=0 kmax=0"],
    "POINCARE": ["POINCARE n=1", "POINCARE n=2", "POINCARE n=0",
                 "POINCARE n=-1"],
}

TOKENS = [
    "0", "1", "2", "3", "4", "-1", "256", "0.5", "-2.5", "1e308", "1e400",
    "nan", "inf", "-inf", "x", "=", "n=1", "s=1", "s=2", "s=-1", "s=x",
    "END", "OMEGA", "Z", "CHI", "F", "RADII", "omega", "min_divisor",
    "argmin_k", "gamma", "tau_dioph", "tol", "certified", "jupiter", "#",
]


@pytest.mark.parametrize("magic", sorted(HEADERS))
def test_token_soup_raises_only_package_errors(magic):
    cls = FORMATS[magic][0]
    lines = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6).map(
        " ".join)

    @PROPERTY
    @given(st.sampled_from(HEADERS[magic]), st.lists(lines, max_size=8))
    def soup(header, body):
        try:
            cls.from_text("\n".join([header, *body]) + "\n")
        except Error:
            pass

    soup()
