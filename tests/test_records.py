"""Property tests of the four record formats: what a writer writes, its
reader reads back exactly, and no text makes a reader raise anything but
bnfstab.Error.  The package reads no NONRESONANCE certificate back, so the
certificate writer is checked against the reader in tests/oracles.py."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bnfstab import Error, _records, polyalg
from bnfstab.birkhoff import ActionPolynomial, NormalFormState
from bnfstab.celestial import (
    BodyParameters,
    PoincareState,
    elements_text,
    fixture_path,
    parse_elements,
)
from bnfstab.cli import main
from bnfstab.errors import FormatError
from bnfstab.polyalg import GradedSeries, Polynomial
from bnfstab.spectrum import ResonanceCertificate
from util import load_perfbench

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

# finite, and small enough that the hypot of a RADII entry stays finite
values = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
positive = st.floats(min_value=1e-150, max_value=1e150)


def _exponents(width, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=width)
            if sum(e) == degree]


def homogeneous(n, degree):
    """A Polynomial in n degrees of freedom, homogeneous of the degree."""
    monomials = _exponents(2 * n, degree)
    return st.dictionaries(st.sampled_from(monomials), values,
                           max_size=4).map(
        lambda terms: Polynomial(
            n, {(e[:n], e[n:]): c for e, c in terms.items()}))


@st.composite
def graded_series(draw):
    n = draw(st.integers(1, 2))
    d_max = draw(st.integers(0, 5))
    poly = Polynomial.zero(n)
    for d in range(d_max + 1):
        poly = poly + draw(homogeneous(n, d))
    return GradedSeries(poly, d_max)


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


def _read_certificate(text):
    return ResonanceCertificate(**oracles.read_certificate(text))


# the reader and a strategy of records of each format
FORMATS = {
    "HAM": (GradedSeries.from_text, graded_series()),
    "NFSTATE": (NormalFormState.from_text, ledgers()),
    "NONRESONANCE": (_read_certificate, certificates()),
    "POINCARE": (PoincareState.from_text, poincare_states()),
}


@pytest.mark.parametrize("magic", sorted(FORMATS))
def test_record_round_trips(magic):
    read, records = FORMATS[magic]

    @PROPERTY
    @given(records)
    def round_trip(x):
        text = x.to_text()
        assert text.startswith(magic + " ")
        y = read(text)
        assert y == x
        assert y.to_text() == text

    round_trip()


# headers that parse, and some that do not, for each format the package
# reads
HEADERS = {
    "HAM": ["HAM n=1 dmax=4 field=real", "HAM n=2 dmax=6 field=complex",
            "HAM n=0 dmax=2 field=real", "HAM n=1 dmax=-1 field=real"],
    "NFSTATE": ["NFSTATE n=1 r=2 rmax=3", "NFSTATE n=2 r=0 rmax=2",
                "NFSTATE n=0 r=0 rmax=1", "NFSTATE n=-1 r=1 rmax=1"],
    "POINCARE": ["POINCARE n=1", "POINCARE n=2", "POINCARE n=0",
                 "POINCARE n=-1"],
}

TOKENS = [
    "0", "1", "2", "3", "4", "-1", "256", "0.5", "-2.5", "1e308", "1e400",
    "nan", "inf", "-inf", "x", "=", "n=1", "s=1", "s=2", "s=-1", "s=x",
    "END", "OMEGA", "Z", "CHI", "F", "RADII", "omega", "min_divisor",
    "argmin_k", "gamma", "tau_dioph", "tol", "certified", "jupiter", "#",
]


# the extremes of the float range, and a signed zero
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308]
any_float = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from(EDGE_VALUES)


# exponents of one, two and three digits, each at its edges
WIDE_EXPONENTS = [0, 1, 9, 10, 99, 100, 255]


@st.composite
def unpruned_polynomials(draw):
    """A Polynomial of any finite coefficients, homogeneous or of mixed
    degrees, built without pruning: its exponents small, or each one of
    WIDE_EXPONENTS."""
    n = draw(st.integers(1, 3))
    degrees = draw(st.sampled_from([[3], [0, 1, 2, 4], [2, 5], None]))
    if degrees is None:
        monomial = st.tuples(*[st.sampled_from(WIDE_EXPONENTS)] * (2 * n))
    else:
        monomial = st.sampled_from(
            [e for d in degrees for e in _exponents(2 * n, d)])
    exps = draw(st.lists(monomial, min_size=1, max_size=12, unique=True))
    return _unpruned(n, {e: draw(any_float) for e in exps})


def _unpruned(n, terms):
    """The Polynomial of {exponent row: coeff} as it stands, its rows put
    in graded key order."""
    rows = sorted(terms, key=lambda e: (sum(e), e))
    return Polynomial._raw(n, (
        np.array(rows, np.uint8).reshape(len(rows), 2 * n),
        np.array([terms[e] for e in rows], float)))


@settings(PROPERTY)
@given(unpruned_polynomials())
# a degree column of four digits: every exponent 255 at 3 DOF
@example(_unpruned(3, {(255,) * 6: 0.5, (9, 10, 99, 100, 255, 0): -1.5}))
@example(_unpruned(2, {(1, 0, 0, 1): 5e-324, (1, 1, 0, 0): -0.0,
                       (0, 0, 2, 0): -1.7976931348623157e308}))
def test_term_lines_match_the_per_term_writer(p):
    assert polyalg._term_lines(p) == oracles.term_lines(p)
    # terms() is graded: by degree, then by exponent vector
    order = [(j, k) for j, k, _ in p.terms()]
    assert order == sorted(order, key=lambda jk: (sum(jk[0] + jk[1]),
                                                  jk[0] + jk[1]))


@pytest.mark.parametrize("magic", sorted(HEADERS))
def test_token_soup_raises_only_package_errors(magic):
    read = FORMATS[magic][0]
    lines = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6).map(
        " ".join)

    @PROPERTY
    @given(st.sampled_from(HEADERS[magic]), st.lists(lines, max_size=8))
    def soup(header, body):
        try:
            read("\n".join([header, *body]) + "\n")
        except Error:
            pass

    soup()


# ledgers that break an invariant in the header (r outside 0..rmax, rmax
# above 253) or in a section header (s outside 1..r for Z and CHI, outside
# 1..rmax for F)
BROKEN_HEADERS = ["NFSTATE n=1 r=3 rmax=2", "NFSTATE n=1 r=-1 rmax=2",
                  "NFSTATE n=1 r=1 rmax=254"]
BROKEN_SECTIONS = ["F s=9", "F s=0", "CHI s=2", "Z s=2", "Z s=-1"]


def test_refused_ledgers_exit_2_through_the_cli(tmp_path):
    ledger = tmp_path / "nf.txt"
    out = str(tmp_path / "out.txt")
    lines = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6).map(
        " ".join)
    # (header, whether a ledger may follow it, a section to insert)
    broken_header = st.tuples(st.sampled_from(BROKEN_HEADERS),
                              st.just(False), st.none())
    broken_section = st.tuples(st.just("NFSTATE n=1 r=1 rmax=2"),
                               st.just(False),
                               st.sampled_from(BROKEN_SECTIONS))
    soup = st.tuples(st.sampled_from(HEADERS["NFSTATE"]), st.just(True),
                     st.none())

    @settings(PROPERTY, max_examples=60)
    @given(broken_header | broken_section | soup, st.lists(lines, max_size=6),
           st.integers(0, 6))
    def refused(kind, body, at):
        header, sound, section = kind
        if section is not None:
            body.insert(min(at, len(body)), section)
        text = "\n".join([header, "OMEGA 1", *body, "END"]) + "\n"
        try:
            NormalFormState.from_text(text)
        except Error:
            pass
        else:
            assert sound, text
            return
        ledger.write_text(text)
        assert main(["estimate", "--input", str(ledger), "--rho0", "0.5",
                     "--radii", "1", "--out", out]) == 2
        assert main(["sweep", "--input", str(ledger), "--radii", "1",
                     "--grid", "0.5:1:2", "--out", out]) == 2

    refused()


# -- the block reader of term lines against a reader of one line at a time --

# accepted by int() or float() as they stand, or refused, or pruned (3e-16
# beside 1)
COEFFS = ["1", "-2.5", "0", "-0.0", "3e-16", "1e-300", "1.5e308", "+7",
          "1_0", "nan", "x"]
EXPONENTS = ["+1", "0_1", "01", "256", "-1", "1.0"]


def _composition(draw, total, parts):
    """parts nonnegative integers that sum to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1,
                                max_size=parts - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def term_lines(draw, n, degree, earlier, faults):
    """A term line of the degree, a new exponent vector unless earlier holds
    every one.  With faults, now and then a token is swapped, dropped or
    added, an earlier line repeats, or the line is soup."""
    kinds = ["term"] * 8 + (["mutant"] * 3 + ["repeat", "soup"]) * faults
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat" and earlier:
        return draw(st.sampled_from(earlier))
    if kind == "soup":
        return " ".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1,
                                      max_size=6)))
    for _ in range(5):
        exps = " ".join(map(str, _composition(draw, degree, 2 * n)))
        if not any(line.startswith(f"{degree} {exps} ") for line in earlier):
            break
    coeff = st.sampled_from(COEFFS[:8]) | values.map(repr)
    tokens = f"{degree} {exps} {draw(coeff)}".split()
    if kind == "mutant":
        at = draw(st.integers(0, len(tokens) - 1))
        change = draw(st.sampled_from(["swap", "drop", "add"]))
        if change == "drop":
            del tokens[at]
        else:
            new = draw(st.sampled_from(COEFFS + EXPONENTS + TOKENS))
            tokens[at:at + (change == "swap")] = [new]
    return " ".join(tokens)


@st.composite
def ham_texts(draw):
    n = draw(st.integers(1, 2))
    # now and then a field the reader refuses at the header
    field = draw(st.sampled_from(["real"] * 7 + ["complex"]))
    d_max = draw(st.integers(0, 4))
    faults = draw(st.booleans())
    # with faults, now and then a degree beyond dmax
    degrees = st.integers(0, d_max + faults)
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        lines.append(draw(term_lines(n, draw(degrees), lines, faults)))
    return "\n".join([f"HAM n={n} dmax={d_max} field={field}", *lines]) + "\n"


@st.composite
def nfstate_texts(draw):
    n = draw(st.integers(1, 2))
    r_max = draw(st.integers(1, 3))
    r = draw(st.integers(0, r_max))
    # the kinds of fault drawn into this text, none for a sound ledger
    faults = draw(st.just(set()) | st.sets(st.sampled_from(
        ["lines", "headers", "sections", "omega", "tail"]), min_size=1,
        max_size=2))
    # the sections in the order the header fixes, a header and 0-5 term
    # lines each; an odd Z section is empty, but now and then with faults
    chunks = []
    for label, top in (("Z", r), ("CHI", r), ("F", r_max)):
        for s in range(1, top + 1):
            headers = [f"{label} s={s}"] * 12 + ("headers" in faults) * [
                f"{label} s=x", label, f"{label} s={s} x", f"{label} s=0",
                f"{label} s={top + 1}", f"F s={r_max + 1}"]
            lines = [draw(st.sampled_from(headers))]
            sizes = (st.integers(0, 5) if label != "Z" or s % 2 == 0 else
                     st.sampled_from([0] * 3 + [1] * ("lines" in faults)))
            for _ in range(draw(sizes)):
                if label == "Z":
                    p = _composition(draw, (s + 2) // 2, n)
                    line = " ".join([*map(str, p),
                                     draw(st.sampled_from(COEFFS[:8]))])
                else:
                    line = draw(term_lines(n, s + 2, lines[1:],
                                           "lines" in faults))
                # a repeated exponent vector only with faults
                if "lines" in faults or all(
                        line.rsplit(None, 1)[0] != old.rsplit(None, 1)[0]
                        for old in lines[1:]):
                    lines.append(line)
            chunks.append(lines)
    # now and then a section dropped, repeated or swapped with the next one
    for _ in range(("sections" in faults) * draw(st.integers(1, 2))):
        at = draw(st.integers(0, max(len(chunks) - 1, 0)))
        change = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if change == "drop":
            del chunks[at:at + 1]
        elif change == "repeat":
            chunks[at:at] = chunks[at:at + 1]
        else:
            chunks[at:at + 2] = chunks[at:at + 2][::-1]
    body = [line for lines in chunks for line in lines]
    # the OMEGA line first, or else missing, repeated or elsewhere
    omega = "omega" in faults
    for _ in range(draw(st.sampled_from([1] if not omega else [0, 2, 1]))):
        at = draw(st.integers(0, len(body) if omega else 0))
        body.insert(at, "OMEGA" + " 1.5" * n)
    tail = draw(st.sampled_from([["END"]] + [[], ["END", "F s=1"]]
                                * ("tail" in faults)))
    return "\n".join([f"NFSTATE n={n} r={r} rmax={r_max}", *body,
                      *tail]) + "\n"


def _bits(c):
    """c to the bit, the sign of a zero included."""
    return c.hex()


def _outcome(read, text):
    try:
        return "read", read(text)
    except FormatError as exc:
        return "FormatError", exc.line, str(exc)
    except ValueError:      # a coefficient whose abs() overflows
        return ("ValueError",)


def _package_terms(poly):
    return [((j, k), _bits(c)) for j, k, c in poly.terms()]


def _graded_terms(terms):
    """An oracle's {(j, k): coeff} as _package_terms reads a Polynomial: in
    graded key order, the order of its storage."""
    return [((j, k), _bits(c)) for (j, k), c
            in sorted(terms.items(), key=lambda t: (sum(t[0][0] + t[0][1]),
                                                    t[0][0] + t[0][1]))]


def _package_ham(text):
    return {d: _package_terms(p) for d, p in GradedSeries.from_text(text)}


def _oracle_ham(text):
    return {d: _graded_terms(terms)
            for d, terms in oracles.read_ham(text).items()}


def _package_nfstate(text):
    state = NormalFormState.from_text(text)
    sections = {("Z", s): dict(v.terms()) for s, v in state.z.items()}
    for label, ledger in (("CHI", state.chi), ("F", state.f)):
        sections.update(((label, s), _package_terms(v))
                        for s, v in ledger.items())
    return state.omega, sections


def _oracle_nfstate(text):
    omega, sections = oracles.read_nfstate(text)
    return omega, {
        (label, s): terms if label == "Z" else _graded_terms(terms)
        for (label, s), terms in sections.items()}


READERS = {"HAM": (ham_texts(), _package_ham, _oracle_ham),
           "NFSTATE": (nfstate_texts(), _package_nfstate, _oracle_nfstate)}
HAM_HEAD = "HAM n=1 dmax=4 field=real"
NF_HEAD = "NFSTATE n=1 r=1 rmax=2\nOMEGA 1\nZ s=1\nCHI s=1"
# texts whose line breaks, whitespace, comments or tokens are out of the
# ordinary, for each reader
EDGE_TEXTS = {
    "HAM": [
        # a complex field, refused at the header
        "HAM n=1 dmax=2 field=complex\n2 1 1 1 -0.0\n2 2 0 -0.0 -1\n",
        f"{HAM_HEAD}\r\n2 2 0 1\r\n4 4 0 nan\r\n",
        f"{HAM_HEAD}\f2 2 0 1\v2 0 2 1\u20284 1 3 x\n",
        f"{HAM_HEAD}\n2\t2 0\t1\n\t4 4 0 1\n",
        f"{HAM_HEAD}\n2 2 0 1 # a comment\n# a whole line\n2 0 2 1\n",
        f"{HAM_HEAD}\n\n   \n2 2 0 1\n\n",
        f"{HAM_HEAD}\n2 2 0 1\ninf 2 0 1\n",
        f"{HAM_HEAD}\n2 2 0 1\nnan 2 0 1\n",
        f"{HAM_HEAD}\n2 99999999999999999999 0 1\n",
        f"{HAM_HEAD}\n99999999999999999999 2 0 1\n",
    ],
    "NFSTATE": [
        f"{NF_HEAD}\r\nF s=1\r\n3 3 0 1\r\nF s=2\r\n4 4 0 nan\r\nEND\r\n",
        f"{NF_HEAD}\fF s=1\v3 3 0 1\u20283 1 2 2\u2029F s=2\u2029END\n",
        f"{NF_HEAD}\nF\ts=1\n3\t3 0 1\t\nF \t s=2\nEND\n",
        f"{NF_HEAD}\nF s=1\n3 3 0 1\n# a comment\n3 0 3 2 # one more\n"
        "F s=2 # empty\nEND\n# after END\n",
        f"{NF_HEAD}\n\nF s=1\n\n3 3 0 1\n\n  \nF s=2\n\nEND\n\n",
        f"{NF_HEAD}\nF s=1\nF s=2\nEND\n",
        f"{NF_HEAD}\nF s=1\n3 3 0 1\nF s=2\nEND of the ledger\n",
        f"{NF_HEAD}\nF s=1\n3 3 0 1\nEND of the ledger\nF s=2\n",
        f"{NF_HEAD}\nF s=1\n3 3 0 1\ninf 3 0 1\nEND\n",
        f"{NF_HEAD}\nF s=1\nnan 3 0 1\nEND\n",
        f"{NF_HEAD}\nF s=1\n3 99999999999999999999 0 1\nEND\n",
        f"{NF_HEAD}\nF s=1\n99999999999999999999 3 0 1\nEND\n",
    ],
}


@pytest.mark.parametrize("magic", sorted(READERS))
def test_block_reader_matches_line_by_line_oracle(magic):
    texts, package, oracle = READERS[magic]
    seen = set()

    @settings(PROPERTY, max_examples=400)
    @given(texts)
    def same(text):
        got = _outcome(package, text)
        assert got == _outcome(oracle, text), text
        seen.add(got[0])

    for text in EDGE_TEXTS[magic]:
        same = example(text)(same)
    same()
    assert seen >= {"read", "FormatError"}


PROVENANCE = ["# bnfstab bnf (version 0.1.0)", "# config: order=3", ""]
EDITS = ["none", "token", "drop", "repeat", "indent", "sign", "comment",
         "blank", "rename", "move", "crlf", "ff"]


@st.composite
def edited_ledgers(draw):
    """The text of a small ledger after 0-3 provenance lines and one edit:
    a token replaced; a term line dropped, repeated, indented or signed; a
    comment or blank line inserted; a header renamed or moved; one or
    every line break made \\r\\n or \\f; or none."""
    lines = draw(ledgers()).to_text().split("\n")[:-1]
    lines[:0] = PROVENANCE[:draw(st.integers(0, len(PROVENANCE)))]
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("NFSTATE"))
    terms = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    heads = [i for i, line in enumerate(lines)
             if i > start and not line[:1].isdigit()]
    edit = draw(st.sampled_from(EDITS))
    at = draw(st.integers(start, len(lines) - 1))
    if edit in ("drop", "repeat", "indent", "sign") and terms:
        at = draw(st.sampled_from(terms))
    if edit in ("rename", "move"):
        at = draw(st.sampled_from(heads))
    line = lines[at]
    if edit == "token":
        tokens = line.split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(COEFFS + EXPONENTS + TOKENS))
        lines[at] = " ".join(tokens)
    elif edit == "drop":
        del lines[at]
    elif edit == "repeat":
        # next to itself, or anywhere, before the header or after END too
        lines.insert(draw(st.sampled_from([at, len(lines)])
                          | st.integers(0, len(lines))), line)
    elif edit in ("indent", "sign"):
        lines[at] = draw(st.sampled_from(
            [" ", "\t"] if edit == "indent" else ["+", "-"])) + line
    elif edit == "comment":
        # a comment line, or a comment after a line
        if draw(st.booleans()):
            lines.insert(draw(st.integers(start, len(lines))), "# a note")
        else:
            lines[at] = line + " # a note"
    elif edit == "blank":
        lines.insert(draw(st.integers(start, len(lines))),
                     draw(st.sampled_from(["", "  "])))
    elif edit == "rename":
        lines[at] = draw(st.sampled_from(
            ["F s=9", "Z s=0", "CHI s=1", "F  s=1", "F s=1 x", "OMEGA 1",
             "END", "END x", "Z", line.replace("s=", "s=1")]))
    elif edit == "move":
        del lines[at]
        lines.insert(draw(st.integers(start + 1, len(lines))), line)
    if edit not in ("crlf", "ff"):
        return "\n".join(lines) + "\n"
    new = "\r\n" if edit == "crlf" else "\f"
    if draw(st.booleans()):
        return new.join(lines) + new
    # the line break after one term line changed, or the last one
    at = draw(st.sampled_from([i + 1 for i in terms] or [len(lines)]))
    return "\n".join(lines[:at]) + new + "\n".join(lines[at:]) + (
        "\n" if at < len(lines) else "")


def _read_result(read, text):
    """The state read, or the class, line and message of what it raised."""
    try:
        return "read", read(text)
    except (Error, ValueError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


NF_KEYS = {"n": int, "r": int, "rmax": int}
FIXTURE = "sjs-jd2451220.5"
# the first tokens of an NFSTATE ledger's header lines and END
HEAD_TOKENS = ("NFSTATE", "OMEGA", "Z", "CHI", "F", "END")


def _chi_term_line(text, line):
    """Whether line `line` of text is a term line of a CHI section."""
    label = None
    for lineno, content in oracles.content_lines(text):
        token = content.split()[0]
        if lineno == line:
            return label == "CHI" and token not in HEAD_TOKENS
        if token in HEAD_TOKENS:
            label = token
    return False


def _plain(text):
    """Whether RecordReader takes text as plain, its own body; None for a
    text whose header is at fault or that holds no body line, which read
    the same either way."""
    try:
        reader = _records.RecordReader(text, "NFSTATE", NF_KEYS, end=False)
    except FormatError:
        return None
    return reader.text is text if reader.numbers else None


def test_ledger_reader_matches_the_oracle_on_edited_ledgers():
    seen = set()

    @settings(PROPERTY, max_examples=400)
    @given(edited_ledgers())
    def same(text):
        got = _outcome(_package_nfstate, text)
        assert got == _outcome(_oracle_nfstate, text), text
        full = _read_result(NormalFormState.from_text, text)
        bare = _read_result(lambda t: NormalFormState.from_text(
            t, generators=False), text)
        if full[0] == "read":
            a, b = full[1], bare[1]
            assert b.chi is None, text
            assert (a.omega, a.r, a.r_max, a.z, a.f) == (
                b.omega, b.r, b.r_max, b.z, b.f), text
        elif not _chi_term_line(text, full[1]):
            assert bare == full, text
        # a CHI term line is never converted without generators
        assert bare[0] == "read" or not _chi_term_line(text, bare[1]), text
        seen.add((_plain(text), got[0]))

    for text in EDGE_TEXTS["NFSTATE"]:
        same = example(text)(same)
    same()
    # both branches of the body builder read ledgers and refuse faults
    assert seen >= {(True, "read"), (False, "read"), (True, "FormatError"),
                    (False, "FormatError")}


@st.composite
def edited_poincare_texts(draw):
    """The text of a POINCARE state after 0-3 provenance lines and one
    edit: a comment or blank line inserted, a line indented, every line
    break made \\r\\n, or none."""
    lines = draw(poincare_states()).to_text().split("\n")[:-1]
    lines[:0] = PROVENANCE[:draw(st.integers(0, len(PROVENANCE)))]
    edit = draw(st.sampled_from(["none", "comment", "blank", "indent",
                                 "crlf"]))
    at = draw(st.integers(0, len(lines) - 1))
    if edit in ("comment", "blank"):
        lines.insert(at, "# a note" if edit == "comment" else "  ")
    elif edit == "indent":
        lines[at] = "\t" + lines[at]
    new = "\r\n" if edit == "crlf" else "\n"
    return new.join(lines) + new


HAM_KEYS = {"n": int, "dmax": int, "field": str}
# (magic, keys, text) of a record of each format the package reads back
RECORD_TEXTS = (
    st.tuples(st.just("NFSTATE"), st.just(NF_KEYS), edited_ledgers()
              | st.sampled_from(EDGE_TEXTS["NFSTATE"]))
    | st.tuples(st.just("HAM"), st.just(HAM_KEYS),
                ham_texts() | st.sampled_from(EDGE_TEXTS["HAM"]))
    | st.tuples(st.just("POINCARE"), st.just({"n": int}),
                edited_poincare_texts()))


@settings(PROPERTY, max_examples=400)
@given(RECORD_TEXTS)
def test_ledger_body_is_the_content_lines_past_the_header(record):
    magic, keys, text = record

    def package(text):
        reader = _records.RecordReader(text, magic, keys, end=False)
        body, numbers, starts = reader.text, reader.numbers, reader.starts
        assert starts[-1] == len(body)
        assert all(body[b - 1] == "\n" for b in starts[1:].tolist())
        lines = [body[a:b - 1] for a, b
                 in zip(starts.tolist(), starts[1:].tolist())]
        assert reader.lines(0, len(numbers)) == lines
        return list(zip(numbers, lines))

    def oracle(text):
        oracles.LineReader(text, magic, keys, end=False)
        return list(oracles.content_lines(text))[1:]

    assert _read_result(package, text) == _read_result(oracle, text), text


def test_written_ledgers_are_read_as_plain(tmp_path, monkeypatch):
    systems = load_perfbench("systems")
    texts = []
    original = _records.content_lines
    monkeypatch.setattr(_records, "content_lines",
                        lambda text: texts.append(text) or original(text))
    state = tmp_path / "state.txt"
    assert main(["poincare", "--fixture", FIXTURE, "--out", str(state)]) == 0
    for system, order in (("dense2", 14), ("dense3", 7), ("even2", 18)):
        ham, nf = tmp_path / f"{system}.ham", tmp_path / f"{system}.nf"
        ham.write_text(systems.system_text(system, 1))
        assert main(["bnf", "--input", str(ham), "--order", str(order),
                     "--out", str(nf)]) == 0
        radii = [["--radii", ",".join(["1"] * (3 if system == "dense3"
                                               else 2))]]
        if system != "dense3":
            radii.append(["--radii-from", str(state)])
        for argv in (["sweep", "--out", str(tmp_path / "sweep.csv")],
                     ["estimate", "--rho0", "0.3",
                      "--out", str(tmp_path / "estimate.txt")]):
            for given_radii in radii:
                assert main([*argv, "--input", str(nf), *given_radii]) == 0
        text = nf.read_text()
        assert _plain(text) is True
        assert NormalFormState.from_text(text) == NormalFormState.from_text(
            text.replace("\nF s=1\n", "\nF s=1\n# a note\n"))
    # no ledger's body went through content_lines but the commented ones
    bodies = [text for text in texts if "\nOMEGA " in text]
    assert len(bodies) == 3 and all("# a note" in text for text in bodies)
    # nor any HAM or POINCARE text: only the element fixture did
    assert [text for text in texts if text not in bodies] == [
        fixture_path(FIXTURE).read_text()]


def test_block_reader_reports_the_first_fault_of_the_file():
    # every fault comes after the sections the layout puts before it
    head = ("NFSTATE n=1 r=1 rmax=2\nOMEGA 1\nZ s=1\nCHI s=1\nF s=1\n"
            "3 3 0 1\n3 3 0 nan\n")
    for after in ("F s=x\nEND\n", "OMEGA 2\nEND\n", "END\nF s=1\n",
                  "F s=2\n", "CHI s=2\nEND\n"):
        with pytest.raises(FormatError) as info:
            NormalFormState.from_text(head + after)
        assert info.value.line == 7
        assert "non-finite coefficient" in str(info.value)
        assert _outcome(_package_nfstate, head + after) == _outcome(
            _oracle_nfstate, head + after)
    # a section that reads cleanly leaves the fault to the next line
    clean = head.replace("3 3 0 nan\n", "")
    with pytest.raises(FormatError) as info:
        NormalFormState.from_text(clean + "F s=x\nEND\n")
    assert info.value.line == 7
    # the term lines of every section convert at once; the first fault in
    # line order is still the one reported, whatever section holds it
    top = "NFSTATE n=1 r=2 rmax=3\nOMEGA 1\n"
    z, chi = "Z s=1\nZ s=2\n", "CHI s=1\nCHI s=2\n"
    for body, line, message in (
            # faults in two sections, either one first
            (f"{z}CHI s=1\n3 3 0 1\n3 2 1 x\nCHI s=2\nF s=1\nF s=2\n"
             "4 4 0 nan\n", 7, "bad numeric field"),
            (f"{z}{chi}F s=1\nF s=2\n4 4 0 nan\nCHI s=1\n3 2 1 x\n", 9,
             "non-finite coefficient"),
            (f"{z}CHI s=1\n3 3 0 1\nCHI s=2\nF s=1\nF s=2\n4 4 0 1\n"
             "4 4 0 2\nCHI s=2\n5 5 0 1 1\n", 11,
             "duplicate exponent vector"),
            # a bad term line before, and after, a malformed header
            (f"{z}{chi}F s=1\n3 3 0 1\n3 0 3 nan\nF s\nCHI s=1\n3 3 0 1\n",
             9, "non-finite coefficient"),
            (f"{z}{chi}F s=1\n3 3 0 1\nF s\nCHI s=1\n3 3 0 nan\n", 9,
             "expected F s=2, got 'F s'"),
            # a fault in a Z section, read line by line, before and after
            # one in a term line
            (f"Z s=1\nZ s=2\n2 2\n2 3\n{chi}F s=1\n3 3 0 1\nF s=2\n"
             "4 9 0 1\n", 6, "duplicate action exponent"),
            (f"{z}{chi}F s=1\n3 3 0 nan\nZ s=2\n2 2\n2 3\n", 8,
             "non-finite coefficient"),
            # a digit only int() and float() read: the line converts on
            # the fault path, and a fault after it is still found
            (f"{z}CHI s=1\n3 \u0663 0 1\nCHI s=2\nF s=1\nF s=2\n"
             "4 4 0 nan\n", 10, "non-finite coefficient"),
            (f"{z}CHI s=1\n3 3 0 1_0\nCHI s=2\nF s=1\nF s=2\n4 0_4 0 1\n"
             "4 4 0 1\n", 11, "duplicate exponent vector"),
            # a character np.loadtxt reads as a digit where int() refuses it
            (f"{z}{chi}F s=1\n3 \u01fe3 0 1\n", 8, "bad numeric field")):
        text = top + body + "END\n"
        with pytest.raises(FormatError, match=message) as info:
            NormalFormState.from_text(text)
        assert info.value.line == line, text
        assert _outcome(_package_nfstate, text) == _outcome(
            _oracle_nfstate, text)
    # digits only the fault path reads give the values int() and float()
    # give them
    plain = NormalFormState.from_text(
        f"{top}{z}{chi}F s=1\n3 3 0 10\nF s=2\nF s=3\nEND\n")
    for odd in ("3 \u0663 0 1_0", "+3 03 0 1_0", "\u0663 3 0 10.0"):
        assert NormalFormState.from_text(
            f"{top}{z}{chi}F s=1\n{odd}\nF s=2\nF s=3\nEND\n") == plain


# one line after a sound one, and what the package and the oracle make of
# it: the faults of one line come in the order of the checks
HAM_LINES = ["2 2 0 nan", "256 256 0 nan", "2 256 0 1", "3 256 0 1",
             "3 2 0 1", "300 2 0 1", "-1 2 0 1", "9 9 0 1", "2 2 0 x",
             "2 x 0 nan", "2 2 0", "2 2 0 1 1", "2 0 2 1", "2 2 0 1",
             "+2 0_2 00 1_0", "4 4 0 3e-16", "2 0 2 -0.0", "inf 2 0 1",
             "nan 2 0 1", "2 99999999999999999999 0 1",
             "99999999999999999999 2 0 1", "-99999999999999999999 2 0 1",
             "2\t1 1\t1"]


@pytest.mark.parametrize("line", HAM_LINES)
def test_each_fault_of_a_term_line(line):
    # a complex field is refused at the header, before any term line
    for field, tail in (("real", ""), ("complex", " 0")):
        head = f"HAM n=1 dmax=4 field={field}\n2 0 2 1{tail}\n4 4 0 1{tail}\n"
        text = head + line + tail + "\n2 1 1 nan" + tail + "\n"
        got = _outcome(_package_ham, text)
        assert got == _outcome(_oracle_ham, text)
        assert got[0] == "FormatError"
        assert field == "real" or got[1] == 1


def _first_field_twice(text):
    """text with the first field of its header line written twice."""
    head, rest = text.split("\n", 1)
    magic, first, *others = head.split()
    return " ".join([magic, first, first, *others]) + "\n" + rest


# a repeated header field in each format: the last value must not win
REPEATED_FIELDS = {
    "HAM": "HAM n=2 n=1 dmax=2 field=real\n2 2 0 0.5\n2 0 2 0.5\n",
    "NFSTATE": "NFSTATE n=1 r=0 r=1 rmax=2\nOMEGA 1\nEND\n",
    "NONRESONANCE": _first_field_twice(ResonanceCertificate(
        omega=(1.0,), k_max=1, min_divisor=1.0, argmin_k=(1,), gamma=1.0,
        tau_dioph=1.0, tol=1e-9, certified=True).to_text()),
    "POINCARE": _first_field_twice(PoincareState(
        names=("a",), Lambda=(1.0,), lam=(0.0,), xi=(0.0,),
        eta=(0.0,)).to_text()),
}


@pytest.mark.parametrize("magic", sorted(REPEATED_FIELDS))
def test_repeated_header_field_is_refused(magic):
    with pytest.raises(FormatError, match=f"repeated {magic} header field") \
            as info:
        FORMATS[magic][0](REPEATED_FIELDS[magic])
    assert info.value.line == 1


def test_repeated_omega_is_refused():
    text = "NFSTATE n=2 r=0 rmax=1\nOMEGA 1 2\nOMEGA 5 7\nEND\n"
    with pytest.raises(FormatError,
                       match="expected F s=1, got 'OMEGA 5 7'") as info:
        NormalFormState.from_text(text)
    assert info.value.line == 3


# non-finite values and values at or past the edge of a field's range
BUILD_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, -1e-300, 1e300,
               1.5e308]

_BODY = dict(mass=1e-3, semi_major_axis=5.2, eccentricity=0.05,
             inclination=0.02, mean_anomaly=1.0, perihelion_argument=4.0,
             node_longitude=1.7, name="p1")


def _body(**fields):
    return [BodyParameters(**{**_BODY, **fields})], 4.0 * math.pi ** 2


def _ledger(omega=1.0, z=1.0, chi=1.0, f=1.0):
    return NormalFormState(
        (omega,), 2, 3, z={2: ActionPolynomial(1, {(2,): z})},
        chi={1: Polynomial(1, {((2,), (1,)): chi})},
        f={2: Polynomial(1, {((3,), (1,)): f})})


def _poincare(**fields):
    row = {"Lambda": 1.0, "lam": 0.5, "xi": 0.1, "eta": -0.2, **fields}
    return PoincareState(names=("p1",), **{k: (v,) for k, v in row.items()})


# record -> (the record built with one field set to a value, writer, reader)
_HAM_TERM = Polynomial(1, {((2,), (0,)): 0.5, ((0,), (2,)): 0.5})
_ELEMENTS = (lambda x: elements_text(*x), parse_elements)
_SERIES = (GradedSeries.to_text, GradedSeries.from_text)
_STATE = (NormalFormState.to_text, NormalFormState.from_text)
_VARIABLES = (PoincareState.to_text, PoincareState.from_text)
CONSTRUCTED = {
    "HAM d_max": (lambda v: GradedSeries(Polynomial.zero(1), v), *_SERIES),
    "HAM coefficient": (lambda v: GradedSeries.from_polynomial(
        _HAM_TERM + Polynomial(1, {((3,), (0,)): v})), *_SERIES),
    "NFSTATE omega": (lambda v: _ledger(omega=v), *_STATE),
    "NFSTATE Z": (lambda v: _ledger(z=v), *_STATE),
    "NFSTATE CHI": (lambda v: _ledger(chi=v), *_STATE),
    "NFSTATE F": (lambda v: _ledger(f=v), *_STATE),
    **{f"POINCARE {key}": (lambda v, key=key: _poincare(**{key: v}),
                           *_VARIABLES)
       for key in ("Lambda", "lam", "xi", "eta")},
    "POINCARE xi and eta": (lambda v: _poincare(xi=v, eta=v), *_VARIABLES),
    "elements m0": (lambda v: (_body()[0], v), *_ELEMENTS),
    **{f"elements {key}": (lambda v, key=key: _body(**{key: v}), *_ELEMENTS)
       for key in _BODY if key != "name"},
}


@pytest.mark.parametrize("value", BUILD_VALUES)
@pytest.mark.parametrize("record", sorted(CONSTRUCTED))
def test_constructors_refuse_what_their_readers_refuse(record, value):
    # a record either refuses the value, built or written (elements_text
    # takes m0 apart from the bodies), or writes text that its reader reads
    # back equal
    build, write, read = CONSTRUCTED[record]
    build(0.5)  # an ordinary value builds
    try:
        x = build(value)
        text = write(x)
    except (Error, ValueError, ArithmeticError):
        return
    assert read(text) == x
