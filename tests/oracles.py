"""Independent cross-checks backing the test suite.

Everything here recomputes package results through a different route:
double loops over terms instead of the array product and bracket kernel
and the array linear substitution, dicts accumulated one term at a time
instead of the array chart change and the array normalization step,
one-term-at-a-time pruning, term-line reading and term-line writing
instead of the array passes, dense coefficient arrays instead of sparse
exponent matrices, quadrature instead of closed
forms, arbitrary precision instead of doubles, plain lattice
enumeration, one vector at a time, instead of the package's shell
matrices, escape times one grid point at a time instead of the array
pass over the grid, and records read a line at a time instead of in one
pass.  No code is shared with bnfstab beyond reading plain
(j, k, coeff) term lists off its objects, and its error classes.

Some references have no counterpart in the package, because no command
needs one: the scalar polydisc weight Theta (polydisc_norm forms it as
arrays), the reader of NONRESONANCE certificates, which bnf writes but
nothing reads back, and the inverse of the secular map.
"""

import functools
import itertools
import math

import numpy as np

from bnfstab.errors import (
    FormatError,
    SmallDivisorError,
    StabilityDomainError,
)


# -- the Poisson bracket by a double loop over terms --------------------------

def bracket_terms(f, g, n, cap=None):
    """{f, g} of term lists [(j, k, coeff)] in n degrees of freedom, as a
    dict {(j, k): coeff} summed over every pair of terms; a pair whose
    product has degree above cap is skipped."""
    out = {}
    for j1, k1, c1 in f:
        for j2, k2, c2 in g:
            if cap is not None and sum(j1 + k1 + j2 + k2) - 2 > cap:
                continue
            for l in range(n):
                # df/dx_l dg/dy_l and df/dy_l dg/dx_l are both the plain
                # product with x_l and y_l lowered by one
                weight = j1[l] * k2[l] - k1[l] * j2[l]
                if not weight:
                    continue
                j = tuple(p + q - (t == l) for t, (p, q)
                          in enumerate(zip(j1, j2)))
                k = tuple(p + q - (t == l) for t, (p, q)
                          in enumerate(zip(k1, k2)))
                out[(j, k)] = out.get((j, k), 0.0) + weight * c1 * c2
    return out


# -- products and linear substitution on dicts --------------------------------

def raw_mul(a, b):
    """The product of {(j, k): coeff} dicts, summed over every pair of
    terms in turn, unpruned."""
    out = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            key = (tuple(p + q for p, q in zip(j1, j2)),
                   tuple(p + q for p, q in zip(k1, k2)))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def kernel_sums(pairs, degrees):
    """The sums of the product kernel's pairs, bit for bit: for each
    segment, [(exponent row, value)] of its nonzero sums in key order.

    pairs lists (a, b, seg): a and b lists of (exponent row, coeff), seg
    the segment of each row of a, an index into degrees.  Every sum starts
    at 0.0 and adds its products pair after pair, and within a pair a-row
    then b-row, one product at a time.
    """
    out = [{} for _ in degrees]
    for a, b, seg in pairs:
        for (row, c), s in zip(a, seg):
            sums = out[s]
            for other, d in b:
                key = tuple(p + q for p, q in zip(row, other))
                sums[key] = sums.get(key, 0.0) + c * d
    return [sorted((key, v) for key, v in sums.items() if v != 0.0)
            for sums in out]


def linear_substitute(terms, matrix, n):
    """f(M v) of a term list [(j, k, coeff)] in n degrees of freedom, old_i
    = sum_t M[i][t] new_t, as an unpruned {(j, k): coeff}: each term the
    product of the cached powers of its variables' linear forms, the terms
    added in turn."""
    zero = (0,) * n

    def unit(t):
        e = tuple(int(s == t) for s in range(2 * n))
        return e[:n], e[n:]

    linear = [{unit(t): v for t, v in enumerate(row) if v != 0}
              for row in matrix]
    powers = [[{(zero, zero): 1.0}] for _ in range(2 * n)]
    out = {}
    for j, k, c in terms:
        acc = {(zero, zero): c}
        for i, e in enumerate(tuple(j) + tuple(k)):
            while len(powers[i]) <= e:
                powers[i].append(raw_mul(powers[i][-1], linear[i]))
            if e:
                acc = raw_mul(acc, powers[i][e])
        for key, v in acc.items():
            out[key] = out.get(key, 0.0) + v
    return out


def linear_substitute_by_pass(terms, matrix, n):
    """f(M v) of a term list [(j, k, coeff)], old_i = sum_t M[i][t] new_t,
    one old variable at a time with every sum in the order of the
    package's passes, as an unpruned {(j, k): coeff}.

    A row is (old exponents, new exponents); pass i takes the rows in key
    order and, for each, the terms of L_i^e in key order, e its exponent
    of old_i, and adds each product into a dict in turn.  L_i^e is
    raw_mul(L_i^(e-1), L_i), its terms put in key order, L_i's terms in
    the order of the columns of M."""
    width = 2 * n
    rows = {tuple(j) + tuple(k) + (0,) * width: c for j, k, c in terms}
    for i, form in enumerate(matrix):
        linear = {}
        for t, v in enumerate(form):
            if v != 0:
                unit = tuple(int(s == t) for s in range(width))
                linear[(unit[:n], unit[n:])] = v
        powers = [{((0,) * n, (0,) * n): 1.0}]
        out = {}
        for row in sorted(rows):
            while len(powers) <= row[i]:
                powers.append(dict(sorted(raw_mul(powers[-1],
                                                  linear).items())))
            for (j, k), v in powers[row[i]].items():
                new = (row[:i] + (0,) + row[i + 1:width]
                       + tuple(a + b for a, b in zip(row[width:], j + k)))
                out[new] = out.get(new, 0.0) + rows[row] * v
        rows = out
    return {(row[width:width + n], row[width + n:]): c
            for row, c in rows.items()}


# -- the chart change, one term at a time ------------------------------------------

@functools.lru_cache(maxsize=None)
def _mode_expansion(j, k, sign):
    """x^j y^k of one mode in its new pair (u, v), as [(m, coeff)] for
    u^m v^(j+k-m): x = a u + b v and y = b u + a v with a = 1/sqrt2 and
    b = sign i/sqrt2, the coefficient a^(j+k) (sign i)^(j+m) times the
    integer sum_p (-1)^p C(j, p) C(k, m-p)."""
    scale = 2.0 ** (-0.5 * (j + k))
    out = []
    for m in range(j + k + 1):
        K = sum((-1) ** p * math.comb(j, p) * math.comb(k, m - p)
                for p in range(max(0, m - k), min(j, m) + 1))
        if K:
            out.append((m, (1, 1j, -1, -1j)[sign * (j + m) % 4] * K * scale))
    return out


def chart_change(terms, n, sign):
    """The term list [(j, k, coeff)] with each mode changed by the chart
    change of the sign (-1 complexify, +1 realify), one pass a mode, as a
    dict {(j, k): coeff} accumulated term by term, not pruned."""
    current = {(tuple(j), tuple(k)): c for j, k, c in terms}
    for l in range(n):
        out = {}
        for (j, k), c in current.items():
            for m, t in _mode_expansion(j[l], k[l], sign):
                key = (j[:l] + (m,) + j[l + 1:],
                       k[:l] + (j[l] + k[l] - m,) + k[l + 1:])
                out[key] = out.get(key, 0.0) + c * t
        current = out
    return current


# -- one normalization step on term dicts ------------------------------------------
#
# Blocks are {degree: {(j, k): coeff}} in the complex chart, as
# bnfstab.birkhoff keeps them: the generator solves L_H0 chi - Z + Q = 0,
# and every block is carried by the flow of -chi.

def _divisor(omega, j, k):
    acc = 0.0
    for w, jj, kk in zip(omega, j, k):
        acc += w * (kk - jj)
    return acc


def solve_chart(q, omega, tol):
    """(chi, {p: action coefficient}) of a chart block q, or
    SmallDivisorError at the smallest divisor below tol, the first in
    exponent order among equals."""
    small = [(abs(_divisor(omega, j, k)), j + k, j, k) for (j, k) in q
             if j != k and abs(_divisor(omega, j, k)) < tol]
    if small:
        _, _, j, k = min(small)
        vec = tuple(kk - jj for jj, kk in zip(j, k))
        dot = _divisor(omega, j, k)
        if next(e for e in vec if e) < 0:
            vec, dot = tuple(-e for e in vec), -dot
        raise SmallDivisorError(f"divisor {dot} at k = {vec}", k=vec,
                                divisor=dot)
    chi = {(j, k): c / (1j * _divisor(omega, j, k))
           for (j, k), c in q.items() if j != k}
    z = {j: (c * (1j) ** sum(j)).real for (j, k), c in q.items() if j == k}
    return chi, {p: c for p, c in z.items() if c != 0.0}


def _as_list(terms):
    return [(j, k, c) for (j, k), c in terms.items()]


def step_chart(blocks, s, omega, n, tol, d_cap):
    """Normalize order s in place on dict blocks; returns (q, chi, z) with
    q the block of index s as found on entry."""
    m = s + 2
    q = dict(blocks.get(m, {}))
    if not q:
        return q, {}, {}
    chi, z = solve_chart(q, omega, tol)
    chi_list = _as_list(chi)
    degrees = [d for d in sorted(blocks, reverse=True) if d != 2]
    # every chain reads its source as it stood on entry
    chains = [(dict(blocks[d]), d, 1) for d in degrees]
    chains.append(({key: -c for key, c in q.items() if key[0] != key[1]},
                   m, 2))
    for g, degree, p in chains:
        while True:
            degree += m - 2
            if degree > d_cap:
                break
            g = pruned(bracket_terms(_as_list(g), chi_list, n))
            if not g:
                break
            if p > 1:
                g = {key: c / p for key, c in g.items()}
            target = blocks.setdefault(degree, {})
            for key, c in g.items():
                target[key] = target.get(key, 0.0) + c
            p += 1
    blocks[m] = {key: c for key, c in q.items() if key[0] == key[1]}
    for d in list(blocks):
        if d not in (2, m):
            blocks[d] = pruned(blocks[d])
    return q, chi, z


# -- the record grammar, one line at a time ------------------------------------

def content_lines(text):
    """(1-based line number, line) of every line that is not blank once its
    comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def finite_floats(tokens, what, line):
    """The tokens as floats; FormatError unless each is a finite number."""
    try:
        vals = [float(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"bad {what}: {exc}", line=line) from None
    if not all(map(math.isfinite, vals)):
        raise FormatError(f"non-finite value in {what}", line=line)
    return vals


class LineReader:
    """One record read a line at a time: the header line `MAGIC k=v ...`
    on construction, converted by `keys` ({key: converter}), then the
    tokens of each body line, each line's comment stripped and blank lines
    skipped; `line` is the body line read last.  With end=True the body
    stops at END, and a missing END or content after it is a FormatError
    once the lines before it are read.
    """

    def __init__(self, text, magic, keys, end=True):
        self._end = end
        self._lines = content_lines(text)
        self.lineno, line = next(self._lines, (None, None))
        if line is None:
            raise FormatError(f"empty input: no {magic} header")
        tokens = line.split()
        if tokens[0] != magic:
            raise self.error(f"expected {magic} header")
        kv = {}
        try:
            for key, value in (t.split("=", 1) for t in tokens[1:]):
                if key in kv:
                    raise self.error(f"repeated {magic} header field {key!r}")
                kv[key] = value
            self.header = {key: convert(kv.pop(key))
                           for key, convert in keys.items()}
        except (ValueError, KeyError) as exc:
            raise self.error(f"bad {magic} header: {exc}") from None
        if kv:
            raise self.error(f"unknown {magic} header fields {sorted(kv)}")

    def error(self, message):
        return FormatError(message, line=self.lineno)

    def finite(self, tokens, what):
        return finite_floats(tokens, what, self.lineno)

    def __iter__(self):
        for self.lineno, self.line in self._lines:
            tokens = self.line.split()
            if self._end and tokens[0] == "END":
                for self.lineno, _ in self._lines:
                    raise self.error("content after END")
                return
            yield tokens
        if self._end:
            raise FormatError("missing END")


# how each certificate body line parses; `inf` is a valid tau_dioph (an
# exact resonance fits no finite exponent)
CERT_FIELDS = {
    "omega": lambda vals: tuple(float(v) for v in vals),
    "min_divisor": lambda vals: float(vals[0]),
    "argmin_k": lambda vals: tuple(int(v) for v in vals),
    "gamma": lambda vals: float(vals[0]),
    "tau_dioph": lambda vals: float(vals[0]),
    "tol": lambda vals: float(vals[0]),
    "certified": lambda vals: bool(int(vals[0])),
}


def read_certificate(text):
    """The fields of a NONRESONANCE record, as the keyword arguments of
    bnfstab.spectrum.ResonanceCertificate, lines read one at a time."""
    reader = LineReader(text, "NONRESONANCE", {"n": int, "kmax": int})
    n = reader.header["n"]
    fields = {}
    for tokens in reader:
        key, vals = tokens[0], tokens[1:]
        if key not in CERT_FIELDS:
            raise reader.error(f"unknown key {key!r}")
        try:
            fields[key] = CERT_FIELDS[key](vals)
        except (ValueError, IndexError) as exc:
            raise reader.error(f"bad value for {key!r}: {exc}") from None
    missing = set(CERT_FIELDS) - set(fields)
    if missing:
        raise FormatError(f"missing keys {sorted(missing)}")
    if len(fields["omega"]) != n or len(fields["argmin_k"]) != n:
        raise FormatError("vector length disagrees with header n")
    return {"k_max": reader.header["kmax"], **fields}


# -- pruning and term-line reading, one term at a time ---------------------------

PRUNE_REL = 1e-15
MAX_EXP = 255


def pruned(terms):
    """{(j, k): coeff} without zeros and coefficients below PRUNE_REL of the
    largest abs() of their degree, in the input order.  ValueError when an
    abs() overflows or a coefficient is not finite."""
    def size(c):
        try:
            a = abs(c)
        except OverflowError:
            a = math.inf
        if not math.isfinite(a):
            raise ValueError(f"coefficient overflow: {c}")
        return a

    top = {}
    for (j, k), c in terms.items():
        top[sum(j + k)] = max(top.get(sum(j + k), 0.0), size(c))
    return {(j, k): c for (j, k), c in terms.items()
            if 0.0 < abs(c) >= PRUNE_REL * top[sum(j + k)]}


def term_line(tokens, n):
    """(degree, j, k, coeff) of a term line `degree j k coeff`; a
    ValueError naming the first fault of the line."""
    want = 2 + 2 * n
    if len(tokens) != want:
        raise ValueError(
            f"expected {want} fields on a term line, got {len(tokens)}")
    try:
        degree = int(tokens[0])
        exps = [int(t) for t in tokens[1:1 + 2 * n]]
        vals = [float(t) for t in tokens[1 + 2 * n:]]
    except ValueError as exc:
        raise ValueError(f"bad numeric field: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite coefficient")
    if not 0 <= min(exps) <= max(exps) <= MAX_EXP:
        raise ValueError(f"exponent outside [0, {MAX_EXP}]")
    if sum(exps) != degree:
        raise ValueError(
            f"degree column {degree} disagrees with exponent sum {sum(exps)}")
    # a -0.0 reads as 0.0: the package sums each term onto 0.0
    coeff = 0.0 + vals[0]
    return degree, tuple(exps[:n]), tuple(exps[n:]), coeff


def _add_term(reader, terms, tokens, n, degree_fault):
    """Read one term line into terms; a FormatError at the line read last
    when it is refused.  degree_fault(d) is the message for a degree the
    block does not take, or None."""
    try:
        degree, j, k, c = term_line(tokens, n)
    except ValueError as exc:
        raise reader.error(str(exc)) from None
    if degree_fault(degree):
        raise reader.error(degree_fault(degree))
    if (j, k) in terms:
        raise reader.error("duplicate exponent vector")
    terms[(j, k)] = c


def read_ham(text):
    """The parts {degree: {(j, k): coeff}} of a HAM record, term lines read
    one at a time, each degree pruned, in line order."""
    reader = LineReader(
        text, "HAM", {"n": int, "dmax": int, "field": str}, end=False)
    n, d_max, field = (reader.header[key] for key in ("n", "dmax", "field"))
    if field != "real":
        raise reader.error(f"field must be real, got {field!r}")
    if n < 1 or d_max < 0:
        raise reader.error("n must be >= 1 and dmax >= 0")
    terms = {}
    for tokens in reader:
        _add_term(reader, terms, tokens, n,
                  lambda d: d > d_max and f"term degree {d} exceeds dmax={d_max}")
    parts = {}
    for (j, k), c in pruned(terms).items():
        parts.setdefault(sum(j + k), {})[(j, k)] = c
    return dict(sorted(parts.items()))


def read_nfstate(text):
    """(omega, {(label, s): terms}) of an NFSTATE ledger, term lines read one
    at a time: CHI and F terms {(j, k): coeff}, pruned, and Z terms
    {p: coeff} without zeros; empty sections left out.  The body is the
    OMEGA line, then the sections Z s=1..r, CHI s=1..r and F s=1..rmax in
    that order, each header followed by its term lines."""
    reader = LineReader(
        text, "NFSTATE", {"n": int, "r": int, "rmax": int})
    n, r, r_max = (reader.header[key] for key in ("n", "r", "rmax"))
    if n < 1:
        raise reader.error("n must be >= 1")
    if not 0 <= r <= r_max <= MAX_EXP - 2:
        raise reader.error(f"need 0 <= r <= rmax <= {MAX_EXP - 2}")
    # the header lines still to come, in order
    ahead = ["OMEGA"] + [f"{label} s={s}" for label, top
                         in (("Z", r), ("CHI", r), ("F", r_max))
                         for s in range(1, top + 1)]
    omega = None
    sections = {}
    label = None
    for tokens in reader:
        if omega is None or tokens[0] in ("OMEGA", "Z", "CHI", "F"):
            want = ahead.pop(0) if ahead else "END"
            if (tokens[0] if omega is None else " ".join(tokens)) != want:
                raise reader.error(f"expected {want}, got {reader.line!r}")
            if omega is None:
                omega = tuple(reader.finite(tokens[1:], "OMEGA line"))
                if len(omega) != n:
                    raise reader.error("OMEGA length disagrees with n")
                continue
            label, s = tokens[0], int(tokens[1][2:])
            terms = sections[(label, s)] = {}
            continue
        if label is None:
            raise reader.error("term line outside any section")
        if label != "Z":
            _add_term(reader, terms, tokens, n,
                      lambda d: d != s + 2 and (
                          f"term degree {d} in section of order {s} "
                          f"(expected {s + 2})"))
            continue
        if len(tokens) != n + 1:
            raise reader.error(f"expected {n + 1} fields on an action line")
        try:
            p = tuple(int(t) for t in tokens[:n])
        except ValueError as exc:
            raise reader.error(f"bad action term: {exc}") from None
        if min(p) < 0:
            raise reader.error("negative action exponent")
        if 2 * sum(p) != s + 2:
            raise reader.error(f"action degree {sum(p)} in Z s={s}")
        c = reader.finite(tokens[n:], "action term")[0]
        if p in terms:
            raise reader.error("duplicate action exponent")
        terms[p] = c
    if ahead:
        raise FormatError(f"missing {ahead[0]}")
    out = {}
    for (label, s), terms in sections.items():
        if label == "Z":
            terms = {p: c for p, c in terms.items() if c != 0.0}
        else:
            terms = pruned(terms)
        if terms:
            out[(label, s)] = terms
    return omega, out


def term_lines(poly):
    """The term lines `degree j k coeff` of a polynomial, one term at a
    time in the order of terms(), each number by format(v, ".17g")."""
    lines = []
    for j, k, c in poly.terms():
        lines.append(" ".join([str(sum(j) + sum(k))] + [str(e) for e in j]
                              + [str(e) for e in k] + [format(c, ".17g")]))
    return lines


# -- dense one-DOF normal form -------------------------------------------------
#
# Complex variables u = x + i y, ubar = x - i y (non-canonical scaling on
# purpose, to stay off the package's chart).  Then
#   {f, g}_{x,y} = -2i (f_u g_ubar - f_ubar g_u),
#   H0 = w (x^2 + y^2)/2 = w u ubar / 2,   {H0, u^a ubar^b} = -i w (b - a) u^a ubar^b,
# and u^a ubar^a = (2 I)^a, so kernel coefficients map to actions by 2^a.

def _u_bracket(f, g, cap):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            deg = a1 + b1 + a2 + b2 - 2
            if deg > cap:
                continue
            # -2i (f_u g_ubar - f_ubar g_u)
            if a1 and b2:
                key = (a1 + a2 - 1, b1 + b2 - 1)
                out[key] = out.get(key, 0.0) + (-2j) * (a1 * c1) * (b2 * c2)
            if b1 and a2:
                key = (a1 + a2 - 1, b1 + b2 - 1)
                out[key] = out.get(key, 0.0) - (-2j) * (b1 * c1) * (a2 * c2)
    return {k: c for k, c in out.items() if abs(c) > 1e-14}


def _xy_to_u(terms):
    """{(jx, ky): coeff} in x, y -> dict in u, ubar via x=(u+ubar)/2,
    y=(u-ubar)/(2i)."""
    out = {}
    for (jx, ky), coeff in terms.items():
        base = {(0, 0): complex(coeff)}
        for _ in range(jx):
            nxt = {}
            for (a, b), c in base.items():
                nxt[(a + 1, b)] = nxt.get((a + 1, b), 0.0) + 0.5 * c
                nxt[(a, b + 1)] = nxt.get((a, b + 1), 0.0) + 0.5 * c
            base = nxt
        for _ in range(ky):
            nxt = {}
            for (a, b), c in base.items():
                nxt[(a + 1, b)] = nxt.get((a + 1, b), 0.0) + c / 2j
                nxt[(a, b + 1)] = nxt.get((a, b + 1), 0.0) - c / 2j
            base = nxt
        for key, c in base.items():
            out[key] = out.get(key, 0.0) + c
    return out


def one_dof_normal_form_dense(terms_xy, omega, r_max, d_max=8):
    """Brute-force normal form of a one-DOF Hamiltonian.

    terms_xy: {(jx, ky): real coeff} including the quadratic part, which
    must equal omega (x^2+y^2)/2.  Returns {order s: {power p: coeff}}
    with the degree-(s+2) kernel written as a polynomial in the action I.
    """
    h = _xy_to_u(terms_xy)
    z_out = {}
    for s in range(1, r_max + 1):
        deg = s + 2
        block = {k: c for k, c in h.items() if sum(k) == deg}
        chi = {}
        kernel = {}
        for (a, b), c in block.items():
            if a == b:
                kernel[(a, b)] = c
            else:
                chi[(a, b)] = c / (1j * omega * (b - a))
        # H <- sum_m (1/m!) D^m H with D f = {f, chi}
        new_h = dict(h)
        term = dict(h)
        fact = 1.0
        for m in itertools.count(1):
            term = _u_bracket(term, chi, d_max)
            if not term:
                break
            fact *= m
            for key, c in term.items():
                new_h[key] = new_h.get(key, 0.0) + c / fact
        h = {k: c for k, c in new_h.items() if abs(c) > 1e-13}
        z_out[s] = {}
        for (a, b), c in kernel.items():
            if abs(c.imag) > 1e-10 * max(1.0, abs(c)):
                raise AssertionError(f"kernel coefficient not real: {c}")
            z_out[s][a] = z_out[s].get(a, 0.0) + c.real * 2.0 ** a
    return z_out


def circle_average(jx, ky, num=8192):
    """Numerical average of cos^jx(t) sin^ky(t) over one period."""
    t = (np.arange(num) + 0.5) * (2.0 * math.pi / num)
    return float(np.mean(np.cos(t) ** jx * np.sin(t) ** ky))


# -- chart change as a general linear substitution ------------------------------

def chart_matrix(n, sign):
    """The 2n x 2n matrix M of the complex chart change, old = M new:
    x_l = (u_l + sign i v_l)/sqrt2 and y_l = (sign i u_l + v_l)/sqrt2.
    sign -1 is complexify (new (Z, W)), sign +1 is realify (new (x, y))."""
    a, b = 1 / math.sqrt(2.0), sign * 1j / math.sqrt(2.0)
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    for l in range(n):
        M[l, l] = M[n + l, n + l] = a
        M[l, n + l] = M[n + l, l] = b
    return M.tolist()


# -- uniform samples of a polydisc -----------------------------------------------

def sample_polydisc(radii, rho, size, rng):
    """`size` points drawn uniformly (area measure per conjugate plane) from
    the polydisc x_l^2 + y_l^2 <= (rho R_l)^2, as a (size, 2n) array."""
    n = len(radii)
    out = np.empty((size, 2 * n))
    for l, R in enumerate(radii):
        r = rho * R * np.sqrt(rng.uniform(size=size))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
        out[:, l] = r * np.cos(phi)
        out[:, n + l] = r * np.sin(phi)
    return out


# -- the polydisc weight, one exponent pair at a time -------------------------

def theta_weight(j, k):
    """Componentwise weight sqrt(j^j k^k / (j+k)^(j+k)) with 0^0 = 1.

    Equals max over angles of |cos^j sin^k| per pair, so the weighted
    coefficient sum majorizes the sup of the monomial on a polydisc.
    """
    w = 1.0
    for a, b in zip(j, k):
        if a and b:
            w *= math.exp(0.5 * (a * math.log(a) + b * math.log(b)
                                 - (a + b) * math.log(a + b)))
    return w


# -- escape time by quadrature ---------------------------------------------------

def escape_time_quadrature(rho0, rho, r, b_values, radii):
    """Traversal time of [rho0, rho] under drho/dt = B rho^(r+2) / R^2,
    integrated numerically, minimized over the modes with B > 0."""
    from scipy.integrate import quad

    best = math.inf
    for b, radius in zip(b_values, radii):
        if b == 0.0:
            continue
        val, err = quad(lambda s: radius ** 2 / (b * s ** (r + 2)),
                        rho0, rho, epsabs=0.0, epsrel=1e-12)
        if val < best:
            best = val
    return best


# -- escape times and order optimization, one grid point at a time ---------------

def escape_time_point(rho0, rho, r, B, radii):
    """The escape time at one point, a loop over the drift coefficients B[j]
    of order r on Python floats: min_j R_j^2 (rho0^-(r+1) - rho^-(r+1)) /
    ((r+1) B_j), +inf without a nonzero B_j; a StabilityDomainError when
    rho0 is not in (0, rho) or a time leaves (0, inf)."""
    if not 0.0 < rho0 < rho:
        raise StabilityDomainError(
            f"need 0 < rho0 < rho, got rho0={rho0}, rho={rho}")
    try:
        spread = rho0 ** (-(r + 1)) - rho ** (-(r + 1))
    except OverflowError:
        spread = math.inf
    best = math.inf
    for radius, b in zip(radii, map(float, B)):
        if b == 0.0:
            continue
        tau = radius ** 2 * spread / ((r + 1) * b)
        if not 0.0 < tau < math.inf:
            raise StabilityDomainError(
                f"rho0={rho0} puts the order-{r} escape time outside the "
                "float range")
        if tau < best:
            best = tau
    return best


def sweep_points(grid, orders, B, radii):
    """[(T, r_opt, ((r, tau), ...))] of each point rho0 of the grid, at
    rho = 2 rho0, over the orders and the rows of drift coefficients B[k]
    of each: one point at a time, and the orders of each in turn.  Only
    finite times compete for T, the first order winning a tie; T is inf,
    at the first order, when no order sees drift."""
    out = []
    for rho0 in grid:
        per_order = []
        best_T, r_opt = -math.inf, None
        for r, row in zip(orders, B):
            tau = escape_time_point(rho0, 2.0 * rho0, r, row, radii)
            per_order.append((r, tau))
            if not math.isinf(tau) and tau > best_T:
                best_T, r_opt = tau, r
        if r_opt is None:
            best_T, r_opt = math.inf, per_order[0][0]
        out.append((best_T, r_opt, tuple(per_order)))
    return out


def sweep_csv(grid, points, wide=False):
    """The sweep CSV of sweep_points, one row at a time, each number by
    format(v, ".17g")."""
    orders = [r for r, _ in points[0][2]]
    header = ["rho0", "T", "log10_T", "r_opt"]
    if wide:
        header += [f"tau_r{r}" for r in orders]
    lines = [",".join(header)]
    for rho0, (T, r_opt, per_order) in zip(grid, points):
        row = [format(v, ".17g") for v in (rho0, T, math.log10(T))]
        row.append(str(r_opt))
        if wide:
            row += [format(tau, ".17g") for _, tau in per_order]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# -- arbitrary-precision Poincare variables ------------------------------------

def poincare_mp(mass, m0, a, e, mean_anomaly, perihelion_arg, dps=50):
    """(Lambda, lambda, xi, eta) from orbital elements at `dps` digits,
    rounded to float at the end.  Gravitational constant 1."""
    import mpmath as mp

    with mp.workdps(dps):
        mass, m0 = mp.mpf(mass), mp.mpf(m0)
        a, e = mp.mpf(a), mp.mpf(e)
        ell, omega = mp.mpf(mean_anomaly), mp.mpf(perihelion_arg)
        mu = m0 * mass / (m0 + mass)
        lam_action = mu * mp.sqrt((m0 + mass) * a)
        lam_angle = mp.fmod(ell + omega, 2 * mp.pi)
        amp = mp.sqrt(2 * lam_action) * mp.sqrt(1 - mp.sqrt(1 - e ** 2))
        xi = amp * mp.cos(omega)
        eta = -amp * mp.sin(omega)
        return (float(lam_action), float(lam_angle), float(xi), float(eta))


def eccentricities(state):
    """Invert the secular map: e from (Lambda, xi, eta) per body.

    xi^2 + eta^2 = 2 Lambda (1 - sqrt(1 - e^2)), so u = sqrt(1 - e^2) must
    lie in (0, 1]: an amplitude with xi^2 + eta^2 >= 2 Lambda has no
    elliptic orbit and is a ValueError.
    """
    out = []
    for L, x, e in zip(state.Lambda, state.xi, state.eta):
        u = 1.0 - (x * x + e * e) / (2.0 * L)
        if not 0.0 < u <= 1.0:
            raise ValueError(
                "secular amplitude exceeds the physical range of its action: "
                "xi^2 + eta^2 must stay below 2 Lambda")
        out.append(math.sqrt(max(0.0, 1.0 - u * u)))
    return tuple(out)


# -- exhaustive resonance scan ---------------------------------------------------

def exhaustive_divisor_scan(omega, k_max):
    """Minimum |<k, omega>| over 0 < |k|_1 <= k_max by full enumeration.

    Returns (min_divisor, argmins, shell_min) where argmins collects every
    canonical (first nonzero positive) vector attaining the minimum and
    shell_min maps each 1-norm K to its minimum.
    """
    n = len(omega)
    shell_min = {}
    min_div = math.inf
    argmins = []
    for k in itertools.product(range(-k_max, k_max + 1), repeat=n):
        norm = sum(abs(e) for e in k)
        if norm == 0 or norm > k_max:
            continue
        lead = next(e for e in k if e)
        if lead < 0:
            continue
        acc = 0.0
        for e, w in zip(k, omega):
            acc += e * w
        d = abs(acc)
        if d < shell_min.get(norm, math.inf):
            shell_min[norm] = d
        if d < min_div:
            min_div = d
            argmins = [k]
        elif d == min_div:
            argmins.append(k)
    return min_div, argmins, shell_min


def half_lattice(n, norm):
    """Integer vectors with |k|_1 == norm whose first nonzero entry is
    positive, in lexicographic order."""
    for k in itertools.product(range(-norm, norm + 1), repeat=n):
        if sum(abs(e) for e in k) != norm:
            continue
        if next((e for e in k if e), 0) > 0:
            yield k


def shell_minima(omega, k_max):
    """(min_divisor, argmin_k, {K: shell minimum}) of |<k, omega>| over the
    half lattice, one vector at a time, the first minimum kept."""
    min_div = math.inf
    argmin = None
    shell_min = {}
    for K in range(1, k_max + 1):
        best = math.inf
        for k in half_lattice(len(omega), K):
            d = abs(sum(e * w for e, w in zip(k, omega)))
            if d < best:
                best = d
            if d < min_div:
                min_div = d
                argmin = k
        shell_min[K] = best
    return min_div, argmin, shell_min


def diophantine_fit(shell_min, k_max):
    """Same (gamma, tau) anchoring convention the certificate documents:
    gamma just under the K=1 minimum, tau the smallest exponent clearing
    every deeper shell."""
    gamma = shell_min[1] * (1.0 - 1e-13)
    tau = 0.0
    for K in range(2, k_max + 1):
        if shell_min[K] < gamma:
            tau = max(tau, math.log(gamma / shell_min[K]) / math.log(K))
    return gamma, tau


# -- dense evaluation helpers -----------------------------------------------------

def eval_terms(terms, points):
    """Evaluate [(j, k, coeff), ...] at real or complex points of shape
    (m, 2n), or at one point of length 2n, as a complex array of m
    values."""
    points = np.atleast_2d(np.asarray(points))
    if not np.iscomplexobj(points):
        points = points.astype(float)
    n = points.shape[1] // 2
    out = np.zeros(points.shape[0], dtype=complex)
    for j, k, c in terms:
        mono = np.ones(points.shape[0], dtype=points.dtype)
        for l in range(n):
            if j[l]:
                mono = mono * points[:, l] ** j[l]
            if k[l]:
                mono = mono * points[:, n + l] ** k[l]
        out += c * mono
    return out


def action_rate_terms(terms, mode, n):
    """Terms of dI_mode/dt = x_m dH/dy_m - y_m dH/dx_m for H given as
    [(j, k, coeff), ...]; derivatives taken directly on exponents."""
    out = {}
    for j, k, c in terms:
        if k[mode]:
            key = (tuple(je + (1 if l == mode else 0) for l, je in enumerate(j)),
                   tuple(ke - (1 if l == mode else 0) for l, ke in enumerate(k)))
            out[key] = out.get(key, 0.0) + c * k[mode]
        if j[mode]:
            key = (tuple(je - (1 if l == mode else 0) for l, je in enumerate(j)),
                   tuple(ke + (1 if l == mode else 0) for l, ke in enumerate(k)))
            out[key] = out.get(key, 0.0) - c * j[mode]
    return [(j, k, c) for (j, k), c in out.items() if c != 0.0]


def hamiltonian_flow(terms, point, t_span, n, max_step=0.01):
    """Integrate Hamilton's equations for dense term lists with solve_ivp."""
    from scipy.integrate import solve_ivp

    grads = []
    for l in range(2 * n):
        g = {}
        for j, k, c in terms:
            e = j[l] if l < n else k[l - n]
            if not e:
                continue
            jj = tuple(v - (1 if i == l else 0) for i, v in enumerate(j))
            kk = tuple(v - (1 if i + n == l else 0) for i, v in enumerate(k))
            g[(jj, kk)] = g.get((jj, kk), 0.0) + c * e
        grads.append([(j, k, c) for (j, k), c in g.items()])

    def rhs(_, state):
        pt = state.reshape(1, -1)
        dx = [float(eval_terms(grads[n + l], pt).real[0]) for l in range(n)]
        dy = [-float(eval_terms(grads[l], pt).real[0]) for l in range(n)]
        return np.array(dx + dy)

    sol = solve_ivp(rhs, t_span, np.asarray(point, dtype=float),
                    max_step=max_step, rtol=1e-10, atol=1e-12,
                    dense_output=True)
    return sol
