"""Normal form of a polynomial Hamiltonian near an elliptic equilibrium.

Starting from H = H0 + (higher order) with H0 = sum omega_l (x_l^2+y_l^2)/2,
a sequence of generating functions chi_1, chi_2, ... is determined so that
after each time-one Lie flow the Hamiltonian depends, through one more
order, on the actions I_l = (x_l^2 + y_l^2)/2 alone.  Order s bookkeeping:
objects indexed s are homogeneous of polynomial degree s + 2.

Conventions fixed here and relied on by the whole package:
  - the generator solves L_{H0} chi_s - Z_s + Q_s = 0, where Q_s is the
    not-yet-normalized block of index s and L_f = {f, .};
  - the step transforms the Hamiltonian with the time-one flow of -chi_s,
    which replaces Q_s by its action part Z_s;
  - everything is computed in the canonical complex chart
    Z_l = (x_l + i y_l)/sqrt2, W_l = (y_l + i x_l)/sqrt2 ({Z_l, W_l} = 1),
    where L_{H0} is diagonal with eigenvalue i<omega, j-k> on Z^j W^k,
    and mapped back to real coefficients only at the boundaries.

The construction keeps the first unnormalized block of every order: after
a full run, remainder_block(s) is the block of index s exactly as it stood
when order s was about to be normalized.  Stability estimation at order r
consumes remainder_block(r+1).
"""

from __future__ import annotations

import math

from . import _records
from . import polyalg as poly
from . import spectrum
from .errors import (
    DimensionMismatchError,
    FormatError,
    GradingError,
    OrderRangeError,
    RealityViolationError,
    SmallDivisorError,
)
from .polyalg import GradedSeries, Polynomial

__all__ = [
    "ActionPolynomial",
    "NormalFormState",
    "solve_homological",
    "normalize_step",
    "birkhoff_normal_form",
    "frequencies_of_actions",
    "compose_transform",
]


class ActionPolynomial:
    """Polynomial in the actions I_1..I_n, kept separate from the (x, y)
    representation so that action-only structure is explicit."""

    __slots__ = ("num_dof", "_terms")

    def __init__(self, num_dof, terms=None):
        if num_dof < 1:
            raise ValueError("num_dof must be >= 1")
        clean = {}
        if terms:
            for p, c in terms.items():
                p = tuple(int(e) for e in p)
                if len(p) != num_dof:
                    raise DimensionMismatchError(
                        f"exponent tuple must have length {num_dof}")
                if any(e < 0 for e in p):
                    raise ValueError("action exponents must be nonnegative")
                c = float(c)
                if c != 0.0:
                    clean[p] = clean.get(p, 0.0) + c
        clean = {p: c for p, c in clean.items() if c != 0.0}
        object.__setattr__(self, "num_dof", num_dof)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ActionPolynomial is immutable")

    @classmethod
    def zero(cls, num_dof):
        return cls(num_dof)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        return [(p, self._terms[p])
                for p in sorted(self._terms, key=lambda p: (sum(p), p))]

    def coefficient(self, p):
        return self._terms.get(tuple(p), 0.0)

    @property
    def degree(self):
        """Largest total degree in the actions (None when zero)."""
        if not self._terms:
            return None
        return max(sum(p) for p in self._terms)

    def __add__(self, other):
        if self.num_dof != other.num_dof:
            raise DimensionMismatchError("operands differ in num_dof")
        terms = dict(self._terms)
        for p, c in other._terms.items():
            terms[p] = terms.get(p, 0.0) + c
        return ActionPolynomial(self.num_dof, terms)

    def scale(self, factor):
        return ActionPolynomial(
            self.num_dof, {p: c * factor for p, c in self._terms.items()})

    def partial(self, index):
        """Derivative with respect to I_{index+1}."""
        if not 0 <= index < self.num_dof:
            raise DimensionMismatchError(
                f"action index {index} outside [0, {self.num_dof})")
        out = {}
        for p, c in self._terms.items():
            e = p[index]
            if e:
                q = p[:index] + (e - 1,) + p[index + 1:]
                out[q] = out.get(q, 0.0) + e * c
        return ActionPolynomial(self.num_dof, out)

    def evaluate(self, actions):
        actions = tuple(actions)
        if len(actions) != self.num_dof:
            raise DimensionMismatchError(
                f"expected {self.num_dof} action values")
        total = 0.0
        for p, c in self._terms.items():
            v = c
            for e, a in zip(p, actions):
                if e:
                    v *= a ** e
            total += v
        return total

    def to_polynomial(self):
        """Expand back to (x, y) variables via I_l = (x_l^2 + y_l^2)/2."""
        n = self.num_dof
        out = {}
        for p, c in self._terms.items():
            acc = {0: c}
            for l, e in enumerate(p):
                if not e:
                    continue
                # (x^2 + y^2)^e / 2^e expanded by the binomial theorem
                expo = {}
                for t in range(e + 1):
                    j = tuple(2 * t if i == l else 0 for i in range(n))
                    k = tuple(2 * (e - t) if i == l else 0 for i in range(n))
                    expo[poly._pack(n, j, k)] = math.comb(e, t) / 2.0 ** e
                acc = poly._raw_mul(acc, expo)
            for key, v in acc.items():
                out[key] = out.get(key, 0.0) + v
        return Polynomial._raw(n, poly._pruned(out, n), "real")

    def __eq__(self, other):
        return (isinstance(other, ActionPolynomial)
                and self.num_dof == other.num_dof
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.num_dof, frozenset(self._terms.items())))

    def __repr__(self):
        return (f"ActionPolynomial(num_dof={self.num_dof}, "
                f"terms={len(self._terms)})")


# -- chart-level solver and step ---------------------------------------------

def _solve_chart(q_terms, omega, n, tol):
    """Split a chart block into generator and action coefficients.

    Returns (chi_terms, z_action_terms).  chi carries c/(i<omega, k-j>) on
    every monomial Z^j W^k with j != k; the j == k part maps to actions via
    Z^p W^p = i^|p| I^p.  Divisors below tol raise SmallDivisorError.
    """
    chi = {}
    z_complex = {}
    for key, c in q_terms.items():
        j, k = poly._unpack(n, key)
        if j == k:
            z_complex[j] = z_complex.get(j, 0.0) + c * (1j) ** sum(j)
        else:
            dot = sum(w * (kk - jj) for w, jj, kk in zip(omega, j, k))
            if abs(dot) < tol:
                vec = tuple(kk - jj for jj, kk in zip(j, k))
                lead = next((e for e in vec if e), 0)
                if lead < 0:
                    vec = tuple(-e for e in vec)
                    dot = -dot
                raise SmallDivisorError(
                    f"divisor <k, omega> = {dot:.6e} below tolerance "
                    f"{tol:.6e} at k = {vec}",
                    k=vec, divisor=dot)
            chi[key] = c / (1j * dot)

    z_real = {}
    if z_complex:
        top = max(abs(v) for v in z_complex.values())
        worst = max(abs(v.imag) for v in z_complex.values())
        if worst > 1e-9 * top:
            raise RealityViolationError(
                f"action coefficients have imaginary residual "
                f"{worst / top:.3e}; input block was not real")
        z_real = {p: v.real for p, v in z_complex.items() if v.real != 0.0}
    return chi, z_real


def _step_chart(blocks, s, omega, n, tol, d_cap):
    """Normalize order s in place on the chart block dict.

    blocks maps polynomial degree -> raw complex term dict; degree 2 holds
    the oscillator.  Returns (q_snapshot, chi_terms, z_action_terms), where
    q_snapshot is the block of index s exactly as found on entry.
    """
    m = s + 2
    q = dict(blocks.get(m, {}))
    if not q:
        return q, {}, {}
    chi, z_act = _solve_chart(q, omega, n, tol)

    z_chart = {key: c for key, c in q.items() if poly._is_action_key(n, key)}
    chi_derivs = poly._derivs(chi, n)

    # the flow of -chi applied to every block: exp of -{chi, .} expands as
    # g_p = {g_{p-1}, chi}/p; process sources top-down so each chain reads
    # its block before lower chains write into it.  The oscillator chain
    # goes last: {H0, chi} equals Z - Q exactly by construction, which is
    # absorbed by replacing the block below, so it starts at g_2
    degrees = [d for d in sorted(blocks, reverse=True) if d != 2]
    chains = [(q if d == m else blocks[d], d, 1) for d in degrees]
    chains.append(({key: -c for key, c in q.items()
                    if not poly._is_action_key(n, key)}, m, 2))
    for src, start, p in chains:
        for d, g in poly._lie_series(src, chi_derivs, n, start, m - 2,
                                     d_cap, p):
            target = blocks.setdefault(d, {})
            for key, c in g.items():
                target[key] = target.get(key, 0.0) + c

    blocks[m] = z_chart
    for d in degrees:
        if d != m:
            blocks[d] = poly._pruned(blocks[d], n)
    return q, chi, z_act


# -- public solves ------------------------------------------------------------

def solve_homological(q, omega, tol=None):
    """Split one homogeneous block into a generator and an action part.

    Returns (chi, z) with chi a real polynomial of the same degree as q and
    z an ActionPolynomial, satisfying {H0, chi} - z + q = 0 where
    H0 = sum omega_l (x_l^2 + y_l^2)/2.

    Raises SmallDivisorError when a divisor |<omega, k-j>| falls below tol
    (default: the spectrum module's tolerance for this omega).
    """
    omega = tuple(float(w) for w in omega)
    if q.num_dof != len(omega):
        raise DimensionMismatchError(
            f"polynomial has {q.num_dof} degrees of freedom, "
            f"omega has {len(omega)}")
    if q.field != "real":
        raise ValueError("solve_homological expects a real polynomial")
    if not q.is_homogeneous():
        raise GradingError("solve_homological expects a homogeneous block")
    tol = spectrum._tolerance(omega, tol)
    n = q.num_dof
    if q.is_zero:
        return Polynomial.zero(n), ActionPolynomial.zero(n)
    qc = poly.complexify(q)
    chi_terms, z_terms = _solve_chart(qc._terms, omega, n, tol)
    chi_c = Polynomial._raw(n, poly._pruned(chi_terms, n), "complex")
    chi = poly.realify(chi_c)
    return chi, ActionPolynomial(n, z_terms)


# -- the state ledger ---------------------------------------------------------

def _check_block(p, s, num_dof, label):
    if p.num_dof != num_dof:
        raise DimensionMismatchError(f"{label} s={s} has wrong num_dof")
    if p.field != "real":
        raise ValueError(f"{label} s={s} must be real")
    if not p.is_zero and p.degrees() != (s + 2,):
        raise GradingError(
            f"{label} s={s} must be homogeneous of degree {s + 2}")


class NormalFormState:
    """Ledger of a normal-form construction.

    Holds the frequencies, the normalized action parts Z_s and generators
    chi_s for s = 1..r, and remainder blocks: for s <= r the block of index
    s as it stood just before order s was normalized, for s > r the current
    not-yet-normalized blocks of the order-r Hamiltonian.  All polynomial
    data is real; index-s entries are homogeneous of degree s + 2.
    """

    __slots__ = ("omega", "r", "r_max", "z", "chi", "f", "_flow_cache")

    def __init__(self, omega, r, r_max, z=None, chi=None, f=None):
        omega = tuple(float(w) for w in omega)
        if not omega:
            raise DimensionMismatchError("empty frequency vector")
        if not 0 <= r <= r_max:
            raise OrderRangeError(f"need 0 <= r <= r_max, got r={r}, "
                                  f"r_max={r_max}")
        n = len(omega)
        z = {int(s): v for s, v in (z or {}).items() if not v.is_zero}
        chi = {int(s): v for s, v in (chi or {}).items() if not v.is_zero}
        f = {int(s): v for s, v in (f or {}).items() if not v.is_zero}
        for s, v in z.items():
            if not 1 <= s <= r:
                raise OrderRangeError(f"Z index {s} outside 1..{r}")
            if not isinstance(v, ActionPolynomial) or v.num_dof != n:
                raise ValueError(f"Z s={s} must be an ActionPolynomial "
                                 f"in {n} actions")
            if 2 * v.degree != s + 2:
                raise GradingError(
                    f"Z s={s} must have action degree {(s + 2) // 2}")
        for s, v in chi.items():
            if not 1 <= s <= r:
                raise OrderRangeError(f"chi index {s} outside 1..{r}")
            _check_block(v, s, n, "chi")
        for s, v in f.items():
            if not 1 <= s <= r_max:
                raise OrderRangeError(f"F index {s} outside 1..{r_max}")
            _check_block(v, s, n, "F")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "r_max", int(r_max))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_flow_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("NormalFormState is immutable")

    @property
    def num_dof(self):
        return len(self.omega)

    def h0_polynomial(self):
        return poly.oscillator(self.omega)

    def z_action(self, s):
        if not 1 <= s <= self.r:
            raise OrderRangeError(f"Z index {s} outside 1..{self.r}")
        return self.z.get(s, ActionPolynomial.zero(self.num_dof))

    def generator(self, s):
        if not 1 <= s <= self.r:
            raise OrderRangeError(f"chi index {s} outside 1..{self.r}")
        return self.chi.get(s, Polynomial.zero(self.num_dof))

    def remainder_block(self, s):
        if not 1 <= s <= self.r_max:
            raise OrderRangeError(f"F index {s} outside 1..{self.r_max}")
        return self.f.get(s, Polynomial.zero(self.num_dof))

    def z_total_action(self):
        total = ActionPolynomial.zero(self.num_dof)
        for s in sorted(self.z):
            total = total + self.z[s]
        return total

    def normal_form_series(self):
        """H0 + Z_1 + ... + Z_r as a real graded series in (x, y)."""
        parts = {2: self.h0_polynomial()}
        for s, v in self.z.items():
            parts[s + 2] = v.to_polynomial()
        return GradedSeries(self.num_dof, parts, self.r_max + 2)

    def current_series(self):
        """The order-r Hamiltonian: H0 + Z_1..Z_r + remaining blocks."""
        parts = dict(self.normal_form_series())
        parts.update((s + 2, v) for s, v in self.f.items() if s > self.r)
        return GradedSeries(self.num_dof, parts, self.r_max + 2)

    def __eq__(self, other):
        return (isinstance(other, NormalFormState)
                and self.omega == other.omega
                and self.r == other.r
                and self.r_max == other.r_max
                and self.z == other.z
                and self.chi == other.chi
                and self.f == other.f)

    def __repr__(self):
        return (f"NormalFormState(num_dof={self.num_dof}, r={self.r}, "
                f"r_max={self.r_max})")

    # -- serialization ---------------------------------------------------

    def to_text(self):
        number = _records.number
        lines = ["OMEGA " + " ".join(number(w) for w in self.omega)]
        for s in sorted(self.z):
            lines.append(f"Z s={s}")
            for p, c in self.z[s].terms():
                lines.append(" ".join([str(e) for e in p] + [number(c)]))
        for s in sorted(self.chi):
            lines.append(f"CHI s={s}")
            lines.extend(poly._term_lines(self.chi[s]))
        for s in sorted(self.f):
            lines.append(f"F s={s}")
            lines.extend(poly._term_lines(self.f[s]))
        return _records.record(
            "NFSTATE", {"n": self.num_dof, "r": self.r, "rmax": self.r_max},
            lines)

    @classmethod
    def from_text(cls, text, path=None):
        reader = _records.RecordReader(
            text, "NFSTATE", {"n": int, "r": int, "rmax": int}, path=path)
        n = reader.header["n"]
        if n < 1:
            raise reader.error("n must be >= 1")
        omega = None
        z, chi, f = {}, {}, {}
        ledgers = {"Z": z, "CHI": chi, "F": f}
        section = None          # (label, s, terms) of the open section

        def close_section():
            if section is not None:
                label, s, terms = section
                build = ActionPolynomial if label == "Z" else Polynomial
                ledgers[label][s] = build(n, terms)

        for tokens in reader:
            if tokens[0] == "OMEGA":
                omega = tuple(reader.finite(tokens[1:], "OMEGA line"))
                if len(omega) != n:
                    raise reader.error("OMEGA length disagrees with n")
                continue
            if tokens[0] in ledgers:
                if len(tokens) != 2 or not tokens[1].startswith("s="):
                    raise reader.error("malformed section header")
                try:
                    s = int(tokens[1][2:])
                except ValueError:
                    raise reader.error("bad section order") from None
                close_section()
                if s in ledgers[tokens[0]]:
                    raise reader.error(f"repeated section {tokens[0]} s={s}")
                section = (tokens[0], s, {})
                continue
            if section is None:
                raise reader.error("term line outside any section")
            label, s, terms = section
            if label == "Z":
                if len(tokens) != n + 1:
                    raise reader.error(
                        f"expected {n + 1} fields on an action line")
                try:
                    p = tuple(int(t) for t in tokens[:n])
                except ValueError as exc:
                    raise reader.error(f"bad action term: {exc}") from None
                if min(p) < 0:
                    raise reader.error("negative action exponent")
                c = reader.finite(tokens[n:], "action term")[0]
                if p in terms:
                    raise reader.error("duplicate action exponent")
                terms[p] = c
            else:
                degree, j, k, c = poly._parse_term_line(
                    reader, tokens, n, "real")
                if degree != s + 2:
                    raise reader.error(
                        f"term degree {degree} in section of order {s} "
                        f"(expected {s + 2})")
                if (j, k) in terms:
                    raise reader.error("duplicate exponent vector")
                terms[(j, k)] = c
        close_section()
        if omega is None:
            raise FormatError("missing OMEGA line", path=path)
        return cls(omega, reader.header["r"], reader.header["rmax"],
                   z=z, chi=chi, f=f)


# -- construction -------------------------------------------------------------

def _chart_blocks_from_series(h, d_cap):
    blocks = {}
    for d, part in h:
        if d <= d_cap:
            blocks[d] = dict(poly.complexify(part)._terms)
    return blocks


def _realify_block(terms, n):
    return poly.realify(Polynomial._raw(n, dict(terms), "complex"))


def _realify_tail(blocks, r_done, r_max, n):
    """F entries of the blocks not yet normalized: indices r_done+1..r_max."""
    return {s: _realify_block(blocks[s + 2], n)
            for s in range(r_done + 1, r_max + 1) if blocks.get(s + 2)}


def _check_r_max(r_max):
    # a block of index s has degree s + 2, so it may hold an exponent that
    # large; the packed monomial key has room for at most poly._MAX_EXP
    if not 1 <= r_max <= poly._MAX_EXP - 2:
        raise OrderRangeError(
            f"r_max must lie in 1..{poly._MAX_EXP - 2}, got {r_max}")


def _validate_diagonal(h, omega):
    expect = poly.oscillator(omega)
    defect = poly.subtract(h.component(2), expect).max_abs_coeff()
    if defect > 1e-10 * max(expect.max_abs_coeff(), 1e-300):
        raise ValueError(
            "quadratic part is not the diagonal oscillator of the supplied "
            "frequencies; diagonalize it first")


def _extend(state, blocks, r_to, tol):
    """Normalize orders state.r+1 .. r_to on the chart blocks of state's
    current Hamiltonian (mutated in place) and return the new state.

    The only code that normalizes an order.  Each generator and snapshot
    is realified once, when it is produced, and the tail once, at the end;
    the first snapshot is the input ledger's own block.  A small divisor
    raises SmallDivisorError with the state normalized through the last
    completed order.
    """
    omega, r_max = state.omega, state.r_max
    tol = spectrum._tolerance(omega, tol)
    n = len(omega)
    z, chi = dict(state.z), dict(state.chi)
    f = {s: v for s, v in state.f.items() if s <= state.r + 1}

    def build(r_done):
        tail = _realify_tail(blocks, r_done, r_max, n)
        return NormalFormState(omega, r_done, r_max, z=z, chi=chi,
                               f={**tail, **f})

    for s in range(state.r + 1, r_to + 1):
        try:
            q, chi_terms, z_terms = _step_chart(
                blocks, s, omega, n, tol, r_max + 2)
        except SmallDivisorError as exc:
            raise SmallDivisorError(
                f"small divisor while normalizing order {s}: {exc}",
                k=exc.k, divisor=exc.divisor, order=s,
                state=build(s - 1)) from None
        if z_terms:
            z[s] = ActionPolynomial(n, z_terms)
        if chi_terms:
            chi[s] = _realify_block(chi_terms, n)
        if q and s not in f:
            f[s] = _realify_block(q, n)
    return build(r_to)


def birkhoff_normal_form(h, omega, r_max, tol=None):
    """Normalize orders 1..r_max of a real graded Hamiltonian.

    h must have its quadratic component equal to
    sum omega_l (x_l^2 + y_l^2)/2; components above degree r_max + 2 are
    ignored.  r_max may not exceed 253, because the packed monomial keys
    hold exponents up to 255.  On a small divisor at some order the raised
    SmallDivisorError carries the partial state (normalized through the
    last completed order) in its `state` attribute.
    """
    omega = tuple(float(w) for w in omega)
    if h.num_dof != len(omega):
        raise DimensionMismatchError(
            f"series has {h.num_dof} degrees of freedom, omega has "
            f"{len(omega)}")
    if h.field != "real":
        raise ValueError("birkhoff_normal_form expects a real series")
    _check_r_max(r_max)
    if max(abs(w) for w in omega) == 0.0:
        raise ValueError("omega is identically zero")
    _validate_diagonal(h, omega)
    blocks = _chart_blocks_from_series(h, r_max + 2)
    return _extend(NormalFormState(omega, 0, r_max), blocks, r_max, tol)


def normalize_step(state, tol=None):
    """Normalize one more order of an existing state.

    Returns a new state with r incremented; the ledger keeps the consumed
    block as the order-(r+1) snapshot and replaces all higher blocks with
    their transformed versions.
    """
    if state.r + 1 > state.r_max:
        raise OrderRangeError(
            f"state is already normalized to r_max = {state.r_max}")
    _check_r_max(state.r_max)
    blocks = _chart_blocks_from_series(state.current_series(),
                                       state.r_max + 2)
    return _extend(state, blocks, state.r + 1, tol)


# -- derived quantities --------------------------------------------------------

def frequencies_of_actions(state, actions):
    """Effective frequencies at given action values: the gradient of
    H0 + Z_1 + ... + Z_r with respect to the actions."""
    actions = tuple(float(a) for a in actions)
    if len(actions) != state.num_dof:
        raise DimensionMismatchError(
            f"expected {state.num_dof} action values")
    if any(a < 0 for a in actions):
        raise ValueError("actions must be nonnegative")
    total = state.z_total_action()
    return tuple(w + total.partial(l).evaluate(actions)
                 for l, w in enumerate(state.omega))


def _flow_polys(state, sign):
    """Coordinate polynomials of the time-one flow with generator
    sign*chi_s, for each order s with a nonzero generator."""
    cache = state._flow_cache
    if sign in cache:
        return cache[sign]
    n = state.num_dof
    cap = state.r_max + 2
    coords = [Polynomial.x(n, l) for l in range(n)]
    coords += [Polynomial.y(n, l) for l in range(n)]
    flows = []
    for s in sorted(state.chi):
        # coordinates of the time-one flow of -sign*chi_s are exp(ad of
        # sign*chi_s) applied to each coordinate function
        gen = state.chi[s].scale(sign)
        flows.append((s, [poly.lie_exp(gen, v, cap) for v in coords]))
    cache[sign] = flows
    return flows


def compose_transform(state, point, direction="forward"):
    """Map points through the accumulated normalizing transformation.

    direction="forward" carries original coordinates to normal-form
    coordinates (so the normal form evaluated at the result approximates
    the original Hamiltonian at the input); "inverse" goes back. Accepts a
    single point of length 2n or an (m, 2n) array; returns the same shape.
    """
    import numpy as np

    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != 2 * state.num_dof:
        raise DimensionMismatchError(
            f"points must have length {2 * state.num_dof}")

    # forward composes the flows of -chi_s in increasing s; inverse the
    # flows of +chi_s in decreasing s
    flows = _flow_polys(state, +1 if direction == "forward" else -1)
    order = flows if direction == "forward" else list(reversed(flows))
    for _, coord_polys in order:
        pts = np.column_stack(
            [poly.evaluate_batch(p, pts) for p in coord_polys])
    return pts[0] if single else pts
