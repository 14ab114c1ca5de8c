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
  - the Hamiltonian's blocks stay real (x, y) blocks throughout, and every
    Lie-series chain brackets real blocks with the real chi_s;
  - only the homological equation is solved in the canonical complex chart
    Z_l = (x_l + i y_l)/sqrt2, W_l = (y_l + i x_l)/sqrt2 ({Z_l, W_l} = 1),
    where L_{H0} is diagonal with eigenvalue i<omega, j-k> on Z^j W^k: at
    order s the one block Q_s is changed into the chart on its class
    layout (polyalg._Layout), solved on the slots that survive pruning,
    and chi_s and the action part Z_s are changed back to real
    coefficients on the same layout, in one change.  The chart is
    canonical, so a bracket of real blocks is the realified bracket of
    their chart blocks, with half the coefficient arithmetic.

The construction runs once, from order 1 up to r_max, and keeps the first
unnormalized block of every order: remainder_block(s) is the block of index
s exactly as it stood when order s was about to be normalized.  Stability
estimation at order r consumes remainder_block(r+1).  A ledger stops short
of r_max only when a small divisor ended the run (a partial ledger).  Its
text has one section for every index its header implies, in a fixed order
and empty for a zero block, so a lost section is refused, not read as zero.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

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
from .polyalg import Polynomial

__all__ = [
    "ActionPolynomial",
    "NormalFormState",
    "birkhoff_normal_form",
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
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c!r}")
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

    def to_polynomial(self):
        """Expand back to (x, y) variables via I_l = (x_l^2 + y_l^2)/2: each
        I^p is (-i)^|p| Z^p W^p in the complex chart, realified; terms()
        lists the rows Z^p W^p in graded key order."""
        units = (1, -1j, -1, 1j)
        terms = self.terms()
        poly._check_degree(2 * sum(terms[-1][0]) if terms else 0)
        exps = np.array([p + p for p, _ in terms], np.uint8)
        coeffs = np.array([c * units[sum(p) % 4] for p, c in terms], complex)
        chart = poly._canonical(exps.reshape(-1, 2 * self.num_dof), coeffs)
        return Polynomial._raw(self.num_dof, poly.realify(chart))

    def __eq__(self, other):
        return (isinstance(other, ActionPolynomial)
                and self.num_dof == other.num_dof
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.num_dof, frozenset(self._terms.items())))

    def __repr__(self):
        return (f"ActionPolynomial(num_dof={self.num_dof}, "
                f"terms={len(self._terms)})")


# -- the homological solve and the step ----------------------------------------
#
# A block is (exps, coeffs): the uint8 exponent matrix, one row a monomial,
# and the coefficient vector of a homogeneous block, in key order
# (polyalg's array blocks).  The Hamiltonian's blocks are real; a chart
# block holds the complex coefficients of monomials Z^j W^k.

def _solve_chart(q, omega, n, tol):
    """Split a chart block into generator and action coefficients.

    Returns (chi, z_action_terms, action): the block chi carries
    c/(i<omega, k-j>) on every monomial Z^j W^k with j != k; the j == k
    part maps to actions via Z^p W^p = i^|p| I^p; action is the mask of
    the j == k rows.  <omega, k-j> is summed mode by mode from 0.0.  A
    divisor below tol raises SmallDivisorError naming the smallest divisor
    of the block, the first in key order among equals.
    """
    exps, coeffs = q
    j = exps[:, :n].astype(np.int64)
    k = exps[:, n:].astype(np.int64)
    action = (j == k).all(axis=1)
    dot = np.zeros(len(coeffs))
    for l, w in enumerate(omega):
        dot += w * (k[:, l] - j[:, l])
    size = np.abs(dot)
    small = np.flatnonzero(~action & (size < tol))
    if len(small):
        i = small[size[small].argmin()]
        vec, divisor = (k[i] - j[i]).tolist(), float(dot[i])
        if next(e for e in vec if e) < 0:
            vec, divisor = [-e for e in vec], -divisor
        vec = tuple(vec)
        raise SmallDivisorError(
            f"divisor <k, omega> = {divisor:.6e} below tolerance "
            f"{tol:.6e} at k = {vec}",
            k=vec, divisor=divisor)
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflow comes out as inf or nan, for pruning to refuse
        chi = exps[~action], coeffs[~action] / (1j * dot[~action])

    z_real = {}
    if action.any():
        # every action monomial of the block has |p| = degree / 2
        z = coeffs[action] * (1, 1j, -1, -1j)[int(j[action][0].sum()) % 4]
        top = np.abs(z).max()
        worst = np.abs(z.imag).max()
        if worst > poly.REALITY_TOL * top:
            raise RealityViolationError(
                f"action coefficients have imaginary residual "
                f"{worst / top:.3e}; input block was not real")
        z_real = {tuple(p): v for p, v in zip(j[action].tolist(),
                                              z.real.tolist()) if v != 0.0}
    return chi, z_real, action


def _normalize_order(blocks, s, omega, n, tol, d_cap):
    """Normalize order s in place on the real blocks.

    blocks maps polynomial degree -> nonempty real block; degree 2 holds
    the oscillator.  Returns (q_snapshot, chi, z_action_terms), where
    q_snapshot is the block of index s exactly as found on entry and chi
    the real generator, a Polynomial; (None, None, {}) when there is no
    such block.
    """
    m = s + 2
    q = blocks.get(m)
    if q is None:
        return None, None, {}
    # the homological equation alone needs the chart, where L_{H0} is
    # diagonal: q changes into it on its layout, the slots that survive
    # pruning are solved (in key order, so the first small divisor in key
    # order among equals is named), and the generator and the action part
    # change back on the same layout, at once, as real blocks
    layout = poly._Layout(q[0])
    chart = layout.change(layout.place(q[1]), -1)
    kept = np.flatnonzero(layout.kept(chart))
    chi_chart, z_act, action = _solve_chart(
        (np.take(layout.exps, kept, axis=0), chart[kept]), omega, n, tol)
    back = np.zeros((2, len(chart)), complex)
    back[0, kept[~action]] = chi_chart[1]
    z_slots = kept[action]
    back[1, z_slots] = chart[z_slots]
    chi_back, z_back = layout.change(back, +1)
    chi = Polynomial._raw(n, layout.real(chi_back))
    z = layout.real(z_back)

    # the flow of -chi applied to every block: exp of -{chi, .} expands as
    # g_p = {g_{p-1}, chi}/p, each chain reading the block as it stood on
    # entry, and the chains step together.  The oscillator chain goes
    # last: {H0, chi} equals Z - Q exactly by construction, which is
    # absorbed by replacing the block below, so it starts at g_2 from Z - Q
    exps, coeffs = poly._summed([z, (q[0], -q[1])])
    keep = poly._kept(coeffs)
    degrees = [d for d in sorted(blocks, reverse=True) if d != 2]
    chains = [(blocks[d], d, 1) for d in degrees]
    chains.append(((exps.compress(keep, axis=0), coeffs[keep]), m, 2))
    operand = poly._bracket_operand(chi._block, n)
    added = {}
    for terms in poly._lie_series(chains, operand, n, d_cap):
        for d, g in terms:
            added.setdefault(d, []).append(g)

    # each target sums its entry block and then the chains' terms, in
    # chain order
    for d, parts in added.items():
        if d in blocks:
            parts.insert(0, blocks[d])
        exps, coeffs = poly._summed(parts)
        keep = poly._kept(coeffs)
        if keep.any():
            blocks[d] = exps.compress(keep, axis=0), coeffs[keep]
        else:
            blocks.pop(d, None)
    if len(z[1]):
        blocks[m] = z
    else:
        del blocks[m]
    return q, chi, z_act


# -- the state ledger ---------------------------------------------------------

def _check_block(p, s, num_dof, label):
    if p.num_dof != num_dof:
        raise DimensionMismatchError(f"{label} s={s} has wrong num_dof")
    if not p.is_zero and p.degrees() != (s + 2,):
        raise GradingError(
            f"{label} s={s} must be homogeneous of degree {s + 2}")


class NormalFormState:
    """Ledger of a normal-form construction.

    Holds the frequencies, the normalized action parts Z_s and generators
    chi_s for s = 1..r, and remainder blocks: for s <= r the block of index
    s as it stood just before order s was normalized.  r < r_max arises
    only in the partial ledger of a small divisor, whose blocks s > r are
    the not-yet-normalized blocks of the order-r Hamiltonian.  All
    polynomial data is real; index-s entries are homogeneous of degree
    s + 2.  The text (to_text, from_text) holds the sections Z and CHI
    s = 1..r and F s = 1..r_max, each one present.  z and chi are None in
    a state read without its generators (from_text with generators=False),
    whose z_action, generator and to_text refuse.
    """

    __slots__ = ("omega", "r", "r_max", "z", "chi", "f")

    def __init__(self, omega, r, r_max, z=None, chi=None, f=None):
        omega = tuple(float(w) for w in omega)
        if not omega:
            raise DimensionMismatchError("empty frequency vector")
        if not all(map(math.isfinite, omega)):
            raise ValueError(f"non-finite frequency in {omega}")
        if not 0 <= r <= r_max <= poly._MAX_EXP - 2:
            raise OrderRangeError(f"need 0 <= r <= r_max <= "
                                  f"{poly._MAX_EXP - 2}, got r={r}, "
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
            if any(2 * sum(p) != s + 2 for p, _ in v.terms()):
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

    def __setattr__(self, name, value):
        raise AttributeError("NormalFormState is immutable")

    @property
    def num_dof(self):
        return len(self.omega)

    def h0_polynomial(self):
        return poly.oscillator(self.omega)

    def z_action(self, s):
        self._check_generators()
        if not 1 <= s <= self.r:
            raise OrderRangeError(f"Z index {s} outside 1..{self.r}")
        return self.z.get(s, ActionPolynomial.zero(self.num_dof))

    def generator(self, s):
        self._check_generators()
        if not 1 <= s <= self.r:
            raise OrderRangeError(f"chi index {s} outside 1..{self.r}")
        return self.chi.get(s, Polynomial.zero(self.num_dof))

    def _check_generators(self):
        if self.chi is None:
            raise ValueError("the ledger was read without its generators")

    def remainder_block(self, s):
        if not 1 <= s <= self.r_max:
            raise OrderRangeError(f"F index {s} outside 1..{self.r_max}")
        return self.f.get(s, Polynomial.zero(self.num_dof))

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
        self._check_generators()
        number = _records.number
        lines = ["OMEGA " + " ".join(number(w) for w in self.omega)]
        for s in range(1, self.r + 1):
            lines.append(f"Z s={s}")
            for p, c in self.z_action(s).terms():
                lines.append(" ".join([str(e) for e in p] + [number(c)]))
        for label, block, top in (("CHI", self.generator, self.r),
                                  ("F", self.remainder_block, self.r_max)):
            for s in range(1, top + 1):
                lines.append(f"{label} s={s}")
                lines.extend(poly._term_lines(block(s)))
        return _records.record(
            "NFSTATE", {"n": self.num_dof, "r": self.r, "rmax": self.r_max},
            lines)

    @classmethod
    def from_text(cls, text, path=None, generators=True):
        """The state a ledger's text holds.  The header (n, r, rmax) fixes
        the body: the OMEGA line, then sections Z s=1..r, CHI s=1..r and
        F s=1..rmax in that order, each a header line and its term lines,
        empty for a zero block.  The body is read in file order up to its
        first line out of place, and the first fault is raised: a term
        line's, else `expected F s=3, got 'F s=4'`, else a fault at END,
        else `missing F s=13`.  With generators=False the Z and CHI
        sections are checked by their headers alone: their term lines are
        never converted, and the state's z and chi are None.

        The body is read by one RecordReader, which holds a ledger as
        `bnf` writes it unsplit and stops it before END.  Its header lines
        are found by their first byte, each section's term lines are the
        text between two of them, and the term lines of every CHI and F
        section read convert in one batch (polyalg._read_terms)."""
        reader = _records.RecordReader(text, "NFSTATE", _HEADER_KEYS,
                                       path=path)
        n, r, r_max = _header(reader)
        numbers, line, lines = reader.numbers, reader.line, reader.lines
        # line 0, which must be OMEGA, and every section header, found by
        # its first byte
        firsts = np.flatnonzero(np.isin(reader.lead, list(b"OZCF"))).tolist()
        heads = [0, *(i for i in firsts if i and line(i).split(None, 1)[0]
                      in ("OMEGA", "Z", "CHI", "F"))] if numbers else []
        # the sections, (label, s) each, in their order
        layout = [(label, s) for label, top in (("Z", r), ("CHI", r),
                                                ("F", r_max))
                  for s in range(1, top + 1)]
        expected = ["OMEGA", *(f"{label} s={s}" for label, s in layout)]
        good = 0  # the header lines in place, first to last
        for at, want in zip(heads, expected):
            tokens = line(at).split()
            if (" ".join(tokens) if good else tokens[0]) != want:
                break
            good += 1
        # the body is read up to its first line out of place
        stop = heads[good] if good < len(heads) else len(numbers)
        bounds = [*heads[:good], stop]
        if good:
            reader.lineno = numbers[0]
            omega = tuple(reader.finite(line(0).split()[1:], "OMEGA line"))
            if len(omega) != n:
                raise reader.error("OMEGA length disagrees with n")
            if bounds[1] > 1:
                reader.lineno = numbers[1]
                raise reader.error("term line outside any section")
        # the Z sections read, one line at a time; none without generators
        z = {}
        for s in range(1, min(r + 1, good) if generators else 1):
            lo, hi = bounds[s] + 1, bounds[s + 1]
            z[s] = _actions(reader, numbers[lo:hi], lines(lo, hi), n, s)
        # the CHI and F sections read, (label, s) each, and their term
        # lines with their numbers, in one batch
        sections, terms, linenos, counts = [], [], array("l"), []
        for k in range(r + 1, good):
            if layout[k - 1][0] == "F" or generators:
                lo, hi = bounds[k] + 1, bounds[k + 1]
                sections.append(layout[k - 1])
                terms += lines(lo, hi)
                linenos += numbers[lo:hi]
                counts.append(hi - lo)
        # the fault past the sections read, raised once they are read
        fault = reader.fault
        if stop < len(numbers):
            fault = FormatError(f"expected {[*expected, 'END'][good]}, got "
                                f"{line(stop)!r}",
                                line=numbers[stop], path=path)
        elif fault is None and good < len(expected):
            fault = FormatError(f"missing {expected[good]}", path=path)
        # the reader holds the body's line offsets and numbers: release it
        # before the batch conversion, which sets the read's peak memory
        del reader, numbers, line, lines
        blocks = poly._read_terms(
            terms, linenos, counts, n, path,
            [(s + 2, s + 2) for _, s in sections],
            lambda k, d: f"term degree {d} in section of order "
                         f"{sections[k][1]} (expected {sections[k][1] + 2})")
        if fault is not None:
            raise fault
        chi, f = {}, {}
        for (label, s), block in zip(sections, blocks):
            (chi if label == "CHI" else f)[s] = Polynomial._raw(n, block)
        state = cls(omega, r, r_max, z=z, chi=chi, f=f)
        if not generators:
            object.__setattr__(state, "z", None)
            object.__setattr__(state, "chi", None)
        return state


# the keys of an NFSTATE header, each with its conversion
_HEADER_KEYS = {"n": int, "r": int, "rmax": int}


def _header(reader):
    """(n, r, r_max) of a ledger's header, refused at its line unless they
    describe a ledger the package can hold."""
    n, r, r_max = (reader.header[key] for key in ("n", "r", "rmax"))
    if n < 1:
        raise reader.error("n must be >= 1")
    if n > poly._MAX_DOF:
        raise reader.error(f"n={n} exceeds {poly._MAX_DOF}, the most "
                           "degrees of freedom an array holds")
    if not 0 <= r <= r_max <= poly._MAX_EXP - 2:
        raise reader.error(f"need 0 <= r <= rmax <= {poly._MAX_EXP - 2}")
    return n, r, r_max


def _actions(reader, linenos, lines, n, s):
    """Z s, its term lines read one at a time."""
    terms = {}
    for reader.lineno, line in zip(linenos, lines):
        tokens = line.split()
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
    return ActionPolynomial(n, terms)


# -- construction -------------------------------------------------------------

def _blocks_from_series(h, d_cap):
    return {d: part._block for d, part in h.truncate(d_cap)}


def _check_r_max(r_max):
    # a block of index s has degree s + 2, so it may hold an exponent that
    # large; the uint8 exponents hold at most poly._MAX_EXP
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


def birkhoff_normal_form(h, omega, r_max, tol=None):
    """Normalize orders 1..r_max of a real graded Hamiltonian.

    h must have its quadratic component equal to
    sum omega_l (x_l^2 + y_l^2)/2; components above degree r_max + 2 are
    ignored.  r_max may not exceed 253, because the uint8 exponents
    hold at most 255.  On a small divisor at some order the raised
    SmallDivisorError carries the partial state (normalized through the
    last completed order) in its `state` attribute.

    The orders are normalized on the real blocks of h, so each snapshot
    and each block not yet normalized goes to the ledger as it is.  The
    homological equation of each order is solved in the complex chart,
    on one layout per order, and its generator and action part are
    changed back to real variables on it when they are produced
    (_normalize_order).
    """
    omega = tuple(float(w) for w in omega)
    if h.num_dof != len(omega):
        raise DimensionMismatchError(
            f"series has {h.num_dof} degrees of freedom, omega has "
            f"{len(omega)}")
    _check_r_max(r_max)
    if max(abs(w) for w in omega) == 0.0:
        raise ValueError("omega is identically zero")
    _validate_diagonal(h, omega)
    blocks = _blocks_from_series(h, r_max + 2)
    tol = spectrum._tolerance(omega, tol)
    n = len(omega)
    z, chi, f = {}, {}, {}

    def build(r_done):
        # the F entries of the blocks not yet normalized
        tail = {s: Polynomial._raw(n, blocks[s + 2])
                for s in range(r_done + 1, r_max + 1) if s + 2 in blocks}
        return NormalFormState(omega, r_done, r_max, z=z, chi=chi,
                               f={**tail, **f})

    for s in range(1, r_max + 1):
        try:
            q, chi_s, z_terms = _normalize_order(
                blocks, s, omega, n, tol, r_max + 2)
        except SmallDivisorError as exc:
            raise SmallDivisorError(
                f"small divisor while normalizing order {s}: {exc}",
                k=exc.k, divisor=exc.divisor, order=s,
                state=build(s - 1)) from None
        z[s] = ActionPolynomial(n, z_terms)
        if chi_s is not None:
            chi[s] = chi_s
        if q is not None:
            f[s] = Polynomial._raw(n, q)
    return build(r_max)
