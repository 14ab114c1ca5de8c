"""Linear theory around an elliptic equilibrium.

Diagonalizes the quadratic part of a Hamiltonian into sum (omega_l/2)
(x_l^2 + y_l^2) by a real symplectic change of variables, with frequency
signs fixed by the Krein signature of each mode, and certifies the
frequency vector against low-order resonances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _records
from . import polyalg as poly
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    FormatError,
    GradingError,
    NotEllipticError,
    ResonanceError,
)

__all__ = [
    "LinearSymplecticMap",
    "ResonanceCertificate",
    "diagonalize_quadratic",
    "check_nonresonance",
    "default_tolerance",
]

_SYMPLECTIC_ATOL = 1e-10
_DIAG_RTOL = 1e-10
_ELLIPTIC_RTOL = 1e-9


def _symplectic_form(num_dof):
    n = num_dof
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


class LinearSymplecticMap:
    """A real linear symplectic change of variables old = M @ new.

    The constructor rejects matrices whose symplectic residual
    max |M^T J M - J| exceeds _SYMPLECTIC_ATOL (relative to the largest
    entry of M^T J M when that is large).
    """

    __slots__ = ("matrix", "num_dof")

    def __init__(self, matrix):
        M = np.array(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise DimensionMismatchError(
                f"expected a 2n x 2n matrix, got shape {M.shape}")
        n = M.shape[0] // 2
        J = _symplectic_form(n)
        G = M.T @ J @ M
        residual = np.max(np.abs(G - J))
        scale = max(1.0, np.max(np.abs(G)))
        if residual > _SYMPLECTIC_ATOL * scale:
            raise ConditioningError(
                f"matrix is not symplectic: residual {residual:.3e} "
                f"(tolerance {_SYMPLECTIC_ATOL * scale:.3e})")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "num_dof", n)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSymplecticMap is immutable")

    def inverse(self):
        # symplectic inverse: M^{-1} = -J M^T J, no matrix solve needed
        J = _symplectic_form(self.num_dof)
        return LinearSymplecticMap(-J @ self.matrix.T @ J)

    def pushforward(self, f):
        """Express f (a polynomial or graded series in the old variables)
        in the new variables: returns f composed with the map."""
        if isinstance(f, poly.GradedSeries):
            parts = {d: self.pushforward(p) for d, p in f}
            return poly.GradedSeries(f.num_dof, parts, f.d_max, field=f.field)
        if f.num_dof != self.num_dof:
            raise DimensionMismatchError(
                f"polynomial has {f.num_dof} degrees of freedom, "
                f"map has {self.num_dof}")
        return poly.linear_substitute(f, self.matrix.tolist())

    def new_to_old(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def old_to_new(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.inverse().matrix.T

    def __repr__(self):
        return f"LinearSymplecticMap(num_dof={self.num_dof})"


def _hessian(h2):
    n = h2.num_dof
    S = np.zeros((2 * n, 2 * n))
    for j, k, c in h2.terms():
        exps = list(j) + list(k)
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            S[i, i] += 2.0 * c
        else:
            i, t = support
            S[i, t] += c
            S[t, i] += c
    return S


def _canonical_phase(w, num_dof):
    # rotate the eigenvector so its largest x-block entry is real positive,
    # making the construction independent of the eig routine's phase choice
    xb = w[:num_dof]
    m = int(np.argmax(np.abs(xb)))
    pivot = xb[m]
    if abs(pivot) == 0.0:
        return w
    return w * (abs(pivot) / pivot)


def diagonalize_quadratic(h2):
    """Bring a quadratic Hamiltonian to sum (omega_l/2)(x_l^2 + y_l^2).

    Parameters
    ----------
    h2 : Polynomial
        Real, homogeneous of degree 2.

    Returns
    -------
    (omega, map) : (tuple of float, LinearSymplecticMap)
        Frequencies ordered by decreasing magnitude, signed by the Krein
        signature of each mode, and the symplectic map with old = M @ new
        realizing the diagonalization.

    Raises NotEllipticError when the linearization has eigenvalues off the
    imaginary axis or a vanishing frequency, and ConditioningError when a
    mode cannot be normalized reliably.
    """
    if h2.field != "real":
        raise ValueError("diagonalize_quadratic expects a real polynomial")
    if h2.is_zero or h2.degrees() != (2,):
        raise GradingError("expected a nonzero homogeneous quadratic")
    n = h2.num_dof
    J = _symplectic_form(n)
    A = J @ _hessian(h2)
    eigvals, eigvecs = np.linalg.eig(A)

    top = float(np.max(np.abs(eigvals)))
    if top == 0.0:
        raise NotEllipticError("linearization is nilpotent")
    off_axis = float(np.max(np.abs(eigvals.real)))
    if off_axis > _ELLIPTIC_RTOL * top:
        raise NotEllipticError(
            f"eigenvalue with real part {off_axis:.3e} "
            f"(largest magnitude {top:.3e}): equilibrium is not elliptic")

    modes = [(float(eigvals[i].imag), i)
             for i in range(len(eigvals)) if eigvals[i].imag > 0.0]
    if len(modes) != n:
        raise NotEllipticError(
            f"found {len(modes)} oscillatory modes, expected {n}")
    nu_top = max(nu for nu, _ in modes)
    if min(nu for nu, _ in modes) < _ELLIPTIC_RTOL * nu_top:
        raise NotEllipticError("a mode frequency vanishes to tolerance")

    # order modes by decreasing frequency magnitude, stable on ties
    modes.sort(key=lambda item: -item[0])

    omega = []
    cols_x = []
    cols_y = []
    for nu, i in modes:
        w = _canonical_phase(eigvecs[:, i], n)
        a = w.real.copy()
        b = w.imag.copy()
        sigma = 2.0 * float(a @ (J @ b))
        scale2 = np.max(a * a + b * b)
        if abs(sigma) < 1e-12 * max(scale2, 1e-300):
            raise ConditioningError(
                f"mode with frequency {nu:.6g} has a degenerate Krein "
                "pairing; eigenvectors are unreliable")
        factor = math.sqrt(2.0 / abs(sigma))
        a *= factor
        b *= factor
        if sigma > 0.0:
            omega.append(nu)
            cols_x.append(a)
            cols_y.append(b)
        else:
            # negative Krein signature: frequency flips sign and the
            # canonical pair comes from swapping the two real vectors
            omega.append(-nu)
            cols_x.append(b)
            cols_y.append(a)

    M = np.column_stack(cols_x + cols_y)
    smap = LinearSymplecticMap(M)

    target = poly.oscillator(omega)
    pushed = smap.pushforward(h2)
    defect = poly.subtract(pushed, target).max_abs_coeff()
    if defect > _DIAG_RTOL * target.max_abs_coeff():
        raise ConditioningError(
            f"diagonalization residual {defect:.3e} exceeds tolerance; "
            "the quadratic part is too ill conditioned")
    return tuple(omega), smap


# -- nonresonance ------------------------------------------------------------

def default_tolerance(omega):
    return 1e-10 * max(abs(w) for w in omega)


def _tolerance(omega, tol):
    """tol, or the default for omega when it is None; ValueError unless the
    result lies in (0, inf)."""
    if tol is None:
        tol = default_tolerance(omega)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def _half_lattice(num_dof, norm):
    """Integer vectors with |k|_1 == norm whose first nonzero entry is
    positive (one representative per +-k pair), in lexicographic order."""
    span = range(-norm, norm + 1)
    for k in itertools.product(span, repeat=num_dof):
        if sum(abs(e) for e in k) != norm:
            continue
        lead = next((e for e in k if e), 0)
        if lead > 0:
            yield k


# how each certificate body line parses; `inf` is a valid tau_dioph (an
# exact resonance fits no finite exponent)
_CERT_FIELDS = {
    "omega": lambda vals: tuple(float(v) for v in vals),
    "min_divisor": lambda vals: float(vals[0]),
    "argmin_k": lambda vals: tuple(int(v) for v in vals),
    "gamma": lambda vals: float(vals[0]),
    "tau_dioph": lambda vals: float(vals[0]),
    "tol": lambda vals: float(vals[0]),
    "certified": lambda vals: bool(int(vals[0])),
}


@dataclass(frozen=True)
class ResonanceCertificate:
    """Exhaustive small-divisor audit of a frequency vector.

    Records the minimum of |<k, omega>| over all integer vectors with
    0 < |k|_1 <= k_max, the vector attaining it, and fitted constants
    (gamma, tau) such that every shell minimum satisfies
    min_{|k|_1 = K} |<k, omega>| >= gamma * K^(-tau).
    """

    omega: tuple
    k_max: int
    min_divisor: float
    argmin_k: tuple
    gamma: float
    tau_dioph: float
    tol: float
    certified: bool

    def to_text(self):
        number = _records.number
        lines = [
            "omega " + " ".join(number(w) for w in self.omega),
            f"min_divisor {number(self.min_divisor)}",
            "argmin_k " + " ".join(str(e) for e in self.argmin_k),
            f"gamma {number(self.gamma)}",
            f"tau_dioph {number(self.tau_dioph)}",
            f"tol {number(self.tol)}",
            f"certified {1 if self.certified else 0}",
        ]
        return _records.record(
            "NONRESONANCE", {"n": len(self.omega), "kmax": self.k_max}, lines)

    @classmethod
    def from_text(cls, text, path=None):
        reader = _records.RecordReader(
            text, "NONRESONANCE", {"n": int, "kmax": int}, path=path)
        n = reader.header["n"]
        fields = {}
        for tokens in reader:
            key, vals = tokens[0], tokens[1:]
            if key not in _CERT_FIELDS:
                raise reader.error(f"unknown key {key!r}")
            try:
                fields[key] = _CERT_FIELDS[key](vals)
            except (ValueError, IndexError) as exc:
                raise reader.error(f"bad value for {key!r}: {exc}") from None
        missing = set(_CERT_FIELDS) - set(fields)
        if missing:
            raise FormatError(f"missing keys {sorted(missing)}", path=path)
        if len(fields["omega"]) != n or len(fields["argmin_k"]) != n:
            raise FormatError("vector length disagrees with header n",
                              path=path)
        return cls(k_max=reader.header["kmax"], **fields)


def check_nonresonance(omega, k_max, tol=None):
    """Scan all |k|_1 <= k_max for small divisors |<k, omega>|.

    Returns a ResonanceCertificate when the smallest divisor stays at or
    above tol (default 1e-10 max |omega_l|); otherwise raises
    ResonanceError carrying the failed certificate and the worst vector.
    """
    omega = tuple(float(w) for w in omega)
    if not omega:
        raise DimensionMismatchError("empty frequency vector")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    tol = _tolerance(omega, tol)

    min_div = math.inf
    argmin = None
    shell_min = {}
    for K in range(1, k_max + 1):
        best = math.inf
        for k in _half_lattice(len(omega), K):
            d = abs(sum(e * w for e, w in zip(k, omega)))
            if d < best:
                best = d
            if d < min_div:
                min_div = d
                argmin = k
        shell_min[K] = best

    # fit m_K >= gamma K^(-tau): anchor gamma just under the K=1 minimum,
    # then take the smallest exponent that clears every deeper shell
    gamma = shell_min[1] * (1.0 - 1e-13)
    tau = 0.0
    for K in range(2, k_max + 1):
        m = shell_min[K]
        if m == 0.0:
            # exact resonance: no finite exponent clears this shell
            tau = math.inf
            break
        if m < gamma:
            tau = max(tau, math.log(gamma / m) / math.log(K))
    certified = min_div >= tol

    cert = ResonanceCertificate(
        omega=omega, k_max=k_max, min_divisor=min_div,
        argmin_k=tuple(argmin), gamma=gamma, tau_dioph=tau,
        tol=tol, certified=certified)
    if not certified:
        raise ResonanceError(
            f"resonance to tolerance: |<k, omega>| = {min_div:.3e} < "
            f"{tol:.3e} at k = {argmin}",
            k=tuple(argmin), divisor=min_div, certificate=cert)
    return cert
