"""Relations the stability time must satisfy, from the symmetries of the
problem rather than from the code: the seed-1 dense2 system normalized to
order 14 and a transformed copy of it, each through `bnf` and `estimate`,
must give the same T (or T scaled as the relation says) and the same
optimal order."""

import itertools
import math

import pytest

from bnfstab.cli import main
from util import load_perfbench

ORDER = 14
RHO0 = "0.05"
RADII = (1.0, 2.0)


def _estimate(tmp_path, name, terms, radii, rho0=RHO0):
    """(T, r_opt) of `estimate` at rho0 and radii on the ledger `bnf` writes
    for the 2-DOF system {(j, k): coeff} at ORDER."""
    systems = load_perfbench("systems")
    ham, nf = tmp_path / f"{name}.ham", tmp_path / f"{name}.nf"
    out = tmp_path / f"{name}.txt"
    ham.write_text(systems.ham_text(2, 4, terms))
    assert main(["bnf", "--input", str(ham), "--order", str(ORDER),
                 "--out", str(nf)]) == 0
    assert main(["estimate", "--input", str(nf), "--rho0", rho0,
                 "--radii", ",".join(repr(R) for R in radii),
                 "--out", str(out)]) == 0
    values = dict(line.split(" ", 1) for line in out.read_text().splitlines()
                  if not line.startswith("#"))
    return float(values["T"]), int(values["r_opt"])


@pytest.fixture
def dense2():
    return load_perfbench("systems").dense_terms(2, 1)


def test_scaling_the_variables_by_two_is_exact(tmp_path, dense2):
    # H(2x)/4 at radii R is H at radii 2R: powers of two are exact
    scaled = {(j, k): c * 2.0 ** (sum(j) + sum(k)) / 4
              for (j, k), c in dense2.items()}
    got = _estimate(tmp_path, "scaled", scaled, RADII)
    want = _estimate(tmp_path, "plain", dense2, [2 * R for R in RADII])
    assert got == want


def test_doubling_the_hamiltonian_halves_the_time(tmp_path, dense2):
    T2, r2 = _estimate(tmp_path, "double",
                       {key: 2 * c for key, c in dense2.items()}, RADII)
    T, r = _estimate(tmp_path, "plain", dense2, RADII)
    assert r2 == r
    assert T2 == pytest.approx(T / 2, rel=1e-12, abs=0)


def test_a_quarter_turn_of_one_mode_plane_leaves_the_time(tmp_path, dense2):
    # (x_1, y_1) -> (y_1, -x_1): x_1^a y_1^b becomes (-1)^b x_1^b y_1^a
    turned = {((k[0], j[1]), (j[0], k[1])): c * (-1) ** k[0]
              for (j, k), c in dense2.items()}
    got = _estimate(tmp_path, "turned", turned, RADII)
    want = _estimate(tmp_path, "plain", dense2, RADII)
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)


def _rotated(terms, theta):
    """terms with (x_1, y_1) -> (x_1 cos theta + y_1 sin theta,
    y_1 cos theta - x_1 sin theta); a quarter turn at theta = pi/2."""
    c, s = math.cos(theta), math.sin(theta)
    out = {}
    for (j, k), coeff in terms.items():
        # x_1^a y_1^b becomes (c x_1 + s y_1)^a (c y_1 - s x_1)^b
        a, b = j[0], k[0]
        for p, q in itertools.product(range(a + 1), range(b + 1)):
            key = ((p + q, *j[1:]), (a + b - p - q, *k[1:]))
            out[key] = out.get(key, 0.0) + coeff * (
                math.comb(a, p) * c ** p * s ** (a - p)
                * math.comb(b, q) * (-s) ** q * c ** (b - q))
    return out


@pytest.mark.xfail(strict=True, reason="polyalg.polydisc_norm sums |c| of "
                   "the real monomials x^j y^k, which a rotation of a mode "
                   "plane mixes: the F blocks are the plain ones rotated, "
                   "to 4e-15, but their norms are not the plain ones")
def test_a_rotation_of_one_mode_plane_by_any_angle_leaves_the_time(
        tmp_path, dense2):
    got = _estimate(tmp_path, "rotated", _rotated(dense2, 0.7), RADII)
    want = _estimate(tmp_path, "plain", dense2, RADII)
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, Defect 1: bnf "
                   "orders the modes by decreasing frequency and --radii "
                   "is applied in the ledger's mode order")
def test_permuting_the_modes_with_their_radii_leaves_the_time(tmp_path,
                                                               dense2):
    swapped = {(j[::-1], k[::-1]): c for (j, k), c in dense2.items()}
    got = _estimate(tmp_path, "swapped", swapped, RADII[::-1], rho0="0.1")
    want = _estimate(tmp_path, "plain", dense2, RADII, rho0="0.1")
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
