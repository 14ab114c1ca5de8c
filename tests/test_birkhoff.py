"""Normal-form construction: homological identity, oracle equality,
ledger semantics, and the energy carried by the generators' flows."""

import math

import numpy as np
import pytest

import oracles
from bnfstab import birkhoff, polyalg, spectrum, stability
from bnfstab.birkhoff import (
    ActionPolynomial,
    NormalFormState,
    birkhoff_normal_form,
)
from bnfstab.errors import (
    FormatError,
    GradingError,
    OrderRangeError,
    SmallDivisorError,
)
from bnfstab.polyalg import GradedSeries, Polynomial, poisson_bracket
from util import (
    TWO_DOF_OMEGA,
    identity_residual,
    load_perfbench,
    mono,
    normal_form,
    one_dof_series,
    random_series,
    two_dof_even_series,
)


def test_quartic_kernel_matches_angular_average():
    h = one_dof_series({(4, 0): 1.0})
    state = birkhoff_normal_form(h, (1.0,), 2)
    # the first normalized order is empty, the second averages x^4
    assert state.z_action(1).is_zero
    expected = 4.0 * oracles.circle_average(4, 0)
    assert state.z_action(2).coefficient((2,)) == pytest.approx(
        expected, rel=1e-12)
    assert state.z_action(2).coefficient((2,)) == pytest.approx(1.5,
                                                                rel=1e-12)


def test_one_dof_matches_dense_oracle():
    rng = np.random.default_rng(333)
    for trial in range(6):
        terms = {(2, 0): 0.5, (0, 2): 0.5}
        for _ in range(4):
            jx = int(rng.integers(0, 5))
            ky = int(rng.integers(0, 5 - jx))
            if jx + ky < 3:
                continue
            terms[(jx, ky)] = terms.get((jx, ky), 0.0) + float(
                rng.uniform(-0.5, 0.5))
        if all(sum(e) < 3 for e in terms):
            continue
        series = one_dof_series(
            {e: c for e, c in terms.items() if sum(e) > 2}, d_max=8)
        state = birkhoff_normal_form(series, (1.0,), 6)
        expected = oracles.one_dof_normal_form_dense(terms, 1.0, 6)
        for s in range(1, 7):
            mine = dict(state.z_action(s).terms())
            theirs = {(): 0.0}
            for p, c in expected[s].items():
                if abs(c) > 1e-12:
                    theirs[(p,)] = c
            theirs.pop((), None)
            assert set(mine) == set(theirs), (trial, s)
            for p, c in theirs.items():
                assert mine[p] == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_homological_identity_random_systems():
    rng = np.random.default_rng(55)
    for n, omega in [(1, (1.0,)), (2, TWO_DOF_OMEGA),
                     (3, (1.0, 2.0 ** 0.5, 3.0 ** 0.5))]:
        h = random_series(rng, n, omega, d_max=7)
        state = birkhoff_normal_form(h, omega, 5)
        for s in range(1, state.r + 1):
            assert identity_residual(state, s) <= 1e-12, (n, s)


def test_normalized_part_commutes_with_actions():
    h = two_dof_even_series(d_max=10)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    nf = normal_form(state)
    for l in range(2):
        action = (mono(2, tuple(2 if t == l else 0 for t in range(2)),
                       (0, 0), 0.5)
                  + mono(2, (0, 0),
                         tuple(2 if t == l else 0 for t in range(2)), 0.5))
        br = poisson_bracket(action, nf)
        assert br.max_abs_coeff() <= 1e-12 * max(1.0, nf.max_abs_coeff())


def test_even_hamiltonian_has_no_odd_orders():
    h = two_dof_even_series(d_max=10)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 8)
    for s in range(1, 9):
        if s % 2:
            assert state.z_action(s).is_zero
            assert state.generator(s).is_zero
            assert state.remainder_block(s).is_zero


def test_small_divisor_carries_partial_state():
    # omega = (1, 1): quartic monomials hit <k, omega> = 0 divisors, the
    # cubic order goes through untouched
    omega = (1.0, 1.0)
    h2 = (mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
          + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5))
    h = GradedSeries.from_polynomial(
        h2 + mono(2, (3, 0), (0, 0)) + mono(2, (2, 2), (0, 0)), d_max=6)
    with pytest.raises(SmallDivisorError) as info:
        birkhoff_normal_form(h, omega, 4)
    err = info.value
    assert err.order == 2
    assert err.state is not None and err.state.r == 1
    assert err.k is not None
    assert abs(sum(e * w for e, w in zip(err.k, omega))) == pytest.approx(
        abs(err.divisor), abs=1e-15)
    # the partial ledger still satisfies the order-1 identity
    assert identity_residual(err.state, 1) <= 1e-12
    # a tolerance outside (0, inf) is refused before any division
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            birkhoff_normal_form(h, omega, 4, tol=bad)


def _dict_block(block, n):
    """A chart block of arrays as {(j, k): coeff}; None as {}."""
    if block is None:
        return {}
    exps, coeffs = block
    return {(tuple(e[:n]), tuple(e[n:])): c
            for e, c in zip(exps.tolist(), coeffs.tolist())}


def _charted(block, n):
    """A real block, or a real Polynomial, in the complex chart as
    {(j, k): coeff}; None as {}."""
    if block is None:
        return {}
    if isinstance(block, Polynomial):
        block = block._block
    return _dict_block(polyalg.complexify(block), n)


def _assert_block_close(got, want, rel=1e-13):
    top = max((abs(c) for c in want.values()), default=0.0)
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= rel * top, key


def _step_outcome(step, blocks, s, omega, n, d_cap):
    try:
        return step(blocks, s, omega, n, 1e-6, d_cap)
    except SmallDivisorError as exc:
        return ("SmallDivisorError", exc.k, exc.divisor)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_array_step_matches_dict_oracle(n):
    # the real array step against the dict chart step, order by order,
    # from the same series: the snapshot, the generator and every block the
    # real step leaves, complexified, are what the chart step leaves; the
    # near-resonant omega stops both at the same order
    rng = np.random.default_rng(410 + n)
    d_max = {2: 8, 3: 6, 4: 5}[n]
    generic = (1.0, 2.0 ** 0.5, 3.0 ** 0.5, 5.0 ** 0.5)[:n]
    resonant = (1.0, 1.0 + 2.0 ** -30, 2.0 ** 0.5, 3.0 ** 0.5)[:n]
    stops = []
    for omega in (generic, resonant):
        h = random_series(rng, n, omega, d_max)
        blocks = birkhoff._blocks_from_series(h, d_max)
        dicts = {d: _charted(b, n) for d, b in blocks.items()}
        for s in range(1, d_max - 1):
            got = _step_outcome(birkhoff._normalize_order, blocks, s, omega,
                                n, d_max)
            want = _step_outcome(oracles.step_chart, dicts, s, omega, n,
                                 d_max)
            if want[0] == "SmallDivisorError":
                assert got == want
                stops.append(s)
                break
            q, chi, z = got
            for a, b in ((q, want[0]), (chi, want[1])):
                _assert_block_close(_charted(a, n), b)
            _assert_block_close(z, want[2])
            for d in set(blocks) | set(dicts):
                _assert_block_close(_charted(blocks.get(d), n),
                                    dicts.get(d, {}))
    # the generic omega ran every order, the resonant one stopped at the
    # quartic order, whose divisors hold k = (1, -1, 0, ...)
    assert stops == [2]


def _realified(terms, n):
    """A chart dict block mapped back to real variables by the dict chart
    change, as {(j, k): real coefficient}."""
    return {key: c.real for key, c in oracles.chart_change(
        [(j, k, c) for (j, k), c in terms.items()], n, +1).items()}


@pytest.mark.parametrize("n, r_max", [(2, 8), (3, 5)])
def test_ledger_matches_realified_chart_oracle_chain(n, r_max):
    # a whole run: every ledger block is the realified block of the dict
    # chart chain, to 1e-14 of the block's largest coefficient
    rng = np.random.default_rng(620 + n)
    omega = (1.0, 2.0 ** 0.5, 3.0 ** 0.5)[:n]
    h = random_series(rng, n, omega, r_max + 2)
    state = birkhoff_normal_form(h, omega, r_max)
    assert state.r == r_max
    dicts = {d: _charted(part._block, n) for d, part in h}
    for s in range(1, r_max + 1):
        q, chi, z = oracles.step_chart(dicts, s, omega, n, 1e-6, r_max + 2)
        for got, want in ((state.remainder_block(s), q),
                          (state.generator(s), chi)):
            _assert_block_close({(j, k): c for j, k, c in got.terms()},
                                _realified(want, n), rel=1e-14)
        _assert_block_close(dict(state.z_action(s).terms()), z, rel=1e-14)


def test_chains_run_on_one_coefficient_part(monkeypatch):
    # every operand the normalization hands the product kernel is a real
    # block: float64 coefficients
    rng = np.random.default_rng(77)
    omega = (1.0, 2.0 ** 0.5, 3.0 ** 0.5)
    h = random_series(rng, 3, omega, d_max=7)
    products = polyalg._products
    dtypes = []

    def counted(pairs, degrees, width):
        dtypes.extend(c.dtype for a, b, _ in pairs for _, c in (a, b))
        return products(pairs, degrees, width)

    monkeypatch.setattr(polyalg, "_products", counted)
    birkhoff_normal_form(h, omega, 5)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_action_only_block_needs_no_generator():
    # a block that depends on the actions alone is already normal: no
    # generator, so no chain runs, and Z is the block itself
    omega = TWO_DOF_OMEGA
    z = ActionPolynomial(2, {(2, 0): 0.3, (1, 1): -0.2})
    h = GradedSeries.from_polynomial(
        polyalg.oscillator(omega) + z.to_polynomial(), d_max=6)
    state = birkhoff_normal_form(h, omega, 4)
    assert state.chi == {}
    assert dict(state.z_action(2).terms()) == pytest.approx(dict(z.terms()),
                                                           rel=1e-15)
    assert set(state.f) == {2}


def test_small_divisor_names_the_smallest_divisor_of_the_block():
    # omega_2 - omega_1 = 2^-20 = omega_1 - omega_3 exactly: the block
    # holds a larger small divisor first in key order, and two equal
    # smallest ones, of which the first in key order is named
    n = 3
    eps = 2.0 ** -20
    omega = (1.0, 1.0 + eps, 1.0 - eps)
    terms = {((0, 2, 0), (2, 0, 0)): 1.0,    # k = (2, -2, 0): -2 eps
             ((1, 0, 1), (2, 0, 0)): 1.0,    # k = (1, 0, -1): +eps
             ((1, 1, 0), (2, 0, 0)): 1.0,    # k = (1, -1, 0): -eps
             ((1, 1, 1), (1, 1, 1)): 2.0j}
    q = {(j, k): complex(c) for (j, k), c in terms.items()}
    exps = np.array([j + k for j, k in sorted(q, key=lambda jk: jk[0] + jk[1])],
                    np.uint8)
    coeffs = np.array([q[(tuple(e[:n]), tuple(e[n:]))] for e in exps.tolist()])
    for solve, block in ((birkhoff._solve_chart, (exps, coeffs)),
                         (oracles.solve_chart, q)):
        args = (block, omega, n, 1e-3) if solve is birkhoff._solve_chart \
            else (block, omega, 1e-3)
        with pytest.raises(SmallDivisorError) as info:
            solve(*args)
        assert info.value.k == (1, 0, -1)
        assert info.value.divisor == eps
    # above every divisor, chi and the action part come out
    chi, z, action = birkhoff._solve_chart((exps, coeffs), omega, n, 1e-9)
    assert action.tolist() == [False, False, False, True]
    assert z == {(1, 1, 1): 2.0}       # Z^p W^p = i^|p| I^p, i^3 = -i
    assert _dict_block(chi, n) == pytest.approx(
        oracles.solve_chart(q, omega, 1e-9)[0], rel=1e-15)


def test_pruned_chart_term_on_a_small_divisor_stops_nothing():
    # at tol = 2 the cubic chart monomials Z^2 W and Z W^2 of omega = 1 sit
    # on the divisors -1 and +1, Z^3 and W^3 on -3 and +3.  Im((x + i y)^3)
    # = 3 x^2 y - y^3 charts to Z^3 and W^3 alone, x (x^2 + y^2) to Z^2 W
    # and Z W^2 alone: at 1e-16 of the block's largest chart coefficient
    # that term is pruned and stops nothing; at 1e-14 it is kept, and it
    # names its k
    for rel in (1e-16, 1e-14):
        h = one_dof_series({(2, 1): 3.0, (0, 3): -1.0,
                            (3, 0): rel, (1, 2): rel}, d_max=3)
        if rel < polyalg.PRUNE_REL:
            state = birkhoff_normal_form(h, (1.0,), 1, tol=2.0)
            assert state.r == 1
            assert [(j, k) for j, k, _ in state.generator(1).terms()] == [
                ((1,), (2,)), ((3,), (0,))]
        else:
            with pytest.raises(SmallDivisorError) as info:
                birkhoff_normal_form(h, (1.0,), 1, tol=2.0)
            assert info.value.k == (1,)
            assert info.value.divisor == 1.0


def test_birkhoff_rejects_nondiagonal_h2():
    h2 = mono(1, (2,), (0,), 1.0) + mono(1, (0,), (2,), 0.5)
    h = GradedSeries.from_polynomial(h2 + mono(1, (3,), (0,)), d_max=5)
    with pytest.raises(ValueError):
        birkhoff_normal_form(h, (1.0,), 2)


def test_generator_flows_carry_h_to_the_normal_form():
    # the flows of -chi_1, ..., -chi_r, integrated as ODEs for unit time in
    # increasing s, map a point p to q with H(p) = (H0 + Z)(q) up to the
    # truncation scale (plus a rounding floor)
    rng = np.random.default_rng(99)
    omega = TWO_DOF_OMEGA
    h = random_series(rng, 2, omega, d_max=8)
    state = birkhoff_normal_form(h, omega, 6)
    h_terms = h.to_polynomial().terms()
    nf_terms = normal_form(state).terms()
    flows = [[(j, k, -c) for j, k, c in state.generator(s).terms()]
             for s in range(1, state.r + 1)]
    for p in rng.uniform(-0.04, 0.04, size=(3, 4)):
        q = p
        for terms in flows:
            if terms:
                q = oracles.hamiltonian_flow(terms, q, (0.0, 1.0), 2,
                                             max_step=1.0).y[:, -1]
        e_old = oracles.eval_terms(h_terms, p).real[0]
        e_new = oracles.eval_terms(nf_terms, q).real[0]
        trunc = 100.0 * float(np.max(np.abs(p))) ** (state.r + 3)
        assert abs(e_old - e_new) <= trunc + 1e-13 * max(1.0, abs(e_old))


def test_state_text_roundtrip():
    rng = np.random.default_rng(21)
    h = random_series(rng, 2, TWO_DOF_OMEGA, d_max=6)
    state = birkhoff_normal_form(h, TWO_DOF_OMEGA, 4)
    text = state.to_text()
    again = NormalFormState.from_text(text)
    assert again == state
    assert again.to_text() == text


def _partial_state():
    # the partial ledger of test_small_divisor_carries_partial_state
    h2 = (mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
          + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5))
    h = GradedSeries.from_polynomial(
        h2 + mono(2, (3, 0), (0, 0)) + mono(2, (2, 2), (0, 0)), d_max=6)
    with pytest.raises(SmallDivisorError) as info:
        birkhoff_normal_form(h, (1.0, 1.0), 4)
    return info.value.state


@pytest.mark.parametrize("build", [
    lambda: birkhoff_normal_form(
        random_series(np.random.default_rng(21), 2, TWO_DOF_OMEGA, d_max=8),
        TWO_DOF_OMEGA, 6),
    _partial_state,
], ids=["full", "partial"])
def test_ledger_read_without_generators(build):
    text = build().to_text()
    full = NormalFormState.from_text(text)
    bare = NormalFormState.from_text(text, generators=False)
    assert full.chi and full.r >= 1
    # no generator or action part reads as zero: the state refuses them,
    # and is not the full one
    assert bare.z is None and bare.chi is None
    for refused in (lambda: bare.generator(1), lambda: bare.z_action(1),
                    bare.to_text):
        with pytest.raises(ValueError, match="without its generators"):
            refused()
    assert bare != full
    # the rest of the ledger is the full read's, bit for bit
    assert (bare.omega, bare.r, bare.r_max) == (full.omega, full.r,
                                                full.r_max)
    for s in range(1, full.r_max + 1):
        got, want = bare.remainder_block(s), full.remainder_block(s)
        assert got.num_dof == want.num_dof
        assert [a.tobytes() for a in got._block] == [
            a.tobytes() for a in want._block]
    grid, radii = (0.05, 0.1, 0.2, 0.4), (0.5, 0.25)
    a, b = stability.sweep(full, grid, radii), stability.sweep(bare, grid,
                                                                radii)
    assert a.orders == b.orders
    for name in ("T", "r_opt", "tau"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_state_text_errors():
    h = one_dof_series({(3, 0): 1.0}, d_max=5)
    state = birkhoff_normal_form(h, (1.0,), 3)
    text = state.to_text()
    with pytest.raises(FormatError):
        NormalFormState.from_text(text.replace("END\n", ""))
    with pytest.raises(FormatError):
        NormalFormState.from_text(text.replace("NFSTATE", "NFSTATS"))
    with pytest.raises(FormatError):
        NormalFormState.from_text("NFSTATE n=1 r=0 rmax=2\nEND\n")  # no OMEGA
    with pytest.raises(FormatError):
        NormalFormState.from_text("NFSTATE n=0 r=0 rmax=1\nZ s=1\n1\nEND\n")
    # every fault comes after the sections the layout puts before it:
    # OMEGA, Z s=1..2, CHI s=1..2, F s=1..2
    z, chi = "Z s=1\nZ s=2\n", "CHI s=1\nCHI s=2\n"
    for body, line in (("OMEGA nan\n", 2),
                       (f"OMEGA 1\n{z}{chi}F s=1\n3 3 0 inf\n", 8),
                       ("OMEGA 1\nZ s=1\nZ s=2\n2 -inf\n", 5),
                       (f"OMEGA 1\n{z}{chi}F s=1\n3 3 0 1\nF s=1\n", 9),
                       (f"OMEGA 1\n{z}CHI s=1\nCHI s=1\n", 6),
                       (f"OMEGA 1\n{z}2 1\n{chi}F s=1\nZ s=2\n", 9),
                       ("OMEGA 1\nZ s=1\nZ s=2\n-1 3\n", 5),
                       # ledger invariants: sections inside 1..r (Z, CHI) or
                       # 1..rmax (F), even when empty; Z of degree s + 2
                       (f"OMEGA 1\n{z}{chi}F s=1\nF s=2\nF s=9\n", 9),
                       (f"OMEGA 1\n{z}{chi}F s=0\n3 3 0 1\n", 7),
                       (f"OMEGA 1\n{z}{chi}CHI s=3\n", 7),
                       ("OMEGA 1\nZ s=1\nZ s=2\nZ s=4\n3 1\n", 5),
                       ("OMEGA 1\nZ s=1\nZ s=2\n1 1\n", 5)):
        with pytest.raises(FormatError) as info:
            NormalFormState.from_text(f"NFSTATE n=1 r=2 rmax=2\n{body}END\n")
        assert info.value.line == line
    for header in ("NFSTATE n=1 r=3 rmax=2", "NFSTATE n=1 r=-1 rmax=2",
                   "NFSTATE n=1 r=1 rmax=254"):
        with pytest.raises(FormatError) as info:
            NormalFormState.from_text(f"{header}\nOMEGA 1\nEND\n")
        assert info.value.line == 1


def test_ledger_text_holds_every_section_in_order():
    # the seed-1 even2 system at order 18, normalized as bnf does: its odd
    # blocks are zero, so half its sections are empty
    series = GradedSeries.from_text(
        load_perfbench("systems").system_text("even2", 1))
    omega, smap = spectrum.diagonalize_quadratic(series.component(2))
    state = birkhoff_normal_form(smap.pushforward(series.truncate(20)),
                                 omega, 18)
    assert all(state.remainder_block(s).is_zero for s in range(1, 19, 2))
    text = state.to_text()
    assert NormalFormState.from_text(text) == state
    lines = text.splitlines()
    headers = [line for line in lines
               if line.startswith(("Z s=", "CHI s=", "F s="))]
    assert headers == [f"{label} s={s}" for label, top
                       in (("Z", 18), ("CHI", 18), ("F", 18))
                       for s in range(1, top + 1)]
    for s in range(1, 19, 2):
        at = lines.index(f"F s={s}")
        assert lines[at + 1].startswith(("F s=", "END"))
        stripped = "\n".join(lines[:at] + lines[at + 1:]) + "\n"
        with pytest.raises(FormatError,
                           match=f"expected F s={s}, got 'F s={s + 1}'"):
            NormalFormState.from_text(stripped)


def test_state_validates_grading():
    with pytest.raises(GradingError):
        NormalFormState((1.0,), 1, 3, chi={1: mono(1, (4,), (0,))})
    with pytest.raises(OrderRangeError):
        NormalFormState((1.0,), 1, 3, f={7: mono(1, (9,), (0,))})
    with pytest.raises(OrderRangeError):  # a ledger from_text would refuse
        NormalFormState((1.0,), 0, 254)
    with pytest.raises(GradingError):
        NormalFormState((1.0,), 2, 3,
                        z={2: ActionPolynomial(1, {(1,): 1.0})})
    with pytest.raises(GradingError):  # every term, not only the highest
        NormalFormState((1.0,), 2, 3,
                        z={2: ActionPolynomial(1, {(2,): 1.0, (1,): 5.0})})


def test_action_polynomial_to_polynomial():
    # I^2 = ((x^2 + y^2)/2)^2
    a = ActionPolynomial(1, {(2,): 1.0})
    p = a.to_polynomial()
    assert p.coefficient((4,), (0,)) == pytest.approx(0.25)
    assert p.coefficient((2,), (2,)) == pytest.approx(0.5)
    assert p.coefficient((0,), (4,)) == pytest.approx(0.25)


def test_action_polynomial_expands_as_the_binomial_products():
    # realify of (-i)^|p| Z^p W^p is (x^2 + y^2)^p / 2^|p| to the bit
    a = ActionPolynomial(2, {(1, 2): 0.3, (1, 0): -1.7, (0, 3): 2.5})
    want = {}
    for p, c in a.terms():
        acc = {((0, 0), (0, 0)): c}
        for l, e in enumerate(p):
            binomial = {}
            for t in range(e + 1):
                j = tuple(2 * t if i == l else 0 for i in range(2))
                k = tuple(2 * (e - t) if i == l else 0 for i in range(2))
                binomial[(j, k)] = math.comb(e, t) / 2.0 ** e
            acc = oracles.raw_mul(acc, binomial)
        for key, v in acc.items():
            want[key] = want.get(key, 0.0) + v
    got = a.to_polynomial()
    assert got._block[1].dtype == np.float64
    assert {(j, k): c for j, k, c in got.terms()} == want


def test_action_polynomial_refuses_non_finite_coefficients():
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ActionPolynomial(1, {(1,): c})
