"""Orbital elements, Poincare variables, and the packaged fixture."""

import dataclasses
import functools
import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bnfstab.celestial import (
    SOLAR_MASS,
    BodyParameters,
    PoincareState,
    elements_text,
    fixture_path,
    load_fixture,
    parse_elements,
    poincare_variables,
    secular_radii,
)
from bnfstab.errors import (
    DegenerateRadiusError,
    FormatError,
    HyperbolicOrbitError,
    UnknownFixtureError,
)

FIXTURE = "sjs-jd2451220.5"
FIXTURE_SHA256 = \
    "74b239f74a0873f4a20311c99b50e0961345c83491ce7f42a7e4e1597a85bd4c"


def test_fixture_file_is_pinned():
    digest = hashlib.sha256(fixture_path(FIXTURE).read_bytes()).hexdigest()
    assert digest == FIXTURE_SHA256


def test_fixture_values_bit_exact():
    bodies, m0 = load_fixture(FIXTURE)
    assert m0 == 4.0 * math.pi ** 2
    jup, sat = bodies
    assert jup.name == "jupiter" and sat.name == "saturn"
    assert jup.mass == 4.0 * math.pi ** 2 / 1047.355
    assert sat.mass == 4.0 * math.pi ** 2 / 3498.5
    assert jup.semi_major_axis == 5.20092253448245
    assert jup.mean_anomaly == 6.14053316064644
    assert jup.eccentricity == 0.04814707261917873
    assert jup.perihelion_argument == 1.18977636117073
    assert jup.inclination == 0.006301433258242599
    assert jup.node_longitude == 3.51164756250381
    assert sat.semi_major_axis == 9.55716977296997
    assert sat.mean_anomaly == 5.37386251998842
    assert sat.eccentricity == 0.05381979488308911
    assert sat.perihelion_argument == 5.65165124779163
    assert sat.inclination == 0.01552738031933247
    assert sat.node_longitude == 0.370054908914043


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        fixture_path("sjs-jd0")


def test_poincare_matches_high_precision_oracle():
    bodies, m0 = load_fixture(FIXTURE)
    state = poincare_variables(bodies, m0)
    for i, b in enumerate(bodies):
        L, lam, xi, eta = oracles.poincare_mp(
            b.mass, m0, b.semi_major_axis, b.eccentricity,
            b.mean_anomaly, b.perihelion_argument)
        assert state.Lambda[i] == pytest.approx(L, rel=1e-13)
        assert state.lam[i] == pytest.approx(lam, rel=1e-13)
        assert state.xi[i] == pytest.approx(xi, rel=1e-13)
        assert state.eta[i] == pytest.approx(eta, rel=1e-13)


def test_eccentricity_roundtrip():
    bodies, m0 = load_fixture(FIXTURE)
    state = poincare_variables(bodies, m0)
    recovered = oracles.eccentricities(state)
    for b, e in zip(bodies, recovered):
        assert e == pytest.approx(b.eccentricity, rel=1e-13)


def test_eccentricities_refuse_an_impossible_amplitude():
    # xi^2 + eta^2 = 2 Lambda (1 - sqrt(1 - e^2)) < 2 Lambda for e < 1
    for xi in (math.sqrt(3.0), math.sqrt(2.0), 2.0):
        state = PoincareState(names=("probe",), Lambda=(1.0,), lam=(0.0,),
                              xi=(xi,), eta=(0.0,))
        with pytest.raises(ValueError, match="2 Lambda"):
            oracles.eccentricities(state)
    # just inside, e stays below 1
    state = PoincareState(names=("probe",), Lambda=(1.0,), lam=(0.0,),
                          xi=(1.4142,), eta=(0.0,))
    assert 0.99 < oracles.eccentricities(state)[0] < 1.0


def test_secular_radii_are_amplitudes():
    bodies, m0 = load_fixture(FIXTURE)
    state = poincare_variables(bodies, m0)
    radii = secular_radii(state)
    for i, R in enumerate(radii):
        assert R == pytest.approx(
            math.hypot(state.xi[i], state.eta[i]), rel=1e-15)
        assert R > 0.0


def test_secular_radii_reject_circular_orbit():
    body = BodyParameters(mass=1e-3 * SOLAR_MASS, semi_major_axis=1.0,
                          eccentricity=0.0, inclination=0.0,
                          mean_anomaly=0.0, perihelion_argument=0.0,
                          node_longitude=0.0, name="probe")
    state = poincare_variables([body])
    with pytest.raises(DegenerateRadiusError):
        secular_radii(state)


def test_body_parameters_wrap_angles_and_validate():
    b = BodyParameters(mass=1.0, semi_major_axis=2.0, eccentricity=0.1,
                       inclination=0.0, mean_anomaly=7.0,
                       perihelion_argument=-1.0, node_longitude=0.0)
    assert b.mean_anomaly == pytest.approx(7.0 - 2.0 * math.pi)
    assert b.perihelion_argument == pytest.approx(2.0 * math.pi - 1.0)
    with pytest.raises(HyperbolicOrbitError):
        BodyParameters(mass=1.0, semi_major_axis=1.0, eccentricity=1.0,
                       inclination=0.0, mean_anomaly=0.0,
                       perihelion_argument=0.0, node_longitude=0.0)
    with pytest.raises(ValueError):
        BodyParameters(mass=-1.0, semi_major_axis=1.0, eccentricity=0.1,
                       inclination=0.0, mean_anomaly=0.0,
                       perihelion_argument=0.0, node_longitude=0.0)


def test_elements_text_roundtrip():
    bodies, m0 = load_fixture(FIXTURE)
    text = elements_text(bodies, m0)
    again, m0_again = parse_elements(text)
    assert m0_again == m0
    for a, b in zip(again, bodies):
        assert a == b


def test_parse_elements_errors_carry_line_numbers():
    with pytest.raises(FormatError) as info:
        parse_elements("m0 = 1.0\n[body]\nname = x\nmass = oops\n",
                       path="el.txt")
    msg = str(info.value)
    assert "el.txt" in msg and "4" in msg

    with pytest.raises(FormatError):
        parse_elements("m0 = 1.0\n[unknown]\n")
    with pytest.raises(FormatError):
        parse_elements("m0 = 1.0\nmass = 1.0\n")  # key outside a section
    with pytest.raises(FormatError):  # missing m0
        parse_elements("[body]\nname = x\nmass = 1\nsemi_major_axis = 1\n"
                       "eccentricity = 0.1\ninclination = 0\n"
                       "mean_anomaly = 0\nperihelion_argument = 0\n"
                       "node_longitude = 0\n")
    bodies, _ = load_fixture(FIXTURE)
    dup = elements_text(bodies, SOLAR_MASS) + "\nm0 = 2.0\n"
    with pytest.raises(FormatError):
        parse_elements(dup)
    with pytest.raises(FormatError) as info:
        parse_elements("m0 = nan\n")
    assert info.value.line == 1


def test_parse_elements_missing_field_reports_body():
    with pytest.raises(FormatError) as info:
        parse_elements("m0 = 1.0\n[body]\nname = x\nmass = 1\n")
    assert "x" in str(info.value) or "body" in str(info.value)


def test_poincare_state_text_roundtrip():
    bodies, m0 = load_fixture(FIXTURE)
    state = poincare_variables(bodies, m0)
    text = state.to_text()
    again = PoincareState.from_text(text)
    assert again == state
    assert again.to_text() == text
    with pytest.raises(FormatError):
        PoincareState.from_text(text.replace("END\n", ""))
    with pytest.raises(FormatError):
        PoincareState.from_text("POINCARE n=2\nEND\n")
    with pytest.raises(FormatError) as info:
        PoincareState.from_text("POINCARE n=1\nbody1 1 0 nan 0\nEND\n")
    assert info.value.line == 2
    # RADII appears once and repeats hypot(xi, eta) of the body lines
    radii = next(line for line in text.splitlines()
                 if line.startswith("RADII"))
    for bad in (radii + "\n" + radii, "RADII 5 5", "RADII 1"):
        with pytest.raises(FormatError, match="RADII") as info:
            PoincareState.from_text(text.replace(radii, bad))
        assert info.value.line == text.splitlines().index(radii) + 1 + (
            bad.count("\n"))
    assert PoincareState.from_text(
        "POINCARE n=1\nbody1 1 0 3 4\nRADII 5\nEND\n").xi == (3.0,)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(min_size=1, max_size=6))
@example("jupiter barycenter")
@example("jupiter#2")
@example("RADII")
@example("END")
@example("ENDS")
@example("\u0663")
def test_a_body_name_the_state_file_cannot_hold_is_refused(name):
    # the name is the first token of a body line of the state file
    bodies, m0 = load_fixture(FIXTURE)
    state_of = functools.partial(PoincareState, Lambda=(1.0,), lam=(0.0,),
                                 xi=(0.0,), eta=(1.0,))
    if (len(name.split()) != 1 or name != name.strip() or "#" in name
            or name in ("RADII", "END")):
        with pytest.raises(ValueError, match="body name"):
            dataclasses.replace(bodies[0], name=name)
        with pytest.raises(ValueError, match="body name"):
            state_of(names=(name,))
        return
    state = poincare_variables([dataclasses.replace(bodies[0], name=name),
                                bodies[1]], m0)
    assert state.names == (name, "saturn")
    assert PoincareState.from_text(state.to_text()) == state
    assert PoincareState.from_text(state_of(names=(name,)).to_text()) \
        == state_of(names=(name,))


def test_an_unnamed_body_reads_back_as_it_was_built():
    # an empty name is body<i> from construction on, as the text writes it
    state = PoincareState(names=("", "saturn", ""), Lambda=(1.0, 2.0, 3.0),
                          lam=(0.0, 0.5, 1.0), xi=(0.1, 0.2, 0.3),
                          eta=(0.4, 0.5, 0.6))
    assert state.names == ("body1", "saturn", "body3")
    assert PoincareState.from_text(state.to_text()) == state
    bodies, m0 = load_fixture(FIXTURE)
    built = poincare_variables(
        [dataclasses.replace(body, name="") for body in bodies], m0)
    assert built.names == ("body1", "body2")
    assert PoincareState.from_text(built.to_text()) == built


@pytest.mark.parametrize("key", ["mass", "semi_major_axis", "eccentricity",
                                 "inclination", "mean_anomaly",
                                 "perihelion_argument", "node_longitude"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_body_parameters_refuse_non_finite_fields(key, value):
    fields = dict(mass=1e-3, semi_major_axis=5.2, eccentricity=0.05,
                  inclination=0.02, mean_anomaly=1.0,
                  perihelion_argument=4.0, node_longitude=1.7)
    fields[key] = value
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        BodyParameters(**fields)


def test_poincare_variables_refuse_what_the_floats_cannot_hold():
    bodies, _ = load_fixture(FIXTURE)
    for m0 in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="central mass"):
            poincare_variables(bodies, m0)
    # Lambda overflows: refused, naming the body
    big = BodyParameters(mass=1e300, semi_major_axis=1e300, eccentricity=0.0,
                         inclination=0.0, mean_anomaly=0.0,
                         perihelion_argument=0.0, node_longitude=0.0,
                         name="big")
    with pytest.raises(ValueError, match="of big leave the floats"):
        poincare_variables([big])
    # a secular radius hypot(xi, eta) past the floats is refused too
    with pytest.raises(ValueError, match="of body1 leave the floats"):
        PoincareState(names=("",), Lambda=(1.0,), lam=(0.0,),
                      xi=(1.5e308,), eta=(1.5e308,))


def test_an_angle_just_below_zero_wraps_to_zero():
    body = BodyParameters(mass=1e-3, semi_major_axis=5.2, eccentricity=0.05,
                          inclination=-1e-300, mean_anomaly=-1e-17,
                          perihelion_argument=-0.0, node_longitude=0.0)
    assert body.inclination == body.mean_anomaly == 0.0
    assert body.perihelion_argument == 0.0
