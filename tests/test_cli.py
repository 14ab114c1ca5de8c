"""End-to-end command runs: artifacts, headers, exit codes."""

import builtins
import collections
import hashlib
import importlib.util
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

import oracles
from bnfstab import spectrum
from bnfstab.birkhoff import NormalFormState, birkhoff_normal_form
from bnfstab.celestial import PoincareState
from bnfstab.cli import main
from bnfstab.errors import FormatError, SmallDivisorError
from bnfstab.polyalg import GradedSeries
from util import (
    PERFBENCH,
    load_perfbench,
    mono,
    one_dof_series,
    two_dof_even_series,
)


def _write_one_dof(path):
    # non-diagonal quadratic part, so the run exercises the linear stage
    h = (mono(1, (2,), (0,), 1.0) + mono(1, (0,), (2,), 4.0)
         + mono(1, (3,), (0,), 0.3))
    path.write_text(GradedSeries.from_polynomial(h, d_max=8).to_text())


def _write_two_dof(path, d_max=10):
    path.write_text(two_dof_even_series(d_max=d_max).to_text())


def test_poincare_from_fixture_to_stdout(capsys):
    assert main(["poincare", "--fixture", "sjs-jd2451220.5"]) == 0
    out = capsys.readouterr().out
    state = PoincareState.from_text(out)
    assert state.num_bodies == 2
    assert out.startswith("# bnfstab poincare")


def test_poincare_from_file(tmp_path, capsys):
    src = tmp_path / "elements.txt"
    assert main(["poincare", "--fixture", "sjs-jd2451220.5",
                 "--out", str(tmp_path / "state.txt")]) == 0
    # reuse the fixture contents as a plain input file
    from bnfstab.celestial import elements_text, load_fixture
    bodies, m0 = load_fixture("sjs-jd2451220.5")
    src.write_text(elements_text(bodies, m0))
    out_path = tmp_path / "state2.txt"
    assert main(["poincare", "--input", str(src),
                 "--out", str(out_path)]) == 0
    state = PoincareState.from_text(out_path.read_text())
    assert state.names == ("jupiter", "saturn")


def test_poincare_refuses_a_name_its_state_file_cannot_hold(tmp_path,
                                                           capsys):
    # a name is one token of a body line, where RADII and END would be
    # read as the RADII line and the end of the record
    from bnfstab.celestial import fixture_path
    text = fixture_path("sjs-jd2451220.5").read_text()
    at = text.splitlines().index("name = jupiter") + 1
    src = tmp_path / "elements.txt"
    out = tmp_path / "state.txt"
    for name in ("jupiter barycenter", "RADII", "END"):
        src.write_text(text.replace("name = jupiter", f"name = {name}"))
        assert main(["poincare", "--input", str(src),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{src}:{at}:" in err and repr(name) in err
        assert not out.exists()


def test_bnf_writes_state_and_certificate(tmp_path, capsys):
    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    out = tmp_path / "nf.txt"
    assert main(["bnf", "--input", str(ham), "--order", "5",
                 "--out", str(out)]) == 0
    text = out.read_text()
    state = NormalFormState.from_text(text)
    assert state.r == 5 and state.num_dof == 1
    assert state.omega[0] == pytest.approx(4.0, rel=1e-12)  # sqrt(2 * 8)

    cert = oracles.read_certificate((tmp_path / "nf.txt.cert").read_text())
    assert cert["certified"] and cert["k_max"] == 7

    digest = hashlib.sha256(ham.read_bytes()).hexdigest()
    header = [l for l in text.splitlines() if l.startswith("#")]
    assert any(digest in l for l in header)
    assert any("order=5" in l for l in header)


def test_estimate_report(tmp_path, capsys):
    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    nf = tmp_path / "nf.txt"
    assert main(["bnf", "--input", str(ham), "--order", "4",
                 "--out", str(nf)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", str(nf), "--rho0", "0.2",
                 "--radii", "0.5"]) == 0
    out = capsys.readouterr().out
    fields = {}
    for line in out.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, vals = line.split(maxsplit=1)
        fields.setdefault(key, vals)
    assert float(fields["rho0"]) == 0.2
    assert float(fields["rho"]) == 0.4
    assert int(fields["r_opt"]) >= 1
    assert float(fields["T"]) > 0
    assert "tau" in fields


@pytest.mark.parametrize("radii, grid", [
    ("2,0.5", "0.05:1:8:log"),
    (None, "0.5:200:8:log"),   # the fixture's secular radii
])
def test_estimate_equals_the_wide_sweep_row(tmp_path, capsys, radii, grid):
    # the seed-1 dense2 system of the benchmark, normalized to order 8
    ham, nf = tmp_path / "system.ham", tmp_path / "nf.txt"
    ham.write_text(load_perfbench("systems").system_text("dense2", 1))
    assert main(["bnf", "--input", str(ham), "--order", "8",
                 "--out", str(nf)]) == 0
    if radii is None:
        pstate = tmp_path / "poincare.txt"
        assert main(["poincare", "--fixture", "sjs-jd2451220.5",
                     "--out", str(pstate)]) == 0
        source = ["--radii-from", str(pstate)]
    else:
        source = ["--radii", radii]
    capsys.readouterr()
    assert main(["sweep", "--input", str(nf), "--grid", grid, "--wide",
                 *source]) == 0
    header, *rows = [line.split(",") for line in
                     capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
    orders = [int(name.removeprefix("tau_r")) for name in header[4:]]
    assert len(rows) == 8
    for rho0, T, log10_T, r_opt, *taus in rows:
        assert main(["estimate", "--input", str(nf), "--rho0", rho0,
                     *source]) == 0
        fields = [line.rsplit(" ", 1) for line in
                  capsys.readouterr().out.splitlines()
                  if not line.startswith("#")]
        # 17 digits on both sides: equal text is equal bits
        assert fields[:3] + fields[4:7] == [
            ["rho0", rho0], ["rho", "%.17g" % (2.0 * float(rho0))],
            ["c_const", "2"], ["T", T], ["log10_T", log10_T],
            ["r_opt", r_opt]]
        assert fields[7:] == [[f"tau r={r}", tau]
                              for r, tau in zip(orders, taus)]


def _dense2_r8(tmp_path):
    """The seed-1 dense2 system of the benchmark normalized to order 8:
    the ledger's path and its lines."""
    ham, nf = tmp_path / "system.ham", tmp_path / "nf.txt"
    ham.write_text(load_perfbench("systems").system_text("dense2", 1))
    assert main(["bnf", "--input", str(ham), "--order", "8",
                 "--out", str(nf)]) == 0
    return nf, nf.read_text().splitlines(keepends=True)


def _estimate_side_runs(nf, capsys):
    """(exit code, stdout body below the # header, stderr) of a wide sweep
    and an estimate of the ledger at nf."""
    runs = []
    for argv in (["sweep", "--grid", "0.05:1:8:log", "--wide"],
                 ["estimate", "--rho0", "0.3"]):
        code = main([*argv, "--input", str(nf), "--radii", "2,0.5"])
        out, err = capsys.readouterr()
        runs.append((code, [line for line in out.splitlines()
                            if not line.startswith("#")], err))
    return runs


def test_estimate_side_reads_no_generator_term(tmp_path, capsys):
    nf, lines = _dense2_r8(tmp_path)
    capsys.readouterr()
    intact = _estimate_side_runs(nf, capsys)
    assert [(code, err) for code, _, err in intact] == [(0, ""), (0, "")]
    at = lines.index("CHI s=3\n") + 2
    *exps, _ = lines[at].split()
    for broken in ([" ".join(exps) + " nan\n"],
                   [" ".join(["x", *exps[1:]]) + " 1\n"],
                   [lines[at], lines[at]]):
        nf.write_text("".join(lines[:at] + broken + lines[at + 1:]))
        # the full read refuses the term line; sweep and estimate never
        # convert it
        with pytest.raises(FormatError):
            NormalFormState.from_text(nf.read_text())
        assert _estimate_side_runs(nf, capsys) == intact


# a CHI header the layout refuses, and the fault it makes
@pytest.mark.parametrize("header, fault", [
    ("CHI s=1", "repeated section CHI s=1"),
    ("CHI s=9", "CHI s=9 outside 1..8"),
    ("CHI s", "malformed section header"),
])
def test_estimate_side_checks_generator_headers(tmp_path, capsys, header,
                                                fault):
    nf, lines = _dense2_r8(tmp_path)
    at = lines.index("CHI s=3\n") + 2
    nf.write_text("".join(lines[:at] + [header + "\n"] + lines[at:]))
    # where CHI s=4 belongs, every such header is out of place
    refusal = f"error: {nf}:{at + 1}: expected CHI s=4, got {header!r}\n"
    with pytest.raises(FormatError) as info:
        NormalFormState.from_text(nf.read_text(), path=str(nf))
    assert f"error: {info.value}\n" == refusal
    capsys.readouterr()
    assert _estimate_side_runs(nf, capsys) == [(2, [], refusal)] * 2


def test_a_ledger_missing_any_one_section_exits_2(tmp_path, capsys):
    # the seed-1 dense2 system at order 6: each Z, CHI and F section in
    # turn, empty or not, is taken out with its term lines
    ham, nf = tmp_path / "system.ham", tmp_path / "nf.txt"
    ham.write_text(load_perfbench("systems").system_text("dense2", 1))
    assert main(["bnf", "--input", str(ham), "--order", "6",
                 "--out", str(nf)]) == 0
    lines = nf.read_text().splitlines(keepends=True)
    heads = [i for i, line in enumerate(lines)
             if line.startswith(("Z s=", "CHI s=", "F s="))]
    ends = [*heads[1:], lines.index("END\n")]
    assert len(heads) == 18
    assert 0 < sum(end == at + 1 for at, end in zip(heads, ends)) < 18

    def refused(text, header):
        nf.write_text(text)
        for argv in (["estimate", "--rho0", "0.2"],
                     ["sweep", "--grid", "0.05:1:8:log"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(nf), "--radii", "1,1"]) == 2
            out, err = capsys.readouterr()
            assert "inf" not in out
            assert (f"expected {header}, got" in err
                    or err.endswith(f": missing {header}\n")), err

    for at, end in zip(heads, ends):
        refused("".join(lines[:at] + lines[end:]), lines[at].strip())
    # every F section gone: refused, not read as T inf
    refused("".join(lines[:lines.index("F s=1\n")] + lines[ends[-1]:]),
            "F s=1")


def test_each_input_is_read_once(tmp_path, monkeypatch):
    # the digest in the # input: header hashes the bytes that were parsed
    nf, _ = _dense2_r8(tmp_path)
    pstate = tmp_path / "poincare.txt"
    assert main(["poincare", "--fixture", "sjs-jd2451220.5",
                 "--out", str(pstate)]) == 0
    reads = collections.Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "r" in mode:
            reads[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["sweep", "--input", str(nf), "--radii-from", str(pstate),
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert reads[nf.resolve()] == reads[pstate.resolve()] == 1
    monkeypatch.undo()
    header = (tmp_path / "sweep.csv").read_text().splitlines()[:4]
    for path in (nf, pstate):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"# input: {path} sha256:{digest}" in header


def test_sweep_with_radii_from_poincare_state(tmp_path, capsys):
    pstate = tmp_path / "poincare.txt"
    assert main(["poincare", "--fixture", "sjs-jd2451220.5",
                 "--out", str(pstate)]) == 0
    ham = tmp_path / "h2.txt"
    _write_two_dof(ham)
    nf = tmp_path / "nf2.txt"
    assert main(["bnf", "--input", str(ham), "--order", "6",
                 "--out", str(nf)]) == 0
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--input", str(nf), "--grid", "0.4:1.2:5:log",
                 "--radii-from", str(pstate), "--wide",
                 "--out", str(csv_path)]) == 0
    lines = [l for l in csv_path.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].startswith("rho0,T,log10_T,r_opt,tau_r")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.4)
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.2)


def test_repeated_or_inconsistent_lines_exit_2(tmp_path, capsys):
    pstate = tmp_path / "poincare.txt"
    assert main(["poincare", "--fixture", "sjs-jd2451220.5",
                 "--out", str(pstate)]) == 0
    ham = tmp_path / "h2.txt"
    _write_two_dof(ham)
    nf = tmp_path / "nf2.txt"
    assert main(["bnf", "--input", str(ham), "--order", "4",
                 "--out", str(nf)]) == 0
    estimate = ["estimate", "--input", str(nf), "--rho0", "0.5",
                "--radii-from", str(pstate), "--out", str(tmp_path / "e")]
    assert main(estimate) == 0
    ledger, state = nf.read_text(), pstate.read_text()
    radii = next(l for l in state.splitlines() if l.startswith("RADII"))
    omega = next(l for l in ledger.splitlines() if l.startswith("OMEGA"))
    first = radii.split()[1]
    for path, text, message in (
            (nf, ledger.replace(omega, omega + "\nOMEGA 5 7"),
             "expected Z s=1, got 'OMEGA 5 7'"),
            (pstate, state.replace(radii, radii + "\n" + radii),
             "repeated RADII"),
            (pstate, state.replace(radii, "RADII 5 5"), "RADII disagrees"),
            # the first radius one float up
            (pstate, state.replace(radii, radii.replace(
                first, format(math.nextafter(float(first), 1.0), ".17g"))),
             "RADII disagrees")):
        assert text != (ledger if path == nf else state)
        path.write_text(text)
        capsys.readouterr()
        assert main(estimate) == 2
        assert message in capsys.readouterr().err
        path.write_text(ledger if path == nf else state)
    assert main(estimate) == 0


def test_repeated_header_field_exits_2(tmp_path, capsys):
    # read with the last value, the header would give a 1-DOF oscillator
    ham = tmp_path / "h.txt"
    ham.write_text("HAM n=2 n=1 dmax=2 field=real\n2 2 0 0.5\n2 0 2 0.5\n")
    assert main(["bnf", "--input", str(ham), "--order", "2",
                 "--out", str(tmp_path / "nf.txt")]) == 2
    assert "repeated HAM header field 'n'" in capsys.readouterr().err


def test_complex_ham_exits_2_at_the_header(tmp_path, capsys):
    # coefficients are real: any field but real is malformed input
    ham = tmp_path / "h.txt"
    ham.write_text("HAM n=1 dmax=2 field=complex\n2 2 0 0.5 0\n2 0 2 0.5 0\n")
    assert main(["bnf", "--input", str(ham), "--order", "2",
                 "--out", str(tmp_path / "nf.txt")]) == 2
    assert f"{ham}:1: field must be real, got 'complex'" in \
        capsys.readouterr().err


def test_sweep_linear_grid_and_default_grid(tmp_path, capsys):
    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    nf = tmp_path / "nf.txt"
    main(["bnf", "--input", str(ham), "--order", "3", "--out", str(nf)])
    capsys.readouterr()
    assert main(["sweep", "--input", str(nf), "--grid", "0.5:1.0:3:lin",
                 "--radii", "1.0"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines()
            if l and not l.startswith("#")]
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.5, 0.75, 1.0]

    assert main(["sweep", "--input", str(nf), "--radii", "1.0"]) == 0
    default = capsys.readouterr().out.splitlines()
    rows = [l for l in default if l and not l.startswith("#")]
    assert len(rows) == 65  # header + default 64-point grid
    # the default is that grid spec, and the header names it
    assert any(l.startswith("# config:") and " grid=0.3:3.0:64:log " in l
               for l in default)
    assert main(["sweep", "--input", str(nf), "--radii", "1.0",
                 "--grid", "0.3:3.0:64:log"]) == 0
    spelled = capsys.readouterr().out.splitlines()
    assert spelled == default
    # an empty spec is a bad grid, not the default
    assert main(["sweep", "--input", str(nf), "--radii", "1.0",
                 "--grid", ""]) == 2


def test_byte_identical_reruns(tmp_path):
    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    outs = []
    for tag in ("a", "b"):
        nf = tmp_path / f"nf_{tag}.txt"
        csv = tmp_path / f"sweep_{tag}.csv"
        assert main(["bnf", "--input", str(ham), "--order", "4",
                     "--out", str(nf)]) == 0
        assert main(["sweep", "--input", str(nf), "--grid", "0.3:2.0:7:log",
                     "--radii", "0.7", "--out", str(csv)]) == 0
        outs.append((nf.read_bytes(), csv.read_bytes(),
                     (tmp_path / f"nf_{tag}.txt.cert").read_bytes()))
    # the config header echoes the out path, which differs by design; strip
    a_nf = b"\n".join(l for l in outs[0][0].splitlines()
                      if not l.startswith(b"#"))
    b_nf = b"\n".join(l for l in outs[1][0].splitlines()
                      if not l.startswith(b"#"))
    assert a_nf == b_nf
    a_csv = b"\n".join(l for l in outs[0][1].splitlines()
                       if not l.startswith(b"#"))
    b_csv = b"\n".join(l for l in outs[1][1].splitlines()
                       if not l.startswith(b"#"))
    assert a_csv == b_csv


def test_exit_code_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("HAM n=1 dmax=4 field=real\n2 2 0 oops\n")
    assert main(["bnf", "--input", str(bad), "--out",
                 str(tmp_path / "o.txt")]) == 2
    assert main(["bnf", "--input", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "o.txt")]) == 2
    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    nf = tmp_path / "nf.txt"
    main(["bnf", "--input", str(ham), "--order", "3", "--out", str(nf)])
    assert main(["sweep", "--input", str(nf), "--grid", "oops",
                 "--radii", "1.0"]) == 2
    assert main(["sweep", "--input", str(nf), "--grid", "1:2:0",
                 "--radii", "1.0"]) == 2
    assert main(["estimate", "--input", str(nf), "--rho0", "0.5",
                 "--radii", "1.0,,2.0"]) == 2
    assert main(["estimate", "--input", str(nf), "--rho0", "0.5",
                 "--radii", "nan"]) == 2
    assert main(["sweep", "--input", str(nf), "--grid", "0.5:inf:4",
                 "--radii", "1.0"]) == 2
    # equal endpoints, a ratio beyond the floats, and endpoints so close
    # that the points between them round to repeats: no increasing grid
    for grid in ("0.5:0.5:3", "1e-300:1e300:3", "1:1.0000000000000002:3"):
        assert main(["sweep", "--input", str(nf), "--grid", grid,
                     "--radii", "1.0"]) == 2
    for bad in ("nan", "inf"):
        assert main(["estimate", "--input", str(nf), "--rho0", bad,
                     "--radii", "1.0"]) == 2
        assert main(["bnf", "--input", str(ham), "--tol", bad,
                     "--out", str(tmp_path / "o.txt")]) == 2
        assert main(["estimate", "--input", str(nf), "--rho0", "0.5",
                     "--radii", "1.0", "--c-const", bad]) == 2
        assert main(["sweep", "--input", str(nf), "--radii", "1.0",
                     "--c-const", bad]) == 2
    nan_ham = tmp_path / "nan.txt"
    nan_ham.write_text("HAM n=1 dmax=4 field=real\n2 2 0 0.5\n2 0 2 0.5\n"
                       "3 3 0 nan\n")
    assert main(["bnf", "--input", str(nan_ham), "--out",
                 str(tmp_path / "o.txt")]) == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"HAM n=1 dmax=4 field=real\n\xff\xfe\n")
    capsys.readouterr()
    assert main(["bnf", "--input", str(binary), "--out",
                 str(tmp_path / "o.txt")]) == 2
    # a path without a line number is followed by a colon and a space
    assert f"error: {binary}: " in capsys.readouterr().err


def test_exit_code_on_resonance(tmp_path, capsys):
    h2 = (mono(2, (2, 0), (0, 0), 0.5) + mono(2, (0, 0), (2, 0), 0.5)
          + mono(2, (0, 2), (0, 0), 0.5) + mono(2, (0, 0), (0, 2), 0.5))
    ham = tmp_path / "res.txt"
    ham.write_text(GradedSeries.from_polynomial(
        h2 + mono(2, (2, 2), (0, 0), 0.1), d_max=6).to_text())
    out = tmp_path / "nf.txt"
    assert main(["bnf", "--input", str(ham), "--order", "4",
                 "--out", str(out)]) == 3
    cert_text = (tmp_path / "nf.txt.cert").read_text()
    cert = oracles.read_certificate(cert_text)
    assert not cert["certified"]
    assert cert["min_divisor"] == 0.0
    assert not out.exists()
    assert "error:" in capsys.readouterr().err
    # a zero tolerance would certify the exact resonance: refused before
    # the divisor scan, so no certificate is written
    out0 = tmp_path / "nf0.txt"
    assert main(["bnf", "--input", str(ham), "--order", "4", "--tol", "0",
                 "--out", str(out0)]) == 4
    assert not (tmp_path / "nf0.txt.cert").exists()
    assert not out0.exists()


@pytest.mark.parametrize("system, order, divisor, k", [
    ("dense2", 8, 0.17157287525381015, (2, -3)),
    ("dense3", 5, 0.046488264412653635, (3, -3, -1)),
])
def test_certificate_and_normalizer_agree_at_the_tolerance(
        tmp_path, capsys, system, order, divisor, k):
    # bnf has no small-divisor branch after the certificate: at a tol of
    # the smallest divisor both pass, and one float above it the
    # certificate refuses the run before the solve would
    ham = tmp_path / "system.ham"
    ham.write_text(load_perfbench("systems").system_text(system, 1))
    above = math.nextafter(divisor, math.inf)
    for tol, code in ((divisor, 0), (above, 3)):
        out = tmp_path / f"nf-{code}.txt"
        assert main(["bnf", "--input", str(ham), "--order", str(order),
                     "--tol", repr(tol), "--out", str(out)]) == code
        cert = oracles.read_certificate(
            (tmp_path / f"nf-{code}.txt.cert").read_text())
        assert cert["min_divisor"] == divisor
        assert cert["argmin_k"] == k
        assert cert["certified"] == (code == 0)
        assert out.exists() == (code == 0)
    capsys.readouterr()
    # the normalizer alone, at the tol the certificate refused, stops at
    # the same vector with the same divisor, up to its sign
    series = GradedSeries.from_text(ham.read_text())
    omega, smap = spectrum.diagonalize_quadratic(series.component(2))
    diagonal = smap.pushforward(series.truncate(order + 2))
    with pytest.raises(SmallDivisorError) as info:
        birkhoff_normal_form(diagonal, omega, order, tol=above)
    assert info.value.k == k
    assert abs(info.value.divisor) == divisor


def test_exit_code_on_domain_errors(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(GradedSeries.from_polynomial(
        mono(1, (2,), (0,), 0.5) + mono(1, (0,), (2,), -0.5)
        + mono(1, (3,), (0,), 0.1), d_max=5).to_text())
    assert main(["bnf", "--input", str(hyp),
                 "--out", str(tmp_path / "o.txt")]) == 4

    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    nf = tmp_path / "nf.txt"
    main(["bnf", "--input", str(ham), "--order", "3", "--out", str(nf)])
    assert main(["estimate", "--input", str(nf), "--rho0", "-1.0",
                 "--radii", "1.0"]) == 4
    assert main(["estimate", "--input", str(nf), "--rho0", "0.5",
                 "--radii", "1.0,2.0"]) == 4  # wrong number of radii
    # exponents above 255 do not fit the packed monomial keys: refused
    # before any normalization work
    start = time.perf_counter()
    assert main(["bnf", "--input", str(ham), "--order", "300",
                 "--out", str(tmp_path / "o300.txt")]) == 4
    assert time.perf_counter() - start < 1.0
    assert main(["estimate", "--input", str(nf), "--rho0", "0.5",
                 "--radii", "1.0", "--c-const", "0.5"]) == 4
    # a coefficient that overflows in the Lie series is refused, not pruned
    big = tmp_path / "big.txt"
    big.write_text("HAM n=1 dmax=8 field=real\n2 2 0 0.5\n2 0 2 0.5\n"
                   "3 3 0 1e200\n")
    assert main(["bnf", "--input", str(big), "--order", "6",
                 "--out", str(tmp_path / "big_nf.txt")]) == 4
    # a norm or an escape time beyond the float range names its cause; a
    # norm that underflows to 0 would read as no drift and T = inf
    nf2 = tmp_path / "nf2.txt"
    _write_two_dof(tmp_path / "h2.txt")
    main(["bnf", "--input", str(tmp_path / "h2.txt"), "--order", "4",
          "--out", str(nf2)])
    capsys.readouterr()
    for argv, cause in ((["estimate", "--rho0", "0.5",
                          "--radii", "1e200,1e200"], "radii"),
                        (["estimate", "--rho0", "0.5",
                          "--radii", "1e-300,1e-300"], "radii"),
                        (["estimate", "--rho0", "1e-300",
                          "--radii", "1,1"], "rho0"),
                        (["estimate", "--rho0", "1e300",
                          "--radii", "1,1"], "rho0"),
                        (["sweep", "--grid", "1e-300:1e-290:3",
                          "--radii", "1,1"], "rho0")):
        assert main([argv[0], "--input", str(nf2), *argv[1:]]) == 4
        assert cause in capsys.readouterr().err


def test_argparse_rejects_conflicting_sources(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["poincare", "--fixture", "sjs-jd2451220.5",
              "--input", "x.txt"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--input", "nf.txt", "--rho0", "1.0"])
    assert info.value.code == 2  # radii source is mandatory


def test_headers_have_no_timestamps(tmp_path):
    import re

    ham = tmp_path / "h.txt"
    _write_one_dof(ham)
    nf = tmp_path / "nf.txt"
    main(["bnf", "--input", str(ham), "--order", "3", "--out", str(nf)])
    header = [l for l in nf.read_text().splitlines() if l.startswith("#")]
    joined = " ".join(header)
    assert not re.search(r"\d{4}-\d{2}-\d{2}", joined)  # no dates
    assert not re.search(r"\d{2}:\d{2}:\d{2}", joined)  # no clock times


def test_benchmark_quick_workloads_match_reference(tmp_path, monkeypatch):
    # the benchmark's answer check at seed 1, so a change of its results
    # fails here before any benchmark run
    import bnfstab.cli

    monkeypatch.setitem(sys.modules, "systems", load_perfbench("systems"))
    workloads = load_perfbench("workloads")
    refs = json.loads((PERFBENCH / "reference.json").read_text())

    def body_rows(path):
        return [line for line in Path(path).read_text().splitlines()
                if not line.startswith("#")]

    def close(got, want):
        return abs(got - want) <= 1e-9 * abs(want)

    for name, workload in workloads.QUICK.items():
        ref = refs[f"quick/{name}"]["1"]
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        workloads.set_up_here(bnfstab.cli, workload, 1)
        for step, argv in workload.op_calls():
            assert main(argv) == 0, (name, step)
        rows = [r.split(",") for r in body_rows(workloads.SWEEP)[1:]]
        assert [int(r[3]) for r in rows] == ref["r_opt"], name
        log10_t = [float(r[2]) for r in rows]
        assert len(log10_t) == len(ref["log10_T"]), name
        assert all(map(close, log10_t, ref["log10_T"])), name
        if "estimate" in ref:
            fields = dict(r.split(" ", 1)
                          for r in body_rows(workloads.ESTIMATE))
            r_want, t_want = ref["estimate"]
            assert int(fields["r_opt"]) == r_want, name
            assert close(float(fields["log10_T"]), t_want), name


def test_benchmark_tracer_finds_and_restores_every_target():
    # the benchmark's per-layer spans wrap these attributes by name, so a
    # rename or move in the package must show up here, not as a silently
    # missing metric
    import bnfstab

    source = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", source)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def owner(module, attr_path):
        obj = getattr(bnfstab, module)
        return getattr(obj, attr_path) if attr_path else obj

    targets = {name: (owner(module, path), attr)
               for name, (module, path, attr, _) in spans.TARGETS.items()}
    originals = {name: vars(obj)[attr]
                 for name, (obj, attr) in targets.items()}
    tracer = spans.Tracer()
    tracer.install(bnfstab)
    try:
        for name, (obj, attr) in targets.items():
            assert vars(obj)[attr] is not originals[name], name
    finally:
        tracer.uninstall()
    for name, (obj, attr) in targets.items():
        assert vars(obj)[attr] is originals[name], name


def _quick_even2_bnf(tmp_path, monkeypatch):
    """Set up the benchmark's quick even2 workload in tmp_path and return
    its bnf argument vector and ledger path."""
    import bnfstab.cli

    monkeypatch.setitem(sys.modules, "systems", load_perfbench("systems"))
    workloads = load_perfbench("workloads")
    workload = workloads.QUICK["even2-r18"]
    monkeypatch.chdir(tmp_path)
    workloads.set_up_here(bnfstab.cli, workload, 1)
    (step, argv), *_ = workload.op_calls()
    assert step == "bnf"
    return argv, tmp_path / workloads.LEDGER


def test_chart_change_cache_does_not_change_the_ledger(tmp_path, monkeypatch):
    from bnfstab import polyalg

    argv, ledger = _quick_even2_bnf(tmp_path, monkeypatch)
    bodies = []
    for clear in (True, False):
        if clear:
            polyalg._mode_table.cache_clear()
        assert main(argv) == 0
        bodies.append([line for line in ledger.read_bytes().splitlines()
                       if not line.startswith(b"#")])
    assert polyalg._mode_table.cache_info().hits > 0
    assert bodies[0] == bodies[1]


def test_chart_changes_bypass_the_general_substitution(tmp_path, monkeypatch):
    # the chart changes one mode at a time; linear_substitute, the general
    # expansion, serves only pushforward's matrix
    from bnfstab import polyalg, spectrum

    argv, _ = _quick_even2_bnf(tmp_path, monkeypatch)
    calls = {"realify": 0, "complexify": 0, "linear_substitute": 0}
    inside_pushforward = []
    inside_substitute = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name != "linear_substitute":
                return func(*args, **kwargs)
            assert inside_pushforward, "chart change through " + name
            inside_substitute.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                inside_substitute.pop()
        return wrapper

    for name in calls:
        monkeypatch.setattr(polyalg, name,
                            counted(name, getattr(polyalg, name)))
    products = polyalg._products

    def kernel(*args):
        assert not inside_substitute, "product kernel in linear_substitute"
        return products(*args)

    monkeypatch.setattr(polyalg, "_products", kernel)
    pushforward = spectrum.LinearSymplecticMap.pushforward

    def tracked(self, f):
        inside_pushforward.append(f)
        try:
            return pushforward(self, f)
        finally:
            inside_pushforward.pop()

    monkeypatch.setattr(spectrum.LinearSymplecticMap, "pushforward", tracked)
    assert main(argv) == 0
    # the map of this diagonal input only permutes the variables: the
    # pushforwards of the quadratic part and of the series each substitute
    # once, relabeling the exponent columns without the product kernel; the
    # blocks stay real, and each order changes its block into the chart and
    # its generator and action part back on one layout, without the block
    # functions complexify and realify
    assert calls == {"realify": 0, "complexify": 0, "linear_substitute": 2}


def test_poincare_exits_4_when_the_variables_leave_the_floats(tmp_path,
                                                               capsys):
    # Lambda = mu sqrt((m0 + m) a) overflows: no state file is written,
    # and the message names the body
    elements = tmp_path / "elements.txt"
    elements.write_text(
        "m0 = 39.47841760435743\n\n[body]\nname = big\nmass = 1e300\n"
        "semi_major_axis = 1e300\neccentricity = 0\ninclination = 0\n"
        "mean_anomaly = 0\nperihelion_argument = 0\nnode_longitude = 0\n")
    state = tmp_path / "state.txt"
    capsys.readouterr()
    assert main(["poincare", "--input", str(elements),
                 "--out", str(state)]) == 4
    assert "big" in capsys.readouterr().err
    assert not state.exists()


def test_a_dimension_no_array_holds_exits_2_at_the_header(tmp_path, capsys):
    # no term line to fault: the header itself is refused
    ham = tmp_path / "h.txt"
    ham.write_text("HAM n=100000000000000000000 dmax=4 field=real\n")
    ledger = tmp_path / "nf.txt"
    ledger.write_text("NFSTATE n=100000000000000000000 r=1 rmax=1\n"
                      "CHI s=1\nEND\n")
    capsys.readouterr()
    assert main(["bnf", "--input", str(ham), "--order", "2",
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert f"{ham}:1: n=" in capsys.readouterr().err
    assert main(["sweep", "--input", str(ledger), "--radii", "1"]) == 2
    assert f"{ledger}:1: n=" in capsys.readouterr().err


def test_every_kernel_call_carries_integer_segments(tmp_path, monkeypatch):
    # the product kernel has one calling convention: every pair's segment
    # is an integer array, one entry a row of its left block
    import numpy as np

    from bnfstab import polyalg
    from bnfstab.spectrum import diagonalize_quadratic
    from util import random_polynomial

    argv, _ = _quick_even2_bnf(tmp_path, monkeypatch)
    products = polyalg._products
    pairs_seen = []

    def checked(pairs, degrees, width):
        for a, _, seg in pairs:
            assert isinstance(seg, np.ndarray)
            assert seg.dtype.kind == "i" and seg.shape == a[1].shape
        pairs_seen.append(len(pairs))
        return products(pairs, degrees, width)

    monkeypatch.setattr(polyalg, "_products", checked)
    assert main(argv) == 0
    assert pairs_seen
    rng = np.random.default_rng(7)
    f = random_polynomial(rng, 2, 3, num_terms=8) + random_polynomial(
        rng, 2, 5, num_terms=8)
    g = random_polynomial(rng, 2, 2, num_terms=6) + random_polynomial(
        rng, 2, 4, num_terms=6)
    for call in (lambda: f * g, lambda: polyalg.poisson_bracket(f, g)):
        pairs_seen.clear()
        call()
        assert pairs_seen
    # a coupled map expands its powers through the kernel
    h2 = (mono(2, (2, 0), (0, 0), 1.0) + mono(2, (0, 0), (2, 0), 1.0)
          + mono(2, (0, 2), (0, 0), 2.0) + mono(2, (0, 0), (0, 2), 2.0)
          + mono(2, (1, 1), (0, 0), 0.3))
    _, smap = diagonalize_quadratic(h2)
    pairs_seen.clear()
    polyalg.linear_substitute(f, smap.matrix.tolist())
    assert pairs_seen
