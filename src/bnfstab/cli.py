"""Command line front end.

Four subcommands chain file-based artifacts so the expensive normalization
runs once:

    bnfstab poincare --input elements.txt --out state.txt
    bnfstab bnf --input hamiltonian.txt --order 18 --out nf.txt
    bnfstab estimate --input nf.txt --rho0 1.0 --radii 0.05,0.04
    bnfstab sweep --input nf.txt --radii-from state.txt --out sweep.csv

Every output begins with comment headers recording the resolved run
configuration and a digest of each input, and contains nothing
nondeterministic: identical invocations produce byte-identical files.

Exit codes: 0 success, 2 malformed input or arguments, 3 resonance (the
failed nonresonance certificate is still written, the ledger is not), 4
domain errors (non-elliptic input, degenerate radii, bad ranges, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
from pathlib import Path

from . import __version__
from . import birkhoff, celestial, spectrum, stability
from ._records import finite_floats, number
from .errors import Error, FormatError, ResonanceError
from .polyalg import GradedSeries

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESONANCE = 3
EXIT_DOMAIN = 4

# the exit code of an error is that of its first matching row
_EXIT_CODES = (
    (ResonanceError, EXIT_RESONANCE),
    ((FormatError, OSError), EXIT_INPUT),
    ((Error, ValueError), EXIT_DOMAIN),
)


def _read(path):
    """The text of the file at path and (path, sha256 of its bytes), for
    _provenance, from one read: the bytes are decoded as open() decodes a
    text file, in the locale encoding with universal newlines."""
    data = Path(path).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not a text file: {exc}", path=path) from None
    return text, (path, hashlib.sha256(data).hexdigest())


def _value_text(v):
    if isinstance(v, float):
        return number(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_value_text(x) for x in v)
    return str(v)


def _provenance(command, config, inputs):
    """Comment header lines: resolved config plus the (path, digest) of
    each input, as _read gives them."""
    lines = [f"# bnfstab {command} (version {__version__})"]
    cfg = " ".join(f"{k}={_value_text(v)}" for k, v in config)
    lines.append(f"# config: {cfg}")
    for path, digest in inputs:
        lines.append(f"# input: {path} sha256:{digest}")
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_radii(arg):
    return tuple(finite_floats(arg.split(","), f"radii list {arg!r}"))


def _parse_grid(arg):
    parts = arg.split(":")
    if len(parts) not in (3, 4):
        raise FormatError(
            f"grid must be min:max:points[:log|:lin], got {arg!r}")
    lo, hi = finite_floats(parts[:2], f"grid range {arg!r}")
    try:
        points = int(parts[2])
    except ValueError:
        raise FormatError(f"bad grid spec {arg!r}") from None
    spacing = parts[3] if len(parts) == 4 else "log"
    if spacing not in ("log", "lin"):
        raise FormatError(f"grid spacing must be log or lin, got {spacing!r}")
    if points < 1 or lo <= 0.0 or hi < lo:
        raise FormatError(f"bad grid range {arg!r}")
    if points == 1:
        return (lo,)
    if spacing == "log":
        ratio = hi / lo
        if ratio == math.inf:
            raise FormatError(f"grid range {arg!r} has no finite ratio")
        grid = tuple(lo * ratio ** (i / (points - 1)) for i in range(points))
    else:
        step = (hi - lo) / (points - 1)
        grid = tuple(lo + step * i for i in range(points))
    # endpoints too close for the points between them round to repeats
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise FormatError(f"grid {arg!r} is not strictly increasing")
    return grid


def _resolve_radii(args):
    """The radii and the inputs they were read from."""
    if args.radii is not None:
        return _parse_radii(args.radii), []
    text, source = _read(args.radii_from)
    state = celestial.PoincareState.from_text(text, path=args.radii_from)
    return celestial.secular_radii(state), [source]


# -- subcommands ---------------------------------------------------------------

def cmd_poincare(args):
    if args.fixture is not None:
        path = str(celestial.fixture_path(args.fixture))
    else:
        path = args.input
    text, source = _read(path)
    bodies, m0 = celestial.parse_elements(text, path=path)
    state = celestial.poincare_variables(bodies, m0)
    config = [("input", path), ("out", args.out or "-")]
    if args.fixture is not None:
        config.insert(0, ("fixture", args.fixture))
    header = _provenance("poincare", config, [source])
    _emit(header + state.to_text(), args.out)
    return EXIT_OK


def cmd_bnf(args):
    if args.tol is not None:
        finite_floats([args.tol], "--tol")
    text, source = _read(args.input)
    series = GradedSeries.from_text(text, path=args.input)
    omega, smap = spectrum.diagonalize_quadratic(series.component(2))
    birkhoff._check_r_max(args.order)  # before the costly divisor scan
    k_max = args.order + 2
    config = [("input", args.input), ("order", args.order),
              ("tol", "auto" if args.tol is None else args.tol),
              ("kmax", k_max), ("out", args.out)]
    header = _provenance("bnf", config, [source])
    cert_path = args.out + ".cert"

    try:
        cert = spectrum.check_nonresonance(omega, k_max, tol=args.tol)
    except ResonanceError as exc:
        _emit(header + exc.certificate.to_text(), cert_path)
        print(f"error: {exc}", file=sys.stderr)
        print(f"wrote certificate {cert_path}", file=sys.stderr)
        return EXIT_RESONANCE
    _emit(header + cert.to_text(), cert_path)

    # the certificate bounds every divisor the solve meets: the chart's
    # k - j has |k - j|_1 <= k_max, and the same sum, up to sign, is
    # scanned under the same tol, so no SmallDivisorError follows
    diagonal = smap.pushforward(series.truncate(args.order + 2))
    state = birkhoff.birkhoff_normal_form(diagonal, omega, args.order,
                                          tol=args.tol)
    _emit(header + state.to_text(), args.out)
    print(f"wrote {args.out} (r={state.r}) and {cert_path}")
    return EXIT_OK


def _load_state(path):
    """The ledger at path, read without its generators, which no estimate
    uses (their sections are checked by header only), and its (path,
    digest) for _provenance."""
    text, source = _read(path)
    return (birkhoff.NormalFormState.from_text(text, path=path,
                                               generators=False), source)


def cmd_estimate(args):
    finite_floats([args.rho0], "--rho0")
    finite_floats([args.c_const], "--c-const")
    state, source = _load_state(args.input)
    radii, sources = _resolve_radii(args)
    result = stability.sweep(state, (args.rho0,), radii, c_const=args.c_const)
    inputs = [source, *sources]
    config = [("input", args.input), ("rho0", args.rho0),
              ("c_const", args.c_const), ("radii", radii),
              ("out", args.out or "-")]
    rho0, T = float(result.rho0[0]), float(result.T[0])
    lines = [
        "rho0 " + _value_text(rho0),
        "rho " + _value_text(2.0 * rho0),
        "c_const " + _value_text(result.c_const),
        "radii " + " ".join(_value_text(R) for R in result.radii),
        "T " + _value_text(T),
        "log10_T " + _value_text(math.log10(T)),
        "r_opt " + str(int(result.r_opt[0])),
    ]
    for r, tau in zip(result.orders, result.tau[:, 0].tolist()):
        lines.append(f"tau r={r} " + _value_text(tau))
    header = _provenance("estimate", config, inputs)
    _emit(header + "\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args):
    finite_floats([args.c_const], "--c-const")
    state, source = _load_state(args.input)
    radii, sources = _resolve_radii(args)
    grid = _parse_grid(args.grid)
    reports = stability.sweep(state, grid, radii, c_const=args.c_const)
    csv = stability.sweep_csv(reports, wide=args.wide)
    inputs = [source, *sources]
    config = [("input", args.input), ("grid", args.grid),
              ("c_const", args.c_const), ("radii", radii),
              ("wide", args.wide), ("out", args.out or "-")]
    header = _provenance("sweep", config, inputs)
    _emit(header + csv, args.out)
    return EXIT_OK


# -- argument plumbing ----------------------------------------------------------

def _add_radii_options(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--radii", help="comma-separated polydisc radii")
    group.add_argument("--radii-from", metavar="STATE-FILE",
                       help="derive radii from a Poincare state file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bnfstab",
        description="Birkhoff normal forms and effective stability times "
                    "for polynomial Hamiltonians near an elliptic "
                    "equilibrium.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "poincare",
        help="convert orbital elements to Poincare variables and radii")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="element file (m0 plus [body] sections)")
    src.add_argument("--fixture", choices=sorted(celestial.FIXTURES),
                     help="use a packaged element fixture")
    p.add_argument("--out", help="output state file (default stdout)")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser(
        "bnf",
        help="diagonalize, certify nonresonance, and normalize a "
             "Hamiltonian file")
    p.add_argument("--input", required=True, help="Hamiltonian (HAM) file")
    p.add_argument("--order", type=int, default=18,
                   help="normalization order (default 18)")
    p.add_argument("--tol", type=float, default=None,
                   help="small-divisor tolerance (default: scaled to the "
                        "frequencies)")
    p.add_argument("--out", required=True,
                   help="ledger output path; the nonresonance certificate "
                        "goes to <out>.cert")
    p.set_defaults(func=cmd_bnf)

    p = sub.add_parser(
        "estimate", help="stability time at a single starting radius")
    p.add_argument("--input", required=True, help="ledger (NFSTATE) file")
    p.add_argument("--rho0", type=float, required=True,
                   help="starting polydisc scale")
    p.add_argument("--c-const", type=float, default=stability.DEFAULT_C,
                   help="safety constant in the drift bound (default 2)")
    _add_radii_options(p)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "sweep", help="stability times across a grid of starting radii")
    p.add_argument("--input", required=True, help="ledger (NFSTATE) file")
    p.add_argument("--grid", metavar="MIN:MAX:POINTS[:log|:lin]",
                   default="0.3:3.0:64:log",
                   help="rho0 grid (default %(default)s)")
    p.add_argument("--c-const", type=float, default=stability.DEFAULT_C,
                   help="safety constant in the drift bound (default 2)")
    _add_radii_options(p)
    p.add_argument("--wide", action="store_true",
                   help="include one tau column per order")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
