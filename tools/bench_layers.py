"""Time `bnf`, the Poisson bracket, the pushforward, the read side and the
write side on fixed inputs, for a BENCH_*.json.

    python3 tools/bench_layers.py --src parent=../parent/src --src change=src \
        --out BENCH_realchain.json

Each --src LABEL=DIR names a bnfstab source tree (the directory holding
the `bnfstab` package) whose `polyalg.complexify` and `realify` take and
return blocks.  Each of ROUNDS rounds runs one fresh interpreter
per tree, in alternating order, so that a drift in host speed falls on
both sides.
An interpreter times:

- the `bnf` command on the fixed systems of the ROADMAP's north star,
  built by perfbench/systems.py with seed 1: 2-DOF even at order 18, 2-DOF
  dense at order 14 and 3-DOF dense at order 10; on 3-DOF dense at order
  7, the `bnf` of the benchmark's dense3-r7 workload; and on a 4-DOF
  dense system at orders 8 and 10 (dense4-r8, dense4-r10): the
  oscillator of DENSE4_OMEGA plus a random cubic and then a random
  quartic block of 40 terms each, scale 0.3^(d-2), drawn by
  tests/util.random_polynomial from numpy.random.default_rng(1), as
  perfbench/systems.py draws dense3; bnf_s is the first call on each
  system, which carries the interpreter's one-time set-up, and
  bnf_warm_s the median of READ_REPEATS more calls after it;
- the bracket alone on full blocks (tests/util.full_block: every
  monomial of the degree, seeded coefficients): 3 DOF degree 9 by degree
  9 (3dof-9x9-real), the shape of the normalization's chains, and 4 DOF
  degree 7 by degree 7 (4dof-7x7-real), whose output splits by its
  leading fields, each with the tracemalloc peak of one more, untimed
  call;
- `LinearSymplecticMap.pushforward` of each fixed system's series
  truncated at degree order + 2, by the map `diagonalize_quadratic` finds
  for its quadratic part, as `bnf` does;
- the read side, as the median of READ_REPEATS calls each:
  `NormalFormState.from_text` of the dense2-r14 and dense3-r10 ledgers
  that `bnf` wrote, and of the dense2-r14 ledger with one comment line
  inserted in its body (dense2-r14-comment), which is not plain, so
  that its body is built from its content lines (read_ledger_s), and
  `cli._load_state` of each from its file, the read `sweep` and
  `estimate` make (load_state_s), with
  the tracemalloc peak of one more, untimed read of dense3-r10 by
  `from_text` (read_peak_mib); on dense2-r14, the
  drift bounds of every order at the Sun-Jupiter-Saturn radii of the
  packaged fixture, by the one call `stability.sweep` makes
  (`_per_order_bounds`, drift_bounds_s), and `stability.sweep` over the
  1 024-point grid 0.3:3.0:1024:log at those radii, its drift bounds
  computed beforehand (sweep_grid_s); and the `estimate` command in
  process on that ledger at rho0 ESTIMATE_RHO0, its radii read from the
  fixture's state file (estimate_s);
- the write side on the dense3-r10 ledger that its `bnf` wrote, as the
  median of READ_REPEATS calls each: `polyalg.complexify` of the block of
  every CHI and F entry of the ledger (complexify_s), and `polyalg.realify`
  of each of those blocks changed into the chart by `polyalg.complexify`
  once beforehand (realify_s),
  and `NormalFormState.to_text` (to_text_s);
- `spectrum.check_nonresonance` at the frequencies `diagonalize_quadratic`
  finds for each fixed system, at the k_max = order + 2 its `bnf` scans,
  and at DENSE4_OMEGA with k_max 20 (dense4-k20): cold, once each before
  any `bnf` runs in the interpreter, with every cache of `spectrum`
  cleared before each call (nonresonance_cold_s), and warm, as the median
  of READ_REPEATS calls after the `bnf` runs (nonresonance_warm_s).

The output holds every run and the median per input and tree.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 5
READ_REPEATS = 5
READ_LEDGERS = ("dense2-r14", "dense3-r10")
# (name, ledger of READ_LEDGERS, the line after which a comment goes)
COMMENTED = ("dense2-r14-comment", "dense2-r14", "F s=1")
PEAK_LEDGER = "dense3-r10"
WRITE_LEDGER = "dense3-r10"
SWEEP_GRID = "0.3:3.0:1024:log"
ESTIMATE_RHO0 = "0.5"
FIXTURE = "sjs-jd2451220.5"
DENSE4_OMEGA = (1.0, 2.0 ** 0.5, 3.0 ** 0.5, 5.0 ** 0.5)
# (name, system, bnf --order); dense4 is built here, the rest by
# perfbench/systems.py
SYSTEMS = (("even2-r18", "even2", 18), ("dense2-r14", "dense2", 14),
           ("dense3-r7", "dense3", 7), ("dense3-r10", "dense3", 10),
           ("dense4-r8", "dense4", 8), ("dense4-r10", "dense4", 10))
# (name, frequencies, k_max) of a divisor scan beyond the fixed systems'
NONRES = (("dense4-k20", DENSE4_OMEGA, 20),)
# (name, DOF, degree of f, degree of g)
BRACKETS = (("3dof-9x9-real", 3, 9, 9), ("4dof-7x7-real", 4, 7, 7))


def measure(src):
    """One run of every input against the bnfstab under src, as a dict."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(Path(src).resolve()))
    import systems
    from bnfstab import birkhoff, celestial, cli, polyalg, spectrum, stability
    from util import full_block, random_polynomial

    def system_text(system):
        if system != "dense4":
            return systems.system_text(system, 1)
        rng = np.random.default_rng(1)
        h = polyalg.oscillator(DENSE4_OMEGA)
        for degree in (3, 4):
            h = h + random_polynomial(rng, 4, degree, num_terms=40,
                                      scale=0.3 ** (degree - 2))
        return polyalg.GradedSeries.from_polynomial(h, d_max=4).to_text()

    out = {"bnf_s": {}, "bnf_warm_s": {}, "bracket_s": {},
           "bracket_peak_mib": {}, "pushforward_s": {}}
    texts = {name: system_text(system) for name, system, _ in SYSTEMS}
    series = {name: polyalg.GradedSeries.from_text(text)
              for name, text in texts.items()}
    diagonal = {name: spectrum.diagonalize_quadratic(s.component(2))
                for name, s in series.items()}
    scans = [(name, diagonal[name][0], order + 2)
             for name, _, order in SYSTEMS] + list(NONRES)
    out["nonresonance_cold_s"] = divisor_scans(scans, spectrum, cold=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, system, order in SYSTEMS:
            ham = Path(tmp) / f"{name}.ham"
            ham.write_text(texts[name])
            smap = diagonal[name][1]
            truncated = series[name].truncate(order + 2)
            start = time.perf_counter()
            smap.pushforward(truncated)
            out["pushforward_s"][name] = time.perf_counter() - start
            argv = ["bnf", "--input", str(ham), "--order", str(order),
                    "--out", str(Path(tmp) / f"{name}.nf")]
            start = time.perf_counter()
            if cli.main(argv) != 0:
                raise SystemExit(f"bnf failed on {name}")
            out["bnf_s"][name] = time.perf_counter() - start
            runs = []
            for _ in range(READ_REPEATS):
                start = time.perf_counter()
                cli.main(argv)
                runs.append(time.perf_counter() - start)
            out["bnf_warm_s"][name] = statistics.median(runs)
        ledgers = {name: (Path(tmp) / f"{name}.nf").read_text()
                   for name in READ_LEDGERS}
        commented, source, after = COMMENTED
        ledgers[commented] = ledgers[source].replace(
            f"\n{after}\n", f"\n{after}\n# a comment\n", 1)
        written = (Path(tmp) / f"{WRITE_LEDGER}.nf").read_text()
    out.update(read_side(ledgers, birkhoff, celestial, cli, stability))
    out["write_s"] = write_side(written, birkhoff, polyalg)
    out["nonresonance_warm_s"] = divisor_scans(scans, spectrum, cold=False)
    rng = np.random.default_rng(1)
    for name, n, p, q in BRACKETS:
        f, g = full_block(rng, n, p), full_block(rng, n, q)
        start = time.perf_counter()
        polyalg.poisson_bracket(f, g)
        out["bracket_s"][name] = time.perf_counter() - start
        tracemalloc.start()
        polyalg.poisson_bracket(f, g)
        out["bracket_peak_mib"][name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    return out


def read_side(ledgers, birkhoff, celestial, cli, stability):
    """Medians of READ_REPEATS timed reads of each ledger, from its text and
    from its file as the commands read it, the tracemalloc peak of one
    read of PEAK_LEDGER, and, on the first ledger, medians of
    the drift bounds of its every order, of the sweep over SWEEP_GRID
    with those bounds given, and of the estimate command."""
    bodies, m0 = celestial.load_fixture(FIXTURE)
    pstate = celestial.poincare_variables(bodies, m0)
    radii = celestial.secular_radii(pstate)
    name = READ_LEDGERS[0]
    out = {"read_ledger_s": {}, "load_state_s": {}, "read_peak_mib": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for ledger, text in ledgers.items():
            path = Path(tmp) / f"{ledger}.nf"
            path.write_text(text)
            calls = {
                "read_ledger_s": lambda: birkhoff.NormalFormState.from_text(
                    text),
                "load_state_s": lambda: cli._load_state(str(path)),
            }
            for metric, call in calls.items():
                runs = []
                for _ in range(READ_REPEATS):
                    start = time.perf_counter()
                    call()
                    runs.append(time.perf_counter() - start)
                out[metric][ledger] = statistics.median(runs)
    tracemalloc.start()
    birkhoff.NormalFormState.from_text(ledgers[PEAK_LEDGER])
    out["read_peak_mib"][PEAK_LEDGER] = (tracemalloc.get_traced_memory()[1]
                                         / 2 ** 20)
    tracemalloc.stop()

    state = birkhoff.NormalFormState.from_text(ledgers[name])
    per_order = stability._per_order_bounds
    runs = {"drift_bounds_s": [], "sweep_grid_s": [], "estimate_s": []}
    for _ in range(READ_REPEATS):
        start = time.perf_counter()
        bounds = per_order(state, radii, stability.DEFAULT_C)
        runs["drift_bounds_s"].append(time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as tmp:
        ledger, state_file = Path(tmp) / "nf.txt", Path(tmp) / "state.txt"
        ledger.write_text(ledgers[name])
        state_file.write_text(pstate.to_text())
        argv = ["estimate", "--input", str(ledger), "--rho0", ESTIMATE_RHO0,
                "--radii-from", str(state_file),
                "--out", str(Path(tmp) / "estimate.txt")]
        for _ in range(READ_REPEATS):
            start = time.perf_counter()
            if cli.main(argv) != 0:
                raise SystemExit(f"estimate failed on {name}")
            runs["estimate_s"].append(time.perf_counter() - start)

    grid = cli._parse_grid(SWEEP_GRID)
    stability._per_order_bounds = lambda *args: bounds
    try:
        for _ in range(READ_REPEATS):
            start = time.perf_counter()
            stability.sweep(state, grid, radii)
            runs["sweep_grid_s"].append(time.perf_counter() - start)
    finally:
        stability._per_order_bounds = per_order
    out.update((metric, {name: statistics.median(v)})
               for metric, v in runs.items())
    return out


def divisor_scans(scans, spectrum, cold):
    """The time of one check_nonresonance call of each (name, omega, k_max)
    of scans with every cache of spectrum cleared before it, when cold, or
    else the median of READ_REPEATS calls."""
    out = {}
    for name, omega, k_max in scans:
        runs = []
        for _ in range(1 if cold else READ_REPEATS):
            if cold:
                for f in vars(spectrum).values():
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()
            start = time.perf_counter()
            spectrum.check_nonresonance(omega, k_max)
            runs.append(time.perf_counter() - start)
        out[name] = statistics.median(runs)
    return out


def write_side(ledger, birkhoff, polyalg):
    """Medians of READ_REPEATS timed complexify and realify passes over the
    ledger's blocks and writes of the ledger."""
    state = birkhoff.NormalFormState.from_text(ledger)
    real = [p._block
            for p in list(state.chi.values()) + list(state.f.values())]
    blocks = [polyalg.complexify(b) for b in real]
    calls = {
        "complexify_s": lambda: [polyalg.complexify(b) for b in real],
        "realify_s": lambda: [polyalg.realify(b) for b in blocks],
        "to_text_s": state.to_text,
    }
    runs = {name: [] for name in calls}
    for _ in range(READ_REPEATS):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            runs[name].append(time.perf_counter() - start)
    return {name: statistics.median(v) for name, v in runs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a bnfstab source tree; repeat to compare")
    parser.add_argument("--out", help="the JSON file to write")
    # the child interpreter of one round: prints one run as JSON
    parser.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.src and args.out) or any("=" not in s for s in args.src):
        parser.error("give --out and at least one --src LABEL=DIR")

    trees = dict(spec.split("=", 1) for spec in args.src)
    runs = {label: [] for label in trees}
    for r in range(ROUNDS):
        labels = list(trees) if r % 2 == 0 else list(reversed(trees))
        for label in labels:
            done = subprocess.run(
                [sys.executable, __file__, "--measure", trees[label]],
                check=True, capture_output=True, text=True)
            runs[label].append(json.loads(done.stdout.splitlines()[-1]))
            print(f"round {r + 1}/{ROUNDS} {label}", file=sys.stderr)

    sources = {}
    for label, done in runs.items():
        sources[label] = {
            metric: {name: {"median": statistics.median(d[metric][name]
                                                        for d in done),
                            "runs": [d[metric][name] for d in done]}
                     for name in done[0][metric]}
            for metric in done[0]}
    record = {
        "tool": "tools/bench_layers.py",
        "rounds": ROUNDS,
        "host": {"machine": platform.machine(),
                 "processor_count": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "read_repeats": READ_REPEATS,
        "units": {"bnf_s": "s", "bnf_warm_s": "s", "bracket_s": "s",
                  "bracket_peak_mib": "MiB",
                  "pushforward_s": "s",
                  "read_ledger_s": "s", "load_state_s": "s",
                  "read_peak_mib": "MiB",
                  "drift_bounds_s": "s",
                  "sweep_grid_s": "s", "estimate_s": "s", "write_s": "s",
                  "nonresonance_cold_s": "s", "nonresonance_warm_s": "s"},
        "sources": sources,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
