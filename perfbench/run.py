"""Benchmark of the bnfstab CLI chain (bnf -> sweep), one workload per process.

    python3 perfbench/run.py --workload dense3-r7 --seed 1 --seconds 30 --trace 0

Set-up runs several times in fresh interpreters (setup_inputs.py) and
setup_s is their median.  Then one untimed warm-up operation runs, and a
closed loop runs one operation at a time, each a few in-process
``bnfstab.cli.main`` calls, until --seconds have passed.  Every operation
passes a correctness gate or counts as failed and gives no timing.  After
the loop, a verification pass checks the homological identity at every
order of the ledger.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 operations alternate untraced and traced, and the last line
reports the per-layer metrics of the traced ones (see spans.py) with
trace.overhead_ratio.  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import spans
import systems
from workloads import (
    ESTIMATE, FULL, LEDGER, QUICK, ROOT, SWEEP, import_program,
    reference_key,
)

HERE = ROOT / "perfbench"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
TAIL_QUANTILE = 0.85      # chain_tail_s; see README.md for the sample counts
LOG10_T_RTOL = 1e-9
IDENTITY_TOL = 1e-12

NOISE_NOTE = ("noise seen while the benchmark was specified: medians of the "
              "sjs-sweep operation moved from 0.157 s to 0.236 s across four "
              "back-to-back processes, while CPU time per operation tracked "
              "wall time within a few percent (host speed drift, not "
              "preemption)")

# metric -> unit.  The operation time is gated on its p85: this host changes
# speed for seconds at a time, and the median and the mean of a run follow
# whichever speed dominated it, while the p85 tracks the slower, more common
# one.  Per-call times (bnf, sweep, estimate) are printed but not gated
# (README.md, "Noise").
END_TO_END = {
    "setup_s": "s",
    "chain_tail_s": "s",
    "peak_rss_mib": "MiB",
}

# metric -> (unit, span name, what): "self"/"total" seconds, "calls", or the
# name of a count recorded on the span.  Summed per operation; the reported
# value is the median over traced operations.
PER_LAYER = {
    "polyalg.realify_s": ("s", "polyalg.realify", "self"),
    "polyalg.realify_total_s": ("s", "polyalg.realify", "total"),
    "polyalg.realify_calls": ("count", "polyalg.realify", "calls"),
    "polyalg.complexify_s": ("s", "polyalg.complexify", "self"),
    "polyalg.complexify_calls": ("count", "polyalg.complexify", "calls"),
    "polyalg.linear_substitute_s": ("s", "polyalg.linear_substitute", "self"),
    "polyalg.linear_substitute_calls": ("count", "polyalg.linear_substitute",
                                        "calls"),
    "polyalg.poisson_bracket_s": ("s", "polyalg.poisson_bracket", "self"),
    "polyalg.poisson_bracket_calls": ("count", "polyalg.poisson_bracket",
                                      "calls"),
    "polyalg.polydisc_norm_s": ("s", "polyalg.polydisc_norm", "self"),
    "polyalg.polydisc_norm_calls": ("count", "polyalg.polydisc_norm",
                                    "calls"),
    "birkhoff.normal_form_s": ("s", "birkhoff.normal_form", "total"),
    "birkhoff.self_s": ("s", "birkhoff.normal_form", "self"),
    "birkhoff.terms_F": ("count", "birkhoff.normal_form", "terms_F"),
    "birkhoff.terms_chi": ("count", "birkhoff.normal_form", "terms_chi"),
    "birkhoff.terms_Z": ("count", "birkhoff.normal_form", "terms_Z"),
    "cli.bnf_s": ("s", "cli.bnf", "total"),
    "cli.write_ledger_s": ("s", "cli.write_ledger", "self"),
    "cli.read_ledger_s": ("s", "cli.read_ledger", "self"),
    "cli.read_ham_s": ("s", "cli.read_ham", "self"),
    "cli.ledger_bytes": ("count", ("cli.write_ledger", "cli.read_ledger"),
                         "ledger_bytes"),
    "cli.self_s": ("s", ("cli.bnf", "cli.sweep", "cli.estimate",
                         "cli.poincare"), "self"),
    "spectrum.diagonalize_s": ("s", "spectrum.diagonalize", "self"),
    "spectrum.nonresonance_s": ("s", "spectrum.nonresonance", "self"),
    "spectrum.pushforward_s": ("s", "spectrum.pushforward", "self"),
    "stability.drift_bound_s": ("s", "stability.drift_bound", "self"),
    "stability.drift_bound_calls": ("count", "stability.drift_bound",
                                    "calls"),
    "stability.sweep_self_s": ("s", "stability.sweep", "self"),
    "stability.sweep_csv_s": ("s", "stability.sweep_csv", "self"),
    "celestial.poincare_s": ("s", "celestial.poincare", "self"),
    "celestial.read_state_s": ("s", "celestial.read_state", "self"),
    "trace.overhead_ratio": ("ratio", None, None),
}


# -- small helpers -------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def body(path):
    """File bytes below the '#' provenance header (it embeds paths)."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def sweep_columns(csv_body):
    rows = [line.split(",") for line in csv_body.decode().splitlines()[1:]]
    return [int(r[3]) for r in rows], [float(r[2]) for r in rows]


def estimate_values(text_body):
    fields = dict(line.split(" ", 1) for line in text_body.decode().splitlines())
    return int(fields["r_opt"]), float(fields["log10_T"])


def observe(workload):
    """The results the gate compares with the stored reference."""
    r_opt, log10_t = sweep_columns(body(SWEEP))
    seen = {"r_opt": r_opt, "log10_T": log10_t}
    if workload.read_only:
        seen["estimate"] = list(estimate_values(body(ESTIMATE)))
    return seen


def reference_mismatch(seen, ref):
    """None when the observed results match the reference, else a reason."""
    if seen["r_opt"] != ref["r_opt"]:
        return "sweep r_opt differs from the reference"
    if len(seen["log10_T"]) != len(ref["log10_T"]):
        return "sweep has the wrong number of grid points"
    for got, want in zip(seen["log10_T"], ref["log10_T"]):
        if abs(got - want) > LOG10_T_RTOL * abs(want):
            return f"sweep log10_T {got!r} differs from reference {want!r}"
    if "estimate" in ref:
        (r_got, t_got), (r_want, t_want) = seen["estimate"], ref["estimate"]
        if r_got != r_want or abs(t_got - t_want) > LOG10_T_RTOL * abs(t_want):
            return "estimate differs from the reference"
    return None


def identity_residual(bnfstab, ledger_path):
    """Worst relative residual of {H0, chi_s} - Z_s + Q_s over all orders
    (the formula of tests/test_acceptance.py)."""
    poly = bnfstab.polyalg
    with open(ledger_path) as fh:
        state = bnfstab.birkhoff.NormalFormState.from_text(fh.read())
    h0 = state.h0_polynomial()
    worst = 0.0
    for s in range(1, state.r + 1):
        chi = state.generator(s)
        z = state.z_action(s).to_polynomial()
        q = state.remainder_block(s)
        resid = poly.poisson_bracket(h0, chi, cap=s + 2) + z.scale(-1.0) + q
        scale = max(1.0, q.max_abs_coeff(), z.max_abs_coeff())
        worst = max(worst, resid.max_abs_coeff() / scale)
    return worst, state.r


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, bnfstab):
    import numpy
    return [f"workload={args.workload}{' (quick sizes)' if args.quick else ''}"
            f" seed={args.seed} generator_seed="
            f"{systems.generator_seed(args.seed)} seconds={args.seconds} "
            f"trace={args.trace}",
            f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} bnfstab={bnfstab.__version__} "
            f"commit={git_commit()}",
            NOISE_NOTE]


# -- set-up and operations -----------------------------------------------------

def set_up(args, workdir):
    """Run set-up SETUP_REPEATS times in fresh interpreters; each must write
    the same inputs.  Returns the wall time of each."""
    cmd = [sys.executable, str(HERE / "setup_inputs.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)] + (["--quick"] if args.quick else [])
    times, first = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"error: set-up failed:\n{done.stderr}")
        inputs = {p: body(workdir / p) for p in sorted(os.listdir(workdir))}
        if first is None:
            first = inputs
        elif inputs != first:
            sys.exit("error: repeated set-up wrote different inputs")
    return times


class Loop:
    """Runs operations, gates them and keeps the timings of those that pass."""

    def __init__(self, bnfstab, workload, reference):
        self.cli = bnfstab.cli
        self.workload = workload
        self.reference = reference
        self.first_bodies = None
        self.attempted = 0
        self.failures = []
        self.chain = []            # (wall s, cpu s, traced)
        self.steps = {}            # step -> [s, ...]

    def run(self, tracer=None, timed=True):
        op = self.attempted
        self.attempted += 1
        sink = io.StringIO()
        steps = {}
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with redirect_stdout(sink), redirect_stderr(sink):
                for step, argv in self.workload.op_calls():
                    s0 = time.perf_counter()
                    span = tracer.open(f"cli.{step}") if tracer else None
                    try:
                        code = self.cli.main(argv)
                    finally:
                        if tracer:
                            tracer.close(span)
                    steps[step] = time.perf_counter() - s0
                    if code != 0:
                        raise RuntimeError(f"{step} exited {code}: "
                                           f"{sink.getvalue().strip()}")
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            reason = self.gate()
        except Exception:
            reason = traceback.format_exc(limit=3).strip()
        if reason is not None:
            self.failures.append((op, reason))
            return False
        if not timed:
            return True
        self.chain.append((wall, cpu, tracer is not None))
        for step, s in steps.items():
            self.steps.setdefault(step, []).append(s)
        return True

    def gate(self):
        bodies = {p: body(p) for p in self.workload.outputs()}
        if self.first_bodies is None:
            self.first_bodies = bodies
        elif bodies != self.first_bodies:
            changed = [p for p in bodies if bodies[p] != self.first_bodies[p]]
            return f"artifacts differ from the first operation: {changed}"
        return reference_mismatch(observe(self.workload), self.reference)


# -- reports -------------------------------------------------------------------

def end_to_end_metrics(loop, setup_times, peak_rss_mib):
    walls = [w for w, _, traced in loop.chain if not traced]
    return {
        "setup_s": statistics.median(setup_times),
        "chain_tail_s": quantile(walls, TAIL_QUANTILE),
        "peak_rss_mib": peak_rss_mib,
    }


def layer_value(row_by_name, span, what):
    names = span if isinstance(span, tuple) else (span,)
    total = 0
    for name in names:
        row = row_by_name.get(name)
        if row is None:
            continue
        self_s, total_s, calls, counts = row
        total += {"self": self_s, "total": total_s,
                  "calls": calls}.get(what, counts.get(what, 0))
    return total


def per_layer_metrics(loop, tracer):
    table = tracer.per_op()
    kept = [op for op in table if op not in {f for f, _ in loop.failures}]
    traced = [w for w, _, t in loop.chain if t]
    plain = [w for w, _, t in loop.chain if not t]
    if not (kept and plain):
        return {}
    out = {}
    for metric, (_, span, what) in PER_LAYER.items():
        if span is not None:
            out[metric] = statistics.median(
                layer_value(table[op], span, what) for op in kept)
    out["trace.overhead_ratio"] = (statistics.median(traced)
                                   / statistics.median(plain))
    return out


def print_layer_table(loop, tracer):
    ops = sum(1 for *_, t in loop.chain if t)
    chain = statistics.median(w for w, _, t in loop.chain if t)
    print(f"per-layer self time per traced operation ({ops} traced, "
          f"median traced chain {chain:.4f} s):")
    print(f"  {'span <- caller':58s} {'calls/op':>9s} {'self s/op':>10s} "
          f"{'share':>6s}")
    rows = sorted(tracer.by_caller().items(), key=lambda kv: -kv[1][0])
    for (name, parent), (self_s, calls) in rows:
        print(f"  {name + ' <- ' + parent:58s} {calls / ops:9.1f} "
              f"{self_s / ops:10.4f} {self_s / ops / chain:6.1%}")


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")


# -- main ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (self-check of the gate and trace)")
    return parser.parse_args(argv)


def load_reference(args):
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)
    key = reference_key(args.workload, args.quick)
    return refs[key][str(systems.generator_seed(args.seed))]


def measure(args, bnfstab, workdir):
    workload = (QUICK if args.quick else FULL)[args.workload]
    loop = Loop(bnfstab, workload, load_reference(args))
    setup_times = set_up(args, workdir)
    os.chdir(workdir)

    tracer = spans.Tracer() if args.trace else None
    # one warm-up operation, gated but not timed: the first operation of a
    # process fills caches and numpy's lazily built state
    loop.run(timed=False)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and loop.attempted % 2 == 1
        if traced:
            tracer.op = loop.attempted
            tracer.install(bnfstab)
        try:
            loop.run(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        enough = loop.attempted >= (3 if tracer else 2)
        if enough and time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    worst, orders = identity_residual(bnfstab, LEDGER)
    verified = worst <= IDENTITY_TOL
    return loop, tracer, setup_times, peak_rss_mib, verified, worst, orders


def main(argv=None):
    args = parse_args(argv)
    bnfstab = import_program()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        (loop, tracer, setup_times, peak_rss_mib, verified, worst,
         orders) = measure(args, bnfstab, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, bnfstab)
    for line in prov:
        print(f"# {line}")
    for op, reason in loop.failures[:5]:
        print(f"FAILED operation {op}: {reason}")
    if len(loop.failures) > 5:
        print(f"... and {len(loop.failures) - 5} more failed operations")
    print(f"verification: homological identity at {orders} orders, worst "
          f"residual {worst:.2e} (limit {IDENTITY_TOL:g}): "
          f"{'ok' if verified else 'FAILED'}")
    failed = len(loop.failures)
    correct = failed == 0 and verified
    metrics = {}
    if loop.chain:
        walls = [w for w, _, _ in loop.chain]
        cpus = [c for _, c, _ in loop.chain]
        print(f"operations: {loop.attempted} attempted, {failed} failed "
              f"(failed_ratio {failed / loop.attempted:g}); cpu/wall per "
              f"operation {statistics.median(cpus) / statistics.median(walls):.3f}")
        tail = f"p{TAIL_QUANTILE * 100:.0f} s"
        print(f"{'times over ' + str(len(walls)) + ' operations':34s} "
              f"{'mean s':>10s} {'median s':>10s} {tail:>10s}")
        for step, v in [("chain", walls)] + list(loop.steps.items()):
            print(f"  {step + '_s':32s} {statistics.fmean(v):10.6g} "
                  f"{statistics.median(v):10.6g} "
                  f"{quantile(v, TAIL_QUANTILE):10.6g}")
        print("operation times (s): "
              + " ".join(f"{w:.4f}" for w in walls))
        print("operation cpu times (s): "
              + " ".join(f"{c:.4f}" for c in cpus))
        if tracer is None:
            metrics = end_to_end_metrics(loop, setup_times, peak_rss_mib)
            print("end-to-end metrics:")
            print_metrics(metrics, END_TO_END)
        else:
            metrics = per_layer_metrics(loop, tracer)
            print_layer_table(loop, tracer)
            print("per-layer metrics (median over traced operations):")
            print_metrics(metrics, {k: v[0] for k, v in PER_LAYER.items()})
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            name = (f"trace-{args.workload}-seed{args.seed}"
                    f"{'-quick' if args.quick else ''}.csv")
            tracer.write_csv(out_dir / name, prov)
            print(f"spans written to {out_dir / name}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END.get(k)
                                             or PER_LAYER[k][0])}
                    for k, v in metrics.items()},
    }))
    return 0 if loop.chain else 1


if __name__ == "__main__":
    sys.exit(main())
