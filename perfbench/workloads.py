"""The benchmark's workloads: inputs, set-up and the CLI calls of one operation.

An operation is a short list of ``bnfstab.cli.main`` argument vectors, run
in-process one after another.  Paths are relative to the work directory,
which is the current directory while set-up and operations run.
"""

import io
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import systems

ROOT = Path(__file__).resolve().parent.parent

HAM = "system.ham"
LEDGER = "nf.txt"
STATE = "state.txt"
SWEEP = "sweep.csv"
ESTIMATE = "estimate.txt"
FIXTURE = "sjs-jd2451220.5"
RHO0 = "0.5"


@dataclass(frozen=True)
class Workload:
    system: str        # name understood by systems.system_text
    order: int         # bnf --order: in each operation, or once in set-up
    radii: str         # --radii for sweep; unused when read_only
    grid: str          # --grid for sweep; "" means the default 64-point grid
    read_only: bool    # ledger built in set-up; operations only read it

    def setup_calls(self):
        if not self.read_only:
            return []
        return [_bnf_call(self.order)]

    def op_calls(self):
        """(step name, argv) for every CLI call of one operation."""
        grid = ["--grid", self.grid] if self.grid else []
        if not self.read_only:
            return [("bnf", _bnf_call(self.order)),
                    ("sweep", ["sweep", "--input", LEDGER, "--radii",
                               self.radii, *grid, "--out", SWEEP])]
        radii = ["--radii-from", STATE]
        return [("poincare", ["poincare", "--fixture", FIXTURE,
                              "--out", STATE]),
                ("sweep", ["sweep", "--input", LEDGER, *radii, *grid,
                           "--out", SWEEP]),
                ("estimate", ["estimate", "--input", LEDGER, "--rho0", RHO0,
                              *radii, "--out", ESTIMATE])]

    def outputs(self):
        """Files an operation writes; their bodies must repeat exactly."""
        if not self.read_only:
            return [LEDGER, LEDGER + ".cert", SWEEP]
        return [STATE, SWEEP, ESTIMATE]


def _bnf_call(order):
    return ["bnf", "--input", HAM, "--order", str(order), "--out", LEDGER]


GRID_1024 = "0.3:3.0:1024:log"
GRID_16 = "0.3:3.0:16:log"

FULL = {
    # wide blocks: Lie-series chains dominate bnf
    "dense3-r7": Workload("dense3", 7, "1,1,1", "", False),
    # many orders of small sparse blocks: chart change out dominates bnf
    "even2-r18": Workload("even2", 18, "1,1", "", False),
    # read-only: ledger parsing, polydisc norms, brackets, the grid loop
    "sjs-sweep": Workload("dense2", 14, "", GRID_1024, True),
}

# tiny sizes for the self-check: the same code paths in about a second
QUICK = {
    "dense3-r7": Workload("dense3", 4, "1,1,1", GRID_16, False),
    "even2-r18": Workload("even2", 6, "1,1", GRID_16, False),
    "sjs-sweep": Workload("dense2", 6, "", GRID_16, True),
}


def reference_key(name, quick):
    return ("quick/" if quick else "") + name


def set_up_here(cli, workload, seed):
    """Write the workload's HAM file into the current directory and run its
    set-up calls (the ledger build of the read-only workload)."""
    with open(HAM, "w") as fh:
        fh.write(systems.system_text(workload.system, seed))
    for argv in workload.setup_calls():
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"error: set-up call {' '.join(argv)} exited {code}")


def import_program():
    """Import bnfstab from the checkout's own src/ and return its package.

    Exits with an error, before anything is measured, where the checkout
    holds no sources: the benchmark never falls back to an installed copy.
    """
    src = ROOT / "src"
    if not (src / "bnfstab" / "cli.py").is_file():
        sys.exit(f"error: no bnfstab sources under {src}")
    sys.path.insert(0, str(src))
    import bnfstab.cli
    if Path(bnfstab.__file__).resolve().parent.parent != src:
        sys.exit(f"error: bnfstab was imported from {bnfstab.__file__}, "
                 f"not from {src}")
    return bnfstab
