"""One set-up of a benchmark workload, in a fresh interpreter.

Imports bnfstab (so interpreter and numpy start-up count), writes the
seeded HAM file into the work directory and, for the read-only workload,
builds the ledger the operations read.  run.py times several of these.

    python3 perfbench/setup_inputs.py --workload sjs-sweep --seed 1 --workdir DIR
"""

import argparse
import os

from workloads import FULL, QUICK, import_program, set_up_here


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    bnfstab = import_program()
    workload = (QUICK if args.quick else FULL)[args.workload]
    os.chdir(args.workdir)
    set_up_here(bnfstab.cli, workload, args.seed)


if __name__ == "__main__":
    main()
