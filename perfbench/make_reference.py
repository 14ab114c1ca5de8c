"""Regenerate perfbench/reference.json: the results every operation's gate
compares with (r_opt exactly, log10_T within run.LOG10_T_RTOL).

    python3 perfbench/make_reference.py

Runs one operation of every workload, at full and quick sizes, for every
generator seed.  Regenerate only on purpose: a change that moves these
results is a change of the program's answers, not of its speed.
"""

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import systems
from run import HERE, observe
from workloads import FULL, QUICK, ROOT, import_program, reference_key, \
    set_up_here

DIGITS = ".12g"    # far below the gate's 1e-9 relative tolerance


def main():
    bnfstab = import_program()
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    refs = {}
    try:
        os.chdir(workdir)
        for quick, table in ((False, FULL), (True, QUICK)):
            for name, workload in table.items():
                key = reference_key(name, quick)
                for seed in range(systems.SYSTEMS):
                    set_up_here(bnfstab.cli, workload, seed)
                    for _, argv in workload.op_calls():
                        with redirect_stdout(io.StringIO()):
                            code = bnfstab.cli.main(argv)
                        if code != 0:
                            sys.exit(f"error: {key} seed {seed}: "
                                     f"{' '.join(argv)} exited {code}")
                    seen = observe(workload)
                    seen["log10_T"] = [float(format(v, DIGITS))
                                       for v in seen["log10_T"]]
                    if "estimate" in seen:
                        r_opt, log10_t = seen["estimate"]
                        seen["estimate"] = [r_opt,
                                            float(format(log10_t, DIGITS))]
                    refs.setdefault(key, {})[str(seed)] = seen
                    print(f"{key} seed {seed}: {len(seen['r_opt'])} points",
                          flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    lines = []
    for key, by_seed in refs.items():
        inner = ",\n".join(f"    {json.dumps(seed)}: {json.dumps(seen)}"
                           for seed, seen in by_seed.items())
        lines.append(f"  {json.dumps(key)}: {{\n{inner}\n  }}")
    with open(HERE / "reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
