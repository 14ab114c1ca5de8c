"""Run every workload, each in its own fresh process, and print every metric
by name and unit with the correctness verdict.

    python3 perfbench/report.py                  # end-to-end metrics
    python3 perfbench/report.py --trace 1        # per-layer metrics
    python3 perfbench/report.py --quick          # self-check in seconds

--quick runs tiny sizes (dense3 at r=4, even2 at r=6, a 16-point grid),
untraced and traced, so the gate, the verification pass and the trace are
all exercised.  Exits non-zero unless every run is correct.
"""

import argparse
import json
import subprocess
import sys

from run import HERE
from workloads import FULL, ROOT


def run_one(workload, seed, seconds, trace, quick):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--quick"] if quick else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return lines, done.stderr, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per workload (default 30, quick 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds or (1.0 if args.quick else 30.0)
    traces = (0, 1) if args.quick else (args.trace,)

    all_correct = True
    for workload in FULL:
        for trace in traces:
            print(f"== {workload} (trace {trace}) ==", flush=True)
            lines, stderr, result = run_one(workload, args.seed, seconds,
                                            trace, args.quick)
            print("\n".join(lines))
            if result is None:
                print(f"run failed:\n{stderr}")
                all_correct = False
                continue
            all_correct = all_correct and result["correct"]
    print(f"overall verdict: {'correct' if all_correct else 'INCORRECT'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
