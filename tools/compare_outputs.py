"""Run a fixed matrix of bnfstab commands on several source trees and compare
what they print and write, byte for byte.

    python3 tools/compare_outputs.py --src parent=../parent/src --src change=src

Each --src LABEL=DIR names a bnfstab source tree (the directory holding
the `bnfstab` package).  Each tree in turn is copied to the same
temporary path and runs the whole matrix in one fresh interpreter,
`cli.main` in process, in an empty working directory at the same path,
so that the paths the outputs record (the provenance headers, the
fixture path of `poincare --fixture`) are the same for every tree.  The
matrix:

- `poincare --fixture sjs-jd2451220.5`, the state the `--radii-from` runs read;
- `bnf` on generator seeds 1 and 2 of even2 at order 18, dense2 at order 14
  and dense3 at order 7, as perfbench/systems.py writes them, and on the
  exactly resonant 2-DOF system of tests/test_cli.py's
  test_exit_code_on_resonance at order 4 (exit 3, a certificate and no
  ledger);
- on each ledger: `sweep` on the default grid at radii 1, the same with
  `--wide`, and `--wide` on a lin grid;
- on each 2-DOF ledger also: `sweep --radii-from` the state on a 1 024-point
  grid, and `estimate` at two values of rho0, each with `--radii` and with
  `--radii-from`.

A fault matrix follows.  Each faulty input is one edit of a good file
the matrix wrote, run through the command that reads it:

- the dense2-s1 ledger, read by `sweep`: an F coefficient set to `nan`;
  an exponent 10 written `1_0`; a term line repeated; END dropped; a line
  after END; `F s=3` dropped; a `# note` line after `F s=1`; `\\r\\n` line
  ends;
- the even2-s1 HAM, read by `bnf`: a degree column off by one; a term
  line repeated; an exponent of 256;
- the state, read by `sweep --radii-from`: END dropped; RADII repeated.

The first tree is the reference.  For every command the exit code, stdout
and stderr, and after the matrix every file of the working directory, are
compared with the reference's.  Every difference is printed, and the exit
status is 1 if there is any.

With --mask-digests, the sha256 digest of each `# input:` line, in the
stdout, stderr and files of every tree, reads `sha256:<masked>` before
the comparison.  Every sweep and estimate names the digest of the ledger
it read, so a change to the bytes of the ledgers alone shows only in the
ledgers themselves.
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, system, generator seed, bnf --order)
LEDGERS = tuple((f"{system}-s{seed}", system, seed, order)
                for system, order in (("even2", 18), ("dense2", 14),
                                      ("dense3", 7))
                for seed in (1, 2))
DOF = {"even2": 2, "dense2": 2, "dense3": 3}
# the oscillator of omega = (1, 1) plus 0.1 x1^2 x2^2: every divisor of
# k = (1, -1) is exactly zero
RESONANT = {((2, 0), (0, 0)): 0.5, ((0, 0), (2, 0)): 0.5,
            ((0, 2), (0, 0)): 0.5, ((0, 0), (0, 2)): 0.5,
            ((2, 2), (0, 0)): 0.1}
# the digest of an input, in the provenance header of an output
DIGEST = re.compile(r"^(# input: .* sha256:)[0-9a-f]{64}$", re.MULTILINE)
STATE = "state.txt"
RHO0 = ("0.5", "1.5")
LEDGER, HAM = "dense2-s1.nf", "even2-s1.ham"


def edited(text, head, change, skip=1):
    """text with the line `skip` lines past its first line that starts
    with head replaced by the lines change(line)."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(head))
    lines[at + skip:at + skip + 1] = change(lines[at + skip])
    return "\n".join(lines)


def token(line, i, value):
    """[line] with its token i made value(token)."""
    tokens = line.split()
    tokens[i] = value(tokens[i])
    return [" ".join(tokens)]


def underscored(text):
    """text with its first exponent 10 written 1_0."""
    if " 10 " not in text:
        raise SystemExit("no exponent 10 to write as 1_0")
    return text.replace(" 10 ", " 1_0 ", 1)


# the command that reads each good file the faults edit, and so each
# faulty copy of it, whose name is appended
READERS = {LEDGER: ["sweep", "--radii", "1,1", "--input"],
           HAM: ["bnf", "--order", "18", "--out", "fault.nf", "--input"],
           STATE: ["sweep", "--input", LEDGER, "--radii-from"]}
# (faulty file, the good file it edits, the edit)
FAULTS = (
    ("nan.nf", LEDGER, lambda t: edited(
        t, "F s=1", lambda line: token(line, -1, lambda _: "nan"))),
    ("underscore.nf", LEDGER, underscored),
    ("repeat.nf", LEDGER, lambda t: edited(t, "F s=1",
                                           lambda line: [line] * 2)),
    ("no-end.nf", LEDGER, lambda t: edited(t, "END", lambda _: [], skip=0)),
    ("after-end.nf", LEDGER, lambda t: t + "F s=1\n"),
    ("no-f3.nf", LEDGER, lambda t: edited(t, "F s=3", lambda _: [], skip=0)),
    ("note.nf", LEDGER, lambda t: edited(
        t, "F s=1", lambda line: [line, "# note"], skip=0)),
    ("crlf.nf", LEDGER, lambda t: t.replace("\n", "\r\n")),
    ("degree.ham", HAM, lambda t: edited(
        t, "HAM", lambda line: token(line, 0, lambda d: str(int(d) + 1)))),
    ("repeat.ham", HAM, lambda t: edited(t, "HAM", lambda line: [line] * 2)),
    ("exponent.ham", HAM, lambda t: edited(
        t, "HAM", lambda line: token(line, 1, lambda _: "256"))),
    ("no-end.txt", STATE, lambda t: edited(t, "END", lambda _: [], skip=0)),
    ("radii.txt", STATE, lambda t: edited(t, "RADII", lambda line: [line] * 2,
                                          skip=0)),
)


def inputs():
    """{file name: text} of the HAM files the matrix reads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import systems
    files = {f"{name}.ham": systems.system_text(system, seed)
             for name, system, seed, _ in LEDGERS}
    files["resonant.ham"] = systems.ham_text(2, 6, RESONANT)
    return files


def matrix():
    """The argv of every command, in the order they run."""
    runs = [["poincare", "--fixture", "sjs-jd2451220.5", "--out", STATE]]
    for name, _, _, order in LEDGERS:
        runs.append(["bnf", "--input", f"{name}.ham", "--order", str(order),
                     "--out", f"{name}.nf"])
    runs.append(["bnf", "--input", "resonant.ham", "--order", "4",
                 "--out", "resonant.nf"])
    for name, system, _, _ in LEDGERS:
        ledger = ["--input", f"{name}.nf"]
        ones = ["--radii", ",".join(["1"] * DOF[system])]
        runs += [["sweep", *ledger, *ones],
                 ["sweep", *ledger, *ones, "--wide",
                  "--out", f"{name}-wide.csv"],
                 ["sweep", *ledger, *ones, "--wide",
                  "--grid", "0.3:3.0:64:lin", "--out", f"{name}-lin.csv"]]
        if DOF[system] != 2:
            continue
        runs.append(["sweep", *ledger, "--radii-from", STATE,
                     "--grid", "0.3:3.0:1024:log",
                     "--out", f"{name}-sjs.csv"])
        for rho0 in RHO0:
            for radii in (["--radii", "2,0.5"], ["--radii-from", STATE]):
                runs.append(["estimate", *ledger, "--rho0", rho0, *radii])
    return runs


def run_matrix(src, work):
    """[argv, exit code, stdout, stderr] of each command of the matrix, run
    in work with the bnfstab under src, and {file name: text} of work."""
    sys.path.insert(0, str(Path(src).resolve()))
    from bnfstab import cli
    results = []

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # what cli.main does not map to a code
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([argv, code, out.getvalue(), err.getvalue()])

    for argv in matrix():
        run(argv)
    # the fault matrix, on the good files just written
    for name, good, edit in FAULTS:
        (Path(work) / name).write_bytes(
            edit((Path(work) / good).read_text()).encode())
        run([*READERS[good], name])
    files = {p.name: p.read_bytes().decode("latin-1")
             for p in sorted(Path(work).iterdir())}
    return results, files


def outputs(src, base, files):
    """The commands and files of one fresh interpreter running the matrix
    on a copy of the tree at src in base/src, in the directory base/work
    holding only the input files."""
    tree, work = base / "src", base / "work"
    for old in (tree, work):
        if old.exists():
            shutil.rmtree(old)
    shutil.copytree(src, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    work.mkdir()
    for name, text in files.items():
        (work / name).write_text(text)
    done = subprocess.run([sys.executable, __file__, "--run", str(tree)],
                          cwd=work, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout)


def masked(output):
    """An output of the matrix with the digest of every input masked."""
    def mask(text):
        return DIGEST.sub(r"\1<masked>", text)
    return {"commands": [[argv, code, mask(out), mask(err)]
                         for argv, code, out, err in output["commands"]],
            "files": {name: mask(text)
                      for name, text in output["files"].items()}}


def differences(want, got):
    """Lines that name each difference between two outputs of the matrix."""
    lines = []
    for (argv, *a), (_, *b) in zip(want["commands"], got["commands"]):
        for field, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                lines.append(f"{' '.join(argv)}: {field} differs:\n"
                             f"  {x!r}\n  {y!r}")
    for name in sorted(set(want["files"]) | set(got["files"])):
        x, y = want["files"].get(name), got["files"].get(name)
        if x is None or y is None:
            lines.append(f"{name}: written by one tree only")
        elif x != y:
            a, b = x.splitlines(True), y.splitlines(True)
            at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q),
                      min(len(a), len(b)))
            lines.append(f"{name}: contents differ from line {at + 1}:\n"
                         f"  {a[at:at + 1]!r}\n  {b[at:at + 1]!r}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a bnfstab source tree; the first is the "
                             "reference")
    parser.add_argument("--mask-digests", action="store_true",
                        help="compare with the sha256 digests of the "
                             "inputs masked")
    # the child interpreter: runs the matrix in its working directory
    parser.add_argument("--run", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        commands, files = run_matrix(args.run, Path.cwd())
        print(json.dumps({"commands": commands, "files": files}))
        return 0
    if not args.src or len(args.src) < 2 or any("=" not in s
                                                for s in args.src):
        parser.error("give at least two --src LABEL=DIR")

    trees = dict(spec.split("=", 1) for spec in args.src)
    files = inputs()
    with tempfile.TemporaryDirectory() as base:
        results = {label: outputs(src, Path(base), files)
                   for label, src in trees.items()}
    if args.mask_digests:
        results = {label: masked(got) for label, got in results.items()}
    (ref, want), *rest = results.items()
    status = 0
    for label, got in rest:
        lines = differences(want, got)
        counts = (f"{len(got['commands'])} commands, {len(FAULTS)} of them "
                  f"on faulty inputs, {len(got['files'])} files")
        if lines:
            status = 1
            print(f"{label} against {ref}: {len(lines)} differences "
                  f"({counts})")
            print("\n".join(lines))
        else:
            print(f"{label} against {ref}: identical ({counts})")
    return status


if __name__ == "__main__":
    sys.exit(main())
