#!/usr/bin/env python3
"""Diff `stagg disasm` over the whole registry against committed goldens.

Usage:
    scripts/disasm_golden.py --stagg build/stagg
        [--expected tests/expected_disasm.txt]
        [--expected-raw tests/expected_disasm_raw.txt] [--write-expected]

`stagg disasm --suite all` prints the optimized VM stream of every registry
ground truth, and `--raw` the raw compiler output. Both depend on the
structure compiler (taco::EinsumProgram: slot ids, node order, reduction
placement) and on the lowering, so any change there that is meant to keep
the bytecode identical must leave both files byte-for-byte unchanged.
Refresh them deliberately with --write-expected.

Exit codes: 0 identical, 1 divergence found, 2 bad input/run failure.
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def disasm(stagg, extra):
    cmd = [str(stagg), "disasm", "--suite", "all", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"disasm_golden: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--stagg", required=True, type=Path)
    parser.add_argument("--expected", type=Path,
                        default=ROOT / "tests" / "expected_disasm.txt")
    parser.add_argument("--expected-raw", type=Path,
                        default=ROOT / "tests" / "expected_disasm_raw.txt")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    failed = False
    for path, extra in ((args.expected, []),
                        (args.expected_raw, ["--raw"])):
        got = disasm(args.stagg, extra)
        if args.write_expected:
            path.write_text(got)
            print(f"disasm_golden: wrote {path}")
            continue
        try:
            want = path.read_text()
        except OSError as err:
            print(f"disasm_golden: cannot read {path}: {err}", file=sys.stderr)
            sys.exit(2)
        if got == want:
            print(f"disasm_golden: {path.name} matches "
                  f"({len(want.splitlines())} lines)")
            continue
        failed = True
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=str(path), tofile="stagg disasm " + " ".join(extra)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
