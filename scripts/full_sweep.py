#!/usr/bin/env python3
"""Run the full registry sweep once and diff it against the committed CSV.

Usage:
    scripts/full_sweep.py --stagg build/stagg
        [--expected tests/expected_sweep.csv] [--out-dir sweep-out]
        [--search td|bu] [--drop-penalty SEL] [--full-grammar]
        [--write-expected]

Runs `stagg --suite all --threads 1`, projects the CSV down to its
deterministic columns (dropping the wall-clock seconds column) and fails if
any benchmark differs from the expectation file: solved set, lifted
expression, attempt and expansion counters, fail reason. A grammar or
search change that flips a benchmark shows up here. Refresh the file
deliberately with --write-expected.

--search, --drop-penalty and --full-grammar are passed through to stagg,
so the other enumeration modes are pinned the same way:
tests/expected_sweep_bu.csv is the `--search bu` sweep,
tests/expected_sweep_drop_a.csv the `--drop-penalty a` one and
tests/expected_sweep_full.csv the `--full-grammar` one.

Exit codes: 0 identical, 1 divergence found, 2 bad input/run failure.
"""

import argparse
import csv
import subprocess
import sys
from pathlib import Path

# Everything in the CSV except wall-clock time is deterministic.
DETERMINISTIC = ["benchmark", "category", "solved", "attempts",
                 "expansions", "detail"]


def run_sweep(stagg, out_dir, timeout, mode_args):
    csv_path = out_dir / "sweep.csv"
    cmd = [str(stagg), "--suite", "all", "--threads", "1",
           "--timeout", str(timeout), *mode_args, "--format", "csv",
           "--csv", str(csv_path)]
    print(f"full_sweep: {' '.join(cmd)}")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"full_sweep: stagg exited {proc.returncode}")
    return csv_path


def project(csv_path):
    """Map benchmark name -> tuple of the deterministic columns."""
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        sys.exit(f"full_sweep: cannot read {csv_path}: {err}")
    table = {}
    for row in rows:
        missing = [c for c in DETERMINISTIC if c not in row]
        if missing:
            sys.exit(f"full_sweep: {csv_path} lacks column(s) "
                     f"{', '.join(missing)}")
        table[row["benchmark"]] = tuple(row[c] for c in DETERMINISTIC)
    if not table:
        sys.exit(f"full_sweep: {csv_path} is empty")
    return table


def diff(name_a, a, name_b, b):
    """Print divergences between two projections; return their count."""
    divergences = 0
    for bench in sorted(set(a) | set(b)):
        if bench not in a:
            print(f"  {bench}: only in {name_b}")
            divergences += 1
        elif bench not in b:
            print(f"  {bench}: only in {name_a}")
            divergences += 1
        elif a[bench] != b[bench]:
            print(f"  {bench}:")
            print(f"    {name_a}: {a[bench]}")
            print(f"    {name_b}: {b[bench]}")
            divergences += 1
    return divergences


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--stagg", required=True,
                        help="path to the stagg binary")
    parser.add_argument("--expected", default="tests/expected_sweep.csv",
                        help="committed expectation file "
                             "(default tests/expected_sweep.csv)")
    parser.add_argument("--out-dir", default="sweep-out",
                        help="directory for the sweep CSV")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-benchmark search timeout seconds "
                             "(default 30)")
    parser.add_argument("--search", choices=["td", "bu"],
                        help="passed through to stagg (default: stagg's, td)")
    parser.add_argument("--drop-penalty", metavar="SEL",
                        help="passed through to stagg (e.g. a, b, a3)")
    parser.add_argument("--full-grammar", action="store_true",
                        help="passed through to stagg: the unrefined "
                             "grammar")
    parser.add_argument("--write-expected", action="store_true",
                        help="refresh the expectation file from the run "
                             "instead of diffing against it")
    args = parser.parse_args()

    mode_args = []
    if args.search:
        mode_args += ["--search", args.search]
    if args.drop_penalty:
        mode_args += ["--drop-penalty", args.drop_penalty]
    if args.full_grammar:
        mode_args.append("--full-grammar")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = project(run_sweep(args.stagg, out_dir, args.timeout, mode_args))
    solved = sum(1 for row in run.values() if row[2] == "1")
    print(f"full_sweep: {len(run)} benchmarks, {solved} solved")

    expected_path = Path(args.expected)
    if args.write_expected:
        with open(expected_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DETERMINISTIC)
            for bench in sorted(run):
                writer.writerow(run[bench])
        print(f"full_sweep: wrote {expected_path} ({len(run)} benchmarks)")
        return 0

    divergences = diff("expected", project(expected_path), "run", run)
    if divergences:
        print(f"full_sweep: FAILED — run diverges from {expected_path} in "
              f"{divergences} benchmark(s); a grammar/search change moved "
              "the solved set; refresh with --write-expected if intentional")
        return 1
    print("full_sweep: OK — matching the committed expectation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
