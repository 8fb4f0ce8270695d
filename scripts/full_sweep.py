#!/usr/bin/env python3
"""Run the full registry sweep at several --search-threads and diff results.

Usage:
    scripts/full_sweep.py --stagg build/stagg [--threads 1,4,8]
        [--expected tests/expected_sweep.csv] [--out-dir sweep-out]
        [--search td|bu] [--drop-penalty SEL] [--write-expected]

The determinism contract of the parallel frontier (search/Frontier.h) is
that --search-threads N is bit-identical to --search-threads 1 for every
registry benchmark: same solved set, same lifted expression, same attempt
and expansion counters, same fail reason. This script proves it end to end
through the CLI: it runs `stagg --suite all` once per thread count, projects
each CSV down to its deterministic columns (dropping the wall-clock seconds
column), and fails if any pair of runs — or any run versus the committed
expectation file — differs.

The expectation file (tests/expected_sweep.csv) pins the solved set across
time, not just across thread counts: a grammar or search change that flips
a benchmark shows up as a nightly diff even though all thread counts agree
with each other. Refresh it deliberately with --write-expected.

--search and --drop-penalty are passed through to stagg, so the other
enumeration modes are pinned the same way: tests/expected_sweep_bu.csv is
the `--search bu` sweep, tests/expected_sweep_drop_a.csv the
`--drop-penalty a` one.

Exit codes: 0 identical, 1 divergence found, 2 bad input/run failure.
"""

import argparse
import csv
import subprocess
import sys
from pathlib import Path

# Everything in the CSV except wall-clock time is covered by the
# determinism contract.
DETERMINISTIC = ["benchmark", "category", "solved", "attempts",
                 "expansions", "detail"]


def run_sweep(stagg, threads, out_dir, timeout, mode_args):
    csv_path = out_dir / f"sweep_t{threads}.csv"
    cmd = [str(stagg), "--suite", "all", "--threads", "1",
           "--search-threads", str(threads), "--timeout", str(timeout),
           *mode_args, "--format", "csv", "--csv", str(csv_path)]
    print(f"full_sweep: {' '.join(cmd)}")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"full_sweep: stagg exited {proc.returncode} at "
                 f"--search-threads {threads}")
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
    parser.add_argument("--threads", default="1,4,8",
                        help="comma-separated --search-threads values "
                             "(default 1,4,8)")
    parser.add_argument("--expected", default="tests/expected_sweep.csv",
                        help="committed expectation file "
                             "(default tests/expected_sweep.csv)")
    parser.add_argument("--out-dir", default="sweep-out",
                        help="directory for the per-thread-count CSVs")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-benchmark search timeout seconds "
                             "(default 30)")
    parser.add_argument("--search", choices=["td", "bu"],
                        help="passed through to stagg (default: stagg's, td)")
    parser.add_argument("--drop-penalty", metavar="SEL",
                        help="passed through to stagg (e.g. a, b, a3)")
    parser.add_argument("--write-expected", action="store_true",
                        help="refresh the expectation file from the "
                             "--search-threads 1 run instead of diffing "
                             "against it")
    args = parser.parse_args()

    try:
        thread_counts = [int(t) for t in args.threads.split(",") if t]
    except ValueError:
        sys.exit(f"full_sweep: bad --threads '{args.threads}'")
    if not thread_counts:
        sys.exit("full_sweep: --threads selected nothing")

    mode_args = []
    if args.search:
        mode_args += ["--search", args.search]
    if args.drop_penalty:
        mode_args += ["--drop-penalty", args.drop_penalty]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = {}
    for threads in thread_counts:
        runs[threads] = project(
            run_sweep(args.stagg, threads, out_dir, args.timeout, mode_args))

    base_threads = thread_counts[0]
    base = runs[base_threads]
    solved = sum(1 for row in base.values() if row[2] == "1")
    print(f"full_sweep: {len(base)} benchmarks, {solved} solved "
          f"at --search-threads {base_threads}")

    divergences = 0
    for threads in thread_counts[1:]:
        count = diff(f"t{base_threads}", base, f"t{threads}", runs[threads])
        if count:
            print(f"full_sweep: --search-threads {threads} DIVERGES from "
                  f"{base_threads} in {count} benchmark(s)")
        divergences += count

    expected_path = Path(args.expected)
    if args.write_expected:
        with open(expected_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DETERMINISTIC)
            for bench in sorted(base):
                writer.writerow(base[bench])
        print(f"full_sweep: wrote {expected_path} "
              f"({len(base)} benchmarks)")
    else:
        count = diff("expected", project(expected_path),
                     f"t{base_threads}", base)
        if count:
            print(f"full_sweep: run DIVERGES from {expected_path} in "
                  f"{count} benchmark(s) — a grammar/search change moved "
                  "the solved set; refresh with --write-expected if "
                  "intentional")
        divergences += count

    if divergences:
        print(f"full_sweep: FAILED — {divergences} divergence(s)")
        return 1
    print("full_sweep: OK — all thread counts bit-identical"
          + ("" if args.write_expected else " and matching the committed "
             "expectation"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
