#!/usr/bin/env python3
"""Compare two `stagg bench --json` reports and fail on perf regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [--max-ratio 2.0]
        [--abs-max-ratio 4.0] [--prefix micro/]

The gate compares *normalized* per-iteration times: every entry is divided
by the run's own `micro/taco_parse` time, which cancels out raw machine
speed (the committed baseline and the CI runner are different hardware). A
normalized ratio above --max-ratio fails the gate: that benchmark got
slower relative to everything else, i.e. a real hot-path regression. As a
backstop against global regressions that scale all entries together (a
build-type misconfiguration, say), the *absolute* per-iteration ratio is
also checked against the looser --abs-max-ratio.

--min-speedup KEY:RATIO adds a *within-report* speedup gate: KEY names the
fast side of a twin pair, resolved by suffix — `KEY_par` pairs with
`KEY_ser` (parallel vs serial), and `KEY_fused` pairs with the bare `KEY`
(optimized vs raw). Both twins must be present in the CURRENT report; the
gate fails unless current[slow] / current[fast] >= RATIO. Because both sides come from the same run on the same machine,
no normalization is needed — this is how CI proves the parallel frontier
scales and the VM optimizer actually pays, instead of merely not
regressing.

Only entries whose name starts with --prefix (default `micro/`) are gated:
the end-to-end lift timings are reported for information but are too noisy
for a CI threshold. A baseline entry missing from the current report fails
the gate loudly — a renamed or dropped benchmark must force a deliberate
baseline refresh, not silently shrink coverage (--allow-missing restores
the old report-only behavior for one-off local comparisons). New
current-side entries stay non-fatal, so adding benchmarks never breaks the
gate retroactively.

Exit codes: 0 ok, 1 regression found, 2 bad input.
"""

import argparse
import json
import sys

CALIBRATION = "micro/taco_parse"


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    if doc.get("schema") != "stagg-bench" or doc.get("version") != 1:
        sys.exit(f"bench_compare: {path} is not a stagg-bench v1 report")
    entries = {}
    for entry in doc.get("benchmarks", []):
        per_iter = entry.get("per_iter_seconds", 0)
        if per_iter > 0:
            entries[entry["name"]] = per_iter
    if CALIBRATION not in entries:
        sys.exit(f"bench_compare: {path} lacks the {CALIBRATION} "
                 "calibration benchmark")
    return entries, doc.get("config_fingerprint", ""), host_line(doc)


def host_line(doc):
    """One line naming the machine and build a report was measured on."""
    host = doc.get("host")
    if not isinstance(host, dict):
        return "not recorded"
    return (f"{host.get('hardware_concurrency', '?')} hardware threads, "
            f"{host.get('compiler_id', '?')} "
            f"{host.get('compiler_version', '?')}, "
            f"build type {host.get('build_type') or '?'}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when normalized current/baseline exceeds "
                             "this (default 2.0)")
    parser.add_argument("--abs-max-ratio", type=float, default=4.0,
                        help="fail when the raw ratio exceeds this "
                             "(default 4.0)")
    parser.add_argument("--prefix", default="micro/",
                        help="gate only benchmarks with this name prefix "
                             "(default micro/)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="KEY:RATIO",
                        help="fail unless the current report shows "
                             "cur[twin of KEY] / cur[KEY] >= RATIO; the twin "
                             "is KEY with _par->_ser, or KEY without its "
                             "_fused suffix (repeatable)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline entry is missing "
                             "from the current report (local comparisons "
                             "across divergent branches)")
    args = parser.parse_args()

    base, base_fp, base_host = load(args.baseline)
    cur, cur_fp, cur_host = load(args.current)
    print(f"bench_compare: baseline host: {base_host}")
    print(f"bench_compare: current host:  {cur_host}")
    if base_fp != cur_fp:
        # Different pipeline configs make the verifier/validator baselines
        # incomparable — loud warning rather than failure so one-off local
        # comparisons stay possible, but CI baselines must be regenerated
        # with the default config.
        print("bench_compare: WARNING — config fingerprints differ; "
              "the reports measured different pipeline configurations:\n"
              f"  baseline: {base_fp}\n  current:  {cur_fp}")
    base_cal = base[CALIBRATION]
    cur_cal = cur[CALIBRATION]

    shared = sorted(set(base) & set(cur))
    gated = [n for n in shared if n.startswith(args.prefix)]
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    print(f"bench_compare: {len(shared)} shared entries, "
          f"{len(gated)} gated ({args.prefix}*), calibration = {CALIBRATION}")
    print(f"  calibration baseline {base_cal * 1e6:9.2f} us  "
          f"current {cur_cal * 1e6:9.2f} us  "
          f"(machine-speed ratio {cur_cal / base_cal:.2f}x)")

    failures = []  # (name, one-line detail) pairs, echoed in the verdict
    for name in shared:
        raw = cur[name] / base[name]
        norm = (cur[name] / cur_cal) / (base[name] / base_cal)
        # The calibration benchmark's normalized ratio is 1.0 by
        # construction, so it is held to the absolute backstop only — a
        # taco_parse regression must not pass by normalizing itself away.
        is_cal = name == CALIBRATION
        gate = name in gated or is_cal
        verdict = "ok"
        if gate and not is_cal and norm > args.max_ratio:
            verdict = f"REGRESSION (normalized {norm:.2f}x > "\
                      f"{args.max_ratio:.2f}x)"
            failures.append((name,
                             f"normalized {norm:.2f}x (limit "
                             f"{args.max_ratio:.2f}x), "
                             f"{base[name] * 1e6:.2f} -> "
                             f"{cur[name] * 1e6:.2f} us"))
        elif gate and raw > args.abs_max_ratio:
            verdict = f"REGRESSION (absolute {raw:.2f}x > "\
                      f"{args.abs_max_ratio:.2f}x)"
            failures.append((name,
                             f"absolute {raw:.2f}x (limit "
                             f"{args.abs_max_ratio:.2f}x), "
                             f"{base[name] * 1e6:.2f} -> "
                             f"{cur[name] * 1e6:.2f} us"))
        flag = "*" if gate else " "
        print(f" {flag}{name:40s} base {base[name] * 1e6:10.2f} us  "
              f"cur {cur[name] * 1e6:10.2f} us  raw {raw:5.2f}x  "
              f"norm {norm:5.2f}x  {verdict}")

    # ANY baseline entry vanishing from the current report fails loudly
    # (unless --allow-missing): a renamed/dropped benchmark must force a
    # deliberate baseline refresh instead of silently leaving the gate or
    # the report. New current-side entries stay non-fatal so adding
    # benchmarks never breaks the gate retroactively.
    for name in only_base:
        if args.allow_missing:
            print(f"  {name}: only in baseline (removed?) — tolerated by "
                  "--allow-missing")
        else:
            kind = "gated benchmark" if name.startswith(args.prefix) \
                else "baseline entry"
            print(f"  {name}: MISSING from current report — {kind} dropped "
                  "or renamed; refresh bench/baseline.json if intentional")
            failures.append((name, f"{kind} missing from current report"))
    for name in only_cur:
        print(f"  {name}: only in current (new benchmark)")

    # Speedup gates: the fast benchmark vs its slow twin, both measured in
    # the *current* run so machine speed cancels exactly. A malformed spec
    # or a missing side is a hard failure — a speedup gate that silently
    # stops measuring is worse than none.
    for spec in args.min_speedup:
        key, sep, ratio_text = spec.rpartition(":")
        if key.endswith("_par"):
            twin = key[:-len("_par")] + "_ser"
        elif key.endswith("_fused"):
            twin = key[:-len("_fused")]
        else:
            twin = ""
        if not sep or not key or not twin:
            sys.exit(f"bench_compare: bad --min-speedup spec '{spec}' "
                     "(expected KEY:RATIO with KEY ending in _par or "
                     "_fused)")
        try:
            min_ratio = float(ratio_text)
        except ValueError:
            sys.exit(f"bench_compare: bad --min-speedup ratio in '{spec}'")
        missing = [n for n in (key, twin) if n not in cur]
        if missing:
            for name in missing:
                print(f"  {name}: MISSING from current report — required "
                      f"by --min-speedup {spec}")
                failures.append((name, f"required by --min-speedup {spec} "
                                       "but absent from current report"))
            continue
        speedup = cur[twin] / cur[key]
        verdict = "ok" if speedup >= min_ratio else \
            f"TOO SLOW (< {min_ratio:.2f}x)"
        print(f" *{key:40s} slow {cur[twin] * 1e6:10.2f} us  "
              f"fast {cur[key] * 1e6:10.2f} us  "
              f"speedup {speedup:5.2f}x  {verdict}")
        if speedup < min_ratio:
            failures.append((key,
                             f"speedup {speedup:.2f}x below the "
                             f"{min_ratio:.2f}x floor ({twin} "
                             f"{cur[twin] * 1e6:.2f} us vs {key} "
                             f"{cur[key] * 1e6:.2f} us)"))

    if failures:
        # Name every offender with its measured ratio so the CI log's last
        # lines say exactly what regressed and by how much.
        print(f"bench_compare: FAILED — {len(failures)} regression(s):")
        for name, detail in failures:
            print(f"  {name}: {detail}")
        return 1
    print("bench_compare: OK — no gated benchmark regressed past "
          f"{args.max_ratio:.2f}x (normalized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
