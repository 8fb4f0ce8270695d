#!/usr/bin/env python3
"""Builds the STAGG benchmark (perfbench) from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lift-registry --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, both taken
relative to the checkout root. Build output goes to stderr, so the last line
of stdout is the JSON result. Exits non-zero without a result when
the checkout lacks the STAGG sources or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("lift-registry", "serve-ingest", "serve-execute")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def source_digest():
    """SHA-256 over every source the benchmark builds, in path order."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "cmake", "perfbench"):
        files += [p for p in (ROOT / sub).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "Stagg.h").is_file() or \
            not (ROOT / "tests" / "expected_sweep.csv").is_file():
        fail(f"no STAGG source tree at {ROOT}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)

    work_dir = build_dir / "perfbench-run"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", str(ROOT),
           "--stagg", str(build_dir / "stagg" / "stagg"),
           "--work-dir", str(work_dir),
           "--source-digest", source_digest(),
           "--git-commit", git_commit()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
