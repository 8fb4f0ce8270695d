#!/usr/bin/env bash
#===-- scripts/check.sh - tier-1 verify with warnings-as-errors ----------===//
#
# Runs the tier-1 verify command in a dedicated build tree with
# -DSTAGG_WERROR=ON, so the repo's zero-warning state is enforced: any new
# -Wall -Wextra diagnostic fails the build. This is the single entry point
# shared by local runs and every CI job (.github/workflows/ci.yml).
#
# Usage: scripts/check.sh [--sanitize[=address|thread] | --bench | --tidy
#                          | --tidy-search]
#
#   --sanitize       instrument with ASan + UBSan (-DSTAGG_SANITIZE=address)
#                    and run the tests under the sanitizers
#   --sanitize=thread
#                    instrument with TSan (-DSTAGG_SANITIZE=thread) instead;
#                    the CI tsan job runs the concurrency-heavy suites this
#                    way (CTEST_ARGS="-R Serve|Socket|Vm|Search|Api")
#   --bench          performance mode: build Release and run
#                    `stagg bench --json` into $BUILD_DIR/bench.json — the
#                    entry point both the CI perf job and local perf runs
#                    share
#   --tidy           static lint: export compile_commands.json and run
#                    clang-tidy (.clang-tidy: bugprone-*, performance-*,
#                    concurrency-*) over src/; exits nonzero on findings
#                    (the CI job is non-blocking)
#   --tidy-search    like --tidy but restricted to src/search — the
#                    enumerators and the candidate loop — with every
#                    finding promoted to an error; the CI tidy-search job is
#                    BLOCKING, so findings in src/search cannot land
#
# Environment overrides:
#   BUILD_DIR=dir    build tree (default: build-check; build-sanitize for
#                    --sanitize=address but build-tsan for --sanitize=thread
#                    so the two instrumentations never share stale objects;
#                    build-bench when --bench is given; build-tidy when
#                    --tidy or --tidy-search is given)
#   CMAKE_ARGS=...   extra configure arguments, e.g. a compiler selection:
#                    CMAKE_ARGS="-DCMAKE_CXX_COMPILER=clang++"
#   CTEST_ARGS=...   extra ctest arguments, split on whitespace; quotes
#                    inside are passed on literally, not parsed
#   CTEST_PARALLEL_LEVEL=n
#                    ctest job count (default: nproc); build -j is unaffected
#   BENCH_ARGS=...   extra `stagg bench` arguments (default suite/threads
#                    are "--suite real --threads 1")
#
#===----------------------------------------------------------------------===//

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=OFF
BENCH=OFF
TIDY=OFF
TIDY_SEARCH=OFF
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=address ;;
    --sanitize=address) SANITIZE=address ;;
    --sanitize=thread) SANITIZE=thread ;;
    --sanitize=*)
      echo "check.sh: --sanitize expects address or thread" >&2; exit 2 ;;
    --bench) BENCH=ON ;;
    --tidy) TIDY=ON ;;
    --tidy-search) TIDY=ON; TIDY_SEARCH=ON ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done
MODES=0
[ "$SANITIZE" != OFF ] && MODES=$((MODES + 1))
[ "$BENCH" = ON ] && MODES=$((MODES + 1))
[ "$TIDY" = ON ] && MODES=$((MODES + 1))
if [ "$MODES" -gt 1 ]; then
  echo "check.sh: --sanitize, --bench and --tidy are mutually exclusive" >&2
  exit 2
fi

# The two sanitizer flavors get separate default trees: sharing one
# directory means switching flavors reuses the other flavor's objects and
# ccache entries, and a TSan lane can silently test ASan-instrumented code.
if [ "$SANITIZE" = thread ]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
elif [ "$SANITIZE" != OFF ]; then
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
elif [ "$BENCH" = ON ]; then
  BUILD_DIR="${BUILD_DIR:-build-bench}"
elif [ "$TIDY" = ON ]; then
  BUILD_DIR="${BUILD_DIR:-build-tidy}"
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
fi
JOBS="$(nproc 2>/dev/null || echo 2)"

if [ "$TIDY" = ON ]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy not found (apt: clang-tidy)" >&2
    exit 2
  fi
  # shellcheck disable=SC2086
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DSTAGG_BUILD_BENCH=OFF -DSTAGG_BUILD_EXAMPLES=OFF \
    ${CMAKE_ARGS:-}
  TIDY_SCOPE=src
  TIDY_FLAGS=()
  if [ "$TIDY_SEARCH" = ON ]; then
    # The enumerators and the candidate loop run on every lift; findings
    # there block the merge.
    TIDY_SCOPE=src/search
    TIDY_FLAGS+=(--warnings-as-errors='*')
  fi
  # run-clang-tidy parallelizes when available; fall back to a plain loop.
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${TIDY_FLAGS[@]}" \
      "^$(pwd)/$TIDY_SCOPE/"
  else
    find "$TIDY_SCOPE" -name '*.cpp' -print0 |
      xargs -0 -n 1 -P "$JOBS" clang-tidy -p "$BUILD_DIR" --quiet \
        "${TIDY_FLAGS[@]}"
  fi
  echo "check.sh: clang-tidy clean over $TIDY_SCOPE/"
  exit 0
fi

EXTRA_ARGS=()
if [ "$BENCH" = ON ]; then
  # Benchmarks are only meaningful with optimizations on.
  EXTRA_ARGS+=(-DCMAKE_BUILD_TYPE=Release)
fi

# CMAKE_ARGS is intentionally word-split: it carries whole -D... arguments.
# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . \
  -DSTAGG_WERROR=ON \
  -DSTAGG_SANITIZE="$SANITIZE" \
  "${EXTRA_ARGS[@]}" \
  ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$JOBS"

if [ "$BENCH" = ON ]; then
  # shellcheck disable=SC2086
  "$BUILD_DIR/stagg" bench ${BENCH_ARGS:---suite real --threads 1} \
    --json "$BUILD_DIR/bench.json"
  echo "check.sh: bench report written to $BUILD_DIR/bench.json"
  exit 0
fi

# halt_on_error keeps a sanitizer finding from hiding behind a pass; the
# suppressions hooks are no-ops until a finding ever needs one.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

# CTEST_PARALLEL_LEVEL lets callers bound test parallelism separately from
# build parallelism (networked suites each bind their own kernel-assigned
# port, but a loaded runner can still want fewer concurrent servers).
# shellcheck disable=SC2086
(cd "$BUILD_DIR" &&
   ctest --output-on-failure -j"${CTEST_PARALLEL_LEVEL:-$JOBS}" ${CTEST_ARGS:-})

if [ "$SANITIZE" = thread ]; then
  echo "check.sh: build and all tests green under TSan"
elif [ "$SANITIZE" != OFF ]; then
  echo "check.sh: build and all tests green under ASan/UBSan"
else
  echo "check.sh: build and all tests green with -Wall -Wextra -Werror"
fi
