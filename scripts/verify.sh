#!/usr/bin/env bash
# Tier-1 verification: configure (benchmarks ON), build, run the full test
# suite and the project linter, then run the gated bench binaries so every
# verified tree leaves fresh BENCH_*.json perf artifacts (diffable across
# PRs with scripts/bench_diff.py).
# Usage: scripts/verify.sh [--tsan] [--asan] [--audit] [--analyze] [--full]
#   --tsan     builds EVERY test suite with ThreadSanitizer (separate
#              build-tsan/ tree) and runs the full ctest pass — including
#              the socket front and fault-schedule scenarios
#   --asan     same, with AddressSanitizer + UndefinedBehaviorSanitizer
#              (build-asan/ tree)
#   --audit    builds with -DBNASH_AUDIT=ON (build-audit/ tree): the
#              BNASH_AUDIT_CHECK cross-checks recompute walker rows, sparse
#              prefix products and orbit ranks from scratch on every
#              step; the fuzz-corpus suites replay with the checks live
#   --analyze  clang-tidy over src/ with the checked-in .clang-tidy
#              (skips gracefully when clang-tidy is not installed)
#   --full     umbrella: tier-1 + lint + analyze + audit + asan + tsan,
#              plus the serving benchmark's self-tests
#              (servebench/run.py --selftest: generator checks and a
#              planted wrong verdict that must count as exactly one
#              failed request; skipped when python3 or cmake is missing)
#
# Every stage and every bench gate runs even when an earlier one failed:
# failures are recorded, listed at the end, and make the script exit 1.
set -uo pipefail
cd "$(dirname "$0")/.."

FAILED=()
# Runs one stage; a failure is recorded and verification continues.
stage() {
  local name="$1"
  shift
  if ! "$@"; then
    echo "verify.sh: FAILED: ${name}" >&2
    FAILED+=("${name}")
  fi
}
# Runs a command inside a directory (bench binaries write their
# BENCH_*.json artifacts to the working directory).
in_dir() {
  local dir="$1"
  shift
  (cd "${dir}" && "$@")
}

TSAN=OFF
ASAN=OFF
AUDIT=OFF
ANALYZE=OFF
SELFTEST=OFF
for arg in "$@"; do
  case "${arg}" in
    --tsan) TSAN=ON ;;
    --asan) ASAN=ON ;;
    --audit) AUDIT=ON ;;
    --analyze) ANALYZE=ON ;;
    --full) TSAN=ON; ASAN=ON; AUDIT=ON; ANALYZE=ON; SELFTEST=ON ;;
    *) echo "verify.sh: unknown flag '${arg}'" >&2; exit 2 ;;
  esac
done

# Project invariant linter — always runs; a dirty tree fails verification.
# New findings either get fixed, waived in the
# source with `// lint: <rule>-ok(reason)` / `// lint: no-charge(reason)`,
# or blessed into scripts/lint_baseline.json with --update-baseline.
if command -v python3 >/dev/null 2>&1; then
  stage "lint" python3 scripts/bnash_lint.py
else
  echo "verify.sh: python3 missing; skipping project linter" >&2
fi

# Benchmarks need google-benchmark (system package or FetchContent
# download). If that configure fails — e.g. offline with no system
# package — fall back to BENCH=OFF so the tier-1 test gate still runs.
BENCH=ON
if ! cmake -B build -S . -DBNASH_BUILD_BENCH=ON; then
  echo "verify.sh: bench configure failed; retrying with BNASH_BUILD_BENCH=OFF" >&2
  stage "configure" cmake -B build -S . -DBNASH_BUILD_BENCH=OFF
  BENCH=OFF
fi
stage "build" cmake --build build -j
# Per-test timeout: a deadlocked condition-variable wait or a runaway
# sweep fails its one test instead of wedging the whole verification.
stage "ctest" in_dir build ctest --output-on-failure -j --timeout 300

if [[ "${BENCH}" == "ON" ]]; then
  # Acceptance tables (R-CS / R-BATCH / R-FRONTIER / R-INTRA / R-MAXKT,
  # R-SYM orbit blocks, E-PE / PE-SPARSE, E4 byzantine, and E5/E6
  # mediator blocks) + BENCH_*.json artifacts.
  for bench_name in robustness payoff_engine solvers byzantine symmetry mediator \
                    scrip machine frpd awareness serve; do
    stage "bench_${bench_name}" in_dir build "./bench_${bench_name}" --benchmark_min_time=0.05s
  done
  # Regression gates against the blessed baselines. Wall time gets a
  # deliberately loose threshold (machine-to-machine noise); the
  # deterministic counters get tight ones — sweep work (cells_visited /
  # offsets_advanced) and protocol complexity (rounds / messages /
  # payload_words) regress only through algorithmic changes, so they
  # fail the gate even on a loaded machine. bench_diff skips gated
  # metrics absent from both files, so one unified gate list covers
  # every binary. Re-bless after an intentional change with
  #   python3 scripts/bench_diff.py bench/baselines/BENCH_<name>.json \
  #     build/BENCH_<name>.json --update-baseline
  # Skips gracefully when python3 is absent.
  if command -v python3 >/dev/null 2>&1; then
    for bench_name in robustness payoff_engine solvers byzantine symmetry mediator \
                      scrip machine frpd awareness serve; do
      if [[ -f "bench/baselines/BENCH_${bench_name}.json" ]]; then
        stage "gate BENCH_${bench_name}" \
          python3 scripts/bench_diff.py "bench/baselines/BENCH_${bench_name}.json" \
          "build/BENCH_${bench_name}.json" --gate real_time:150 \
          --gate cells_visited:5 --gate offsets_advanced:5 \
          --gate rounds:1 --gate messages:1 --gate payload_words:1 \
          --gate satisfied:1 --gate resumed_cells_skipped:5 \
          --gate stream_columns:1 --gate degraded_rate:1 --gate evictions:1
      else
        echo "verify.sh: no BENCH_${bench_name}.json baseline; skipping its gate" >&2
      fi
    done
  else
    echo "verify.sh: python3 missing; skipping bench regression gates" >&2
  fi
fi

if [[ "${SELFTEST}" == "ON" ]]; then
  # The serving benchmark builds its own Release tree (.bench_build/) and
  # checks that its generators plant the verdicts they claim and that a
  # wrong answer counts as a failed request.
  if command -v python3 >/dev/null 2>&1 && command -v cmake >/dev/null 2>&1; then
    stage "servebench selftest" python3 servebench/run.py --selftest
  else
    echo "verify.sh: python3 or cmake missing; skipping the servebench self-test" >&2
  fi
fi

if [[ "${ANALYZE}" == "ON" ]]; then
  # Curated clang-tidy pass (bugprone-*, concurrency-*, performance-* —
  # see .clang-tidy). The toolchain image ships only g++, so a missing
  # clang-tidy skips with a notice instead of failing.
  if command -v clang-tidy >/dev/null 2>&1; then
    stage "tidy configure" cmake -B build-tidy -S . -DBNASH_BUILD_BENCH=OFF -DBNASH_BUILD_TESTS=OFF \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # xargs -P0 would interleave diagnostics; the suites are small enough
    # that a serial pass stays cheap.
    stage "clang-tidy" bash -c "find src -name '*.cpp' -print0 |
      xargs -0 -n1 clang-tidy -p build-tidy --warnings-as-errors='*'"
  else
    echo "verify.sh: clang-tidy not installed; skipping --analyze" >&2
  fi
fi

if [[ "${AUDIT}" == "ON" ]]; then
  # Audit build: every BNASH_AUDIT_CHECK is live, so the fuzz corpora
  # (test_fuzz / test_robust_fuzz / test_port_fuzz) and the rest of the
  # suite replay with from-scratch cross-checks of the incremental sweep
  # state. Dedicated tree: the PUBLIC BNASH_AUDIT define must never mix
  # with tier-1 objects.
  stage "audit configure" cmake -B build-audit -S . -DBNASH_BUILD_BENCH=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBNASH_AUDIT=ON
  stage "audit build" cmake --build build-audit -j
  stage "audit ctest" in_dir build-audit ctest --output-on-failure -j --timeout 600
fi

if [[ "${ASAN}" == "ON" ]]; then
  # Address + UB sanitizers over the FULL suite in a dedicated tree.
  stage "asan configure" cmake -B build-asan -S . -DBNASH_BUILD_BENCH=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  stage "asan build" cmake --build build-asan -j
  stage "asan ctest" in_dir build-asan ctest --output-on-failure -j --timeout 600
fi

if [[ "${TSAN}" == "ON" ]]; then
  # ThreadSanitizer pass over EVERY suite — the thread pool + execution
  # grants, the granted parallel sweeps, the message-passing consensus
  # simulator, and the serving layer including the socket front and the
  # fault-schedule scenarios. Separate build tree so the instrumented
  # objects never mix with the tier-1 ones.
  stage "tsan configure" cmake -B build-tsan -S . -DBNASH_BUILD_BENCH=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  stage "tsan build" cmake --build build-tsan -j
  stage "tsan ctest" in_dir build-tsan ctest --output-on-failure -j --timeout 600
fi

if ((${#FAILED[@]} > 0)); then
  echo "verify.sh: ${#FAILED[@]} stage(s) failed:" >&2
  printf '  - %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "verify.sh: every stage passed"
