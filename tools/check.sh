#!/usr/bin/env bash
# Repo check driver: the tier-1 build + test cycle, plus optional sanitizer,
# stress, lint and per-area legs.
#
#   tools/check.sh            # standard build + tier-1 ctest
#   tools/check.sh --asan     # also: AddressSanitizer build running the
#                             # suites of CI's sanitize-chaos matrix (ctest
#                             # -L sanitize; the label's list is in
#                             # tests/CMakeLists.txt)
#   tools/check.sh --stress   # also: long-running suites (ctest -L stress)
#   tools/check.sh --coherence # only: the coherence suite (build +
#                             # ctest -L coherence, via the
#                             # coherence_smoke target, + the
#                             # coherence_sweep conservation gates)
#   tools/check.sh --lint     # only: build psflint + detlint and run the
#                             # lint-labeled tests (examples + fixtures stay
#                             # clean, src/tools/bench free of non-baselined
#                             # determinism findings)
#   tools/check.sh --ubsan    # also: UndefinedBehaviorSanitizer build
#                             # running the tier-1 suite
#   tools/check.sh --chaos    # only: the robustness suite (build + ctest
#                             # -L chaos + the chaos_sweep bench gates)
#   tools/check.sh --adapt    # only: the adaptation suite (build + ctest
#                             # -L adapt + the adaptation_sweep bench gates)
#   tools/check.sh --planner  # only: the planner suite (build + ctest -L
#                             # planner: the search's unit suites, its
#                             # output against the independent validator,
#                             # and the planner_scaling bench smoke gates)
#   tools/check.sh --bench    # only: psfbench smoke (its own Release build
#                             # in build-bench/, every workload for 1 s at
#                             # seed 1; fails when any psfbench output check
#                             # fails), then tools/benchdiff against the
#                             # checked-in baseline (bench/psfbench/
#                             # baseline/run1; fails on any work/sim metric
#                             # that differs — no timing is gated)
#   tools/check.sh --tidy     # also: clang-tidy (see .clang-tidy) over the
#                             # analysis layer and tools; skipped with a
#                             # notice when clang-tidy is not installed
#
# Tests are labeled in tests/CMakeLists.txt: "tier1" is the fast default
# suite; "stress" marks the randomized/fuzz soak tests; "lint" marks the
# psflint gate over in-tree PSDL specs.
#
# Run from the repo root. Build trees: build/ (standard), build-asan/,
# build-ubsan/, build-bench/ (psfbench).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
# PSF_WERROR=1 in the environment (the CI build job sets it) configures the
# standard build with -Werror so the -Wall/-Wextra/-Wshadow set is enforced.
WERROR_FLAG=""
if [[ "${PSF_WERROR:-0}" == 1 ]]; then
  WERROR_FLAG="-DPSF_WERROR=ON"
fi
RUN_ASAN=0
RUN_UBSAN=0
RUN_STRESS=0
RUN_TIDY=0
COHERENCE_ONLY=0
LINT_ONLY=0
CHAOS_ONLY=0
ADAPT_ONLY=0
PLANNER_ONLY=0
BENCH_ONLY=0
for arg in "$@"; do
  case "${arg}" in
    --asan) RUN_ASAN=1 ;;
    --ubsan) RUN_UBSAN=1 ;;
    --stress) RUN_STRESS=1 ;;
    --tidy) RUN_TIDY=1 ;;
    --coherence) COHERENCE_ONLY=1 ;;
    --lint) LINT_ONLY=1 ;;
    --chaos) CHAOS_ONLY=1 ;;
    --adapt) ADAPT_ONLY=1 ;;
    --planner) PLANNER_ONLY=1 ;;
    --bench) BENCH_ONLY=1 ;;
    *) echo "unknown option: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${LINT_ONLY}" == 1 ]]; then
  echo "== psflint (spec lint) + detlint (C++ determinism lint) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target psflint psflint_test \
    detlint detlint_test
  (cd build && ctest --output-on-failure -L lint)
  echo "== detlint over src/ tools/ bench/ =="
  ./build/tools/detlint src tools bench
  echo "== lint passed =="
  exit 0
fi

if [[ "${CHAOS_ONLY}" == 1 ]]; then
  echo "== chaos suite (fault injection + lease detection + retry) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target failover_test chaos_test chaos_sweep
  (cd build && ctest --output-on-failure -L chaos)
  echo "== chaos_sweep acceptance gates =="
  ./build/bench/chaos_sweep
  echo "== chaos suite passed =="
  exit 0
fi

if [[ "${ADAPT_ONLY}" == 1 ]]; then
  echo "== adaptation suite (controller + repair + migration + cache) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    adaptation_controller_test plan_cache_test failover_test \
    adaptation_sweep
  (cd build && ctest --output-on-failure -L adapt)
  echo "== adaptation_sweep acceptance gates =="
  ./build/bench/adaptation_sweep
  echo "== adaptation suite passed =="
  exit 0
fi

if [[ "${PLANNER_ONLY}" == 1 ]]; then
  echo "== planner suite (search + validator + hierarchical) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    planner_test bound_pruning_test hierarchy_test validate_test \
    property_test planner_scaling
  (cd build && ctest --output-on-failure -L planner)
  echo "== planner suite passed =="
  exit 0
fi

if [[ "${BENCH_ONLY}" == 1 ]]; then
  echo "== psfbench smoke (every workload, 1 s, seed 1) =="
  bash bench/psfbench/run.sh --seconds 1
  echo "== psfbench work/sim metrics against the checked-in baseline =="
  tools/benchdiff bench/psfbench/baseline/run1 build-bench/results
  echo "== psfbench smoke passed =="
  exit 0
fi

if [[ "${COHERENCE_ONLY}" == 1 ]]; then
  echo "== coherence suite (replica + directory + mail views) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target coherence_smoke coherence_sweep
  echo "== coherence_sweep conservation gates =="
  ./build/bench/coherence_sweep
  echo "== coherence suite passed =="
  exit 0
fi

echo "== standard build =="
cmake -B build -S . ${WERROR_FLAG} >/dev/null
cmake --build build -j "${JOBS}"

echo "== tier-1 tests =="
(cd build && ctest --output-on-failure -j "${JOBS}" -L tier1)

if [[ "${RUN_STRESS}" == 1 ]]; then
  echo "== stress tests =="
  (cd build && ctest --output-on-failure -j "${JOBS}" -L stress)
fi

if [[ "${RUN_TIDY}" == 1 ]]; then
  echo "== clang-tidy =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # The new-code surface this repo holds to the .clang-tidy profile; the
    # older layers migrate as they are touched.
    clang-tidy -p build --quiet \
      src/analysis/*.cpp src/spec/lexer.cpp src/spec/parser.cpp \
      tools/psflint.cpp
  else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
  fi
fi

if [[ "${RUN_UBSAN}" == 1 ]]; then
  echo "== UndefinedBehaviorSanitizer build (tier-1 suite) =="
  cmake -B build-ubsan -S . -DPSF_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}"
  (cd build-ubsan && ctest --output-on-failure -j "${JOBS}" -L tier1)
fi

if [[ "${RUN_ASAN}" == 1 ]]; then
  echo "== AddressSanitizer build (chaos + adaptation + cold paths + crypto/mail + planner) =="
  cmake -B build-asan -S . -DPSF_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target sanitize_suites
  (cd build-asan && ctest --output-on-failure -L sanitize)
fi

echo "== all checks passed =="
