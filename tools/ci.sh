#!/usr/bin/env bash
#===- tools/ci.sh - full verification entry point -------------------------===#
#
# Builds and tests the repository in the configurations that together
# cover the determinism disciplines. The dynamic checkers (src/check/) and
# fault injection (src/fault/) have no build switch: every tree compiles
# them, LVISH_CHECK_SAMPLE=<period> arms the checkers at process start and
# an installed fault::FaultPlan arms injection.
#
#   debug    - Debug with the dynamic checkers armed (ctest runs under
#              LVISH_CHECK_SAMPLE=64): lattice laws, ParST disjointness
#              shadow map, effect audit over the whole suite. Exports
#              compile_commands.json for external tooling.
#   release  - the tier-1 configuration (RelWithDebInfo, checkers
#              unarmed except where a test arms them): what ROADMAP.md's
#              verify command runs. CheckerTest and FaultStressTest run
#              here and in every other full-suite stage (debug, tsan,
#              asan, ubsan).
#   tsan     - ThreadSanitizer (auto-selects the locked deque). Telemetry
#              is compiled out here to prove the LVISH_TELEMETRY=0 build
#              stays healthy (empty snapshot struct, no-op counters).
#              Re-runs ContentionStressTest standalone to stress the
#              sharded waiter-table publish/probe protocol under TSan.
#   asan     - AddressSanitizer (RelWithDebInfo, LVISH_SANITIZE=address):
#              the full ctest suite under ASan, with LeakSanitizer's
#              at-exit leak check on (the default on Linux), so a
#              use-after-free, overflow or leaked task/frame fails it.
#   ubsan    - UndefinedBehaviorSanitizer (RelWithDebInfo,
#              LVISH_SANITIZE=undefined): the full ctest suite with
#              UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1, so any
#              report aborts its test and fails the stage.
#   bench    - smoke-runs every bench/ binary with --smoke --json and
#              validates the emitted lvish-bench-v1 documents with
#              tools/bench-report, then prints a non-fatal bench-report
#              diff of the committed bench/baselines/ pre/post JSONs.
#              Uses the release tree.
#   explore  - controlled-schedule smoke (src/explore/): re-runs
#              ExploreTest + ExploreRegressionTest + the explored
#              determinism sweeps under a reduced schedule budget
#              (LVISH_EXPLORE_SCHEDULES). Uses the release tree.
#   pbbs     - the PBBS-on-LVars problem suite (src/pbbs/): golden
#              matrix vs the sequential references with the checkers
#              armed (LVISH_CHECK_SAMPLE=64), explored determinism
#              sweeps + pinned replay corpus under a reduced schedule
#              budget, and smoke-runs of the four bench_pbbs_* benches
#              with --json + bench-report validation. Uses the release
#              tree.
#   streams  - streaming LVars (src/data/Stream.h): re-runs StreamTest
#              with the checkers armed (join-law sampling on the prefix
#              lattice) and under ThreadSanitizer (the backpressure
#              park/credit protocol is where a race would hide), replays
#              the pinned backpressure corpus under a reduced schedule
#              budget, and smoke-runs the two streaming pipeline benches
#              with --json + bench-report validation and a non-fatal
#              diff against the committed baselines. Uses the release
#              and tsan trees.
#   service  - multi-tenant service runtime: re-runs ServiceRuntimeTest
#              under ThreadSanitizer (cross-session isolation is where a
#              data race would hide), smoke-runs the open-loop traffic
#              bench with --json, validates the document, and prints a
#              non-fatal bench-report diff against the committed
#              bench/baselines/service_traffic.json. Uses the tsan and
#              release trees.
#   chaos    - service robustness under attack: re-runs ServiceChaosTest
#              (seeded mid-flight session dooms, admission delay
#              injection, drain-vs-doom races) and ServiceRobustnessTest
#              (budgets, deadlines, shed, drain) under ThreadSanitizer,
#              then smoke-runs the traffic bench's overload phase and
#              prints a non-fatal bench-report diff against the committed
#              baseline. Uses the tsan and release trees.
#   analyze  - scope-aware static analysis (tools/analyze/): runs
#              lvish-analyze over src/, bench/, examples/, and tests/
#              against the committed tools/analyze/baseline.json, failing
#              on any non-baselined finding. Subsumes the retired
#              lvish-lint scan and the old deprecated-threshold-read
#              grep. Uses the release tree.
#   coverage - Debug + LVISH_COVERAGE=ON (gcov instrumentation): runs the
#              suite and writes a line-coverage summary artifact to
#              build-ci-coverage/coverage-summary.txt. Not in the default
#              stage list (instrumented builds are slow).
#
# Each stage names the trees it needs; ensure_tree configures and builds a
# tree incrementally, so a tree an earlier stage built is reused as is.
#
# Usage: tools/ci.sh
#        [debug|release|tsan|asan|ubsan|bench|explore|pbbs|streams|
#         service|chaos|analyze|coverage]...
#        (default: debug release tsan asan ubsan bench explore pbbs
#         streams service chaos analyze)
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && \
  STAGES=(debug release tsan asan ubsan bench explore pbbs streams \
          service chaos analyze)

RELEASE=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
TSAN=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DLVISH_SANITIZE=thread
      -DLVISH_TELEMETRY=OFF)

# ensure_tree <name> <cmake flags...>: configures build-ci-<name> with the
# flags and builds it. The build is incremental, so a tree an earlier stage
# (or an earlier run) built costs only the up-to-date check.
ensure_tree() {
  local name=$1; shift
  local dir="build-ci-$name"
  echo "==== [$name] configure + build ===="
  cmake -B "$dir" -S . "$@" > "$dir.cfg.log" 2>&1 || {
    cat "$dir.cfg.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
}

# run_stage <name> <cmake flags...>: ensure_tree, then the full ctest suite.
run_stage() {
  local name=$1
  ensure_tree "$@"
  echo "==== [$name] ctest ===="
  ctest --test-dir "build-ci-$name" --output-on-failure -j "$JOBS"
}

# bench_smoke <bench binaries...>: runs each release-tree bench with
# --smoke --json into build-ci-release/bench-json/ and validates the output.
bench_smoke() {
  mkdir -p build-ci-release/bench-json
  local jsons=()
  for b in "$@"; do
    local name json
    name=$(basename "$b")
    json="build-ci-release/bench-json/BENCH_${name#bench_}.json"
    echo "---- $name --smoke --json $json ----"
    "$b" --smoke --json "$json"
    jsons+=("$json")
  done
  ./build-ci-release/tools/bench-report validate "${jsons[@]}"
}

# drift <baseline.json> <new.json>: non-fatal bench-report diff.
drift() {
  ./build-ci-release/tools/bench-report diff "$1" "$2" \
    || echo "bench-report diff failed (non-fatal)"
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    debug)
      # The whole suite with the checkers armed at today's sampling
      # density; CheckerEnvTest overrides the period to 1 itself.
      ensure_tree debug -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
      echo "==== [debug] ctest with the checkers armed ===="
      LVISH_CHECK_SAMPLE=64 ctest --test-dir build-ci-debug \
        --output-on-failure -j "$JOBS"
      ;;
    release)
      run_stage release "${RELEASE[@]}"
      ;;
    tsan)
      run_stage tsan "${TSAN[@]}"
      echo "==== [tsan] contended waiter-table stress ===="
      # Re-run the sharded put/wake stress on its own: the suite run above
      # shares the machine across tests, this run gives the publish/probe
      # protocol an uncontended-by-other-tests pass under TSan.
      ./build-ci-tsan/tests/ContentionStressTest
      echo "==== [tsan] PBBS golden matrix ===="
      # The worker-count x steal-seed golden matrix doubles as a race
      # hunt: every put/bump/freeze path of the four PBBS ports runs
      # under TSan against the sequential references.
      ./build-ci-tsan/tests/PbbsGoldenTest
      ;;
    asan)
      run_stage asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVISH_SANITIZE=address
      ;;
    ubsan)
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        run_stage ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVISH_SANITIZE=undefined
      ;;
    bench)
      ensure_tree release "${RELEASE[@]}"
      echo "==== [bench] smoke-running benches with --json ===="
      bench_smoke build-ci-release/bench/bench_*
      echo "==== [bench] baseline drift report (informational) ===="
      # Non-fatal: prints the committed pre/post sharded-hot-path medians
      # (bench/baselines/, full-rep runs) so a reviewer sees the tracked
      # delta without this stage depending on machine-load-sensitive
      # numbers. Smoke-run JSONs above use reduced sizes and are not
      # comparable to the committed baselines.
      drift bench/baselines/micro_lvar_pre.json \
        bench/baselines/micro_lvar_post.json
      ;;
    explore)
      ensure_tree release "${RELEASE[@]}"
      echo "==== [explore] schedule-exploration smoke (budget 100) ===="
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreRegressionTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/DeterminismStressTest \
        --gtest_filter='DeterminismExplored.*'
      ./build-ci-release/tests/ContentionStressTest \
        --gtest_filter='ContentionStress.Explored*'
      ;;
    pbbs)
      ensure_tree release "${RELEASE[@]}"
      echo "==== [pbbs] golden matrix with the checkers armed ===="
      LVISH_CHECK_SAMPLE=64 ./build-ci-release/tests/PbbsGoldenTest
      echo "==== [pbbs] explored sweeps + pinned replay corpus ===="
      LVISH_CHECK_SAMPLE=64 LVISH_EXPLORE_SCHEDULES=100 \
        ./build-ci-release/tests/PbbsExploreTest
      echo "==== [pbbs] bench smoke with --json ===="
      bench_smoke build-ci-release/bench/bench_pbbs_*
      echo "==== [pbbs] baseline drift report (informational) ===="
      # Non-fatal: smoke sizes are not comparable to the committed
      # full-rep baselines; the diff (new/old-only rows included) is for
      # reviewers, not a gate.
      for p in bfs components histogram forest; do
        drift "bench/baselines/pbbs_$p.json" \
          "build-ci-release/bench-json/BENCH_pbbs_$p.json"
      done
      ;;
    streams)
      ensure_tree release "${RELEASE[@]}"
      echo "==== [streams] StreamTest with the checkers armed ===="
      # The dynamic checkers sample join laws on every appendAt/advance;
      # the explored sweeps and the pinned backpressure replay run here
      # under a reduced schedule budget.
      LVISH_CHECK_SAMPLE=64 LVISH_EXPLORE_SCHEDULES=100 \
        ./build-ci-release/tests/StreamTest
      ensure_tree tsan "${TSAN[@]}"
      echo "==== [streams] StreamTest under ThreadSanitizer ===="
      # The producer park / consumer credit handshake (key bucket 1, the
      # publish-then-recheck Dekker protocol) is exactly where a missed
      # fence would hide from the single-threaded explored runs.
      ./build-ci-tsan/tests/StreamTest
      echo "==== [streams] pipeline bench smoke with --json ===="
      bench_smoke build-ci-release/bench/bench_pipeline_etl \
        build-ci-release/bench/bench_stream_wordcount
      echo "==== [streams] baseline drift report (informational) ===="
      # Non-fatal: smoke sizes are not comparable to the committed
      # full-rep baselines; the diff is for reviewers, not a gate.
      for p in pipeline_etl stream_wordcount; do
        drift "bench/baselines/$p.json" \
          "build-ci-release/bench-json/BENCH_$p.json"
      done
      ;;
    service)
      ensure_tree tsan "${TSAN[@]}"
      echo "==== [service] ServiceRuntimeTest under ThreadSanitizer ===="
      # Concurrent sessions share the waiter table, the per-session inject
      # queues, and the finalizer thread - the exact surfaces where a
      # cross-session data race would hide from the single-session suite.
      ./build-ci-tsan/tests/ServiceRuntimeTest
      ensure_tree release "${RELEASE[@]}"
      echo "==== [service] open-loop traffic smoke ===="
      bench_smoke build-ci-release/bench/bench_service_traffic
      echo "==== [service] baseline drift report (informational) ===="
      # Non-fatal, and the smoke run uses reduced sizes - the diff shows a
      # reviewer the tracked latency/throughput columns next to the
      # committed full-rep baseline without gating on load-sensitive
      # numbers.
      drift bench/baselines/service_traffic.json \
        build-ci-release/bench-json/BENCH_service_traffic.json
      ;;
    chaos)
      ensure_tree tsan "${TSAN[@]}"
      echo "==== [chaos] ServiceChaosTest under ThreadSanitizer ===="
      # The doom-delivery thread vs. finalizer vs. admission machinery is
      # exactly where a shutdown/cancellation race would hide; the test's
      # assertions are schedule-independent so TSan timing skew is fine.
      ./build-ci-tsan/tests/ServiceChaosTest
      echo "==== [chaos] ServiceRobustnessTest under ThreadSanitizer ===="
      ./build-ci-tsan/tests/ServiceRobustnessTest
      ensure_tree release "${RELEASE[@]}"
      echo "==== [chaos] overload bench smoke ===="
      bench_smoke build-ci-release/bench/bench_service_traffic
      echo "==== [chaos] overload baseline drift report (informational) ===="
      # Non-fatal: refusal counts (shed/deadline) measure real wall time
      # and drift with machine load; the diff is for reviewers, not a gate.
      drift bench/baselines/service_traffic.json \
        build-ci-release/bench-json/BENCH_service_traffic.json
      ;;
    analyze)
      ensure_tree release "${RELEASE[@]}"
      echo "==== [analyze] lvish-analyze over src/ bench/ examples/ tests/ ===="
      ./build-ci-release/tools/lvish-analyze \
        --baseline tools/analyze/baseline.json \
        src bench examples tests
      ;;
    coverage)
      run_stage coverage -DCMAKE_BUILD_TYPE=Debug -DLVISH_COVERAGE=ON
      echo "==== [coverage] line-coverage summary ===="
      if command -v gcovr >/dev/null 2>&1; then
        gcovr --root . --filter 'src/' --print-summary \
          build-ci-coverage | tee build-ci-coverage/coverage-summary.txt
      else
        # Fallback without gcovr: aggregate gcov's per-file line stats for
        # src/ objects into one covered/total percentage.
        ( cd build-ci-coverage
          find . -name '*.gcda' -path '*src*' | while read -r g; do
            gcov -n -o "$(dirname "$g")" "$g" 2>/dev/null
          done | awk '
            /^File/ { f=$2; insrc = (f ~ /src\//) }
            insrc && /^Lines executed:/ {
              split($0, a, ":"); split(a[2], b, "% of ")
              covered += b[1] / 100 * b[2]; total += b[2]
            }
            END {
              if (total > 0)
                printf "lines: %.0f/%.0f (%.1f%%)\n",
                       covered, total, 100 * covered / total
              else
                print "lines: no gcov data found"
            }' > coverage-summary.txt
          cat coverage-summary.txt )
      fi
      ;;
    *)
      echo "unknown stage '$stage' (expected debug, release, tsan, asan," \
           "ubsan, bench, explore, pbbs, streams, service, chaos, analyze," \
           "or coverage)" >&2
      exit 2
      ;;
  esac
done

echo "ci.sh: all stages passed (${STAGES[*]})"
