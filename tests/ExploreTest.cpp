//===- ExploreTest.cpp - Controlled-scheduling exploration ------------------===//
//
// Acceptance tests for src/explore (DESIGN.md Section 12): the virtual
// scheduler owns every nondeterministic decision, so schedule-dependent
// races that stress repetition only *might* witness are found by seeded
// search, covered exhaustively under a preemption bound, and replayed
// bit-for-bit from a printable string.
//
//===----------------------------------------------------------------------===//

#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"
#include "src/fault/FaultPlan.h"
#include "src/trans/Cancel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

using namespace lvish;

namespace {

constexpr EffectSet IOE = Eff::FullIO;

/// Schedule budget, overridable so ci.sh's explore stage can smoke-run
/// with a small budget (LVISH_EXPLORE_SCHEDULES=N).
unsigned scheduleBudget(unsigned Def) {
  if (const char *S = std::getenv("LVISH_EXPLORE_SCHEDULES")) {
    int V = std::atoi(S);
    if (V > 0)
      return static_cast<unsigned>(V);
  }
  return Def;
}

std::string sig(const ParOutcome<int> &O) {
  if (O.ok())
    return "ok:" + std::to_string(O.value());
  return "fault:" + explore::failureSig(O.fault());
}

// -- Schedule-dependent race programs --------------------------------------
// Each returns a different outcome depending on the schedule; the explorer
// must find the failing interleavings and replay them exactly.

/// Put-vs-freeze race: the forked putter ("L") races the root's explicit
/// freeze (the root yields in between, so both orders are reachable).
/// put-first => ok:7; freeze-first => put_after_freeze at "L".
ParOutcome<int> freezeRace(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
        auto Putter = [LV](ParCtx<IOE> C) -> Par<void> {
          putPureLVar(C, *LV, 7);
          co_return;
        };
        fork(Ctx, Putter);
        co_await yield(Ctx);
        co_return static_cast<int>(freezePureLVar(Ctx, *LV));
      },
      Opts);
}

/// Conflicting IVar put: both children always fault the session, but WHICH
/// child is second - and thus the fault's pedigree ("L" vs "RL") - is
/// schedule-dependent.
ParOutcome<int> conflictRace(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx, "contested");
        auto A = [IV](ParCtx<IOE> C) -> Par<void> {
          put(C, *IV, 1);
          co_return;
        };
        auto B = [IV](ParCtx<IOE> C) -> Par<void> {
          put(C, *IV, 2);
          co_return;
        };
        fork(Ctx, A);
        fork(Ctx, B);
        co_return co_await get(Ctx, *IV);
      },
      Opts);
}

/// Multi-waiter wake-order race: both children park on Gate, the root's
/// put wakes them *together* (one notifyWaiters batch), and the wake-order
/// decision picks which conflicting put lands second.
ParOutcome<int> wakeOrderRace(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto Gate = newIVar<int>(Ctx, "gate");
        auto Out = newIVar<int>(Ctx, "out");
        auto W1 = [Gate, Out](ParCtx<IOE> C) -> Par<void> {
          int G = co_await get(C, *Gate);
          put(C, *Out, G + 1);
        };
        auto W2 = [Gate, Out](ParCtx<IOE> C) -> Par<void> {
          int G = co_await get(C, *Gate);
          put(C, *Out, G + 2);
        };
        fork(Ctx, W1);
        fork(Ctx, W2);
        co_await yield(Ctx);
        put(Ctx, *Gate, 1);
        co_return co_await get(Ctx, *Out);
      },
      Opts);
}

/// The 2-worker/3-task IVar program for exhaustive enumeration: a root and
/// two independent putters. Correct under EVERY interleaving (ok:3); the
/// point is counting and covering the bounded schedule space.
ParOutcome<int> threeTaskProgram(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto A = newIVar<int>(Ctx, "a");
        auto B = newIVar<int>(Ctx, "b");
        auto PutA = [A](ParCtx<IOE> C) -> Par<void> {
          put(C, *A, 1);
          co_return;
        };
        auto PutB = [B](ParCtx<IOE> C) -> Par<void> {
          put(C, *B, 2);
          co_return;
        };
        fork(Ctx, PutA);
        fork(Ctx, PutB);
        int VA = co_await get(Ctx, *A);
        int VB = co_await get(Ctx, *B);
        co_return VA + VB;
      },
      Opts);
}

// -- The controlled scheduler itself ---------------------------------------

TEST(ExploreTest, DefaultScheduleMatchesThreadedResult) {
  // The all-defaults replay (empty decision log) must run any correct
  // program to its normal result, single-threaded.
  explore::Engine Eng = explore::Engine::replay({}, 2);
  ParOutcome<int> O = threeTaskProgram(explore::sessionOptions(Eng));
  EXPECT_EQ(sig(O), "ok:3");
  EXPECT_GE(Eng.steps(), 3u) << "root + 2 children must all be resumed";
  EXPECT_GT(Eng.log().size(), 0u);
}

TEST(ExploreTest, EngineIsDeterministicPerSeed) {
  for (uint64_t Seed : {1ull, 42ull, 31337ull}) {
    explore::Engine E1 = explore::Engine::random(Seed, 3);
    explore::Engine E2 = explore::Engine::random(Seed, 3);
    ParOutcome<int> O1 = freezeRace(explore::sessionOptions(E1));
    ParOutcome<int> O2 = freezeRace(explore::sessionOptions(E2));
    EXPECT_EQ(sig(O1), sig(O2)) << "seed=" << Seed;
    EXPECT_EQ(E1.pedigreeHash(), E2.pedigreeHash()) << "seed=" << Seed;
    EXPECT_EQ(E1.chosen(), E2.chosen()) << "seed=" << Seed;
  }
}

// -- Seeded search (acceptance: race found in <= 500 PCT schedules) --------

TEST(ExploreTest, PctSearchFindsFreezeRace) {
  explore::SearchOptions O;
  O.Schedules = scheduleBudget(500);
  explore::SearchResult R = explore::searchPct(freezeRace, O);
  ASSERT_TRUE(R.Failure.has_value())
      << "no failing schedule in " << R.SchedulesRun << " PCT schedules";
  EXPECT_LE(R.Failure->ScheduleIndex + 1, 500u);
  EXPECT_EQ(explore::failureSig(R.Failure->F), "put_after_freeze@L");
  EXPECT_FALSE(R.Failure->Replay.empty());
}

TEST(ExploreTest, RandomSearchFindsFreezeRace) {
  explore::SearchOptions O;
  O.Schedules = scheduleBudget(500);
  explore::SearchResult R = explore::searchRandom(freezeRace, O);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(explore::failureSig(R.Failure->F), "put_after_freeze@L");
}

TEST(ExploreTest, SearchControlsWakeOrder) {
  // Across seeds, the wake-order pick must produce BOTH possible fault
  // pedigrees ("L" and "RL" lose the conflicting-put race in different
  // schedules) - evidence the multi-task wakeup order is really a
  // controlled decision, not list order.
  std::set<std::string> Sigs;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    explore::Engine Eng = explore::Engine::random(Seed, 2);
    ParOutcome<int> O = wakeOrderRace(explore::sessionOptions(Eng));
    Sigs.insert(sig(O));
  }
  EXPECT_TRUE(Sigs.count("fault:conflicting_put@L"))
      << "never saw W1 lose the race";
  EXPECT_TRUE(Sigs.count("fault:conflicting_put@RL"))
      << "never saw W2 lose the race";
}

// -- Bounded exhaustive enumeration ----------------------------------------

TEST(ExploreTest, ExhaustiveEnumeratesThreeTaskProgram) {
  explore::SearchOptions O;
  O.PreemptionBound = 2;
  explore::SearchResult R = explore::enumerateBounded(threeTaskProgram, O);
  EXPECT_TRUE(R.Exhausted) << "small program must be fully enumerable";
  EXPECT_FALSE(R.Failure.has_value()) << explore::failureSig(R.Failure->F);
  EXPECT_GT(R.SchedulesRun, 1u)
      << "a 2-worker/3-task program has more than one interleaving";
  EXPECT_LT(R.SchedulesRun, O.MaxExhaustive);
}

TEST(ExploreTest, PreemptionBoundPrunesTheSpace) {
  explore::SearchOptions Tight;
  Tight.PreemptionBound = 0;
  explore::SearchOptions Loose;
  Loose.PreemptionBound = 2;
  explore::SearchResult RT = explore::enumerateBounded(threeTaskProgram, Tight);
  explore::SearchResult RL = explore::enumerateBounded(threeTaskProgram, Loose);
  EXPECT_TRUE(RT.Exhausted);
  EXPECT_TRUE(RL.Exhausted);
  EXPECT_LT(RT.SchedulesRun, RL.SchedulesRun)
      << "raising the preemption bound must widen the enumerated space";
}

TEST(ExploreTest, ExhaustiveCoversLowerIndexedWorkerPreemption) {
  // Regression: options are enumerated worker-major, so the
  // non-preempting default (ContinueIdx) often sits ABOVE a lower-indexed
  // worker's options (e.g. with LastWorker=1, worker 0's steal is option
  // 0 and ContinueIdx=1). A bump loop over raw option indices starting at
  // Chosen+1 never visits those, yet still reports Exhausted - silently
  // overclaiming coverage. The rank-ordered DFS must reach a schedule
  // where a decision takes an option below its ContinueIdx.
  explore::SearchOptions O;
  O.PreemptionBound = 2;
  bool SawLowerPreempt = false;
  O.OnSchedule = [&](const explore::Engine &Eng) {
    for (const explore::Decision &D : Eng.log())
      if (D.Kind == explore::DecisionKind::Step && D.ContinueIdx != ~0u &&
          D.Chosen < D.ContinueIdx)
        SawLowerPreempt = true;
  };
  explore::SearchResult R = explore::enumerateBounded(threeTaskProgram, O);
  EXPECT_TRUE(R.Exhausted);
  EXPECT_FALSE(R.Failure.has_value());
  EXPECT_TRUE(SawLowerPreempt)
      << "bounded enumeration never took an option below the "
         "non-preempting default across " << R.SchedulesRun
      << " schedules - in-bound preemptions by lower-indexed workers "
         "were skipped";
}

TEST(ExploreTest, ExhaustiveFindsConflictPedigreeVariants) {
  // The conflicting-put program faults on EVERY schedule; enumeration
  // stops at the first one, which under the non-preempting default order
  // must be deterministic run-to-run.
  explore::SearchOptions O;
  O.Shrink = false;
  explore::SearchResult R1 = explore::enumerateBounded(conflictRace, O);
  explore::SearchResult R2 = explore::enumerateBounded(conflictRace, O);
  ASSERT_TRUE(R1.Failure.has_value());
  ASSERT_TRUE(R2.Failure.has_value());
  EXPECT_EQ(explore::failureSig(R1.Failure->F),
            explore::failureSig(R2.Failure->F));
  EXPECT_EQ(R1.Failure->Replay, R2.Failure->Replay);
}

// -- Replay strings and shrinking ------------------------------------------

TEST(ExploreTest, ReplayStringRoundTrips) {
  explore::ReplaySpec Spec;
  Spec.VirtualWorkers = 3;
  Spec.Decisions = {0, 2, 0, 1, 5};
  Spec.PedHash = 0xdeadbeefcafef00dULL;
  std::string S = explore::encodeReplay(Spec);
  auto Back = explore::decodeReplay(S);
  ASSERT_TRUE(Back.has_value()) << S;
  EXPECT_EQ(Back->VirtualWorkers, 3u);
  EXPECT_EQ(Back->Decisions, Spec.Decisions);
  EXPECT_EQ(Back->PedHash, Spec.PedHash);

  // Empty decision list round-trips too (the all-defaults schedule).
  Spec.Decisions.clear();
  Back = explore::decodeReplay(explore::encodeReplay(Spec));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->Decisions.empty());

  // Malformed strings are rejected, not crashed on.
  EXPECT_FALSE(explore::decodeReplay("").has_value());
  EXPECT_FALSE(explore::decodeReplay("lvx1:w0:h00:1").has_value());
  EXPECT_FALSE(explore::decodeReplay("lvx1:w2:h00zz:1").has_value());
  EXPECT_FALSE(explore::decodeReplay("lvx9:w2:h00:1").has_value());
  EXPECT_FALSE(
      explore::decodeReplay("lvx1:w2:h0000000000000000:1..2").has_value());

  // Decision values that overflow uint32_t are rejected as corrupt, not
  // silently wrapped into an arbitrary in-range decision.
  EXPECT_FALSE(explore::decodeReplay("lvx1:w2:h0000000000000000:4294967296")
                   .has_value());
  EXPECT_FALSE(
      explore::decodeReplay("lvx1:w2:h0000000000000000:1.18446744073709551616")
          .has_value());
  auto Max = explore::decodeReplay("lvx1:w2:h0000000000000000:4294967295");
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(Max->Decisions, std::vector<uint32_t>{4294967295u});
}

TEST(ExploreTest, ShrunkReplayReproducesThriceBitForBit) {
  // Acceptance: search -> shrink -> the committed string reproduces the
  // identical (FaultCode, pedigree) - and the identical schedule hash -
  // on 3 consecutive replays.
  explore::SearchOptions O;
  O.Schedules = scheduleBudget(500);
  explore::SearchResult R = explore::searchPct(freezeRace, O);
  ASSERT_TRUE(R.Failure.has_value());
  std::string Want = explore::failureSig(R.Failure->F);

  auto Spec = explore::decodeReplay(R.Failure->Replay);
  ASSERT_TRUE(Spec.has_value()) << R.Failure->Replay;
  for (int Rep = 0; Rep < 3; ++Rep) {
    bool BitIdentical = false;
    std::optional<Fault> Flt =
        explore::replaySession(freezeRace, *Spec, &BitIdentical);
    ASSERT_TRUE(Flt.has_value()) << "replay " << Rep << " did not fail";
    EXPECT_EQ(explore::failureSig(*Flt), Want) << "replay " << Rep;
    EXPECT_TRUE(BitIdentical)
        << "replay " << Rep << " diverged from the committed schedule hash";
  }
}

TEST(ExploreTest, ShrinkOnlyRemovesDecisions) {
  explore::SearchOptions Raw;
  Raw.Schedules = scheduleBudget(500);
  Raw.Shrink = false;
  explore::SearchResult RUnshrunk = explore::searchRandom(freezeRace, Raw);
  ASSERT_TRUE(RUnshrunk.Failure.has_value());

  explore::SearchOptions Shr = Raw;
  Shr.Shrink = true;
  explore::SearchResult RShrunk = explore::searchRandom(freezeRace, Shr);
  ASSERT_TRUE(RShrunk.Failure.has_value());
  auto Long = explore::decodeReplay(RUnshrunk.Failure->Replay);
  auto Short = explore::decodeReplay(RShrunk.Failure->Replay);
  ASSERT_TRUE(Long.has_value());
  ASSERT_TRUE(Short.has_value());
  EXPECT_LE(Short->Decisions.size(), Long->Decisions.size());
  EXPECT_GT(RShrunk.Failure->ShrinkRuns, 0u);
}

TEST(ExploreTest, ShrinkFlagsNonScheduleDeterministicFailure) {
  // A failure that is NOT a function of the schedule (here: the program
  // faults only on its first invocation) defeats shrinking entirely -
  // every candidate re-run passes. The driver must notice at runtime that
  // even the unshrunk log no longer reproduces and flag the result,
  // instead of silently reporting a replay string that does not fail.
  int Calls = 0;
  auto FirstRunOnly = [&Calls](const RunOptions &Opts) -> ParOutcome<int> {
    bool Doom = Calls++ == 0;
    return tryRunParIO<IOE>(
        [Doom](ParCtx<IOE> Ctx) -> Par<int> {
          auto IV = newIVar<int>(Ctx, "iv");
          put(Ctx, *IV, 1);
          if (Doom)
            put(Ctx, *IV, 2); // conflicting put, first invocation only
          co_return co_await get(Ctx, *IV);
        },
        Opts);
  };
  explore::SearchOptions O;
  O.Schedules = 4;
  explore::SearchResult R = explore::searchRandom(FirstRunOnly, O);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_FALSE(R.Failure->Verified)
      << "a failure no replay reproduces must not be reported as verified";
  EXPECT_GT(R.Failure->ShrinkRuns, 0u);
}

// -- Quiesce / handler-pool drains under the explorer ----------------------

TEST(ExploreTest, HandlerQuiesceProgramIsDeterministicUnderExploration) {
  // A CORRECT handler program (quiesce before freeze) must produce the
  // same value under every explored schedule - the determinism claim the
  // explorer exists to check. Exercises handler-pool drain ordering.
  auto Program = [](const RunOptions &Opts) {
    return tryRunParIO<IOE>(
        [](ParCtx<IOE> Ctx) -> Par<int> {
          auto S = newISet<int>(Ctx);
          auto Pool = newPool(Ctx);
          ISet<int> *Raw = S.get();
          auto Handler = [Raw](ParCtx<IOE> C, const int &V) -> Par<void> {
            if (V > 0 && V % 2 == 0)
              insert(C, *Raw, V / 2);
            co_return;
          };
          [[maybe_unused]] HandlerHandle H = addHandler(Ctx, Pool, *S, Handler);
          insert(Ctx, *S, 8);
          insert(Ctx, *S, 12);
          co_await quiesce(Ctx, Pool);
          auto Contents = freezeSet(Ctx, *S);
          co_return static_cast<int>(Contents.size());
        },
        Opts);
  };
  for (uint64_t Seed = 0; Seed < 24; ++Seed) {
    explore::Engine Eng = explore::Engine::random(Seed, 2);
    ParOutcome<int> O = Program(explore::sessionOptions(Eng));
    // {8,4,2,1} u {12,6,3} = 7 elements, every schedule.
    EXPECT_EQ(sig(O), "ok:7") << "seed=" << Seed;
  }
}

// -- Composition with fault injection ---------------------------------------

TEST(ExploreTest, ComposesWithFaultInjection) {
  // A doomed pedigree must be hit under every adversarial schedule the
  // explorer produces: injection targets the fork TREE, which the
  // schedule cannot change.
  auto FanOut = [](const RunOptions &Opts) {
    return tryRunParIO<IOE>(
        [](ParCtx<IOE> Ctx) -> Par<int> {
          auto A = newIVar<int>(Ctx, "a");
          auto B = newIVar<int>(Ctx, "b");
          auto PutA = [A](ParCtx<IOE> C) -> Par<void> {
            put(C, *A, 1);
            co_return;
          };
          auto PutB = [B](ParCtx<IOE> C) -> Par<void> {
            put(C, *B, 2);
            co_return;
          };
          fork(Ctx, PutA); // "L"
          fork(Ctx, PutB); // "RL"
          int VA = co_await get(Ctx, *A);
          int VB = co_await get(Ctx, *B);
          co_return VA + VB;
        },
        Opts);
  };
  fault::FaultPlan Plan;
  Plan.Seed = 7;
  Plan.HaveFailPedigree = true;
  Plan.FailPedigree = "RL";
  fault::PlanScope Scope(Plan);
  for (uint64_t Seed = 0; Seed < 16; ++Seed) {
    explore::Engine Eng = explore::Engine::random(Seed, 2);
    ParOutcome<int> O = FanOut(explore::sessionOptions(Eng));
    ASSERT_FALSE(O.ok()) << "seed=" << Seed;
    EXPECT_EQ(explore::failureSig(O.fault()), "injected_failure@RL")
        << "seed=" << Seed;
  }
}

TEST(ExploreTest, ExplorerStatsAccumulate) {
#if LVISH_TELEMETRY
  obs::TelemetrySnapshot Before = obs::telemetrySnapshot();
  explore::SearchOptions O;
  O.Schedules = 4;
  O.Shrink = false;
  explore::searchRandom(threeTaskProgram, O);
  obs::TelemetrySnapshot After = obs::telemetrySnapshot();
  EXPECT_GE(After.count(obs::Event::ExploreSchedules),
            Before.count(obs::Event::ExploreSchedules) + 4);
  EXPECT_GE(After.count(obs::Event::ExploreSteps),
            Before.count(obs::Event::ExploreSteps) + 4 * 3);
#else
  GTEST_SKIP() << "telemetry compiled out";
#endif
}

} // namespace
