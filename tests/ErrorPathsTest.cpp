//===- ErrorPathsTest.cpp - Deterministic-error death tests ----------------===//
//
// The paper's determinism violations must fail loudly and deterministically
// rather than return wrong answers: conflicting IVar puts (lattice top),
// conflicting IMap bindings, put-after-freeze, cancel+read conflicts, and
// ParST discipline violations (poisoned views, bad split points).
//
// Two layers of coverage:
//  * Death tests: the legacy value-returning runPar wrappers must still
//    abort with the documented message (through the one valueOrAbort
//    choke point).
//  * Outcome tests: the fault-aware tryRunPar wrappers must *contain*
//    every Fault code in-process - same (code, pedigree) on every run,
//    with 4 workers, never aborting.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/IMap.h"
#include "src/fault/FaultPlan.h"
#include "src/trans/Cancel.h"
#include "src/trans/ParST.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

using ErrorPathsDeathTest = ::testing::Test;

TEST(ErrorPathsDeathTest, ConflictingIVarPutsReachTop) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        auto IV = newIVar<int>(Ctx);
        put(Ctx, *IV, 1);
        put(Ctx, *IV, 2); // Different value: lattice top.
        co_return;
      }),
      "multiple put to an IVar");
}

TEST(ErrorPathsDeathTest, ConflictingMapBindingsReachTop) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        auto M = newEmptyMap<int, int>(Ctx);
        insert(Ctx, *M, 1, 10);
        insert(Ctx, *M, 1, 11); // Same key, different value.
        co_return;
      }),
      "conflicting insert");
}

TEST(ErrorPathsDeathTest, PutAfterFreezeAborts) {
  EXPECT_DEATH(
      runParIO<Eff::QuasiDet>([](ParCtx<Eff::QuasiDet> Ctx) -> Par<void> {
        auto IV = newIVar<int>(Ctx);
        freezeIVar(Ctx, *IV); // Freeze while empty...
        put(Ctx, *IV, 3);     // ...then change the state.
        co_return;
      }),
      "frozen LVar");
}

TEST(ErrorPathsDeathTest, CancelThenReadConflicts) {
  EXPECT_DEATH(
      runParIO<Eff::FullIO>([](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto Fut =
            forkCancelable(Ctx, [](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              for (;;)
                co_await yield(C);
            });
        cancel(Ctx, Fut);
        int V = co_await readCFuture(Ctx, Fut); // Error: both ops.
        (void)V;
        co_return;
      }),
      "cancelled and read");
}

TEST(ErrorPathsDeathTest, ReadThenCancelConflictsToo) {
  // "Even if the read happens first" - the same deterministic error.
  EXPECT_DEATH(
      runParIO<Eff::FullIO>([](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto Fut =
            forkCancelable(Ctx, [](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              co_return 1;
            });
        int V = co_await readCFuture(Ctx, Fut);
        (void)V;
        cancel(Ctx, Fut);
        co_return;
      }),
      "cancelled and read");
}

TEST(ErrorPathsDeathTest, MainDeadlockIsReported) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
        auto Never = newIVar<int>(Ctx);
        int V = co_await get(Ctx, *Never); // Root blocks forever.
        co_return V;
      }),
      "deterministic deadlock");
}

TEST(ErrorPathsDeathTest, PoisonedViewAccessAborts) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        co_await runParVec(
            Ctx, 8, 0,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
              auto LeftB = [V](ParCtx<Eff::DetST> C2,
                               VecView<int> L) -> Par<void> {
                V[0] = 1; // Captured parent view: poisoned in here.
                co_return;
              };
              auto RightB = [](ParCtx<Eff::DetST> C2,
                               VecView<int> R) -> Par<void> { co_return; };
              co_await forkSTSplit(C, V, 4, LeftB, RightB);
              co_return;
            });
        co_return;
      }),
      "poisoned VecView");
}

TEST(ErrorPathsDeathTest, EscapedViewAfterScopeAborts) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        VecView<int> Escapee;
        co_await runParVec(
            Ctx, 4, 0,
            [&Escapee](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
              Escapee = V;
              co_return;
            });
        Escapee.writeChecked(0, 1); // Scope over: poisoned.
        co_return;
      }),
      "poisoned VecView");
}

TEST(ErrorPathsDeathTest, SplitPointOutOfRangeAborts) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        co_await runParVec(
            Ctx, 4, 0,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
              auto Nop = [](ParCtx<Eff::DetST> C2,
                            VecView<int>) -> Par<void> { co_return; };
              co_await forkSTSplit(C, V, 99, Nop, Nop);
              co_return;
            });
        co_return;
      }),
      "split point out of range");
}

TEST(ErrorPathsDeathTest, ViewBoundsCheckedAccessAborts) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        co_await runParVec(
            Ctx, 4, 0,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
              V.writeChecked(4, 1); // One past the end.
              co_return;
            });
        co_return;
      }),
      "out of range");
}

} // namespace

/// AndLattice-style two-writer conflict lattice: 0 = bot, 1 = a, 2 = b,
/// 3 = top (namespace scope so PureLVar's template machinery can name it).
struct AndLatticeForDeath {
  using ValueType = int;
  static ValueType bottom() { return 0; }
  static ValueType join(ValueType A, ValueType B) { return A | B; }
  static bool isTop(ValueType A) { return A == 3; }
};

namespace {

TEST(ErrorPathsDeathTest, ConflictingPureWritesReachTop) {
  EXPECT_DEATH(
      runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
        auto LV = newPureLVar<AndLatticeForDeath>(Ctx);
        putPureLVar(Ctx, *LV, 1);
        putPureLVar(Ctx, *LV, 2); // join = 3 = top.
        co_return;
      }),
      "lattice top");
}

} // namespace

//===----------------------------------------------------------------------===//
// Outcome tests: every Fault code, contained in-process with 4 workers.
//
// Each erroneous program runs several times through a tryRunPar* wrapper;
// the fact these tests run in the gtest process at all (no EXPECT_DEATH)
// is the never-aborts guarantee, and the loop asserts the Fault's
// deterministic identity (code + pedigree; worker/message-suffix details
// are diagnostic only). Cross-task conflicts are sequenced through a
// threshold read so the losing writer - hence the faulting pedigree - is
// fixed by dataflow, not by the schedule.
//===----------------------------------------------------------------------===//

/// Deliberately broken lattice for the CheckerViolation fault path:
/// "first wins" is neither commutative nor an upper bound (namespace
/// scope so PureLVar's template machinery can name it).
struct BrokenJoinLattice {
  using ValueType = int;
  static ValueType bottom() { return 0; }
  static ValueType join(ValueType A, ValueType B) {
    (void)B;
    return A;
  }
};

namespace {

constexpr unsigned FaultWorkers = 4;
constexpr int FaultRepeats = 4;

SchedulerConfig faultConfig(uint64_t StealSeed = 1) {
  SchedulerConfig C;
  C.NumWorkers = FaultWorkers;
  C.StealSeed = StealSeed;
  return C;
}

/// Runs \p Once (which performs one tryRunPar session and returns its
/// Fault) FaultRepeats times over distinct steal seeds and asserts the
/// deterministic identity (code, pedigree) never changes.
template <typename OnceT>
void expectStableFault(OnceT Once, FaultCode Code, const char *Pedigree) {
  for (int I = 0; I < FaultRepeats; ++I) {
    Fault F = Once(faultConfig(/*StealSeed=*/1 + 17 * I));
    EXPECT_EQ(F.Code, Code) << "run " << I << ": " << F.Message;
    EXPECT_EQ(F.Pedigree, Pedigree) << "run " << I << ": " << F.Message;
    EXPECT_NE(F.Message.find(faultCodeName(Code)), std::string::npos)
        << F.Message;
  }
}

TEST(FaultOutcomeTest, ConflictingPutContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<int> {
              auto IV = newIVar<int>(Ctx, "conflict-ivar");
              auto ForkBody = [IV](ParCtx<D> C2) -> Par<void> {
                int V = co_await get(C2, *IV); // After the first put...
                put(C2, *IV, V + 1);           // ...conflict, in the child.
              };
              fork(Ctx, ForkBody);
              put(Ctx, *IV, 1);
              co_return co_await get(Ctx, *IV);
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      FaultCode::ConflictingPut, "L");
}

TEST(FaultOutcomeTest, FaultCarriesLVarNameAndDiagnostics) {
  auto O = tryRunPar<D>(
      [](ParCtx<D> Ctx) -> Par<void> {
        auto IV = newIVar<int>(Ctx, "named-ivar");
        put(Ctx, *IV, 1);
        put(Ctx, *IV, 2);
        co_return;
      },
      faultConfig());
  ASSERT_FALSE(O.ok());
  const Fault &F = O.fault();
  EXPECT_EQ(F.LVarName, "named-ivar");
  // Satellite 1: the message carries the full diagnostic suffix.
  EXPECT_NE(F.Message.find("lvar=named-ivar"), std::string::npos)
      << F.Message;
  EXPECT_NE(F.Message.find("session="), std::string::npos) << F.Message;
  EXPECT_NE(F.Message.find("worker="), std::string::npos) << F.Message;
  EXPECT_NE(F.Message.find("pedigree="), std::string::npos) << F.Message;
  EXPECT_NE(F.Message.find("multiple put to an IVar"), std::string::npos)
      << F.Message;
}

TEST(FaultOutcomeTest, ConflictingInsertContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<void> {
              auto M = newEmptyMap<int, int>(Ctx);
              auto ForkBody = [M](ParCtx<D> C2) -> Par<void> {
                int V = co_await get(C2, *M, 7);
                insert(C2, *M, 7, V + 1); // Conflicting rebind.
              };
              fork(Ctx, ForkBody);
              insert(Ctx, *M, 7, 10);
              co_return;
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      FaultCode::ConflictingInsert, "L");
}

TEST(FaultOutcomeTest, LatticeTopContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<void> {
              auto LV = newPureLVar<AndLatticeForDeath>(Ctx);
              auto ForkBody = [LV](ParCtx<D> C2) -> Par<void> {
                // Wait until the root's write landed, then push to top.
                // (Named variable: GCC 12 mis-handles braced init inside
                // co_await.)
                ThresholdSets<int> Th{{1}};
                co_await get(C2, *LV, Th);
                putPureLVar(C2, *LV, 2); // join(1,2) = 3 = top.
              };
              fork(Ctx, ForkBody);
              putPureLVar(Ctx, *LV, 1);
              co_return;
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      FaultCode::LatticeTop, "L");
}

TEST(FaultOutcomeTest, PutAfterFreezeContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunParIO<Eff::QuasiDet>(
            [](ParCtx<Eff::QuasiDet> Ctx) -> Par<void> {
              auto IV = newIVar<int>(Ctx);
              auto Gate = newIVar<bool>(Ctx);
              auto ForkBody = [IV, Gate](ParCtx<Eff::QuasiDet> C2)
                  -> Par<void> {
                co_await get(C2, *Gate); // After the freeze...
                put(C2, *IV, 3);         // ...change a frozen LVar.
              };
              fork(Ctx, ForkBody);
              freezeIVar(Ctx, *IV);
              put(Ctx, *Gate, true);
              co_return;
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      FaultCode::PutAfterFreeze, "L");
}

TEST(FaultOutcomeTest, CancelReadConflictContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunParIO<Eff::FullIO>(
            [](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
              auto Spin = [](ParCtx<Eff::ReadOnly> C2) -> Par<int> {
                for (;;)
                  co_await yield(C2);
              };
              auto Fut = forkCancelable(Ctx, Spin);
              cancel(Ctx, Fut);
              int V = co_await readCFuture(Ctx, Fut);
              (void)V;
              co_return;
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      // readCFuture's conflict check runs in the root coroutine, before
      // any fork: the root's continuation pedigree after forkCancelable
      // is a single R branch.
      FaultCode::CancelReadConflict, "R");
}

TEST(FaultOutcomeTest, DeadlockDrainedContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<int> {
              auto Never = newIVar<int>(Ctx);
              int V = co_await get(Ctx, *Never); // Root blocks forever.
              co_return V;
            },
            C);
        EXPECT_FALSE(O.ok());
        EXPECT_NE(O.fault().Message.find("deterministic deadlock"),
                  std::string::npos);
        EXPECT_NE(O.fault().Message.find("scheduler drained"),
                  std::string::npos);
        return O.fault();
      },
      FaultCode::DeadlockDrained, "");
}

TEST(FaultOutcomeTest, DeadlockLeakedTasksContained) {
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<int> {
              auto Never = newIVar<int>(Ctx);
              auto AlsoNever = newIVar<int>(Ctx);
              auto ForkBody = [AlsoNever](ParCtx<D> C2) -> Par<void> {
                co_await get(C2, *AlsoNever); // Child also blocks forever.
              };
              fork(Ctx, ForkBody);
              int V = co_await get(Ctx, *Never);
              co_return V;
            },
            C);
        EXPECT_FALSE(O.ok());
        EXPECT_NE(O.fault().Message.find("deterministic deadlock"),
                  std::string::npos);
        EXPECT_NE(O.fault().Message.find("leaked"), std::string::npos);
        return O.fault();
      },
      FaultCode::DeadlockLeakedTasks, "");
}

TEST(FaultOutcomeTest, CheckerViolationContained) {
  check::CheckScope Armed;
  check::setViolationHandler(nullptr);
  check::setSamplePeriod(1);
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<void> {
              auto LV = newPureLVar<BrokenJoinLattice>(Ctx);
              putPureLVar(Ctx, *LV, 5); // Join laws fire on the root.
              co_return;
            },
            C);
        EXPECT_FALSE(O.ok());
        EXPECT_NE(O.fault().Message.find("determinism violation"),
                  std::string::npos);
        return O.fault();
      },
      FaultCode::CheckerViolation, "");
}

TEST(FaultOutcomeTest, InjectedFailureContained) {
  fault::FaultPlan Plan;
  Plan.Seed = 42;
  Plan.HaveFailPedigree = true;
  Plan.FailPedigree = "L"; // Doom the first forked child.
  fault::PlanScope Scope(Plan);
  expectStableFault(
      [](SchedulerConfig C) {
        auto O = tryRunPar<D>(
            [](ParCtx<D> Ctx) -> Par<int> {
              auto IV = newIVar<int>(Ctx);
              auto ForkBody = [IV](ParCtx<D> C2) -> Par<void> {
                put(C2, *IV, 7); // Raises at the put injection poll.
                co_return;
              };
              fork(Ctx, ForkBody);
              co_return co_await get(Ctx, *IV);
            },
            C);
        EXPECT_FALSE(O.ok());
        return O.fault();
      },
      FaultCode::InjectedFailure, "L");
}

TEST(FaultOutcomeTest, SuccessfulSessionReturnsValue) {
  for (int I = 0; I < FaultRepeats; ++I) {
    auto O = tryRunPar<D>(
        [](ParCtx<D> Ctx) -> Par<int> {
          auto IV = newIVar<int>(Ctx);
          auto ForkBody = [IV](ParCtx<D> C2) -> Par<void> {
            put(C2, *IV, 21);
            co_return;
          };
          fork(Ctx, ForkBody);
          int V = co_await get(Ctx, *IV);
          co_return 2 * V;
        },
        faultConfig(1 + 17 * I));
    ASSERT_TRUE(O.ok());
    EXPECT_EQ(std::move(O).value(), 42);
  }
}

/// Sessions after a contained fault must start from a clean fault scope -
/// on a shared Runtime pool too.
TEST(FaultOutcomeTest, SchedulerReusableAfterFault) {
  service::RuntimeConfig RC;
  RC.Sched = faultConfig();
  service::Runtime RT(RC);
  auto Bad = [](ParCtx<D> Ctx) -> Par<void> {
    auto IV = newIVar<int>(Ctx);
    put(Ctx, *IV, 1);
    put(Ctx, *IV, 2);
    co_return;
  };
  auto Good = [](ParCtx<D> Ctx) -> Par<int> { co_return 7; };
  auto O1 = RT.run<D>(Bad);
  EXPECT_FALSE(O1.ok());
  EXPECT_EQ(O1.fault().Code, FaultCode::ConflictingPut);
  auto O2 = RT.run<D>(Good);
  ASSERT_TRUE(O2.ok());
  EXPECT_EQ(O2.value(), 7);
  auto O3 = RT.run<D>(Bad);
  EXPECT_FALSE(O3.ok());
  EXPECT_EQ(O3.fault().Code, FaultCode::ConflictingPut);
}

} // namespace
