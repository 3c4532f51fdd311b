//===- ContentionStressTest.cpp - Sharded waiter-table stress ---------------===//
//
// Stresses the sharded threshold-waiter hot path (DESIGN.md Section 13):
// many parked per-key getters, disjoint-key putter shards, and a handler
// cascade echoing every delta - the same shape as bench_micro_lvar's
// contended scenario, but asserting the invariants instead of timing it.
// A threaded variant exercises the real lost-wakeup window (publish-then-
// recheck under 8 OS workers); an explored variant pins the same program
// under ScheduleCtl and checks the schedule replays bit-for-bit, so the
// bucket fan-out never leaks nondeterminism into wake order.
//
//===----------------------------------------------------------------------===//

#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/MinMap.h"
#include "src/data/Stream.h"
#include "src/explore/Explorer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet IOE = Eff::FullIO;

/// The contended put/wake program. \p Keys getters park (one per key, so
/// they spread across every key bucket and the size heap stays busy via
/// the root's waitSize); \p Putters shards insert disjoint keys; a
/// put-only handler echoes each delta into Echo. Returns
/// sum(value read by getter K) = sum(2K) = Keys*(Keys-1), so a single
/// lost wakeup, dropped delta, or misrouted bucket scan changes the
/// result (or deadlocks the session, which runPar reports).
template <typename RunFn>
auto contendedProgram(uint64_t Keys, int Putters, RunFn Run) {
  return Run([Keys, Putters](ParCtx<IOE> Ctx) -> Par<uint64_t> {
    const int KeysI = static_cast<int>(Keys);
    auto Map = newEmptyMap<int, int>(Ctx);
    auto Echo = newISet<int>(Ctx);
    auto Ready = newCounter(Ctx);
    auto Sum = newCounter(Ctx);
    auto Done = newCounter(Ctx);
    auto Pool = newPool(Ctx);
    ParCtx<Eff::WriteOnly> WCtx = Ctx;
    auto Handler = [Echo](ParCtx<Eff::WriteOnly> C,
                          const std::pair<int, int> &D) -> Par<void> {
      insert(C, *Echo, D.first);
      co_return;
    };
    [[maybe_unused]] HandlerHandle H = addHandler(WCtx, Pool, *Map, Handler);
    // Owning captures: forked tasks may outlive the root frame.
    for (int K = 0; K < KeysI; ++K) {
      auto Getter = [Map, Sum, Done, Ready, K](ParCtx<IOE> C) -> Par<void> {
        incrCounter(C, *Ready);
        int V = co_await get(C, *Map, K);
        incrCounter(C, *Sum, static_cast<uint64_t>(V));
        incrCounter(C, *Done);
      };
      fork(Ctx, Getter);
    }
    // Putters release only once every getter has announced itself, so the
    // waiter table really is full when the put storm begins.
    for (int P = 0; P < Putters; ++P) {
      auto Putter = [Map, Ready, P, Putters, KeysI](ParCtx<IOE> C)
          -> Par<void> {
        co_await get(C, *Ready, static_cast<uint64_t>(KeysI));
        for (int K = P; K < KeysI; K += Putters)
          insert(C, *Map, K, K * 2);
      };
      fork(Ctx, Putter);
    }
    co_await waitSize(Ctx, *Echo, Keys);
    co_await get(Ctx, *Done, Keys);
    co_await quiesce(Ctx, Pool);
    std::vector<int> EchoElems = freezeSet(Ctx, *Echo);
    uint64_t Total = freezeCounter(Ctx, *Sum);
    EXPECT_EQ(EchoElems.size(), Keys) << "handler cascade lost a delta";
    co_return Total;
  });
}

TEST(ContentionStress, ThreadedEightWorkersAllWakesDelivered) {
  // Real OS workers: this is the configuration where a publish/probe
  // ordering bug in the sharded table shows up as a lost wakeup
  // (deterministic deadlock) or a wrong sum.
  const uint64_t Keys = 96;
  service::Runtime RT({.Sched = {.NumWorkers = 8}});
  for (int Round = 0; Round < 5; ++Round) {
    uint64_t Total = contendedProgram(Keys, 8, [&](auto Body) {
      return RT.runIO<IOE>(Body).valueOrAbort();
    });
    EXPECT_EQ(Total, Keys * (Keys - 1)) << "round " << Round;
  }
}

TEST(ContentionStress, ExploredSchedulesAgreeAcrossSeeds) {
  // Under ScheduleCtl every wake order is a controlled decision; the
  // program is write-commutative, so EVERY schedule must produce the same
  // sum. Disagreement means the sharded buckets let a schedule observe a
  // non-lattice state.
  const uint64_t Keys = 6;
  for (uint64_t Seed = 0; Seed < 24; ++Seed) {
    explore::Engine Eng = explore::Engine::random(Seed, 3);
    auto O = contendedProgram(Keys, 2, [&](auto Body) {
      return tryRunParIO<IOE>(Body, explore::sessionOptions(Eng));
    });
    ASSERT_TRUE(O.ok()) << "seed " << Seed << ": "
                        << explore::failureSig(O.fault());
    EXPECT_EQ(O.value(), Keys *(Keys - 1)) << "seed " << Seed;
  }
}

TEST(ContentionStress, ExploredScheduleReplaysBitForBit) {
  // Record one randomly driven schedule of the contended program, then
  // replay its decision log: the pedigree hash must match exactly. This
  // is the determinism contract the batching/sharding must preserve -
  // batch flush points and bucket wake order stay ScheduleCtl decisions.
  const uint64_t Keys = 6;
  explore::Engine Rec = explore::Engine::random(7, 3);
  auto O1 = contendedProgram(Keys, 2, [&](auto Body) {
    return tryRunParIO<IOE>(Body, explore::sessionOptions(Rec));
  });
  ASSERT_TRUE(O1.ok()) << explore::failureSig(O1.fault());

  explore::Engine Rep = explore::Engine::replay(Rec.chosen(), 3);
  auto O2 = contendedProgram(Keys, 2, [&](auto Body) {
    return tryRunParIO<IOE>(Body, explore::sessionOptions(Rep));
  });
  ASSERT_TRUE(O2.ok()) << explore::failureSig(O2.fault());
  EXPECT_EQ(O1.value(), O2.value());
  EXPECT_EQ(Rec.pedigreeHash(), Rep.pedigreeHash())
      << "replay diverged: wake order or batch flush is not a pure "
         "function of the decision log";
}

// -- Handler registration racing puts ----------------------------------------
//
// The footnote-6 gate is what makes a registration exactly-once: a value
// either lands before the registration (and is replayed to the new
// handler) or after it (and is delivered by the put), never both and never
// neither. Each test below runs one registrar task against RacePutters
// putter tasks on 4 workers; the registrar waits until part of the data
// is in, so the registration lands mid-stream.

constexpr int RacePutters = 3;
constexpr int RacePerPutter = 1500;
constexpr int RaceTotal = RacePutters * RacePerPutter;
constexpr int RaceRounds = 3;
constexpr EffectSet WO = Eff::WriteOnly;

/// Per-value delivery counts, shared with the handler tasks.
using Hits = std::vector<std::atomic<uint32_t>>;

/// Asserts every value in [0, N) was delivered exactly once.
void expectEachOnce(const Hits &H, size_t N, const char *What, int Round) {
  ASSERT_EQ(H.size(), N);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(H[I].load(), 1u)
        << What << " value " << I << " round " << Round;
}

TEST(RegistrationRace, ISetDeliversEachElementOnce) {
  for (int Round = 0; Round < RaceRounds; ++Round) {
    Hits H(RaceTotal);
    std::shared_ptr<ISet<int>> Out;
    runParIO<IOE>(
        [&H, &Out](ParCtx<IOE> Ctx) -> Par<void> {
          auto S = newISet<int>(Ctx);
          auto Pool = newPool(Ctx);
          Out = S;
          for (int P = 0; P < RacePutters; ++P)
            fork(Ctx, [S, P](ParCtx<IOE> C) -> Par<void> {
              for (int I = 0; I < RacePerPutter; ++I) {
                insert(C, *S, P * RacePerPutter + I);
                insert(C, *S, I); // Duplicates race across putters.
              }
              co_return;
            });
          fork(Ctx, [S, Pool, &H](ParCtx<IOE> C) -> Par<void> {
            co_await waitSize(C, *S, RacePerPutter / 2);
            ParCtx<WO> W = C;
            [[maybe_unused]] HandlerHandle Reg = addHandler(
                W, Pool, *S, [&H](ParCtx<WO>, const int &V) -> Par<void> {
                  H[static_cast<size_t>(V)].fetch_add(1);
                  co_return;
                });
          });
          co_return;
        },
        SchedulerConfig{4});
    ASSERT_EQ(Out->sizeNow(), static_cast<size_t>(RaceTotal));
    expectEachOnce(H, RaceTotal, "ISet", Round);
  }
}

TEST(RegistrationRace, IMapDeliversEachBindingOnce) {
  for (int Round = 0; Round < RaceRounds; ++Round) {
    Hits H(RaceTotal);
    std::atomic<bool> WrongValue{false};
    std::shared_ptr<IMap<int, int>> Out;
    runParIO<IOE>(
        [&H, &WrongValue, &Out](ParCtx<IOE> Ctx) -> Par<void> {
          auto M = newEmptyMap<int, int>(Ctx);
          auto Pool = newPool(Ctx);
          Out = M;
          for (int P = 0; P < RacePutters; ++P)
            fork(Ctx, [M, P](ParCtx<IOE> C) -> Par<void> {
              for (int I = 0; I < RacePerPutter; ++I) {
                const int K = P * RacePerPutter + I;
                insert(C, *M, K, K * 3);
                insert(C, *M, I, I * 3); // Equal rebinds race.
              }
              co_return;
            });
          fork(Ctx, [M, Pool, &H, &WrongValue](ParCtx<IOE> C) -> Par<void> {
            co_await waitSize(C, *M, RacePerPutter / 2);
            ParCtx<WO> W = C;
            [[maybe_unused]] HandlerHandle Reg = addHandler(
                W, Pool, *M,
                [&H, &WrongValue](ParCtx<WO>,
                                  const std::pair<int, int> &KV) -> Par<void> {
                  H[static_cast<size_t>(KV.first)].fetch_add(1);
                  if (KV.second != KV.first * 3)
                    WrongValue.store(true);
                  co_return;
                });
          });
          co_return;
        },
        SchedulerConfig{4});
    ASSERT_EQ(Out->sizeNow(), static_cast<size_t>(RaceTotal));
    EXPECT_FALSE(WrongValue.load());
    expectEachOnce(H, RaceTotal, "IMap", Round);
  }
}

TEST(RegistrationRace, StreamDeliversEachCellOnce) {
  for (int Round = 0; Round < RaceRounds; ++Round) {
    Hits H(RaceTotal);
    std::shared_ptr<Stream<int>> Out;
    runParIO<IOE>(
        [&H, &Out](ParCtx<IOE> Ctx) -> Par<void> {
          auto S = newStream<int>(Ctx);
          auto Pool = newPool(Ctx);
          Out = S;
          // Interleaved indices: the prefix advances only as every putter
          // makes progress, and cells land out of order.
          for (int P = 0; P < RacePutters; ++P)
            fork(Ctx, [S, P](ParCtx<IOE> C) -> Par<void> {
              for (int I = P; I < RaceTotal; I += RacePutters)
                put(C, *S, static_cast<uint64_t>(I), I * 2);
              co_return;
            });
          fork(Ctx, [S, Pool, &H](ParCtx<IOE> C) -> Par<void> {
            co_await waitSize(C, *S, RaceTotal / 4);
            ParCtx<WO> W = C;
            [[maybe_unused]] HandlerHandle Reg = addHandler(
                W, Pool, *S,
                [&H](ParCtx<WO>, const StreamDelta<int> &D) -> Par<void> {
                  H[D.Index].fetch_add(D.Value == static_cast<int>(D.Index) * 2
                                           ? 1
                                           : 100);
                  co_return;
                });
          });
          co_return;
        },
        SchedulerConfig{4});
    ASSERT_EQ(Out->filledNow(), static_cast<uint64_t>(RaceTotal));
    expectEachOnce(H, RaceTotal, "Stream", Round);
  }
}

TEST(RegistrationRace, MinMapDeliversEveryKeyDownToItsFinalLabel) {
  constexpr int Keys = RacePerPutter;
  constexpr uint64_t Labels = 4; // Strict decreases offered per putter.
  for (int Round = 0; Round < RaceRounds; ++Round) {
    std::vector<std::atomic<uint64_t>> MinSeen(Keys);
    for (auto &A : MinSeen)
      A.store(MinMap<int>::Bottom);
    std::shared_ptr<MinMap<int>> Out;
    runParIO<IOE>(
        [&MinSeen, &Out](ParCtx<IOE> Ctx) -> Par<void> {
          auto M = newMinMap<int>(Ctx);
          auto Pool = newPool(Ctx);
          Out = M;
          for (int P = 0; P < RacePutters; ++P)
            fork(Ctx, [M, P](ParCtx<IOE> C) -> Par<void> {
              // Final label of every key: 1 (putter 0's last offer).
              for (int K = 0; K < Keys; ++K)
                for (uint64_t L = Labels; L-- > 0;)
                  putMin(C, *M, K,
                         L * RacePutters + static_cast<uint64_t>(P) + 1);
              co_return;
            });
          fork(Ctx, [M, Pool, &MinSeen](ParCtx<IOE> C) -> Par<void> {
            co_await waitSize(C, *M, Keys / 4);
            ParCtx<WO> W = C;
            [[maybe_unused]] HandlerHandle Reg = addHandler(
                W, Pool, *M,
                [&MinSeen](ParCtx<WO>,
                           const std::pair<int, uint64_t> &D) -> Par<void> {
                  std::atomic<uint64_t> &A =
                      MinSeen[static_cast<size_t>(D.first)];
                  uint64_t Cur = A.load();
                  while (D.second < Cur &&
                         !A.compare_exchange_weak(Cur, D.second)) {
                  }
                  co_return;
                });
          });
          co_return;
        },
        SchedulerConfig{4});
    ASSERT_EQ(Out->sizeNow(), static_cast<size_t>(Keys));
    for (int K = 0; K < Keys; ++K) {
      std::optional<uint64_t> Final = Out->peekKey(K);
      ASSERT_TRUE(Final.has_value());
      EXPECT_EQ(*Final, 1u);
      ASSERT_EQ(MinSeen[static_cast<size_t>(K)].load(), *Final)
          << "key " << K << " round " << Round;
    }
  }
}

/// Natural numbers under max, for the PureLVar race.
using MaxLV = PureLVar<MaxUint64Lattice>;

TEST(RegistrationRace, PureLVarDeliversEachStateOnce) {
  for (int Round = 0; Round < RaceRounds; ++Round) {
    Hits H(RaceTotal + 1);
    std::shared_ptr<MaxLV> Out;
    runParIO<IOE>(
        [&H, &Out](ParCtx<IOE> Ctx) -> Par<void> {
          auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
          auto Pool = newPool(Ctx);
          Out = LV;
          // Putter P offers P+1, P+1+RacePutters, ...: interleaved rising
          // states, many of them already dominated (no-op joins).
          for (int P = 0; P < RacePutters; ++P)
            fork(Ctx, [LV, P](ParCtx<IOE> C) -> Par<void> {
              for (int V = P + 1; V <= RaceTotal; V += RacePutters)
                putPureLVar(C, *LV, static_cast<unsigned long long>(V));
              co_return;
            });
          fork(Ctx, [LV, Pool, &H](ParCtx<IOE> C) -> Par<void> {
            auto AtLeast = [](const unsigned long long &S)
                -> std::optional<int> {
              if (S >= RaceTotal / 4)
                return 1;
              return std::nullopt;
            };
            co_await get(C, *LV, AtLeast);
            ParCtx<WO> W = C;
            [[maybe_unused]] HandlerHandle Reg = addHandler(
                W, Pool, *LV,
                [&H](ParCtx<WO>, const unsigned long long &S) -> Par<void> {
                  H[static_cast<size_t>(S)].fetch_add(1);
                  co_return;
                });
          });
          co_return;
        },
        SchedulerConfig{4});
    ASSERT_EQ(Out->peek(), static_cast<unsigned long long>(RaceTotal));
    // Each state is delivered at most once, and the final state is among
    // them: nothing doubled, nothing after the registration lost.
    for (size_t V = 0; V < H.size(); ++V)
      ASSERT_LE(H[V].load(), 1u) << "state " << V << " round " << Round;
    EXPECT_EQ(H[RaceTotal].load(), 1u) << "round " << Round;
  }
}

} // namespace
