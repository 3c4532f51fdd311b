//===- DataStructuresTest.cpp - ISet/IMap/Counter/IStructure tests ---------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/IStructure.h"
#include "src/data/MinMap.h"
#include "src/data/MonotoneHashMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet DB = Eff::DetBump;

// -- MonotoneHashMap substrate -------------------------------------------

TEST(MonotoneHashMap, InsertFindBasics) {
  MonotoneHashMap<int, std::string> M;
  auto [P1, New1] = M.insert(1, "one");
  EXPECT_TRUE(New1);
  EXPECT_EQ(*P1, "one");
  auto [P2, New2] = M.insert(1, "uno");
  EXPECT_FALSE(New2);
  EXPECT_EQ(*P2, "one"); // First write wins; no overwrite ever.
  EXPECT_EQ(M.size(), 1u);
  EXPECT_TRUE(M.contains(1));
  EXPECT_FALSE(M.contains(2));
}

TEST(MonotoneHashMap, PointersAreStableAcrossGrowth) {
  MonotoneHashMap<int, int> M;
  auto [P, New] = M.insert(0, 42);
  (void)New;
  for (int I = 1; I < 5000; ++I)
    M.insert(I, I);
  EXPECT_EQ(*P, 42); // Node-based: stable despite 5000 inserts.
  EXPECT_EQ(M.size(), 5000u);
}

TEST(MonotoneHashMap, ConcurrentInsertExactCount) {
  MonotoneHashMap<int, int> M;
  constexpr int PerThread = 5000;
  constexpr int Threads = 4;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&M, T] {
      for (int I = 0; I < PerThread; ++I)
        M.insert(I, T); // All threads race on the same keys.
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(M.size(), static_cast<size_t>(PerThread));
}

TEST(MonotoneHashMap, SnapshotSortedIsSorted) {
  MonotoneHashMap<int, int> M;
  for (int I : {5, 3, 9, 1, 7})
    M.insert(I, I * 10);
  auto Snap = M.snapshotSorted();
  ASSERT_EQ(Snap.size(), 5u);
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end()));
  EXPECT_EQ(Snap.front().first, 1);
  EXPECT_EQ(Snap.back().first, 9);
}

// -- ISet ------------------------------------------------------------------

TEST(ISet, InsertThenWaitElem) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto S = newISet<int>(Ctx);
    fork(Ctx, [S](ParCtx<D> C) -> Par<void> {
      insert(C, *S, 42);
      co_return;
    });
    co_await get(Ctx, *S, 42);
    EXPECT_TRUE(S->containsElem(42));
    co_return;
  });
}

TEST(ISet, WaitSizeUnblocksAtThreshold) {
  runPar<D>(
      [](ParCtx<D> Ctx) -> Par<void> {
        auto S = newISet<int>(Ctx);
        for (int I = 0; I < 10; ++I)
          fork(Ctx, [S, I](ParCtx<D> C) -> Par<void> {
            insert(C, *S, I);
            co_return;
          });
        co_await waitSize(Ctx, *S, 10);
        EXPECT_GE(S->sizeNow(), 10u);
        co_return;
      },
      SchedulerConfig{4});
}

TEST(ISet, DuplicateInsertIsIdempotent) {
  auto S = runParThenFreeze<D>([](ParCtx<D> Ctx) -> Par<
                                   std::shared_ptr<ISet<int>>> {
    auto Set = newISet<int>(Ctx);
    for (int R = 0; R < 4; ++R)
      fork(Ctx, [Set](ParCtx<D> C) -> Par<void> {
        for (int I = 0; I < 50; ++I)
          insert(C, *Set, I);
        co_return;
      });
    co_return Set;
  });
  EXPECT_EQ(S->sizeNow(), 50u);
  auto Sorted = S->toSortedVector();
  ASSERT_EQ(Sorted.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Sorted[static_cast<size_t>(I)], I);
}

TEST(ISet, HandlerDeliversEachElementExactlyOnce) {
  std::atomic<int> Deliveries{0};
  std::atomic<long> Sum{0};
  runParIO<Eff::FullIO>([&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto S = newISet<int>(Ctx);
    auto Pool = newPool(Ctx);
    // Insert some elements BEFORE registration (delivered via snapshot)...
    insert(Ctx, *S, 100);
    insert(Ctx, *S, 200);
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *S,
                   [&](ParCtx<Eff::FullIO> C, const int &V) -> Par<void> {
                     Deliveries.fetch_add(1);
                     Sum.fetch_add(V);
                     co_return;
                   });
    // ...and some after (delivered by the put path).
    insert(Ctx, *S, 1);
    insert(Ctx, *S, 2);
    insert(Ctx, *S, 1); // Duplicate: no delivery.
    co_await quiesce(Ctx, Pool);
    co_return;
  });
  EXPECT_EQ(Deliveries.load(), 4);
  EXPECT_EQ(Sum.load(), 303);
}

TEST(ISet, CascadingHandlersComputeClosure) {
  // Classic LVar idiom: a handler re-inserting f(x) until a fixpoint -
  // computes the closure of {1} under x -> 2x (mod 100).
  auto S = runParThenFreeze<D>([](ParCtx<D> Ctx) -> Par<
                                   std::shared_ptr<ISet<int>>> {
    auto Set = newISet<int>(Ctx);
    auto Pool = newPool(Ctx);
    // Self-referential handler: capture a non-owning pointer, or the
    // closure stored inside the set would keep the set alive forever
    // (shared_ptr cycle; see the ownership note in HandlerPool.h).
    ISet<int> *SetP = Set.get();
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *Set, [SetP](ParCtx<D> C, const int &V) -> Par<void> {
          insert(C, *SetP, (V * 2) % 100);
          co_return;
        });
    insert(Ctx, *Set, 1);
    co_await quiesce(Ctx, Pool);
    co_return Set;
  });
  // Orbit of 1 under doubling mod 100: 1,2,4,8,16,32,64,28,56,12,24,48,96,
  // 92,84,68,36,72,44,88,76,52,4(cycle)...
  EXPECT_TRUE(S->containsElem(1));
  EXPECT_TRUE(S->containsElem(64));
  EXPECT_TRUE(S->containsElem(96));
  EXPECT_FALSE(S->containsElem(3));
}

// -- IMap -------------------------------------------------------------------

TEST(IMap, ShoppingCartAppendixExample) {
  // The paper's appendix A example: deterministically prints 2.
  enum class Item { Book, Shoes };
  struct ItemHash {
    uint64_t operator()(Item I) const {
      return mix64(static_cast<uint64_t>(I));
    }
  };
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Cart = std::make_shared<IMap<Item, int, ItemHash>>(
            Ctx.sessionId());
        fork(Ctx, [Cart](ParCtx<D> C) -> Par<void> {
          Cart->insertKV(Item::Book, 2, C.task());
          co_return;
        });
        fork(Ctx, [Cart](ParCtx<D> C) -> Par<void> {
          Cart->insertKV(Item::Shoes, 1, C.task());
          co_return;
        });
        int N = co_await get(Ctx, *Cart, Item::Book);
        co_return N;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 2);
}

TEST(IMap, EqualReinsertIsIdempotent) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto M = newEmptyMap<int, int>(Ctx);
    insert(Ctx, *M, 1, 10);
    insert(Ctx, *M, 1, 10); // Same value: fine.
    int V = co_await get(Ctx, *M, 1);
    EXPECT_EQ(V, 10);
    co_return;
  });
}

TEST(IMap, WaitMapSizeAndFreeze) {
  auto Entries = runParIO<Eff::QuasiDet>(
      [](ParCtx<Eff::QuasiDet> Ctx) -> Par<std::vector<std::pair<int, int>>> {
        auto M = newEmptyMap<int, int>(Ctx);
        for (int I = 0; I < 5; ++I)
          fork(Ctx, [M, I](ParCtx<Eff::QuasiDet> C) -> Par<void> {
            insert(C, *M, I, I * I);
            co_return;
          });
        co_await waitSize(Ctx, *M, 5);
        co_return freezeMap(Ctx, *M);
      });
  ASSERT_EQ(Entries.size(), 5u);
  for (int I = 0; I < 5; ++I) {
    EXPECT_EQ(Entries[static_cast<size_t>(I)].first, I);
    EXPECT_EQ(Entries[static_cast<size_t>(I)].second, I * I);
  }
}

TEST(IMap, HandlersSeePreexistingAndNewBindings) {
  std::atomic<int> Seen{0};
  runParIO<Eff::FullIO>([&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto M = newEmptyMap<int, int>(Ctx);
    auto Pool = newPool(Ctx);
    insert(Ctx, *M, 1, 1);
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *M,
                   [&Seen](ParCtx<Eff::FullIO> C,
                           const std::pair<int, int> &KV) -> Par<void> {
                     Seen.fetch_add(KV.second);
                     co_return;
                   });
    insert(Ctx, *M, 2, 10);
    co_await quiesce(Ctx, Pool);
    co_return;
  });
  EXPECT_EQ(Seen.load(), 11);
}

// -- Counter ------------------------------------------------------------

TEST(Counter, ConcurrentBumpsAllLand) {
  // 8 tasks x 1000 bumps: exactly-once RMW means the total is exact, not
  // merely monotone (this is what lub-only LVars cannot express).
  uint64_t Total = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<uint64_t> {
        auto C = newCounter(Ctx);
        auto DoneCount = newCounter(Ctx);
        for (int T = 0; T < 8; ++T)
          fork(Ctx, [C, DoneCount](ParCtx<Eff::FullIO> Cc) -> Par<void> {
            for (int I = 0; I < 1000; ++I)
              incrCounter(Cc, *C);
            incrCounter(Cc, *DoneCount);
            co_return;
          });
        co_await get(Ctx, *DoneCount, 8);
        co_return freezeCounter(Ctx, *C);
      },
      SchedulerConfig{4});
  EXPECT_EQ(Total, 8000u);
}

TEST(Counter, ThresholdReadReturnsThresholdOnly) {
  uint64_t R = runPar<DB>(
      [](ParCtx<DB> Ctx) -> Par<uint64_t> {
        auto C = newCounter(Ctx);
        fork(Ctx, [C](ParCtx<DB> Cc) -> Par<void> {
          for (int I = 0; I < 100; ++I)
            incrCounter(Cc, *C, 2);
          co_return;
        });
        // Unblocks somewhere between 10 and 200; must return exactly 10.
        uint64_t V = co_await get(Ctx, *C, 10);
        co_return V;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 10u);
}

// Compile-time property probe: must be a template so an unusable `put`
// yields false rather than a hard error.
template <typename LVarT>
constexpr bool SupportsPut =
    requires(ParCtx<Eff::FullIO> C, LVarT &LV, uint64_t V) {
      put(C, LV, V);
    };

TEST(Counter, HasNoPutInterface) {
  // Counter deliberately exposes no put; IVar does. (If the first ever
  // flips, the put/bump separation of Section 3 broke.)
  static_assert(!SupportsPut<Counter>);
  static_assert(SupportsPut<IVar<uint64_t>>);
  SUCCEED();
}

TEST(CounterVec, PerCellBumpsAndSnapshot) {
  auto Snap = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<std::vector<uint64_t>> {
        auto CV = newCounterVec(Ctx, 16);
        // Named body: GCC 12 co_await temporary discipline (see Par.h).
        auto Body = [CV](ParCtx<Eff::FullIO> C, size_t I) -> Par<void> {
          incrCounterAt(C, *CV, I % 16);
          co_return;
        };
        co_await parallelForPar(Ctx, 0, 64, 1, Body);
        co_return freezeCounterVec(Ctx, *CV);
      },
      SchedulerConfig{4});
  ASSERT_EQ(Snap.size(), 16u);
  for (uint64_t V : Snap)
    EXPECT_EQ(V, 4u);
}

// -- IStructure -------------------------------------------------------------

TEST(IStructure, DataflowArray) {
  // Slot i+1 depends on slot i: a chain of blocking reads.
  int Last = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        constexpr size_t N = 64;
        auto A = newIStructure<int>(Ctx, N);
        for (size_t I = 1; I < N; ++I)
          fork(Ctx, [A, I](ParCtx<D> C) -> Par<void> {
            int Prev = co_await get(C, *A, I - 1);
            putIdx(C, *A, I, Prev + 1);
          });
        putIdx(Ctx, *A, 0, 1);
        int V = co_await get(Ctx, *A, N - 1);
        co_return V;
      },
      SchedulerConfig{4});
  EXPECT_EQ(Last, 64);
}

// -- MinMap -----------------------------------------------------------------

constexpr EffectSet IOE = Eff::FullIO;
constexpr EffectSet Q = Eff::QuasiDet;

/// Deltas seen by a MinMap handler, collected across handler tasks.
struct MinDeltaLog {
  std::mutex Mu;
  std::vector<std::pair<int, uint64_t>> Seen;

  void add(const std::pair<int, uint64_t> &D) {
    std::lock_guard<std::mutex> Lock(Mu);
    Seen.push_back(D);
  }
  std::vector<std::pair<int, uint64_t>> sorted() {
    std::lock_guard<std::mutex> Lock(Mu);
    std::vector<std::pair<int, uint64_t>> Out = Seen;
    std::sort(Out.begin(), Out.end());
    return Out;
  }
};

TEST(MinMap, BottomPutIsNoOp) {
  auto Entries = runParIO<Q>(
      [](ParCtx<Q> Ctx) -> Par<std::vector<std::pair<int, uint64_t>>> {
        auto M = newMinMap<int>(Ctx);
        putMin(Ctx, *M, 1, MinMap<int>::Bottom);
        EXPECT_EQ(M->sizeNow(), 0u);
        EXPECT_FALSE(M->peekKey(1).has_value());
        putMin(Ctx, *M, 2, 7);
        putMin(Ctx, *M, 2, MinMap<int>::Bottom); // join(7, bottom) = 7.
        EXPECT_EQ(M->peekKey(2), std::optional<uint64_t>(7));
        co_return freezeMinMap(Ctx, *M);
      });
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0], std::make_pair(2, uint64_t{7}));
}

TEST(MinMap, HandlerFiresOnlyOnStrictDecrease) {
  MinDeltaLog Log;
  runParIO<IOE>(
      [&Log](ParCtx<IOE> Ctx) -> Par<void> {
        auto M = newMinMap<int>(Ctx);
        auto Pool = newPool(Ctx);
        [[maybe_unused]] HandlerHandle H = addHandler(
            Ctx, Pool, *M,
            [&Log](ParCtx<IOE>, const std::pair<int, uint64_t> &D)
                -> Par<void> {
              Log.add(D);
              co_return;
            });
        putMin(Ctx, *M, 1, 10); // First label: delivered.
        putMin(Ctx, *M, 1, 12); // Not lower: no delta.
        putMin(Ctx, *M, 1, 10); // Equal: no delta.
        putMin(Ctx, *M, 1, 5);  // Strict decrease: delivered.
        putMin(Ctx, *M, 1, 5);
        putMin(Ctx, *M, 1, MinMap<int>::Bottom);
        putMin(Ctx, *M, 2, 3); // Another key's first label: delivered.
        co_await quiesce(Ctx, Pool);
        co_return;
      },
      SchedulerConfig{1});
  std::vector<std::pair<int, uint64_t>> Want{{1, 5}, {1, 10}, {2, 3}};
  EXPECT_EQ(Log.sorted(), Want);
}

TEST(MinMap, LateRegistrationReplaysCurrentLabels) {
  MinDeltaLog Log;
  runParIO<IOE>(
      [&Log](ParCtx<IOE> Ctx) -> Par<void> {
        auto M = newMinMap<int>(Ctx);
        auto Pool = newPool(Ctx);
        putMin(Ctx, *M, 1, 7);
        putMin(Ctx, *M, 1, 3);
        putMin(Ctx, *M, 2, 9);
        // Registration replays the current labels only (3, not 7)...
        [[maybe_unused]] HandlerHandle H = addHandler(
            Ctx, Pool, *M,
            [&Log](ParCtx<IOE>, const std::pair<int, uint64_t> &D)
                -> Par<void> {
              Log.add(D);
              co_return;
            });
        // ...then every later strict decrease.
        putMin(Ctx, *M, 2, 4);
        putMin(Ctx, *M, 1, 3);
        co_await quiesce(Ctx, Pool);
        co_return;
      },
      SchedulerConfig{1});
  std::vector<std::pair<int, uint64_t>> Want{{1, 3}, {2, 4}, {2, 9}};
  EXPECT_EQ(Log.sorted(), Want);
}

TEST(MinMap, GetWakesOnlyAtBoundAndReturnsBound) {
  auto Seen = runParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<std::pair<uint64_t, uint64_t>> {
        auto M = newMinMap<int>(Ctx);
        auto Woke = newIVar<std::pair<uint64_t, uint64_t>>(Ctx);
        fork(Ctx, [M, Woke](ParCtx<IOE> C) -> Par<void> {
          uint64_t R = co_await get(C, *M, 1, 5);
          // Labels only fall, so the label read after waking must already
          // be at or below the bound.
          put(C, *Woke, std::make_pair(R, *M->peekKey(1)));
        });
        // The awaiter's threshold test itself: absent, then above, then at
        // or below the bound.
        MinMap<int>::WaitLeqAwaiter Probe(*M, Ctx.task(), 1, 5);
        EXPECT_FALSE(Probe.tryCapture());
        putMin(Ctx, *M, 1, 9);
        EXPECT_FALSE(Probe.tryCapture());
        putMin(Ctx, *M, 1, 6);
        EXPECT_FALSE(Probe.tryCapture());
        putMin(Ctx, *M, 1, 4);
        EXPECT_TRUE(Probe.tryCapture());
        auto V = co_await get(Ctx, *Woke);
        co_return V;
      },
      SchedulerConfig{4});
  EXPECT_EQ(Seen.first, 5u); // The bound, never the exact label.
  EXPECT_LE(Seen.second, 5u);
}

TEST(MinMap, WaitSizeCountsLabelledKeys) {
  runPar<D>(
      [](ParCtx<D> Ctx) -> Par<void> {
        auto M = newMinMap<int>(Ctx);
        putMin(Ctx, *M, 100, MinMap<int>::Bottom); // Bottom: no key.
        for (int I = 0; I < 8; ++I)
          fork(Ctx, [M, I](ParCtx<D> C) -> Par<void> {
            putMin(C, *M, I, static_cast<uint64_t>(I) + 1);
            co_return;
          });
        co_await waitSize(Ctx, *M, 8);
        EXPECT_GE(M->sizeNow(), 8u);
        EXPECT_FALSE(M->peekKey(100).has_value());
        co_return;
      },
      SchedulerConfig{4});
}

TEST(MinMap, PutAfterFreezeFaults) {
  // A lowering put after the freeze is the quasi-determinism error...
  auto O = tryRunParIO<Q>([](ParCtx<Q> Ctx) -> Par<int> {
    auto M = newMinMap<int>(Ctx);
    putMin(Ctx, *M, 1, 5);
    (void)freezeMinMap(Ctx, *M);
    putMin(Ctx, *M, 1, 7); // Not lower: a no-op join, never an error.
    putMin(Ctx, *M, 1, 3);
    co_return 0;
  });
  ASSERT_FALSE(O.ok());
  EXPECT_EQ(O.fault().Code, FaultCode::PutAfterFreeze);
  // ...and so is a put that labels a new key.
  auto O2 = tryRunParIO<Q>([](ParCtx<Q> Ctx) -> Par<int> {
    auto M = newMinMap<int>(Ctx);
    (void)freezeMinMap(Ctx, *M);
    putMin(Ctx, *M, 2, 1);
    co_return 0;
  });
  ASSERT_FALSE(O2.ok());
  EXPECT_EQ(O2.fault().Code, FaultCode::PutAfterFreeze);
}

// -- MinVec -----------------------------------------------------------------

TEST(MinVec, PutMinAtJoinsByMinAndFreezes) {
  auto Snap = runParIO<Q>(
      [](ParCtx<Q> Ctx) -> Par<std::vector<uint64_t>> {
        auto MV = newMinVec(Ctx, 8);
        EXPECT_EQ(MV->size(), 8u);
        // Named body: GCC 12 co_await temporary discipline (see Par.h).
        auto Body = [MV](ParCtx<Q> C, size_t I) -> Par<void> {
          putMinAt(C, *MV, I % 8, 1000 - I);
          co_return;
        };
        co_await parallelForPar(Ctx, 0, 64, 1, Body);
        putMinAt(Ctx, *MV, 0, MinVec::Bottom); // Bottom: no-op.
        co_return freezeMinVec(Ctx, *MV);
      },
      SchedulerConfig{4});
  ASSERT_EQ(Snap.size(), 8u);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Snap[I], 1000 - (56 + I)); // Largest index per cell wins.
}

TEST(MinVec, UntouchedCellsStayBottomAndLateLowerPutFaults) {
  auto O = tryRunParIO<Q>([](ParCtx<Q> Ctx) -> Par<int> {
    auto MV = newMinVec(Ctx, 4);
    putMinAt(Ctx, *MV, 1, 5);
    std::vector<uint64_t> Snap = freezeMinVec(Ctx, *MV);
    EXPECT_EQ(Snap[0], MinVec::Bottom);
    EXPECT_EQ(Snap[1], 5u);
    putMinAt(Ctx, *MV, 1, 9); // Not lower: no-op after the freeze.
    putMinAt(Ctx, *MV, 1, 2);
    co_return 0;
  });
  ASSERT_FALSE(O.ok());
  EXPECT_EQ(O.fault().Code, FaultCode::PutAfterFreeze);
}

// -- Footprint ----------------------------------------------------------------

TEST(LVarFootprint, HandlerFreeLVarsCarryNoGate) {
  // LVars that never register handlers must not pay for the footnote-6
  // gate's per-thread slot array.
  EXPECT_LT(sizeof(IVar<uint64_t>), 1024u);
  EXPECT_LT(sizeof(Counter), 1024u);
  EXPECT_LT(sizeof(MinVec), 1024u);
}

} // namespace
