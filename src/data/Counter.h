//===- Counter.h - Bump-only counter LVars ----------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Data.LVar.Counter`: the flagship of the paper's read-modify-write
/// extension (Section 3). The lattice is the naturals under <=; the bump
/// family is {(+1), (+2), ...}: commutative and inflationary but *not*
/// lub-shaped, so it can be implemented as a single fetch-and-add on one
/// memory location - "an atomically incremented counter that occupies one
/// memory location".
///
/// Crucially, Counter exposes only \c incrCounter (bump); it has no \c put.
/// "It is not safe to update the same LVar with both put and bump ... In
/// practice, this distinction is enforced by the type system." The same
/// enforcement holds here: there is no put entry point to misuse, and
/// \c incrCounter requires the HasBump effect.
///
/// Idempotence note: a lub write may be re-applied harmlessly (join is
/// idempotent), which is what lets put paths use optimistic retry; a bump
/// must be applied exactly once, which the single atomic RMW guarantees -
/// the C++ shape of the paper's "deleveraging idempotency" re-engineering.
///
/// \c CounterVec is the LVar-collection-of-counters used by PhyBin's
/// distance matrix: "an LVar could represent a monotonically growing
/// collection of counter LVars, where each counter ... supports only bump."
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_COUNTER_H
#define LVISH_DATA_COUNTER_H

#include "src/check/LatticeChecker.h"
#include "src/core/LVarBase.h"
#include "src/core/Par.h"

#include <atomic>
#include <memory>
#include <vector>

namespace lvish {

/// Bump-only counter LVar; see file comment.
class Counter : public LVarBase {
public:
  explicit Counter(uint64_t SessionId) : LVarBase(SessionId), Value(0) {}

  /// Inflationary, commutative, non-idempotent update (exactly-once RMW).
  void bump(uint64_t Amount, Task *Writer) {
    beginPut(Writer, check::FxBump, "Counter bump");
    if (Amount == 0) {
      noOpPut();
      return;
    }
    if (isFrozen())
      putAfterFreezeError(Writer, this);
    // seq_cst RMW: on common targets no dearer than acq_rel (still one
    // locked/LL-SC op), and it lets notifyWaiters order its no-waiter
    // probe against this write without a standalone fence.
    uint64_t Old = Value.fetch_add(Amount, std::memory_order_seq_cst);
    if (check::sampleHit())
      check::checkBumpInflates(Old, Amount, "Counter");
    notifyWaiters(Writer, NotifyOrder::StateSeqCst);
  }

  /// Exact value; deterministic only when frozen or quiescent.
  uint64_t peek() const { return Value.load(std::memory_order_acquire); }

  /// Threshold read: unblocks once the counter reaches \p N; returns only
  /// the threshold itself (the exact value is not observable).
  class WaitThresholdAwaiter {
  public:
    WaitThresholdAwaiter(Counter &C, Task *Reader, uint64_t N)
        : Ctr(C), Tsk(Reader), Threshold(N) {}

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      return Ctr.parkGet(Tsk, H, this);
    }
    uint64_t await_resume() const { return Threshold; }

    bool tryCapture() {
      return Ctr.Value.load(std::memory_order_acquire) >= Threshold;
    }

  private:
    Counter &Ctr;
    Task *Tsk;
    uint64_t Threshold;
  };

private:
  std::atomic<uint64_t> Value;
};

/// Allocates a zeroed counter.
template <EffectSet E> std::shared_ptr<Counter> newCounter(ParCtx<E> Ctx) {
  return std::make_shared<Counter>(Ctx.sessionId());
}

/// `incrCounter :: HasBump e => Counter s -> Par e s ()`
template <EffectSet E>
  requires(hasBump(E))
void incrCounter(ParCtx<E> Ctx, Counter &C, uint64_t Amount = 1) {
  C.bump(Amount, Ctx.task());
}

/// Blocks until the counter reaches \p N - the unified threshold-read
/// spelling; returns the threshold itself.
template <EffectSet E>
  requires(hasGet(E))
Counter::WaitThresholdAwaiter get(ParCtx<E> Ctx, Counter &C, uint64_t N) {
  return Counter::WaitThresholdAwaiter(C, Ctx.task(), N);
}

/// Freezes and reads the exact value.
template <EffectSet E>
  requires(hasFreeze(E))
uint64_t freezeCounter(ParCtx<E> Ctx, Counter &C) {
  return C.freezeAndRead(Ctx.task(), "Counter freeze",
                         [&] { return C.peek(); });
}

/// A fixed-size array of cache-line-padded uint64 cells sharing one LVar
/// identity, each starting at \p Init: the layout CounterVec and MinVec
/// share. Padding keeps concurrent writes to neighboring cells from
/// false-sharing. Reads are deterministic once the writers have joined
/// (fork-join barrier) or after freezing.
template <uint64_t Init> class CellVec : public LVarBase {
public:
  CellVec(uint64_t SessionId, size_t N) : LVarBase(SessionId), Cells(N) {}

  size_t size() const { return Cells.size(); }

  uint64_t peekAt(size_t I) const {
    assert(I < Cells.size() && "LVar cell index out of range");
    return Cells[I].V.load(std::memory_order_acquire);
  }

  /// Copies all cells out; deterministic once frozen/quiescent.
  std::vector<uint64_t> snapshot() const {
    std::vector<uint64_t> Out(Cells.size());
    for (size_t I = 0; I < Cells.size(); ++I)
      Out[I] = peekAt(I);
    return Out;
  }

protected:
  std::atomic<uint64_t> &cell(size_t I) {
    assert(I < Cells.size() && "LVar cell index out of range");
    return Cells[I].V;
  }

private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> V{Init};
  };
  std::vector<Cell> Cells;
};

/// A fixed-size array of bump-only counters sharing one LVar identity: the
/// distance-matrix shape from the PhyBin case study (Section 7.1).
class CounterVec : public CellVec<0> {
public:
  CounterVec(uint64_t SessionId, size_t N) : CellVec(SessionId, N) {}

  void bumpAt(size_t I, uint64_t Amount, Task *Writer) {
    beginPut(Writer, check::FxBump, "CounterVec bump");
    std::atomic<uint64_t> &C = cell(I);
    if (Amount == 0) {
      noOpPut();
      return;
    }
    if (isFrozen())
      putAfterFreezeError(Writer, this);
    uint64_t Old = C.fetch_add(Amount, std::memory_order_seq_cst);
    if (check::sampleHit())
      check::checkBumpInflates(Old, Amount, "CounterVec");
    // Threshold waiters on CounterVec are rare (the PhyBin pattern is
    // bump-then-freeze); skip the waiter scan when nobody waits. The
    // seq_cst RMW above stands in for the notify fence.
    notifyWaiters(Writer, NotifyOrder::StateSeqCst);
  }
};

/// Allocates a zeroed counter vector of \p N cells.
template <EffectSet E>
std::shared_ptr<CounterVec> newCounterVec(ParCtx<E> Ctx, size_t N) {
  return std::make_shared<CounterVec>(Ctx.sessionId(), N);
}

template <EffectSet E>
  requires(hasBump(E))
void incrCounterAt(ParCtx<E> Ctx, CounterVec &C, size_t I,
                   uint64_t Amount = 1) {
  C.bumpAt(I, Amount, Ctx.task());
}

template <EffectSet E>
  requires(hasFreeze(E))
std::vector<uint64_t> freezeCounterVec(ParCtx<E> Ctx, CounterVec &C) {
  return C.freezeAndRead(Ctx.task(), "CounterVec freeze",
                         [&] { return C.snapshot(); });
}

} // namespace lvish

#endif // LVISH_DATA_COUNTER_H
