//===- KeyedStore.h - One keyed store for ISet/IMap/MinMap ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One keyed LVar over MonotoneHashMap. ISet, IMap and MinMap are this
/// store with different cell policies; the store owns the one insert/join
/// path, handler delivery (HandlerList), the per-key and cardinality
/// threshold reads, and the sorted frozen snapshot. A cell policy says what
/// a key maps to and how a put meets an existing cell:
///  * \c UnitCell - set membership; a repeat put is a no-op (ISet);
///  * \c ConflictCell - one value per key; an equal repeat is a no-op and a
///    differing one is the per-key lattice top (IMap);
///  * \c MinCell - a boxed atomic label under min; only a strict decrease
///    changes the cell, and a bottom put is a no-op that never touches the
///    table (MinMap).
///
/// Policy interface (all static):
///   Stored, Delta            the table's value type; the handler delta,
///                            which is also the frozen snapshot's entry
///   Bound, Result            what a key read waits for and returns
///   isBottom(A)              put argument A is a no-op join outright
///   fresh(A)                 the cell a put of A creates for a new key
///   join(S, A, Writer, LV)   put A meets existing cell S; true iff S
///                            changed (raises on conflict or freeze)
///   delta(Key, S, A)         the delta a changing put of A delivers
///   current(Key, S)          the delta a cell replays and snapshots as
///   reached(S, B)            key read threshold test (monotone in S)
///   result(S, B)             key read result (unless Result is void)
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_KEYEDSTORE_H
#define LVISH_DATA_KEYEDSTORE_H

#include "src/core/LVarBase.h"
#include "src/core/Lattice.h"
#include "src/data/MonotoneHashMap.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvish {

/// The empty cell / bound of the policies that carry no data.
struct CellUnit {};

/// Set membership: the key is the whole delta.
template <typename K> struct UnitCell {
  using Stored = CellUnit;
  using Delta = K;
  using Bound = CellUnit;
  using Result = void;

  static bool isBottom(CellUnit) { return false; }
  static CellUnit fresh(CellUnit) { return {}; }
  static bool join(const CellUnit &, CellUnit, Task *,
                   const LVarBase &) {
    return false;
  }
  static const K &delta(const K &Key, const CellUnit &, CellUnit) {
    return Key;
  }
  static const K &current(const K &Key, const CellUnit &) { return Key; }
  static bool reached(const CellUnit &, CellUnit) { return true; }
};

/// Single assignment per key: rebinding an equal value is a no-op, a
/// differing one is a deterministic ConflictingInsert.
template <typename K, typename V> struct ConflictCell {
  using Stored = V;
  using Delta = std::pair<K, V>;
  using Bound = CellUnit;
  using Result = V;

  static bool isBottom(const V &) { return false; }
  static V fresh(V A) { return A; }
  static bool join(const V &S, const V &A, Task *Writer,
                   const LVarBase &LV) {
    if constexpr (std::equality_comparable<V>) {
      if (S == A)
        return false; // Idempotent repeat: no delta, nothing to wake.
    }
    detail::raiseSessionFault(Writer, FaultCode::ConflictingInsert,
                              "conflicting insert for an existing IMap key "
                              "(per-key lattice top reached)",
                              LV.debugName());
  }
  static Delta delta(const K &Key, const V &S, const V &) { return {Key, S}; }
  static Delta current(const K &Key, const V &S) { return {Key, S}; }
  static bool reached(const V &, CellUnit) { return true; }
  static V result(const V &S, CellUnit) { return S; }
};

/// A uint64 label under MinUint64Lattice. Cells are heap boxes because
/// MonotoneHashMap::insert moves its value argument and std::atomic is
/// immovable; the box also keeps the CAS target stable forever.
template <typename K> struct MinCell {
  using Stored = std::unique_ptr<std::atomic<uint64_t>>;
  using Delta = std::pair<K, uint64_t>;
  using Bound = uint64_t;
  using Result = uint64_t;

  static bool isBottom(uint64_t Label) {
    return Label == MinUint64Lattice::bottom();
  }
  // The cell is born with the label, so no reader ever observes a
  // transient bottom cell.
  static Stored fresh(uint64_t Label) {
    return std::make_unique<std::atomic<uint64_t>>(Label);
  }
  static bool join(const Stored &S, uint64_t Label, Task *Writer,
                   const LVarBase &LV) {
    uint64_t Cur = S->load(std::memory_order_acquire);
    do {
      if (Label >= Cur)
        return false; // Non-improving join.
      if (LV.isFrozen())
        putAfterFreezeError(Writer, &LV);
    } while (!S->compare_exchange_weak(Cur, Label, std::memory_order_acq_rel,
                                       std::memory_order_acquire));
    return true;
  }
  // The label this put wrote, not the cell's (possibly lower) value now.
  static Delta delta(const K &Key, const Stored &, uint64_t Label) {
    return {Key, Label};
  }
  static Delta current(const K &Key, const Stored &S) {
    return {Key, S->load(std::memory_order_acquire)};
  }
  static bool reached(const Stored &S, uint64_t Bound) {
    return S->load(std::memory_order_acquire) <= Bound;
  }
  static uint64_t result(const Stored &, uint64_t Bound) { return Bound; }
};

/// The keyed store; see file comment.
template <typename K, typename CellT, typename HashT>
class KeyedStore : public LVarBase {
public:
  using Stored = typename CellT::Stored;
  using DeltaType = typename CellT::Delta;
  using Handler = typename HandlerList<DeltaType>::Handler;

  explicit KeyedStore(uint64_t SessionId) : LVarBase(SessionId) {}

  /// Number of keys; monotone, so threshold-readable. Exact only when
  /// frozen or quiescent.
  size_t sizeNow() const { return Table.size(); }

  /// Registers a handler; delivers every existing cell, then every future
  /// delta, exactly once (see HandlerList).
  void addHandlerRaw(Handler H, Task *Registrar) {
    checkSession(Registrar);
    Handlers.add(std::move(H), [this](const Handler &New) {
      Table.forEach([&New](const K &Key, const Stored &S) {
        New(CellT::current(Key, S));
      });
    });
  }

  /// Sorted-by-key snapshot of every cell; call after freezing.
  std::vector<DeltaType> toSortedVector() const {
    assert(isFrozen() && "iterating an unfrozen LVar is nondeterministic");
    std::vector<DeltaType> Out;
    Out.reserve(Table.size());
    Table.forEach([&Out](const K &Key, const Stored &S) {
      Out.push_back(CellT::current(Key, S));
    });
    std::sort(Out.begin(), Out.end(),
              [](const DeltaType &A, const DeltaType &B) {
                if constexpr (std::is_same_v<DeltaType, K>)
                  return A < B;
                else
                  return A.first < B.first;
              });
    return Out;
  }

  /// Threshold read on one key: unblocks once the key's cell reaches the
  /// bound (see the policy's \c reached).
  class KeyAwaiter {
  public:
    using Result = typename CellT::Result;

    KeyAwaiter(KeyedStore &S, Task *Reader, K Key,
               typename CellT::Bound B = {})
        : Store(S), Tsk(Reader), Target(std::move(Key)), Threshold(B) {}

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      return Store.parkGet(Tsk, H, this, WaitSlot::key(HashT{}(Target)));
    }
    Result await_resume() {
      if constexpr (!std::is_void_v<Result>)
        return std::move(*Out);
    }

    bool tryCapture() {
      const Stored *S = Store.Table.find(Target);
      if (!S || !CellT::reached(*S, Threshold))
        return false;
      if constexpr (!std::is_void_v<Result>)
        Out = CellT::result(*S, Threshold);
      return true;
    }

  private:
    KeyedStore &Store;
    Task *Tsk;
    K Target;
    typename CellT::Bound Threshold;
    using Captured =
        std::conditional_t<std::is_void_v<Result>, CellUnit, Result>;
    std::optional<Captured> Out;
  };

  /// Threshold read: unblocks once at least N keys are present.
  class WaitSizeAwaiter {
  public:
    WaitSizeAwaiter(KeyedStore &S, Task *Reader, size_t N)
        : Store(S), Tsk(Reader), Threshold(N) {}

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      return Store.parkGet(Tsk, H, this, WaitSlot::size(Threshold));
    }
    void await_resume() const noexcept {}

    bool tryCapture() { return Store.Table.size() >= Threshold; }

  private:
    KeyedStore &Store;
    Task *Tsk;
    size_t Threshold;
  };

protected:
  /// The one insert/join path, run after the caller's beginPut: inserts a
  /// fresh cell for a missing key or joins \p A into the existing one
  /// (with \p JoinCell's join, by default the store's policy), then
  /// delivers the delta and wakes the reads it can satisfy. Returns the
  /// key's cell, or null for a bottom put.
  template <typename JoinCell = CellT, typename ArgT>
  const Stored *joinCell(const K &Key, const ArgT &A, Task *Writer) {
    if (CellT::isBottom(A)) {
      noOpPut(); // join(bottom, x) = x: nothing to record, nothing to wake.
      return nullptr;
    }
    auto Gate = Handlers.guard();
    auto [S, Inserted] = Table.insert(Key, CellT::fresh(A));
    if (!Inserted) {
      if (!JoinCell::join(*S, A, Writer, *this)) {
        noOpPut();
        return S;
      }
    } else if (isFrozen()) {
      putAfterFreezeError(Writer, this);
    }
    if (!Handlers.empty())
      Handlers.deliver(CellT::delta(Key, *S, A));
    notifyDelta(Writer, HashT{}(Key), Table.size());
    return S;
  }

  MonotoneHashMap<K, Stored, HashT> Table;
  HandlerList<DeltaType> Handlers;
};

} // namespace lvish

#endif // LVISH_DATA_KEYEDSTORE_H
