//===- MinMap.h - Min-label map and dense min-vector LVars ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two LVars over MinUint64Lattice (src/core/Lattice.h), built for the
/// PBBS port (src/pbbs/):
///
///  * \c MinMap<K> - a keyed map whose per-key state is a uint64 label
///    under *min*-join. Unlike IMap (exactly-once single-assignment per
///    key), a MinMap key may be written many times; each write joins (takes
///    the minimum), and registered handlers fire once per *winning* strict
///    decrease with the (key, newLabel) delta. That monotone delta stream
///    is what drives label-propagation fixpoints: connected components
///    seeds label[v] = v and a handler relaxes each improvement across the
///    vertex's edges until quiescence.
///
///  * \c MinVec - the dense cousin: a fixed array of min-cells, the shape
///    Boruvka's minimum-edge selection wants (one cell per component,
///    proposals join by min, the winner is read after a barrier). No
///    handlers - it pairs with fork-join rounds, not fixpoints - so a cell
///    is one padded atomic and a proposal is one CAS loop.
///
/// Deterministic observations mirror ISet/IMap: threshold reads ("the
/// label of K has dropped to <= Bound" is a stable, monotone fact),
/// cardinality waits, and freeze for exact contents.
///
/// Bottom (UINT64_MAX) is "no information": putting it is a no-op join,
/// so every key physically present in a MinMap carries a real label and
/// the key-count itself is a monotone threshold surface.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_MINMAP_H
#define LVISH_DATA_MINMAP_H

#include "src/core/Lattice.h"
#include "src/core/Par.h"
#include "src/data/Counter.h"
#include "src/data/KeyedStore.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace lvish {

/// Keyed min-label LVar: a KeyedStore of min-cells; construct via
/// \c newMinMap.
template <typename K, typename HashT = DefaultHash<K>>
class MinMap : public KeyedStore<K, MinCell<K>, HashT> {
  using Base = KeyedStore<K, MinCell<K>, HashT>;

public:
  /// Bottom of MinUint64Lattice: "no label yet".
  static constexpr uint64_t Bottom = MinUint64Lattice::bottom();

  /// Threshold read: unblocks once label[Key] <= Bound. "Label dropped to
  /// Bound or below" is a stable fact (labels only decrease), so the read
  /// is deterministic; it returns only the bound, never the exact label.
  using WaitLeqAwaiter = typename Base::KeyAwaiter;

  explicit MinMap(uint64_t SessionId) : Base(SessionId) {}

  /// Lub write: joins \p Label into the key's cell by min. Fires handlers
  /// with (Key, Label) exactly when this call strictly lowered the cell
  /// (first write included); repeats and non-improving labels are no-ops.
  void joinKey(const K &Key, uint64_t Label, Task *Writer) {
    this->beginPut(Writer, check::FxPut, "MinMap put");
    this->joinCell(Key, Label, Writer);
  }

  /// Current label, or nullopt if the key has never been written.
  /// Deterministic only when frozen/quiescent (labels can still drop).
  std::optional<uint64_t> peekKey(const K &Key) const {
    const auto *C = this->Table.find(Key);
    if (!C)
      return std::nullopt;
    return (*C)->load(std::memory_order_acquire);
  }
};

/// Allocates an empty min-map for the current session.
template <typename K, EffectSet E>
std::shared_ptr<MinMap<K>> newMinMap(ParCtx<E> Ctx) {
  return std::make_shared<MinMap<K>>(Ctx.sessionId());
}

/// `putMin :: HasPut e => k -> Word64 -> MinMap s k -> Par e s ()`
template <EffectSet E, typename K, typename HashT>
  requires(hasPut(E))
void putMin(ParCtx<E> Ctx, MinMap<K, HashT> &Map, const K &Key,
            uint64_t Label) {
  Map.joinKey(Key, Label, Ctx.task());
}

/// Blocks until label[Key] <= Bound - the unified threshold-read spelling.
template <EffectSet E, typename K, typename HashT>
  requires(hasGet(E))
typename MinMap<K, HashT>::WaitLeqAwaiter
get(ParCtx<E> Ctx, MinMap<K, HashT> &Map, K Key, uint64_t Bound) {
  return typename MinMap<K, HashT>::WaitLeqAwaiter(Map, Ctx.task(),
                                                   std::move(Key), Bound);
}

/// Blocks until at least \p N keys carry a label.
template <EffectSet E, typename K, typename HashT>
  requires(hasGet(E))
typename MinMap<K, HashT>::WaitSizeAwaiter
waitSize(ParCtx<E> Ctx, MinMap<K, HashT> &Map, size_t N) {
  return typename MinMap<K, HashT>::WaitSizeAwaiter(Map, Ctx.task(), N);
}

/// Freezes (quasi-deterministic mid-session; deterministic after quiesce)
/// and returns the sorted (key, label) contents.
template <EffectSet E, typename K, typename HashT>
  requires(hasFreeze(E))
std::vector<std::pair<K, uint64_t>> freezeMinMap(ParCtx<E> Ctx,
                                                 MinMap<K, HashT> &Map) {
  return Map.freezeAndRead(Ctx.task(), "MinMap freeze",
                           [&] { return Map.toSortedVector(); });
}

/// A fixed-size array of min-cells sharing one LVar identity - the
/// CounterVec of the min lattice (same padded CellVec layout); a join is
/// one CAS loop.
class MinVec : public CellVec<MinUint64Lattice::bottom()> {
public:
  static constexpr uint64_t Bottom = MinUint64Lattice::bottom();

  MinVec(uint64_t SessionId, size_t N) : CellVec(SessionId, N) {}

  /// Lub write: cell I <- min(cell I, Label).
  void joinAt(size_t I, uint64_t Label, Task *Writer) {
    beginPut(Writer, check::FxPut, "MinVec put");
    std::atomic<uint64_t> &C = cell(I);
    uint64_t Cur = C.load(std::memory_order_acquire);
    for (;;) {
      if (Label >= Cur) {
        noOpPut();
        return;
      }
      if (isFrozen())
        putAfterFreezeError(Writer, this);
      // seq_cst on success so notifyWaiters can order its no-waiter probe
      // against this write without a standalone fence (as CounterVec).
      if (C.compare_exchange_weak(Cur, Label, std::memory_order_seq_cst,
                                  std::memory_order_acquire))
        break;
    }
    notifyWaiters(Writer, NotifyOrder::StateSeqCst);
  }
};

/// Allocates a min-vector of \p N bottom (UINT64_MAX) cells.
template <EffectSet E>
std::shared_ptr<MinVec> newMinVec(ParCtx<E> Ctx, size_t N) {
  return std::make_shared<MinVec>(Ctx.sessionId(), N);
}

template <EffectSet E>
  requires(hasPut(E))
void putMinAt(ParCtx<E> Ctx, MinVec &MV, size_t I, uint64_t Label) {
  MV.joinAt(I, Label, Ctx.task());
}

template <EffectSet E>
  requires(hasFreeze(E))
std::vector<uint64_t> freezeMinVec(ParCtx<E> Ctx, MinVec &MV) {
  return MV.freezeAndRead(Ctx.task(), "MinVec freeze",
                          [&] { return MV.snapshot(); });
}

} // namespace lvish

#endif // LVISH_DATA_MINMAP_H
