//===- ISet.h - Monotone concurrent set LVar --------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Data.LVar.Set`: a set LVar that "supports concurrent insertion, but not
/// deletion, during Par computations". The lattice is the powerset of the
/// element type ordered by inclusion; insert is the lub with a singleton.
/// Deterministic observations:
///  * \c lvish::get(Ctx, Set, Elem) (the paper's `waitElem`) - threshold
///    read that unblocks once a given element is present (the returned
///    information, "x is in the set", is stable);
///  * \c waitSize - unblocks once the cardinality reaches N (cardinality is
///    monotone, and the read returns only the threshold N, not the exact
///    size);
///  * handlers - run for each element exactly once (current and future);
///  * freezing - exact contents, quasi-deterministic unless performed at
///    session quiescence (runParThenFreeze).
///
/// As in the paper, ISet deliberately has no \c bump operations: put-style
/// and bump-style updates never mix on one LVar.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_ISET_H
#define LVISH_DATA_ISET_H

#include "src/core/Par.h"
#include "src/data/KeyedStore.h"

#include <memory>
#include <vector>

namespace lvish {

/// Monotone set LVar: a KeyedStore of unit cells; construct via \c newISet.
template <typename T, typename HashT = DefaultHash<T>>
class ISet : public KeyedStore<T, UnitCell<T>, HashT> {
  using Base = KeyedStore<T, UnitCell<T>, HashT>;

public:
  /// Threshold read: unblocks once the element is present.
  using WaitElemAwaiter = typename Base::KeyAwaiter;

  explicit ISet(uint64_t SessionId) : Base(SessionId) {}

  /// Lub write: adds \p Elem. No-op if already present (idempotent).
  void insertElem(const T &Elem, Task *Writer) {
    this->beginPut(Writer, check::FxPut, "ISet insert");
    this->joinCell(Elem, CellUnit{}, Writer);
  }

  bool containsElem(const T &Elem) const { return this->Table.contains(Elem); }

  /// Unordered traversal (post-freeze or at quiescence).
  template <typename FnT> void forEachFrozen(FnT &&Fn) const {
    assert(this->isFrozen() &&
           "iterating an unfrozen ISet is nondeterministic");
    this->Table.forEach(
        [&Fn](const T &Elem, const CellUnit &) { Fn(Elem); });
  }
};

/// Allocates an empty set for the current session.
template <typename T, EffectSet E>
std::shared_ptr<ISet<T>> newISet(ParCtx<E> Ctx) {
  return std::make_shared<ISet<T>>(Ctx.sessionId());
}

/// `insert :: HasPut e => a -> ISet s a -> Par e s ()`
template <EffectSet E, typename T, typename HashT>
  requires(hasPut(E))
void insert(ParCtx<E> Ctx, ISet<T, HashT> &Set, const T &Elem) {
  Set.insertElem(Elem, Ctx.task());
}

/// Blocks until \p Elem appears - the unified threshold-read spelling
/// (the paper's `waitElem`).
template <EffectSet E, typename T, typename HashT>
  requires(hasGet(E))
typename ISet<T, HashT>::WaitElemAwaiter get(ParCtx<E> Ctx,
                                             ISet<T, HashT> &Set, T Elem) {
  return typename ISet<T, HashT>::WaitElemAwaiter(Set, Ctx.task(),
                                                  std::move(Elem));
}

/// Blocks until the set has at least \p N elements.
template <EffectSet E, typename T, typename HashT>
  requires(hasGet(E))
typename ISet<T, HashT>::WaitSizeAwaiter waitSize(ParCtx<E> Ctx,
                                                  ISet<T, HashT> &Set,
                                                  size_t N) {
  return typename ISet<T, HashT>::WaitSizeAwaiter(Set, Ctx.task(), N);
}

/// Freezes mid-computation (quasi-deterministic) and returns the sorted
/// contents.
template <EffectSet E, typename T, typename HashT>
  requires(hasFreeze(E))
std::vector<T> freezeSet(ParCtx<E> Ctx, ISet<T, HashT> &Set) {
  return Set.freezeAndRead(Ctx.task(), "ISet freeze",
                           [&] { return Set.toSortedVector(); });
}

} // namespace lvish

#endif // LVISH_DATA_ISET_H
