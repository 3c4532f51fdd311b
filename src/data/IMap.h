//===- IMap.h - Monotone concurrent key-value map LVar ----------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Data.LVar.Map` / `Data.LVar.PureMap`: a key-value map LVar supporting
/// concurrent insertion but not deletion or update. Each key behaves like
/// an IVar: inserting a key twice with conflicting values is a
/// deterministic error (per-key lattice top). \c lvish::get(Ctx, Map, Key)
/// (the paper's `getKey`) is the blocking threshold read from the
/// appendix shopping-cart example:
///
///   p = do cart <- newEmptyMap
///          fork (insert Book 2 cart)
///          fork (insert Shoes 1 cart)
///          getKey Book cart        -- blocks until Book is present
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_IMAP_H
#define LVISH_DATA_IMAP_H

#include "src/core/Par.h"
#include "src/data/KeyedStore.h"

#include <memory>
#include <utility>
#include <vector>

namespace lvish {

/// Monotone map LVar: a KeyedStore of conflict-on-differ cells; construct
/// via \c newEmptyMap.
template <typename K, typename V, typename HashT = DefaultHash<K>>
class IMap : public KeyedStore<K, ConflictCell<K, V>, HashT> {
  using Base = KeyedStore<K, ConflictCell<K, V>, HashT>;

  /// modifyKey's join: a racing loser's fresh value is simply dropped.
  struct FirstWins : ConflictCell<K, V> {
    static bool join(const V &, const V &, Task *, const LVarBase &) {
      return false;
    }
  };

public:
  /// Threshold read: unblocks once the key is bound; returns its value.
  using GetKeyAwaiter = typename Base::KeyAwaiter;

  explicit IMap(uint64_t SessionId) : Base(SessionId) {}

  /// Lub write: binds \p Key to \p Val. Re-inserting an equal value is a
  /// no-op; a conflicting value for an existing key is a deterministic
  /// error.
  void insertKV(const K &Key, const V &Val, Task *Writer) {
    this->beginPut(Writer, check::FxPut, "IMap insert");
    this->joinCell(Key, Val, Writer);
  }

  /// Non-blocking probe (deterministic only for keys known to be present,
  /// or when frozen). Returns a stable pointer or null.
  const V *lookupNow(const K &Key) const { return this->Table.find(Key); }

  /// Monotone get-or-create (LVish's `modify` for nested-LVar values): if
  /// \p Key is absent, binds it to \p Factory(); returns the stable stored
  /// value either way. Deterministic when the factory produces a fresh
  /// bottom LVar (every winner is indistinguishable) - the idiom behind
  /// "a map of sets" in the PhyBin parallelization (Section 7.1).
  template <typename FactoryT>
  const V &modifyKey(const K &Key, FactoryT Factory, Task *Writer) {
    this->beginPut(Writer, check::FxPut, "IMap modifyKey",
                   /*CountPut=*/false);
    if (const V *Existing = this->Table.find(Key))
      return *Existing;
    obs::count(obs::Event::Puts);
    return *this->template joinCell<FirstWins>(Key, Factory(), Writer);
  }

  /// Unordered traversal (post-freeze or at quiescence).
  template <typename FnT> void forEachFrozen(FnT &&Fn) const {
    assert(this->isFrozen() &&
           "iterating an unfrozen IMap is nondeterministic");
    this->Table.forEach(Fn);
  }
};

/// Allocates an empty map for the current session.
template <typename K, typename V, EffectSet E>
std::shared_ptr<IMap<K, V>> newEmptyMap(ParCtx<E> Ctx) {
  return std::make_shared<IMap<K, V>>(Ctx.sessionId());
}

/// `insert :: HasPut e => k -> v -> IMap k s v -> Par e s ()`
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasPut(E))
void insert(ParCtx<E> Ctx, IMap<K, V, HashT> &Map, const K &Key,
            const V &Val) {
  Map.insertKV(Key, Val, Ctx.task());
}

/// `getKey :: HasGet e => k -> IMap k s v -> Par e s v` - the unified
/// threshold-read spelling: blocks until \p Key is bound, returns its
/// value.
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasGet(E))
typename IMap<K, V, HashT>::GetKeyAwaiter get(ParCtx<E> Ctx,
                                              IMap<K, V, HashT> &Map,
                                              K Key) {
  return typename IMap<K, V, HashT>::GetKeyAwaiter(Map, Ctx.task(),
                                                   std::move(Key));
}

/// Blocks until the map has at least \p N bindings.
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasGet(E))
typename IMap<K, V, HashT>::WaitSizeAwaiter
waitSize(ParCtx<E> Ctx, IMap<K, V, HashT> &Map, size_t N) {
  return typename IMap<K, V, HashT>::WaitSizeAwaiter(Map, Ctx.task(), N);
}

/// Freezes mid-computation (quasi-deterministic) and returns the sorted
/// contents.
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasFreeze(E))
std::vector<std::pair<K, V>> freezeMap(ParCtx<E> Ctx,
                                       IMap<K, V, HashT> &Map) {
  return Map.freezeAndRead(Ctx.task(), "IMap freeze",
                           [&] { return Map.toSortedVector(); });
}

} // namespace lvish

#endif // LVISH_DATA_IMAP_H
