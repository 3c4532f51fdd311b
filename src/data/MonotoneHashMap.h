//===- MonotoneHashMap.h - Insert-only concurrent hash map ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent substrate under KeyedStore (ISet, IMap, MinMap): a
/// striped-lock hash map that supports insertion and lookup but never
/// deletion - the monotone growth discipline that makes LVar collections
/// deterministic. Entries are stable once inserted (node-based buckets),
/// so lookups can hand out pointers that stay valid for the life of the
/// table.
///
/// Striping note: 64 stripes bound contention at the worker counts this
/// library targets; an insert takes exactly one stripe lock. The size
/// counter is maintained separately so threshold reads on cardinality
/// (waitSize) never sweep the stripes.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_MONOTONEHASHMAP_H
#define LVISH_DATA_MONOTONEHASHMAP_H

#include "src/support/Hashing.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace lvish {

/// Insert-only concurrent hash map; see file comment.
template <typename K, typename V, typename HashT = DefaultHash<K>>
class MonotoneHashMap {
public:
  static constexpr size_t NumStripes = 64;

  MonotoneHashMap() = default;
  MonotoneHashMap(const MonotoneHashMap &) = delete;
  MonotoneHashMap &operator=(const MonotoneHashMap &) = delete;

  /// Inserts (Key, Value) if Key is absent. Returns {pointer to the stored
  /// value, true if newly inserted}. The pointer stays valid forever (no
  /// deletion, node-based storage).
  std::pair<const V *, bool> insert(const K &Key, V Value) {
    Stripe &S = stripeFor(Key);
    // lvish-lint: allow(raw-sync) - striped-lock table internals
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto [It, Inserted] = S.Map.try_emplace(Key, std::move(Value));
    if (Inserted)
      Count.fetch_add(1, std::memory_order_acq_rel);
    return {&It->second, Inserted};
  }

  /// Looks up Key; returns a stable pointer or null.
  const V *find(const K &Key) const {
    const Stripe &S = stripeFor(Key);
    // lvish-lint: allow(raw-sync) - striped-lock table internals
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Map.find(Key);
    return It == S.Map.end() ? nullptr : &It->second;
  }

  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// Number of entries (exact; monotonically non-decreasing).
  size_t size() const { return Count.load(std::memory_order_acquire); }

  /// Applies \p Fn to every entry. Only deterministic when the table is
  /// quiescent (frozen or post-session); iteration order is unspecified -
  /// use \c snapshotSorted for deterministic order.
  template <typename FnT> void forEach(FnT &&Fn) const {
    for (const Stripe &S : Stripes) {
      // lvish-lint: allow(raw-sync) - striped-lock table internals
    std::lock_guard<std::mutex> Lock(S.Mutex);
      for (const auto &KV : S.Map)
        Fn(KV.first, KV.second);
    }
  }

  /// Copies all entries out, sorted by key.
  std::vector<std::pair<K, V>> snapshotSorted() const {
    std::vector<std::pair<K, V>> Entries;
    Entries.reserve(size());
    forEach([&Entries](const K &Key, const V &Val) {
      Entries.emplace_back(Key, Val);
    });
    std::sort(Entries.begin(), Entries.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    return Entries;
  }

private:
  struct StdHashAdapter {
    size_t operator()(const K &Key) const {
      return static_cast<size_t>(HashT{}(Key));
    }
  };

  struct alignas(64) Stripe {
    mutable std::mutex Mutex; // lvish-lint: allow(raw-sync)
    std::unordered_map<K, V, StdHashAdapter> Map;
  };

  Stripe &stripeFor(const K &Key) {
    return Stripes[HashT{}(Key) % NumStripes];
  }
  const Stripe &stripeFor(const K &Key) const {
    return Stripes[HashT{}(Key) % NumStripes];
  }

  Stripe Stripes[NumStripes];
  std::atomic<size_t> Count{0};
};

} // namespace lvish

#endif // LVISH_DATA_MONOTONEHASHMAP_H
