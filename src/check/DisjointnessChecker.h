//===- DisjointnessChecker.h - Shadow map of ParST extents ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime stand-in for Section 5's static disjointness guarantee. The
/// Haskell/DPJ design makes "the memory updated by different threads is
/// disjoint" a type-level fact (higher-rank types prevent a parent's view
/// from being captured by forkSTSplit children). Our VecView carries only
/// a generation cell, which detects *stale* views but says nothing about
/// *which* scope owns a region now, and cannot detect overlapping extents
/// that were constructed incorrectly in the first place.
///
/// This checker keeps a process-wide shadow interval map of every live
/// VecView extent registered by the trusted ParST combinators (runParVec,
/// forkSTSplit, forkSTSplit2, zoomIn, withTempBuffer):
///
///  * registration asserts the new extent overlaps no live extent of a
///    different ownership scope - catching bad split arithmetic and
///    hand-built aliasing views the moment they are created;
///  * sampled element accesses are classified against the map, upgrading
///    the bare "poisoned view" generation abort into a precise diagnostic
///    (stale generation vs. region now owned by another scope vs. clean).
///
/// The map is guarded by a plain mutex: it is touched only while the
/// checkers are armed, and registration happens at fork-join granularity,
/// not per element. Unarmed, each entry point is the inline \c armed()
/// probe and a not-taken branch.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CHECK_DISJOINTNESSCHECKER_H
#define LVISH_CHECK_DISJOINTNESSCHECKER_H

#include "src/check/CheckBase.h"

#include <cstddef>
#include <cstdint>

namespace lvish {
namespace check {

/// How an access relates to the shadow map; see \c classifyAccess.
enum class AccessStatus : unsigned {
  Ok = 0,        ///< Inside a live extent of the accessing view's scope.
  Unknown = 1,   ///< No registered extent covers it (unmanaged storage).
  Stale = 2,     ///< Scope matches but the generation moved on.
  ForeignOwner = 3, ///< Covered by an extent owned by a different scope.
};

/// A detached extent, held by a split/zoom combinator while children own
/// the region; see \c DisjointnessChecker::detachExtentContaining.
struct ExtentInfo {
  const void *Begin = nullptr;
  const void *End = nullptr;
  uint64_t Gen = 0;
  const char *What = nullptr;
  bool Valid = false;
};

/// Shadow interval map of live ParST extents; see file comment.
class DisjointnessChecker {
public:
  static DisjointnessChecker &instance();

  /// Registers the byte extent [Begin, End) owned by scope \p Cell at
  /// generation \p Gen. Reports a Disjointness violation if it overlaps a
  /// live extent of a *different* cell; the extent is registered either
  /// way so the matching release stays balanced. \p What names the
  /// creating combinator for diagnostics.
  void registerExtent(const void *Begin, const void *End, const void *Cell,
                      uint64_t Gen, const char *What) {
    if (armed()) [[unlikely]]
      registerArmed(Begin, End, Cell, Gen, What);
  }

  /// Releases the extent starting at \p Begin for scope \p Cell (no-op
  /// with a diagnostic-free pass if it was never registered, so unbalanced
  /// teardown on error paths - or an extent registered before the
  /// checkers were armed - cannot cascade).
  void releaseExtent(const void *Begin, const void *Cell) {
    if (armed()) [[unlikely]]
      releaseArmed(Begin, Cell);
  }

  /// Removes and returns the live extent of scope \p Cell containing
  /// \p Addr (the parent side of a forkSTSplit/zoomIn, which may be wider
  /// than the view being split when that view is a slice). Returns an
  /// invalid ExtentInfo if none is registered. Re-register the result
  /// with \c restoreExtent at the join.
  ExtentInfo detachExtentContaining(const void *Addr, const void *Cell) {
    if (armed()) [[unlikely]]
      return detachArmed(Addr, Cell);
    return ExtentInfo{};
  }

  /// Re-registers a previously detached extent for scope \p Cell; no-op
  /// for invalid infos, so callers need not branch.
  void restoreExtent(const ExtentInfo &Info, const void *Cell) {
    if (Info.Valid) [[unlikely]]
      registerExtent(Info.Begin, Info.End, Cell, Info.Gen, Info.What);
  }

  /// Classifies the byte access [Begin, End) made through a view of scope
  /// \p Cell at generation \p Gen. Pure query - no reporting.
  AccessStatus classifyAccess(const void *Begin, const void *End,
                              const void *Cell, uint64_t Gen) const;

  /// Classifies and reports Stale/ForeignOwner results as Disjointness
  /// violations with a precise diagnostic. Returns the classification
  /// (Unknown while the checkers are disarmed).
  AccessStatus checkAccess(const void *Begin, const void *End,
                           const void *Cell, uint64_t Gen) {
    if (armed()) [[unlikely]]
      return checkAccessArmed(Begin, End, Cell, Gen);
    return AccessStatus::Unknown;
  }

  /// Writes a human-readable description of what the map knows about
  /// \p Addr into \p Buf (for upgrading generation-abort messages).
  void describeAddress(const void *Addr, char *Buf, size_t BufLen) const;

  /// Number of live extents (tests assert this drains back to zero).
  size_t liveExtentCount() const;

  /// Drops all extents (test fixtures recovering from seeded violations).
  void clearAllExtents();

private:
  DisjointnessChecker();
  ~DisjointnessChecker();
  DisjointnessChecker(const DisjointnessChecker &) = delete;
  DisjointnessChecker &operator=(const DisjointnessChecker &) = delete;

  [[gnu::cold, gnu::noinline]] void registerArmed(const void *Begin,
                                                  const void *End,
                                                  const void *Cell,
                                                  uint64_t Gen,
                                                  const char *What);
  [[gnu::cold, gnu::noinline]] void releaseArmed(const void *Begin,
                                                 const void *Cell);
  [[gnu::cold, gnu::noinline]] ExtentInfo detachArmed(const void *Addr,
                                                      const void *Cell);
  [[gnu::cold, gnu::noinline]] AccessStatus
  checkAccessArmed(const void *Begin, const void *End, const void *Cell,
                   uint64_t Gen);

  struct Impl;
  Impl *P;
};

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_DISJOINTNESSCHECKER_H
