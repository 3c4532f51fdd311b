//===- LatticeChecker.h - Dynamic join-law validation -----------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic validation of the lattice proof obligations that data-structure
/// authors carry in the paper (Section 2: join must be a least upper bound;
/// Section 3: bump families must be inflationary and commutative). In
/// Haskell these are stated obligations backed by the type system's
/// structural guarantees; here we spot-check them on *live states* flowing
/// through sampled put/bump operations, so a buggy user lattice is caught
/// on real data rather than only by the offline sweeps in
/// tests/LatticeLawsTest.cpp.
///
/// Checked laws, for a sampled put of \c New onto current state \c Old:
///  * commutativity:   join(Old, New) == join(New, Old)
///  * idempotence:     join(New, New) == New
///  * upper bound:     Old <= join(Old, New) and New <= join(Old, New)
///    (inflationarity of the induced update)
///  * associativity:   join(join(Old, New), Prev) == join(Old, join(New,
///    Prev)) where Prev is the previous sampled state on this thread - a
///    rolling third witness, so associativity is exercised across genuinely
///    observed values instead of a fixed corpus.
///
/// Threshold sets: \c checkThresholdSets validates pairwise
/// incompatibility of trigger sets at get registration (lub of states
/// drawn from two different sets must be top), the paper's condition for
/// threshold reads to be deterministic.
///
//======---------------------------------------------------------------===//

#ifndef LVISH_CHECK_LATTICECHECKER_H
#define LVISH_CHECK_LATTICECHECKER_H

#include "src/check/CheckBase.h"
#include "src/core/Lattice.h"

#include <optional>
#include <vector>

namespace lvish {
namespace check {

/// Validates the join laws on the live pair (\p Old state, \p New incoming
/// value); see file comment. Callers sample via \c sampleHit first - this
/// performs several joins and is not free.
template <typename L>
  requires Lattice<L>
void checkJoinLaws(const typename L::ValueType &Old,
                   const typename L::ValueType &New) {
  using V = typename L::ValueType;
  const V AB = L::join(Old, New);
  const V BA = L::join(New, Old);
  if (!(AB == BA))
    reportViolation(ViolationKind::LatticeLaw, "LatticeChecker",
                    "join is not commutative on live states: "
                    "join(old,new) != join(new,old)");
  if (!(L::join(New, New) == New))
    reportViolation(ViolationKind::LatticeLaw, "LatticeChecker",
                    "join is not idempotent on a live state: "
                    "join(x,x) != x");
  // Upper-bound/inflationary: both operands must lie below the join.
  if (!(L::join(Old, AB) == AB) || !(L::join(New, AB) == AB))
    reportViolation(ViolationKind::LatticeLaw, "LatticeChecker",
                    "join is not an upper bound of its operands "
                    "(non-inflationary put)");
  // Associativity against a rolling per-thread third witness.
  static thread_local std::optional<V> Prev;
  if (Prev) {
    const V L1 = L::join(AB, *Prev);
    const V L2 = L::join(Old, L::join(New, *Prev));
    if (!(L1 == L2))
      reportViolation(ViolationKind::LatticeLaw, "LatticeChecker",
                      "join is not associative across live states");
  }
  Prev = New;
}

/// Validates that a bump is inflationary: the counter must move up the
/// naturals-under-<= lattice, so wrap-around is a determinism bug (an
/// observer could see the value decrease).
inline void checkBumpInflates(uint64_t Old, uint64_t Amount,
                              const char *What) {
  if (Old + Amount < Old)
    reportViolation(ViolationKind::LatticeLaw, "LatticeChecker",
                    "%s bump overflowed (old=%llu amount=%llu): the update "
                    "is no longer inflationary",
                    What, static_cast<unsigned long long>(Old),
                    static_cast<unsigned long long>(Amount));
}

/// Asserts pairwise incompatibility of threshold trigger sets at get
/// registration (requires a designated top to be decidable; lattices
/// without one rely on the author's obligation alone, as in the paper).
/// Also flags empty trigger sets, which could never activate. Runs whether
/// or not the checkers are armed: the check is cheap and a compatible pair
/// makes the read itself nondeterministic.
template <typename L>
  requires Lattice<L>
void checkThresholdSets(
    const std::vector<std::vector<typename L::ValueType>> &Sets) {
  for (size_t I = 0; I < Sets.size(); ++I)
    if (Sets[I].empty())
      reportViolation(ViolationKind::ThresholdSet, "LatticeChecker",
                      "threshold trigger set #%zu is empty and can never "
                      "activate",
                      I);
  if constexpr (LatticeWithTop<L>) {
    for (size_t I = 0; I < Sets.size(); ++I)
      for (size_t J = I + 1; J < Sets.size(); ++J)
        for (const auto &A : Sets[I])
          for (const auto &B : Sets[J])
            if (!L::isTop(L::join(A, B)))
              reportViolation(
                  ViolationKind::ThresholdSet, "LatticeChecker",
                  "threshold trigger sets #%zu and #%zu are compatible "
                  "(their lub is not top): a read could activate on "
                  "either depending on schedule",
                  I, J);
  }
}

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_LATTICECHECKER_H
