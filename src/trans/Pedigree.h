//===- Pedigree.h - Fork-tree pedigrees as a transformer --------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c PedigreeT (Section 4): "keeps the index in the binary control-flow
/// tree as implicit state, e.g. 'LRRLL' ... In this case the split action
/// is to add 'L' or 'R' for each branch of the fork, respectively.
/// Pedigrees can then be augmented with counters that increase with certain
/// sequential actions, thus providing a form of parallel program counter."
/// Intel modified the Cilk runtime to support this (Leiserson et al.,
/// PPoPP 2012); in LVish it is just a state layer.
///
/// The path is the scheduler's own fork-tree type (src/support/Pedigree.h,
/// the one every Task carries): appending a branch is a bit set, not a
/// string copy, and the rendered L/R string is the one faults report.
/// Paths deeper than Pedigree::Capacity forks render with its "+N"
/// saturation suffix.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_PEDIGREE_H
#define LVISH_TRANS_PEDIGREE_H

#include "src/support/Pedigree.h"
#include "src/trans/StateLayer.h"

#include <string>

namespace lvish {

/// The pedigree state: path in the fork tree plus a sequential counter.
struct PedigreeState {
  Pedigree Ped;          ///< One branch per fork; empty at the root.
  uint64_t SeqCount = 0; ///< Bumped by \c pedigreeTick.

  /// Fork split: the child descends Left, the parent continues Right.
  PedigreeState splitForChild() {
    PedigreeState Child{Ped, 0};
    Child.Ped.append(0);
    Ped.append(1);
    SeqCount = 0;
    return Child;
  }
};

struct PedigreeTag {};

/// Runs \p Body with pedigree tracking; forks inside extend the path.
template <EffectSet E, typename F>
auto withPedigree(ParCtx<E> Ctx, F Body) {
  return withState<PedigreeState, PedigreeTag>(Ctx, PedigreeState{}, Body);
}

/// The current task's pedigree path (requires withPedigree in scope).
template <EffectSet E> std::string pedigree(ParCtx<E> Ctx) {
  return stateRef<PedigreeState, PedigreeTag>(Ctx).Ped.render();
}

/// Advances the sequential component of the pedigree "program counter".
template <EffectSet E> void pedigreeTick(ParCtx<E> Ctx) {
  ++stateRef<PedigreeState, PedigreeTag>(Ctx).SeqCount;
}

/// Full pedigree including the sequential counter, e.g. "LRL#3".
template <EffectSet E> std::string pedigreeFull(ParCtx<E> Ctx) {
  PedigreeState &S = stateRef<PedigreeState, PedigreeTag>(Ctx);
  return S.Ped.render() + "#" + std::to_string(S.SeqCount);
}

/// Answers "could A have happened before B?" for two pedigrees: true iff
/// A is a proper prefix of B on the Right spine... conservatively, two
/// pedigrees are concurrent unless one is an ancestor of the other in the
/// fork tree. Examining pedigrees at runtime "can answer happens-before or
/// happens-in-parallel questions" (Section 4).
inline bool pedigreesConcurrent(const std::string &A, const std::string &B) {
  size_t N = std::min(A.size(), B.size());
  size_t I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  if (I == A.size() || I == B.size())
    return false; // One is an ancestor of (or equal to) the other.
  return true;    // They diverged at a fork: parallel branches.
}

} // namespace lvish

#endif // LVISH_TRANS_PEDIGREE_H
