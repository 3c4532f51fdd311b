//===- EffectAuditor.h - Runtime declared-vs-performed effects --*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime audit of the paper's effect discipline (Section 3). Statically,
/// every effectful operation demands the corresponding `EffectSet` bit from
/// the capability token `ParCtx<E>`, so well-typed user code cannot
/// misbehave. What the `requires` clauses canNOT catch is code that forges
/// a stronger context (`detail::CtxAccess::make`) or calls an LVar's state
/// methods directly, bypassing the token - the escape hatches trusted
/// library internals use, and the exact holes the calibration band warned
/// about ("no effect typing; manual ... discipline error-prone").
///
/// The auditor closes the loop dynamically. Each task carries a *declared*
/// effect mask, stamped at the spawn path (fork, runPar, forkCancelable,
/// handler tasks, deadlock scopes) from the effect level the body was
/// forked at. The structure-level mutators and parkGet - the chokepoints
/// every effect funnels through regardless of how its context was
/// obtained - audit each performed effect against it: an operation whose
/// bit is absent from declared|blessed reports an EffectDiscipline
/// violation eagerly, naming the op (e.g. a ReadOnly cancelable child that
/// writes - the Section 6.1 safety condition).
///
/// Trusted escapes are made explicit instead of silent: \c BlessScope
/// (the hidden result-put of forkCancelable, getMemoRO's request-put -
/// Section 6.2's "blessed as safe/unobservable") and \c RaiseDeclaredScope
/// (runParVec granting the ST capability to the current task, Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CHECK_EFFECTAUDITOR_H
#define LVISH_CHECK_EFFECTAUDITOR_H

#include "src/check/CheckBase.h"
#include "src/check/EffectOps.h"
#include "src/core/Effects.h"
#include "src/sched/Task.h"

namespace lvish {
namespace check {

// The Fx* bit encoding, effectMask, and effectName live in EffectOps.h
// (shared with the static analyzer in tools/analyze/).

/// Stamps \p T's declared effect mask; called on every task spawn path
/// with the effect level the body was forked at. Stamped armed or not, so
/// arming between sessions sees correct declared masks.
inline void declareTaskEffects(Task *T, uint8_t Mask) {
  T->DeclaredFx = Mask;
}

namespace detail {
[[gnu::cold, gnu::noinline]] void auditEffectArmed(Task *T, uint8_t Bit,
                                                   const char *Op);
} // namespace detail

/// While the checkers are armed, records that \p T performed the effect
/// \p Bit while executing \p Op, and reports an EffectDiscipline violation
/// if the task never declared (nor was blessed for) it. \p T may be null
/// for external session-setup writes, which run before any task exists
/// and are exempt.
inline void auditEffect(Task *T, uint8_t Bit, const char *Op) {
  if (armed()) [[unlikely]]
    detail::auditEffectArmed(T, Bit, Op);
}

/// RAII: temporarily adds \p Bits to the current task's blessed mask, for
/// the trusted internal operations the paper explicitly blesses (the
/// forkCancelable result-put, getMemoRO's request-put). Must not span a
/// task switch - blessing is per dynamic extent within one task.
class BlessScope {
public:
  BlessScope(Task *T, uint8_t Bits) : Tsk(T), Saved(T->BlessedFx) {
    T->BlessedFx = static_cast<uint8_t>(T->BlessedFx | Bits);
  }
  ~BlessScope() { Tsk->BlessedFx = Saved; }
  BlessScope(const BlessScope &) = delete;
  BlessScope &operator=(const BlessScope &) = delete;

private:
  Task *Tsk;
  uint8_t Saved;
};

/// RAII: widens the current task's *declared* mask for a region that
/// legitimately runs at a stronger effect level on the same task - the
/// runParVec pattern, where the body receives an ST-enabled context
/// without a fork. Unlike BlessScope this mask is the task's advertised
/// level, so children forked inside inherit correctness from their own
/// fork-time declaration.
class RaiseDeclaredScope {
public:
  RaiseDeclaredScope(Task *T, uint8_t Bits) : Tsk(T), Saved(T->DeclaredFx) {
    T->DeclaredFx = static_cast<uint8_t>(T->DeclaredFx | Bits);
  }
  ~RaiseDeclaredScope() { Tsk->DeclaredFx = Saved; }
  RaiseDeclaredScope(const RaiseDeclaredScope &) = delete;
  RaiseDeclaredScope &operator=(const RaiseDeclaredScope &) = delete;

private:
  Task *Tsk;
  uint8_t Saved;
};

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_EFFECTAUDITOR_H
