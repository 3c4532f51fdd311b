//===- EffectOps.h - Effect mask metadata shared with tooling ---*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ONE place the effect-bit encoding and the "which operation needs
/// which effect bit" table live. Two consumers share it:
///
///  * the runtime EffectAuditor (src/check/EffectAuditor.h), which stamps
///    per-task declared masks at the spawn chokepoints and audits each
///    effect against them at the mutation chokepoints, and
///  * the static analyzer (tools/analyze/), which resolves the declared
///    `EffectSet` at every fork/spawn/runPar site and compares it against
///    the LVish operations named in the task body - the compile-time dual
///    of the audit, mirroring the `requires` clauses on the public API.
///
/// Keeping the table here means a new effectful operation is added in
/// exactly one place; the auditor and the analyzer cannot drift apart.
/// Depends only on src/core/Effects.h so the tool build stays light.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CHECK_EFFECTOPS_H
#define LVISH_CHECK_EFFECTOPS_H

#include "src/core/Effects.h"

#include <cstdint>

namespace lvish {
namespace check {

/// Bit encoding of EffectSet for the per-task masks (Task stores plain
/// bytes so the sched layer need not know about EffectSet).
enum : uint8_t {
  FxPut = 1,
  FxGet = 2,
  FxBump = 4,
  FxFreeze = 8,
  FxIO = 16,
  FxST = 32,
  FxAll = 63
};

/// Compresses an EffectSet into the task-mask encoding.
constexpr uint8_t effectMask(EffectSet E) {
  return static_cast<uint8_t>((E.Put ? FxPut : 0) | (E.Get ? FxGet : 0) |
                              (E.Bump ? FxBump : 0) |
                              (E.Freeze ? FxFreeze : 0) |
                              (E.IO ? FxIO : 0) | (E.ST ? FxST : 0));
}

/// Names a single effect bit for diagnostics.
constexpr const char *effectName(uint8_t Bit) {
  switch (Bit) {
  case FxPut:
    return "Put";
  case FxGet:
    return "Get";
  case FxBump:
    return "Bump";
  case FxFreeze:
    return "Freeze";
  case FxIO:
    return "IO";
  case FxST:
    return "ST";
  default:
    return "?";
  }
}

/// One public ParCtx-taking operation and the effect bits its `requires`
/// clause demands. The static analyzer treats an unqualified (or
/// lvish::-qualified) call `Name(Ctx, ...)` as performing \c Required.
struct StaticEffectOp {
  const char *Name;
  uint8_t Required;
};

/// Every effect-requiring operation of the public API, mirroring the
/// `requires(has...)` clauses. Only the unified spellings exist now: the
/// PR-5-era per-structure threshold-read aliases were removed, and the
/// deprecated-threshold-read analyzer rule survives purely as an
/// unknown-name safety net against their resurrection.
inline constexpr StaticEffectOp StaticEffectOps[] = {
    // HasPut: least-upper-bound writes.
    {"put", FxPut},
    {"putIdx", FxPut},
    {"putAndLeft", FxPut},
    {"putAndRight", FxPut},
    {"putPureLVar", FxPut},
    {"insert", FxPut},
    {"insertPure", FxPut},
    {"cancel", FxPut}, // `cancel :: HasPut m2 => ...` (Section 6.1).
    {"putMin", FxPut},   // MinMap: lub (= min) write to a keyed label.
    {"putMinAt", FxPut}, // MinVec: lub (= min) write to a dense cell.
    {"advance", FxPut},  // BoundedStream: lub write to the release mark.
    // HasGet: blocking threshold reads (the unified spellings). Note the
    // analyzer resolves stream puts by the shared name `put` -> FxPut; the
    // bounded overload additionally requires Get (it blocks on the
    // consumer watermark), which only the runtime audit can distinguish.
    {"get", FxGet},
    {"waitSize", FxGet},
    {"quiesce", FxGet},
    {"readCFuture", FxGet},
    {"getAndLV", FxGet},
    // HasBump: non-idempotent inflationary updates.
    {"incrCounter", FxBump},
    {"incrCounterAt", FxBump},
    // HasFreeze: exact (quasi-deterministic) reads.
    {"freezeCounter", FxFreeze},
    {"freezeCounterVec", FxFreeze},
    {"freezeMap", FxFreeze},
    {"freezeSet", FxFreeze},
    {"freezePureMap", FxFreeze},
    {"freezePureLVar", FxFreeze},
    {"freezeIVar", FxFreeze},
    {"freezeMinMap", FxFreeze},
    {"freezeMinVec", FxFreeze},
    {"freezeStream", FxFreeze},
    // HasIO: arbitrary nondeterminism in the parent signature.
    {"forkCancelableND", FxIO},
    // HasST: disjoint destructive state (the paper's msplit/forkSTSplit).
    {"forkSTSplit", static_cast<uint8_t>(FxST | FxPut | FxGet)},
    {"forkSTSplit2", static_cast<uint8_t>(FxST | FxPut | FxGet)},
    {"zoomIn", FxST},
    {"withTempBuffer", FxST},
    // Combinators demanding Put and Get together.
    {"asyncAnd", static_cast<uint8_t>(FxPut | FxGet)},
    {"asyncAndTree", static_cast<uint8_t>(FxPut | FxGet)},
    {"getMemo", static_cast<uint8_t>(FxPut | FxGet)},
    {"getMemoRO", FxGet},
    {"forkWithDeadlockDetection", static_cast<uint8_t>(FxPut | FxGet)},
    {"parallelFor", static_cast<uint8_t>(FxPut | FxGet)},
    {"parallelForPar", static_cast<uint8_t>(FxPut | FxGet)},
    {"parallelReduce", static_cast<uint8_t>(FxPut | FxGet)},
    {"forSpeculative", static_cast<uint8_t>(FxPut | FxGet)},
};

/// ParCtx-taking operations with NO effect requirement. The analyzer
/// treats them as known calls (they cannot hide an effect), so a scope
/// that only uses these can still be checked for surplus declared bits.
inline constexpr const char *StaticNeutralOps[] = {
    "fork",         "yield",       "newPool",       "newEmptyMap",
    "newISet",      "newIVar",     "newCounter",    "newAndLV",
    "newIStructure", "newPureLVar", "addHandler",    "addHandlerRef",
    "forkCancelable", "runParVec", "noteBytes",     "newMinMap",
    "newMinVec",    "newStream",   "newBoundedStream",
};

/// A named effect level (the Eff:: namespace) and its mask; the analyzer
/// resolves `Eff::Det` and friends through this table.
struct NamedEffectLevel {
  const char *Name; ///< Without the "Eff::" qualifier.
  uint8_t Mask;
};

inline constexpr NamedEffectLevel NamedEffectLevels[] = {
    {"Det", effectMask(Eff::Det)},
    {"DetBump", effectMask(Eff::DetBump)},
    {"ReadOnly", effectMask(Eff::ReadOnly)},
    {"WriteOnly", effectMask(Eff::WriteOnly)},
    {"QuasiDet", effectMask(Eff::QuasiDet)},
    {"DetST", effectMask(Eff::DetST)},
    {"FullIO", effectMask(Eff::FullIO)},
};

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_EFFECTOPS_H
