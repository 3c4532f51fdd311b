//===- CheckBase.h - Dynamic determinism-checker substrate ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared substrate of the dynamic determinism checkers (src/check/). The
/// Haskell original enforces its disciplines statically (`HasPut e`-style
/// constraints, higher-rank types for ParST); C++ cannot express all of
/// them, so this layer provides the runtime analyses that stand in for the
/// lost static guarantees:
///
///  * \c LatticeChecker.h      - join laws + threshold-set incompatibility
///                               (paper Section 2/3 proof obligations);
///  * \c DisjointnessChecker.h - shadow interval map of live VecView
///                               extents (Section 5's disjointness);
///  * \c EffectAuditor.h       - per-task performed-vs-declared effect
///                               comparison (Section 3 / Section 6.1).
///
/// Every build compiles the checkers; they are armed at run time, like the
/// fault-injection hooks. \c armed() is one relaxed load of a process-wide
/// flag, and each hot entry point (\c sampleHit, \c auditEffect, the
/// DisjointnessChecker's extent calls) is that probe plus a not-taken
/// branch into a cold out-of-line body in Check.cpp. The checkers arm at
/// process start when \c LVISH_CHECK_SAMPLE is set in the environment, and
/// for the extent of a \c CheckScope.
///
/// Violations report through \c reportViolation: by default a violation is
/// a deterministic fatal error (matching the library's never-throw abort
/// discipline); tests install a handler with \c setViolationHandler to
/// record the diagnostic and let execution continue.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CHECK_CHECKBASE_H
#define LVISH_CHECK_CHECKBASE_H

#include <atomic>
#include <cstdint>

namespace lvish {
namespace check {

/// Checker families, for per-family violation counters and test filtering.
enum class ViolationKind : unsigned {
  LatticeLaw = 0,   ///< Join-law breach (commutativity, assoc., ...).
  ThresholdSet = 1, ///< Trigger sets not pairwise incompatible.
  Disjointness = 2, ///< Overlapping or stale ParST extent/access.
  EffectDiscipline = 3, ///< Task performed an effect it never declared.
  NumKinds = 4
};

/// One detected discipline violation, handed to the installed handler.
struct ViolationReport {
  ViolationKind Kind;
  const char *Checker; ///< "LatticeChecker", "DisjointnessChecker", ...
  const char *Message; ///< Formatted diagnostic (valid during the call).
};

/// Handler signature; see \c setViolationHandler.
using ViolationHandler = void (*)(const ViolationReport &);

/// Installs a violation handler (tests only) and returns the previous one.
/// With a handler installed, \c reportViolation records and *returns*
/// instead of aborting, so a test can observe the diagnostic. Pass null to
/// restore the default abort behavior.
ViolationHandler setViolationHandler(ViolationHandler H);

/// Reports a discipline violation: formats printf-style, bumps the
/// per-kind counter, then either invokes the installed handler (and
/// returns) or aborts via fatalError.
void reportViolation(ViolationKind Kind, const char *Checker,
                     const char *Fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Violations observed so far for \p Kind (test assertions).
uint64_t violationCount(ViolationKind Kind);

/// Total violations across all kinds.
uint64_t violationCountTotal();

/// Resets all violation counters (test fixtures).
void resetViolationCounts();

namespace detail {
/// The process-wide arm flag behind \c armed(). Constant-initialized off;
/// Check.cpp sets it during static initialization when
/// \c LVISH_CHECK_SAMPLE is set.
inline std::atomic<bool> Armed{false};

[[gnu::cold, gnu::noinline]] bool sampleHitArmed();
} // namespace detail

/// True while the checkers are armed: the whole inline cost of a checker
/// entry point when they are not.
inline bool armed() { return detail::Armed.load(std::memory_order_relaxed); }

/// Arms (\p On true) or disarms the checkers process-wide and returns the
/// previous state. Arm between sessions: a task that starts unarmed and
/// finishes armed sees only the checks made after the switch.
bool setArmed(bool On);

/// RAII: arms the checkers for its extent, then restores the previous
/// state (the checker counterpart of fault::PlanScope).
class CheckScope {
public:
  CheckScope() : Prev(setArmed(true)) {}
  ~CheckScope() { setArmed(Prev); }
  CheckScope(const CheckScope &) = delete;
  CheckScope &operator=(const CheckScope &) = delete;

private:
  bool Prev;
};

/// True on every Nth call (N = samplePeriod) while armed, false otherwise;
/// cheap enough for hot put and VecView-access paths. Sampling keeps the
/// overhead of the law/shadow checks bounded while still catching
/// systematic violations.
inline bool sampleHit() {
  if (armed()) [[unlikely]]
    return detail::sampleHitArmed();
  return false;
}

/// Current sampling period. Initialized once from the environment variable
/// \c LVISH_CHECK_SAMPLE (default 64; clamped to >= 1).
uint64_t samplePeriod();

/// Overrides the sampling period (tests set 1 for exhaustive checking).
void setSamplePeriod(uint64_t N);

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_CHECKBASE_H
