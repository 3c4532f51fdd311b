//===- Check.cpp - Determinism-checker runtime state ------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide state of the dynamic determinism checkers: violation
/// reporting/counting, the sampling clock, the DisjointnessChecker's
/// shadow interval map, and the EffectAuditor's eager check. The armed
/// bodies here are the cold targets of the inline \c armed() probes in the
/// headers.
///
//===----------------------------------------------------------------------===//

#include "src/check/CheckBase.h"
#include "src/check/DisjointnessChecker.h"
#include "src/check/EffectAuditor.h"
#include "src/sched/FaultSignal.h"
#include "src/sched/Scheduler.h"
#include "src/support/Assert.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>

namespace lvish {
namespace check {

namespace {

std::atomic<ViolationHandler> Handler{nullptr};
std::atomic<uint64_t>
    Counts[static_cast<unsigned>(ViolationKind::NumKinds)];

uint64_t initialSamplePeriod() {
  if (const char *Env = std::getenv("LVISH_CHECK_SAMPLE")) {
    char *End = nullptr;
    unsigned long long N = std::strtoull(Env, &End, 10);
    if (End != Env && N >= 1)
      return N;
  }
  return 64;
}

std::atomic<uint64_t> Period{0}; // 0 = not yet initialized from env.
std::atomic<uint64_t> SampleClock{0};

// Arms the checkers at process start when LVISH_CHECK_SAMPLE is set; its
// value is the sampling period (see initialSamplePeriod).
[[maybe_unused]] const bool ArmedFromEnv = [] {
  bool On = std::getenv("LVISH_CHECK_SAMPLE") != nullptr;
  if (On)
    detail::Armed.store(true, std::memory_order_relaxed);
  return On;
}();

} // namespace

bool setArmed(bool On) {
  return detail::Armed.exchange(On, std::memory_order_relaxed);
}

ViolationHandler setViolationHandler(ViolationHandler H) {
  return Handler.exchange(H, std::memory_order_acq_rel);
}

void reportViolation(ViolationKind Kind, const char *Checker,
                     const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Counts[static_cast<unsigned>(Kind)].fetch_add(1,
                                                std::memory_order_relaxed);
  if (ViolationHandler H = Handler.load(std::memory_order_acquire)) {
    ViolationReport R{Kind, Checker, Buf};
    H(R);
    return;
  }
  char Full[640];
  std::snprintf(Full, sizeof(Full), "[%s] determinism violation: %s",
                Checker, Buf);
  // Inside a session, an unhandled violation is contained like any other
  // contract violation: record it as the session Fault and unwind the
  // faulting task (unless we are already unwinding - throwing then would
  // terminate).
  if (Task *T = Scheduler::currentTask())
    if (std::uncaught_exceptions() == 0)
      lvish::detail::raiseSessionFault(T, FaultCode::CheckerViolation, Full);
  // Outside any session there is no Fault channel to report through.
  // lvish-lint: allow(fatal)
  fatalError(Full);
}

uint64_t violationCount(ViolationKind Kind) {
  return Counts[static_cast<unsigned>(Kind)].load(
      std::memory_order_relaxed);
}

uint64_t violationCountTotal() {
  uint64_t Total = 0;
  for (unsigned I = 0; I < static_cast<unsigned>(ViolationKind::NumKinds);
       ++I)
    Total += Counts[I].load(std::memory_order_relaxed);
  return Total;
}

void resetViolationCounts() {
  for (unsigned I = 0; I < static_cast<unsigned>(ViolationKind::NumKinds);
       ++I)
    Counts[I].store(0, std::memory_order_relaxed);
}

uint64_t samplePeriod() {
  uint64_t P = Period.load(std::memory_order_acquire);
  if (P == 0) {
    P = initialSamplePeriod();
    Period.store(P, std::memory_order_release);
  }
  return P;
}

void setSamplePeriod(uint64_t N) {
  Period.store(N >= 1 ? N : 1, std::memory_order_release);
}

bool detail::sampleHitArmed() {
  uint64_t P = samplePeriod();
  if (P == 1)
    return true;
  return SampleClock.fetch_add(1, std::memory_order_relaxed) % P == 0;
}

// -- DisjointnessChecker ----------------------------------------------------

struct DisjointnessChecker::Impl {
  struct Extent {
    const void *End;
    const void *Cell;
    uint64_t Gen;
    const char *What;
  };
  mutable std::mutex M;
  /// Keyed by extent begin address; byte granularity.
  std::map<const void *, Extent> Live;

  /// First live extent overlapping [Begin, End), or Live.end(). Caller
  /// holds M.
  std::map<const void *, Extent>::iterator overlapOf(const void *Begin,
                                                     const void *End) {
    auto It = Live.upper_bound(Begin);
    if (It != Live.begin()) {
      auto Prev = std::prev(It);
      if (Prev->second.End > Begin)
        return Prev;
    }
    if (It != Live.end() && It->first < End)
      return It;
    return Live.end();
  }
};

DisjointnessChecker &DisjointnessChecker::instance() {
  static DisjointnessChecker C;
  return C;
}

DisjointnessChecker::DisjointnessChecker() : P(new Impl()) {}
DisjointnessChecker::~DisjointnessChecker() { delete P; }

void DisjointnessChecker::registerArmed(const void *Begin, const void *End,
                                        const void *Cell, uint64_t Gen,
                                        const char *What) {
  if (Begin >= End)
    return; // Empty halves of a degenerate split are trivially disjoint.
  std::lock_guard<std::mutex> Lock(P->M);
  auto It = P->overlapOf(Begin, End);
  if (It != P->Live.end() && It->second.Cell != Cell)
    reportViolation(
        ViolationKind::Disjointness, "DisjointnessChecker",
        "new %s extent [%p,%p) overlaps a live extent [%p,%p) from %s "
        "owned by a different scope: parallel children would not be "
        "disjoint",
        What, Begin, End, It->first, It->second.End, It->second.What);
  P->Live[Begin] = Impl::Extent{End, Cell, Gen, What};
}

void DisjointnessChecker::releaseArmed(const void *Begin,
                                       const void *Cell) {
  std::lock_guard<std::mutex> Lock(P->M);
  auto It = P->Live.find(Begin);
  if (It != P->Live.end() && It->second.Cell == Cell)
    P->Live.erase(It);
}

ExtentInfo DisjointnessChecker::detachArmed(const void *Addr,
                                            const void *Cell) {
  std::lock_guard<std::mutex> Lock(P->M);
  auto It = P->Live.upper_bound(Addr);
  if (It == P->Live.begin())
    return ExtentInfo{};
  --It;
  if (Addr < It->first || Addr >= It->second.End ||
      It->second.Cell != Cell)
    return ExtentInfo{};
  ExtentInfo Info{It->first, It->second.End, It->second.Gen,
                  It->second.What, true};
  P->Live.erase(It);
  return Info;
}

AccessStatus DisjointnessChecker::classifyAccess(const void *Begin,
                                                 const void *End,
                                                 const void *Cell,
                                                 uint64_t Gen) const {
  std::lock_guard<std::mutex> Lock(P->M);
  auto It = P->Live.upper_bound(Begin);
  if (It == P->Live.begin())
    return AccessStatus::Unknown;
  --It;
  if (It->second.End < End || Begin < It->first)
    return AccessStatus::Unknown;
  if (It->second.Cell != Cell)
    return AccessStatus::ForeignOwner;
  if (It->second.Gen != Gen)
    return AccessStatus::Stale;
  return AccessStatus::Ok;
}

AccessStatus DisjointnessChecker::checkAccessArmed(const void *Begin,
                                                   const void *End,
                                                   const void *Cell,
                                                   uint64_t Gen) {
  AccessStatus S = classifyAccess(Begin, End, Cell, Gen);
  if (S == AccessStatus::ForeignOwner)
    reportViolation(
        ViolationKind::Disjointness, "DisjointnessChecker",
        "access at %p goes through a view whose region is currently owned "
        "by a different scope (an aliasing view crossed a forkSTSplit/"
        "zoom boundary)",
        Begin);
  else if (S == AccessStatus::Stale)
    reportViolation(
        ViolationKind::Disjointness, "DisjointnessChecker",
        "generation-stale access at %p: the view's ownership scope ended "
        "or its region was handed to forkSTSplit children",
        Begin);
  return S;
}

void DisjointnessChecker::describeAddress(const void *Addr, char *Buf,
                                          size_t BufLen) const {
  std::lock_guard<std::mutex> Lock(P->M);
  auto It = P->Live.upper_bound(Addr);
  if (It != P->Live.begin()) {
    --It;
    if (Addr >= It->first && Addr < It->second.End) {
      std::snprintf(Buf, BufLen,
                    "address %p currently lies in a live %s extent "
                    "[%p,%p) of another scope",
                    Addr, It->second.What, It->first, It->second.End);
      return;
    }
  }
  std::snprintf(Buf, BufLen,
                "address %p lies in no live registered extent", Addr);
}

size_t DisjointnessChecker::liveExtentCount() const {
  std::lock_guard<std::mutex> Lock(P->M);
  return P->Live.size();
}

void DisjointnessChecker::clearAllExtents() {
  std::lock_guard<std::mutex> Lock(P->M);
  P->Live.clear();
}

// -- EffectAuditor ----------------------------------------------------------

void detail::auditEffectArmed(Task *T, uint8_t Bit, const char *Op) {
  if (!T)
    return; // External session-setup writes predate any task.
  uint8_t Allowed = static_cast<uint8_t>(T->DeclaredFx | T->BlessedFx);
  if ((Bit & ~Allowed) != 0)
    reportViolation(
        ViolationKind::EffectDiscipline, "EffectAuditor",
        "task %p performed a %s effect (%s) beyond its declared effect "
        "set (declared mask=0x%02x): the static `Has%s` constraint was "
        "bypassed",
        static_cast<void *>(T), effectName(Bit), Op, T->DeclaredFx,
        effectName(Bit));
}

} // namespace check
} // namespace lvish
