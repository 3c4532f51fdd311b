//===- FaultPlan.cpp - Seeded fault-injection plans -----------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "src/fault/FaultPlan.h"

#include "src/support/Fault.h"
#include "src/support/Hashing.h"
#include "src/support/Timer.h"

#include <memory>
#include <mutex>
#include <vector>

using namespace lvish;
using namespace lvish::fault;

namespace {

/// The acquire-load of the installed plan every armed decision starts with.
const FaultPlan *plan() {
  return InstalledPlan.load(std::memory_order_acquire);
}

} // namespace

void fault::setFaultPlan(const FaultPlan &Plan) {
  // Every installed copy stays alive for the life of the process (the
  // holder is never destroyed, so no exit-time destructor can race a
  // worker either): readers take no lock and hold no reference count.
  static std::mutex Mu;
  static auto *Installed = new std::vector<std::unique_ptr<const FaultPlan>>;
  std::lock_guard<std::mutex> Lock(Mu);
  Installed->push_back(std::make_unique<const FaultPlan>(Plan));
  InstalledPlan.store(Installed->back().get(), std::memory_order_release);
}

void fault::clearFaultPlan() {
  InstalledPlan.store(nullptr, std::memory_order_release);
}

bool fault::shouldDoomTask(const Pedigree &Ped) {
  const FaultPlan *P = plan();
  if (!P)
    return false;
  if (P->HaveFailPedigree)
    return Ped.render() == P->FailPedigree;
  if (P->FailHashPeriod)
    return mix64(P->Seed ^ Ped.hash()) % P->FailHashPeriod == 0;
  return false;
}

bool fault::shouldFailSpawn(const Pedigree &Ped, uint64_t SpawnClock) {
  const FaultPlan *P = plan();
  if (!P || P->AllocFailPeriod == 0)
    return false;
  uint64_t H = hashCombine(P->Seed ^ Ped.hash(), SpawnClock);
  return H % P->AllocFailPeriod == 0;
}

void fault::maybeDelay(Point Pt) {
  const FaultPlan *P = plan();
  if (!P || P->DelayPeriod == 0)
    return;
  // Thread-local clock: delays are jitter, not semantics, so they need no
  // cross-schedule determinism - only a seed-dependent spread of where
  // they land.
  thread_local uint64_t DelayClock = 0;
  uint64_t H = hashCombine(P->Seed ^ (static_cast<uint64_t>(Pt) << 32),
                           DelayClock++);
  if (H % P->DelayPeriod != 0)
    return;
  uint64_t Until = nowNanos() + P->DelayNanos;
  while (nowNanos() < Until) {
    // Busy spin: short (microseconds), and sleeping would just hide the
    // interleavings the delay is meant to expose.
  }
}
