//===- Timer.h - Wall-clock timing for benchmarks ---------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic wall-clock and per-thread CPU-time helpers used by the
/// benchmark harnesses and the scheduler's slice recorder.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SUPPORT_TIMER_H
#define LVISH_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>
#include <ctime>

namespace lvish {

/// Nanoseconds on the steady clock. The ONE sanctioned wall-clock read in
/// the deterministic layers (everything else is barred by the analyzer's
/// wall-clock-in-core rule): callers use it for diagnostics and latency
/// accounting only, never for semantic decisions - those stay functions
/// of the schedule so explore/replay reproduce bit-for-bit.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // lvish-lint: allow(wall-clock-in-core)
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed so far by the calling thread, in nanoseconds. Unlike
/// \c nowNanos it does not advance while the thread is preempted, so a
/// difference of two reads on one thread is the work done in between
/// (the slice durations the simulator replays). Diagnostics only, like
/// \c nowNanos.
inline uint64_t threadCpuNanos() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// Measures elapsed wall-clock time from construction (or the last
/// \c restart()).
class WallTimer {
public:
  WallTimer() : Start(nowNanos()) {}

  void restart() { Start = nowNanos(); }

  uint64_t elapsedNanos() const { return nowNanos() - Start; }

  double elapsedSeconds() const {
    return static_cast<double>(elapsedNanos()) * 1e-9;
  }

private:
  uint64_t Start;
};

/// Runs \p F repeatedly and returns the median elapsed seconds over
/// \p Reps runs. The paper reports medians of five runs; benchmark
/// harnesses default to the same.
template <typename F> double medianSeconds(F &&Fn, int Reps = 5) {
  double Times[64];
  if (Reps > 64)
    Reps = 64;
  if (Reps < 1)
    Reps = 1;
  for (int I = 0; I < Reps; ++I) {
    WallTimer T;
    Fn();
    Times[I] = T.elapsedSeconds();
  }
  // Insertion sort; Reps is tiny.
  for (int I = 1; I < Reps; ++I)
    for (int J = I; J > 0 && Times[J] < Times[J - 1]; --J) {
      double Tmp = Times[J];
      Times[J] = Times[J - 1];
      Times[J - 1] = Tmp;
    }
  return Times[Reps / 2];
}

} // namespace lvish

#endif // LVISH_SUPPORT_TIMER_H
