//===- Batch.cpp - Closed-loop job runner for graph and stream -------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Batch.h"

#include "src/support/Timer.h"

#include <chrono>
#include <cstdio>
#include <thread>

namespace lvish {
namespace perfbench {

namespace {

/// Jobs per window for job_tail_s (p80: ten jobs above it) and for the
/// p99s (with 20 jobs, nearest-rank p99 is the window's slowest job).
constexpr size_t TailWindow = 50;
constexpr size_t P99Window = 20;
/// Rounds of (back-to-back, paced) when both phases run.
constexpr unsigned PhaseRounds = 5;

/// Sleeps most of the gap to \p Due and yields the rest: between paced
/// jobs the client idles like a real one, so each job starts on an idle
/// pool. A late wake-up counts against the job (latency is from due).
void waitUntil(uint64_t Due) {
  for (;;) {
    uint64_t Now = nowNanos();
    if (Now >= Due)
      return;
    uint64_t Left = Due - Now;
    if (Left > 150'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Left - 100'000));
    else
      std::this_thread::yield();
  }
}

} // namespace

BatchSamples runBatch(double BackToBackSec, double PacedSec, double PeriodSec,
                      unsigned MinJobs,
                      const std::function<BatchJob(uint64_t Job)> &Job) {
  BatchSamples S;
  uint64_t Next = 0;
  auto Record = [&](const BatchJob &J) {
    S.LvarSec.push_back(J.LvarSec);
    S.SeqSec.push_back(J.SeqSec);
  };
  // With both phases, they alternate in Rounds rounds, so each samples
  // the whole run and a stretch of host noise lands in both alike. Phase
  // ends lie on one grid from the start: a phase that overruns shortens
  // the next one instead of lengthening the run.
  const unsigned Rounds = PacedSec > 0 ? PhaseRounds : 1;
  const unsigned MinPerRound = (MinJobs + Rounds - 1) / Rounds;
  const uint64_t BackToBack =
      static_cast<uint64_t>(BackToBackSec / Rounds * 1e9);
  const uint64_t Paced = static_cast<uint64_t>(PacedSec / Rounds * 1e9);
  const uint64_t Period = static_cast<uint64_t>(PeriodSec * 1e9);
  const uint64_t Begin = nowNanos();
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    // Back to back: each job is due when the previous one completes.
    const uint64_t BackToBackEnd = Begin + Round * (BackToBack + Paced) +
                                   BackToBack;
    for (unsigned N = 0; N < MinPerRound || nowNanos() < BackToBackEnd;
         ++N) {
      BatchJob J = Job(Next++);
      S.HighLatSec.push_back(J.LvarSec);
      Record(J);
    }
    if (PacedSec <= 0)
      continue;
    // Paced: due times on a fixed grid, whatever the jobs do.
    const uint64_t Start = nowNanos() + Period / 4;
    const uint64_t End = BackToBackEnd + Paced;
    for (uint64_t N = 0;; ++N) {
      uint64_t Due = Start + N * Period;
      if (N >= MinPerRound && Due >= End)
        break;
      waitUntil(Due);
      double Late = static_cast<double>(nowNanos() - Due) * 1e-9;
      BatchJob J = Job(Next++);
      // The job's own sequential reference and check run after its LVar
      // sessions, so only those sessions count toward its latency.
      S.LowLatSec.push_back(Late + J.LvarSec);
      S.LateSec.push_back(Late);
      Record(J);
    }
  }
  return S;
}

void setBatchEndToEnd(RunResult &R, const BatchSamples &S,
                      double SessionsPerJob, double RecordsPerJob,
                      size_t Window) {
  // Every time is taken per window of consecutive jobs and the fastest
  // window is reported (see windowedQuantile): a stretch of host noise
  // slows every job in it and moves the windows it covers, not the
  // result. vs_seq is a ratio of whole-run medians: the noise slows the
  // sequential references as much as the sessions, and cancels.
  auto Fastest = [](const std::vector<double> &V, size_t W, double P) {
    return windowedQuantile(V, W, P, /*Over=*/0);
  };
  const double Job = Fastest(S.LvarSec, Window, 0.5);
  R.set("job_s", Job);
  R.set("job_tail_s", windowedTail(S.LvarSec, TailWindow, /*Over=*/0));
  R.set("vs_seq", median(S.LvarSec) / median(S.SeqSec));
  R.set("p50_ms.low_rate", 1e3 * Fastest(S.LowLatSec, Window, 0.5));
  R.set("p99_ms.low_rate", 1e3 * Fastest(S.LowLatSec, P99Window, 0.99));
  R.set("p50_ms.high_rate", 1e3 * Fastest(S.HighLatSec, Window, 0.5));
  R.set("p99_ms.high_rate", 1e3 * Fastest(S.HighLatSec, P99Window, 0.99));
  R.set("sustained_sps", Job > 0 ? SessionsPerJob / Job : 0.0);
  R.set("records_per_s", Job > 0 ? RecordsPerJob / Job : 0.0);
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "%zu back-to-back jobs, %zu paced jobs; medians per %zu-job "
                "window, job_tail_s has ten jobs above it per %zu-job "
                "window, p99 is the slowest of each %zu-job window; the "
                "fastest window is reported",
                S.HighLatSec.size(), S.LowLatSec.size(), Window, TailWindow,
                P99Window);
  R.note(Buf);
}

void addBatchSeries(bench::BenchHarness &H, const BatchSamples &S) {
  H.addSeries("job_lvar", S.LvarSec);
  H.addSeries("job_seq", S.SeqSec);
  H.addSeries("latency_backtoback", S.HighLatSec);
  H.addSeries("latency_paced", S.LowLatSec);
}

} // namespace perfbench
} // namespace lvish
