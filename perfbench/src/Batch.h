//===- Batch.h - Closed-loop job runner for graph and stream ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `graph` and `stream` are batch workloads: one client submits one job
/// at a time and blocks until it completes. Two phases run the same job:
///
///  * back-to-back (the `high_rate` of a batch workload): the next job is
///    due the moment the previous one completes;
///  * paced (`low_rate`): jobs are due on a fixed period, longer than a
///    job today, so each starts on an idle pool; latency is timed from the
///    due time, so a job that overruns the period delays the next one.
///
/// The two phases alternate in a few rounds across the run. Both feed
/// job_s / job_tail_s / vs_seq from the job's own LVar and
/// sequential-reference times.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PERFBENCH_BATCH_H
#define LVISH_PERFBENCH_BATCH_H

#include "perfbench/src/Bench.h"

#include "bench/BenchHarness.h"

#include <functional>
#include <vector>

namespace lvish {
namespace perfbench {

/// Wall times of one job: the LVar sessions and the sequential references.
struct BatchJob {
  double LvarSec = 0;
  double SeqSec = 0;
};

struct BatchSamples {
  std::vector<double> LvarSec;    ///< Every job, both phases.
  std::vector<double> SeqSec;     ///< Every job, both phases.
  std::vector<double> HighLatSec; ///< Back-to-back job latency.
  std::vector<double> LowLatSec;  ///< Paced job latency from due time.
  std::vector<double> LateSec;    ///< Paced: start minus due time.
};

/// Runs \p Job back to back for \p BackToBackSec in all and on a fixed
/// \p PeriodSec for \p PacedSec in all (skipped when 0), alternating the
/// two phases in rounds. At least \p MinJobs run in each phase that is
/// not skipped.
BatchSamples runBatch(double BackToBackSec, double PacedSec, double PeriodSec,
                      unsigned MinJobs,
                      const std::function<BatchJob(uint64_t Job)> &Job);

/// Sets the end-to-end metrics of a batch workload. \p SessionsPerJob
/// and \p RecordsPerJob convert jobs into library sessions and input
/// records. Times are taken per window of \p Window consecutive jobs
/// (0: the whole run is one window).
void setBatchEndToEnd(RunResult &R, const BatchSamples &S,
                      double SessionsPerJob, double RecordsPerJob,
                      size_t Window);
/// Adds the per-job samples of \p S to the run's detail document.
void addBatchSeries(bench::BenchHarness &H, const BatchSamples &S);

} // namespace perfbench
} // namespace lvish

#endif // LVISH_PERFBENCH_BATCH_H
