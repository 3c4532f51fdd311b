//===- Bench.h - Shared types of the repository benchmark -------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark (perfbench/README.md) runs one of three
/// workloads - `graph`, `service`, `stream` - for a fixed number of
/// seconds and prints one JSON result line. This header holds what the
/// workloads share: the command-line options, the metric tables (names
/// and units exactly as BENCHMARK.json lists them), the per-run result,
/// before/after counter deltas, and small sample statistics.
///
/// Every layer is measured from outside: the benchmark times its own
/// calls into the library and subtracts counter snapshots the library
/// already publishes (SchedulerStats, obs::telemetrySnapshot, getrusage).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PERFBENCH_BENCH_H
#define LVISH_PERFBENCH_BENCH_H

#include "src/obs/SchedulerStats.h"
#include "src/obs/Telemetry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lvish {
namespace bench {
class BenchHarness;
} // namespace bench

namespace perfbench {

/// Default workload seed when --seed is not given.
inline constexpr uint64_t DefaultSeed = 20140609;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 25;
  bool Trace = false;
  /// Tiny inputs and phases: all three workloads in a few seconds.
  bool Smoke = false;
  /// Self-test hook: corrupt one output after it is computed and before
  /// the correctness gate sees it, so the gate must fire.
  bool PerturbOutput = false;
  /// Directory for the chrome://tracing file and the detail document.
  std::string OutDir = ".";

  template <typename T> T pick(T Full, T SmokeSize) const {
    return Smoke ? SmokeSize : Full;
  }
};

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// `end_to_end`, same order). The tails (job_tail_s, p99_ms.*) are
/// measured too but only written to the detail document: on a shared
/// virtual machine they move with the host's load by more than the 25%
/// run-to-run bound.
const std::vector<MetricSpec> &endToEndMetrics();
/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// `per_layer`, same order). A layer a workload bypasses reports 0.
const std::vector<MetricSpec> &perLayerMetrics();

/// What one run measured.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Values;
  /// Human-readable lines for stderr (percentile statements, top layers).
  std::vector<std::string> Notes;
  /// Hash of the first few checked outputs (self-test: the same seed
  /// must reproduce them).
  uint64_t OutputDigest = 0;

  void set(const std::string &Name, double V) { Values[Name] = V; }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Counts one checked operation whose output hashes to \p Digest;
  /// \p Ok false counts it as failed.
  void check(bool Ok, const char *What, uint64_t Digest);
};

/// Runs the named workload. Returns false for an unknown workload name.
bool runWorkload(const Options &O, RunResult &R, bench::BenchHarness &H);

RunResult runGraph(const Options &O, bench::BenchHarness &H);
RunResult runService(const Options &O, bench::BenchHarness &H);
RunResult runStream(const Options &O, bench::BenchHarness &H);

/// Hash of a workload's generated inputs for \p Seed (self-test: the same
/// seed must give the same inputs, another seed different ones).
uint64_t graphInputFingerprint(const Options &O);
uint64_t serviceInputFingerprint(const Options &O);
uint64_t streamInputFingerprint(const Options &O);

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// exactly the metrics of the run's mode. Sets \p Missing to the first
/// metric the workload did not produce (empty when complete).
std::string resultLine(const Options &O, const RunResult &R,
                       std::string &Missing);

// --- Counter deltas -------------------------------------------------------

/// Process CPU time (user + system) and peak RSS, from getrusage.
double processCpuSeconds();
double peakRssMb();

/// Telemetry snapshot difference (later - earlier).
struct TelemetryDelta {
  uint64_t Counts[obs::NumEvents] = {};
  uint64_t QuiesceWaitNanos = 0;
  uint64_t count(obs::Event E) const {
    return Counts[static_cast<unsigned>(E)];
  }
  TelemetryDelta &operator+=(const TelemetryDelta &O);
};

/// Scheduler + telemetry + CPU counters accumulated over a region.
struct LayerCounters {
  SchedulerStats Sched;
  TelemetryDelta Tel;
  double CpuSec = 0;
  double WallSec = 0;
  LayerCounters &operator+=(const LayerCounters &O);
};

/// Before/after probe: construct before the region, call stop() after it
/// (once the region's sessions are quiescent).
class CounterProbe {
public:
  CounterProbe();
  /// Telemetry, CPU and wall deltas; the caller supplies the scheduler
  /// delta (from SessionOptions::StatsOut or two Scheduler::stats()).
  LayerCounters stop(const SchedulerStats &SchedDelta) const;

private:
  obs::TelemetrySnapshot Tel0;
  double Cpu0;
  uint64_t Wall0;
};

/// Writes the sched.* / core.* / data.* per-layer metrics from \p C,
/// dividing every count by \p Per (jobs, or thousands of sessions).
void setLayerCounts(RunResult &R, const LayerCounters &C, double Per);

// --- Sample statistics ----------------------------------------------------

/// Nearest-rank quantile (P in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// The \p Over-quantile (default: lower quartile; 0: the fastest), over
/// consecutive windows of \p Window samples, of each window's
/// P-quantile. Host noise (late wake-ups of a virtual CPU, a busy host)
/// comes in stretches; the system's own latency is in every window, so a
/// low window filters the stretches without hiding a steady tail. A
/// trailing partial window joins the last full one; fewer than two
/// windows' worth of samples is one window.
double windowedQuantile(const std::vector<double> &V, size_t Window,
                        double P, double Over = 0.25);
/// The same over windows of each window's tailWithTenBeyond.
double windowedTail(const std::vector<double> &V, size_t Window,
                    double Over = 0.25);
/// (q3 - q1) / median, the within-run spread of a schedule-dependent
/// count; 0 for fewer than four samples or a zero median.
double relativeIqr(std::vector<double> V);
/// The highest percentile with at least ten samples above it (the
/// job_tail_s rule). Returns the value and writes the percentile (0-100).
double tailWithTenBeyond(std::vector<double> V, double &Percentile);
double sum(const std::vector<double> &V);

} // namespace perfbench
} // namespace lvish

#endif // LVISH_PERFBENCH_BENCH_H
