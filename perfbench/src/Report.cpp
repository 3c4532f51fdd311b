//===- Report.cpp - Metric tables, counter deltas, result line -------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/obs/Json.h"
#include "src/support/Hashing.h"
#include "src/support/Timer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace lvish {
namespace perfbench {

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> M = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"vs_seq", "ratio"},
      {"p50_ms.low_rate", "ms"},
      {"p50_ms.high_rate", "ms"},
      {"sustained_sps", "sessions/s"},
      {"records_per_s", "records/s"},
      {"ok_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return M;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> M = {
      {"service.runtime_start_ms", "ms"},
      {"service.submit_us", "us"},
      {"service.admit_wait_ms.p50", "ms"},
      {"service.admit_wait_ms.p99", "ms"},
      {"service.body_ms", "ms"},
      {"service.finalize_ms.p50", "ms"},
      {"service.finalize_ms.p99", "ms"},
      {"sched.tasks_created", "count"},
      {"sched.max_deque_depth", "count"},
      {"sched.steal_attempts", "count"},
      {"sched.steals", "count"},
      {"sched.steal_hit_ratio", "ratio"},
      {"sched.parks", "count"},
      {"sched.wakes", "count"},
      {"sched.cpu_s", "s"},
      {"sched.cpu_per_wall", "ratio"},
      {"core.puts", "count"},
      {"core.noop_joins", "count"},
      {"core.useful_put_ratio", "ratio"},
      {"core.handler_invocations", "count"},
      {"core.handler_batch_flushes", "count"},
      {"core.threshold_wakeups", "count"},
      {"core.bucket_scans", "count"},
      {"core.notify_skips", "count"},
      {"core.quiesce_waits", "count"},
      {"core.quiesce_wait_ms", "ms"},
      {"core.fork_ns", "ns"},
      {"core.ivar_get_wait_us", "us"},
      {"data.iset_insert_ns", "ns"},
      {"data.waitsize_wait_us", "us"},
      {"data.stream_appends", "count"},
      {"data.prefix_wakeups", "count"},
      {"data.backpressure_parks", "count"},
      {"data.stream_put_us", "us"},
      {"data.stream_get_wait_us", "us"},
      {"data.advance_ns", "ns"},
      {"data.imap_insert_ns", "ns"},
      {"stream.etl_s", "s"},
      {"stream.wordcount_s", "s"},
      {"stream.seq_s", "s"},
      {"pbbs.bfs_s", "s"},
      {"pbbs.components_s", "s"},
      {"pbbs.forest_s", "s"},
      {"pbbs.bfs_seq_s", "s"},
      {"pbbs.components_seq_s", "s"},
      {"pbbs.forest_seq_s", "s"},
      {"pbbs.components.puts", "count"},
      {"pbbs.components.puts.spread", "ratio"},
      {"pbbs.components.useful_put_ratio", "ratio"},
      {"pbbs.components.handler_invocations", "count"},
      {"pbbs.components.handler_invocations.spread", "ratio"},
      {"pbbs.bfs.tasks_created", "count"},
      {"pbbs.bfs.tasks_created.spread", "ratio"},
      {"pbbs.forest.tasks_created", "count"},
      {"pbbs.forest.tasks_created.spread", "ratio"},
      {"loadgen.late_ms.p99", "ms"},
      {"loadgen.late_ms.max", "ms"},
      {"loadgen.backlog_ratio.low_rate", "ratio"},
      {"loadgen.backlog_ratio.high_rate", "ratio"},
      {"trace.covered_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return M;
}

void RunResult::check(bool Ok, const char *What, uint64_t Digest) {
  if (++Attempted <= 3)
    OutputDigest = mix64(OutputDigest ^ Digest);
  if (Ok)
    return;
  // Report the first few mismatches; the count carries the rest.
  if (++Failed <= 5)
    note(std::string("CHECK FAILED: ") + What);
}

bool runWorkload(const Options &O, RunResult &R, bench::BenchHarness &H) {
  if (O.Workload == "graph")
    R = runGraph(O, H);
  else if (O.Workload == "service")
    R = runService(O, H);
  else if (O.Workload == "stream")
    R = runStream(O, H);
  else
    return false;
  // A traced run reports every layer; one the workload never calls from
  // its own code reports 0.
  if (O.Trace)
    for (const MetricSpec &M : perLayerMetrics())
      R.Values.try_emplace(M.Name, 0.0);
  else {
    R.set("ok_ratio", R.Attempted ? 1.0 - static_cast<double>(R.Failed) /
                                              static_cast<double>(R.Attempted)
                                  : 0.0);
    R.set("peak_rss_mb", peakRssMb());
  }
  return true;
}

std::string resultLine(const Options &O, const RunResult &R,
                       std::string &Missing) {
  Missing.clear();
  obs::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.value(R.Failed == 0 && R.Attempted > 0);
  W.key("attempted");
  W.value(R.Attempted);
  W.key("failed");
  W.value(R.Failed);
  W.key("metrics");
  W.beginObject();
  for (const MetricSpec &M : O.Trace ? perLayerMetrics() : endToEndMetrics()) {
    auto It = R.Values.find(M.Name);
    if (It == R.Values.end()) {
      if (Missing.empty())
        Missing = M.Name;
      continue;
    }
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(It->second);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.take();
}

// --- Counter deltas -------------------------------------------------------

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

TelemetryDelta &TelemetryDelta::operator+=(const TelemetryDelta &O) {
  for (unsigned I = 0; I < obs::NumEvents; ++I)
    Counts[I] += O.Counts[I];
  QuiesceWaitNanos += O.QuiesceWaitNanos;
  return *this;
}

LayerCounters &LayerCounters::operator+=(const LayerCounters &O) {
  Sched += O.Sched;
  Tel += O.Tel;
  CpuSec += O.CpuSec;
  WallSec += O.WallSec;
  return *this;
}

CounterProbe::CounterProbe()
    : Tel0(obs::telemetrySnapshot()), Cpu0(processCpuSeconds()),
      Wall0(nowNanos()) {}

LayerCounters CounterProbe::stop(const SchedulerStats &SchedDelta) const {
  LayerCounters C;
  C.WallSec = static_cast<double>(nowNanos() - Wall0) * 1e-9;
  C.CpuSec = processCpuSeconds() - Cpu0;
  C.Sched = SchedDelta;
  obs::TelemetrySnapshot T1 = obs::telemetrySnapshot();
  for (unsigned I = 0; I < obs::NumEvents; ++I)
    C.Tel.Counts[I] = T1.Counts[I] - Tel0.Counts[I];
  C.Tel.QuiesceWaitNanos = T1.QuiesceWaitNanos - Tel0.QuiesceWaitNanos;
  return C;
}

void setLayerCounts(RunResult &R, const LayerCounters &C, double Per) {
  auto Norm = [Per](double V) { return Per > 0 ? V / Per : 0.0; };
  auto Ev = [&](obs::Event E) {
    return Norm(static_cast<double>(C.Tel.count(E)));
  };
  const SchedulerStats &S = C.Sched;
  R.set("sched.tasks_created", Norm(static_cast<double>(S.TasksCreated)));
  R.set("sched.max_deque_depth", static_cast<double>(S.MaxDequeDepth));
  R.set("sched.steal_attempts", Norm(static_cast<double>(S.StealAttempts)));
  R.set("sched.steals", Norm(static_cast<double>(S.Steals)));
  R.set("sched.steal_hit_ratio",
        S.StealAttempts ? static_cast<double>(S.Steals) /
                              static_cast<double>(S.StealAttempts)
                        : 0.0);
  R.set("sched.parks", Norm(static_cast<double>(S.Parks)));
  R.set("sched.wakes", Norm(static_cast<double>(S.Wakes)));
  R.set("sched.cpu_s", Norm(C.CpuSec));
  R.set("sched.cpu_per_wall", C.WallSec > 0 ? C.CpuSec / C.WallSec : 0.0);
  const double Puts = static_cast<double>(C.Tel.count(obs::Event::Puts));
  const double NoOps = static_cast<double>(C.Tel.count(obs::Event::NoOpJoins));
  R.set("core.puts", Norm(Puts));
  R.set("core.noop_joins", Norm(NoOps));
  R.set("core.useful_put_ratio", Puts > 0 ? (Puts - NoOps) / Puts : 0.0);
  R.set("core.handler_invocations", Ev(obs::Event::HandlerInvocations));
  R.set("core.handler_batch_flushes", Ev(obs::Event::HandlerBatchFlushes));
  R.set("core.threshold_wakeups", Ev(obs::Event::ThresholdWakeups));
  R.set("core.bucket_scans", Ev(obs::Event::BucketScans));
  R.set("core.notify_skips", Ev(obs::Event::NotifySkips));
  R.set("core.quiesce_waits", Ev(obs::Event::QuiesceWaits));
  R.set("core.quiesce_wait_ms",
        Norm(static_cast<double>(C.Tel.QuiesceWaitNanos) * 1e-6));
  R.set("data.stream_appends", Ev(obs::Event::StreamAppends));
  R.set("data.prefix_wakeups", Ev(obs::Event::PrefixWakeups));
  R.set("data.backpressure_parks", Ev(obs::Event::BackpressureParks));
}

// --- Sample statistics ----------------------------------------------------

double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least P of the sample at or
  // below it.
  double Rank = P * static_cast<double>(V.size());
  size_t At = Rank <= 1 ? 0 : static_cast<size_t>(Rank + 0.999999) - 1;
  return V[std::min(At, V.size() - 1)];
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

namespace {

/// The \p Over-quantile over windows of \p Stat (see windowedQuantile).
template <typename F>
double overWindows(const std::vector<double> &V, size_t Window, double Over,
                   F Stat) {
  if (Window == 0 || V.size() < 2 * Window)
    return Stat(V);
  std::vector<double> PerWindow;
  for (size_t Begin = 0; Begin + Window <= V.size(); Begin += Window) {
    size_t End = Begin + 2 * Window > V.size() ? V.size() : Begin + Window;
    PerWindow.push_back(
        Stat(std::vector<double>(V.begin() + Begin, V.begin() + End)));
  }
  return quantile(PerWindow, Over);
}

} // namespace

double windowedQuantile(const std::vector<double> &V, size_t Window,
                        double P, double Over) {
  return overWindows(V, Window, Over, [P](std::vector<double> W) {
    return quantile(std::move(W), P);
  });
}

double windowedTail(const std::vector<double> &V, size_t Window,
                    double Over) {
  return overWindows(V, Window, Over, [](std::vector<double> W) {
    double Percentile = 0;
    return tailWithTenBeyond(std::move(W), Percentile);
  });
}

double relativeIqr(std::vector<double> V) {
  if (V.size() < 4)
    return 0;
  double Med = median(V);
  if (Med == 0)
    return 0;
  return (quantile(V, 0.75) - quantile(V, 0.25)) / Med;
}

double tailWithTenBeyond(std::vector<double> V, double &Percentile) {
  Percentile = 0;
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // With N samples, the value at 1-based rank N-10 has ten above it.
  size_t N = V.size();
  size_t Rank = N > 10 ? N - 10 : 1;
  Percentile = 100.0 * static_cast<double>(Rank) / static_cast<double>(N);
  return V[Rank - 1];
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

} // namespace perfbench
} // namespace lvish
