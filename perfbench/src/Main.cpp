//===- Main.cpp - Repository benchmark entry point -------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   lvbench --workload graph|service|stream [--seed N] [--seconds S]
///           [--trace 0|1] [--smoke] [--out-dir DIR]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics untraced, the per-layer metrics with --trace 1. Human-readable
/// notes (tail percentile, ladder rungs, top self-time layers) go to
/// stderr. DIR receives the run's lvish-bench-v1 detail document and,
/// traced, its chrome://tracing file. Exit status: 0 when every output
/// passed the correctness gate, 1 when any failed, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"
#include "perfbench/src/Trace.h"

#include "bench/BenchHarness.h"
#include "src/support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace lvish;
using namespace lvish::perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "lvbench: %s\nusage: lvbench --workload graph|service|stream "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage((Flag + " requires a value").c_str());
      return Argv[++I];
    };
    if (Flag == "--workload")
      O.Workload = Value();
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (Flag == "--trace")
      O.Trace = Value() != "0";
    else if (Flag == "--smoke")
      O.Smoke = true;
    else if (Flag == "--out-dir")
      O.OutDir = Value();
    else
      usage(("unknown flag '" + Flag + "'").c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (!(O.Seconds > 0 && O.Seconds <= 600))
    usage("--seconds must be in (0, 600]");
  return O;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);
  bench::BenchConfig Cfg;
  Cfg.Smoke = O.Smoke;
  Cfg.JsonPath = O.OutDir + "/BENCH_perfbench_" + O.Workload +
                 (O.Trace ? "_traced" : "") + ".json";
  bench::BenchHarness H("perfbench_" + O.Workload, Cfg);
  H.noteConfig("seed", O.Seed);
  H.noteConfig("seconds", std::to_string(O.Seconds));
  H.noteConfig("trace", O.Trace ? "1" : "0");

  RunResult R;
  WallTimer Run;
  if (!runWorkload(O, R, H))
    usage(("unknown workload '" + O.Workload + "'").c_str());
  const double RunSec = Run.elapsedSeconds();

  if (O.Trace) {
    trace::Summary Sum = trace::summarize();
    R.set("trace.covered_share", Sum.CoveredShare);
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "trace: layer spans cover %.1f%% of %llu root spans' wall "
                  "time; %llu spans dropped",
                  100 * Sum.CoveredShare,
                  static_cast<unsigned long long>(Sum.RootSpans),
                  static_cast<unsigned long long>(Sum.DroppedSpans));
    R.note(Buf);
    std::string Top = "trace: top self time:";
    for (const std::string &S : Sum.topSelf(3))
      Top += "  " + S;
    R.note(Top);
    std::string Path = O.OutDir + "/trace-" + O.Workload + ".json";
    if (trace::writeChromeTrace(Path))
      R.note("trace: wrote " + Path);
    else
      R.note("trace: cannot write " + Path);
  }
  // The whole run as one series, carrying every metric of the run.
  bench::Series &M = H.addSeries("run", {RunSec});
  M.config("attempted", R.Attempted);
  M.config("failed", R.Failed);
  for (const auto &[Name, Value] : R.Values)
    M.metric(Name, Value);

  for (const std::string &N : R.Notes)
    std::fprintf(stderr, "[%s] %s\n", O.Workload.c_str(), N.c_str());
  int Exit = H.finish(R.Failed ? 1 : 0);
  std::string Missing;
  std::string Line = resultLine(O, R, Missing);
  if (!Missing.empty()) {
    std::fprintf(stderr, "lvbench: workload produced no '%s' metric\n",
                 Missing.c_str());
    return 3;
  }
  std::fflush(stderr);
  std::printf("%s\n", Line.c_str());
  return Exit;
}
