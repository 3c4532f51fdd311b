//===- SelfTest.cpp - The benchmark's own tests ----------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every workload at smoke size and checks the benchmark itself:
///
///  * seeding: the same seed gives the same inputs and the same checked
///    outputs; another seed gives different inputs;
///  * the correctness gate: a clean run passes it, and a run whose output
///    is perturbed inside the benchmark (Options::PerturbOutput; the
///    library is untouched) fails it, with "correct": false;
///  * the sample statistics behind job_tail_s and the windowed quantiles.
///
/// Exit status 0 when every expectation holds.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "bench/BenchHarness.h"

#include <cstdio>
#include <string>

using namespace lvish;
using namespace lvish::perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const std::string &What) {
  std::fprintf(stderr, "%s  %s\n", Cond ? "ok  " : "FAIL", What.c_str());
  if (!Cond)
    ++Failures;
}

uint64_t fingerprint(const Options &O) {
  if (O.Workload == "graph")
    return graphInputFingerprint(O);
  if (O.Workload == "service")
    return serviceInputFingerprint(O);
  return streamInputFingerprint(O);
}

void testStatistics() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  double Pct = 0;
  expect(tailWithTenBeyond(V, Pct) == 90 && Pct == 90,
         "tail rule: p90 of 100 samples leaves ten above it");
  expect(quantile(V, 0.99) == 99 && median(V) == 50,
         "nearest-rank quantiles");
  // One noisy window out of five moves the windowed median not at all.
  std::vector<double> W(50, 1.0);
  for (int I = 0; I < 10; ++I)
    W[I] = 100.0;
  expect(windowedQuantile(W, 10, 0.5) == 1.0,
         "windowed quantile ignores one noisy window");
  // Four noisy windows out of five: the fastest window still reads calm.
  for (int I = 0; I < 40; ++I)
    W[I] = 100.0 + I;
  expect(windowedQuantile(W, 10, 0.5, /*Over=*/0) == 1.0 &&
             windowedQuantile(W, 10, 0.5) == 104.0,
         "fastest window ignores four noisy windows");
}

void testWorkload(const std::string &Name, bench::BenchHarness &H) {
  Options O;
  O.Workload = Name;
  O.Smoke = true;
  O.Seconds = 0.5;
  Options Other = O;
  Other.Seed = O.Seed + 1;

  expect(fingerprint(O) == fingerprint(O), Name + ": same seed, same inputs");
  expect(fingerprint(O) != fingerprint(Other),
         Name + ": another seed, different inputs");

  RunResult A, B;
  runWorkload(O, A, H);
  runWorkload(O, B, H);
  expect(A.Attempted > 0 && A.Failed == 0, Name + ": clean run passes gate");
  expect(A.OutputDigest == B.OutputDigest,
         Name + ": same seed, same checked outputs");
  std::string Missing;
  resultLine(O, A, Missing);
  expect(Missing.empty(), Name + ": every end-to-end metric produced");

  Options Bad = O;
  Bad.PerturbOutput = true;
  RunResult P;
  runWorkload(Bad, P, H);
  expect(P.Failed > 0, Name + ": gate fires on a perturbed output");
  expect(resultLine(Bad, P, Missing).find("\"correct\":false") !=
             std::string::npos,
         Name + ": perturbed run reports correct=false");
}

} // namespace

int main() {
  bench::BenchConfig Cfg;
  Cfg.Smoke = true;
  bench::BenchHarness H("perfbench_selftest", Cfg);
  testStatistics();
  for (const char *Name : {"graph", "service", "stream"})
    testWorkload(Name, H);
  std::fprintf(stderr, "%s: %d failure(s)\n",
               Failures ? "FAILED" : "passed", Failures);
  return H.finish(Failures ? 1 : 0);
}
