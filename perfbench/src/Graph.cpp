//===- Graph.cpp - The `graph` workload: PBBS problems on LVars ------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One job = bfsLevels on a power-law graph, componentsLVar on a uniform
/// graph and spanningForestLVar on a uniform edge list, each on its own
/// 4-worker session (the PBBS entry points open a one-shot Runtime), each
/// followed by its sequential reference, timed in the same job, and a
/// check that the two agree. The LVar join, handler-flush and quiesce
/// layers do the work; the session layer does three sessions per job.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Batch.h"
#include "perfbench/src/Trace.h"

#include "bench/BenchHarness.h"

#include "src/pbbs/Pbbs.h"
#include "src/support/AsymmetricGate.h"
#include "src/support/Hashing.h"
#include "src/support/Timer.h"

#include <algorithm>
#include <string>

namespace lvish {
namespace perfbench {

namespace {

using trace::Name;

constexpr unsigned Workers = 4;

struct GraphInputs {
  pbbs::Graph PowerLaw;  ///< BFS input.
  pbbs::Graph Uniform;   ///< Components input.
  pbbs::EdgeList Forest; ///< Spanning-forest input.
  uint64_t Records = 0;  ///< Undirected input edges per job.
};

GraphInputs makeInputs(const Options &O) {
  GraphInputs In;
  In.PowerLaw = pbbs::makePowerLawGraph(O.pick<uint32_t>(200'000, 2'000), 8,
                                        O.Seed);
  In.Uniform = pbbs::makeUniformGraph(O.pick<uint32_t>(16'000, 400), 6,
                                      O.Seed ^ 0x5eedc0ffeeULL);
  In.Forest = pbbs::toEdgeList(pbbs::makeUniformGraph(
      O.pick<uint32_t>(50'000, 1'000), 6, O.Seed ^ 0xf0f0f0f0ULL));
  In.Records = In.PowerLaw.numDirectedEdges() / 2 +
               In.Uniform.numDirectedEdges() / 2 + In.Forest.Edges.size();
  return In;
}

uint64_t hashVector(uint64_t H, const std::vector<uint32_t> &V) {
  for (uint32_t X : V)
    H = mix64(H ^ X);
  return H;
}

/// Counters and times of one PBBS problem across jobs.
struct ProblemStats {
  std::vector<double> LvarSec, SeqSec, Puts, NoOps, Handlers, Tasks;
  LayerCounters Total;
};

enum Problem { Bfs, Components, Forest, NumProblems };

struct GraphRun {
  const Options &O;
  const GraphInputs &In;
  RunResult &R;
  ProblemStats Stats[NumProblems];

  /// Times one LVar call from outside, with its scheduler-stats and
  /// telemetry deltas, and records its span under the job.
  template <typename F>
  auto timed(Problem P, Name N, uint64_t JobSpan, uint64_t Job, F &&Call) {
    SchedulerStats St;
    RunOptions Opts = RunOptions::CollectStats(St);
    Opts.Config.NumWorkers = Workers;
    CounterProbe Probe;
    uint64_t T0 = nowNanos();
    auto Out = Call(Opts);
    uint64_t T1 = nowNanos();
    LayerCounters C = Probe.stop(St);
    trace::span(N, trace::newId(), JobSpan, Job, trace::enabled() ? T0 : 0,
                T1, /*Sync=*/true);
    ProblemStats &PS = Stats[P];
    PS.LvarSec.push_back(static_cast<double>(T1 - T0) * 1e-9);
    PS.Puts.push_back(static_cast<double>(C.Tel.count(obs::Event::Puts)));
    PS.NoOps.push_back(static_cast<double>(C.Tel.count(obs::Event::NoOpJoins)));
    PS.Handlers.push_back(
        static_cast<double>(C.Tel.count(obs::Event::HandlerInvocations)));
    PS.Tasks.push_back(static_cast<double>(St.TasksCreated));
    PS.Total += C;
    return Out;
  }

  /// Times a sequential reference. It takes about 1% of a job, so one
  /// host hiccup would swing it: the fastest of three runs is its cost.
  template <typename F>
  auto timedSeq(Problem P, Name N, uint64_t JobSpan, uint64_t Job,
                F &&Call) {
    const uint64_t Start = nowNanos();
    uint64_t Best = ~uint64_t{0};
    decltype(Call()) Out;
    for (int Rep = 0; Rep < 3; ++Rep) {
      uint64_t T0 = nowNanos();
      Out = Call();
      Best = std::min(Best, nowNanos() - T0);
    }
    trace::span(N, trace::newId(), JobSpan, Job,
                trace::enabled() ? Start : 0, nowNanos(), /*Sync=*/true);
    Stats[P].SeqSec.push_back(static_cast<double>(Best) * 1e-9);
    return Out;
  }

  template <typename T>
  void gate(std::vector<T> Out, const std::vector<T> &Ref, const char *What,
            uint64_t JobSpan, uint64_t Job) {
    uint64_t T0 = trace::start();
    if (O.PerturbOutput && !Out.empty())
      Out[Out.size() / 2] ^= 1;
    uint64_t Digest = Out.size();
    for (const T &X : Out)
      Digest = mix64(Digest ^ static_cast<uint64_t>(X));
    R.check(Out == Ref, What, Digest);
    trace::span(Name::BenchCheck, trace::newId(), JobSpan, Job, T0,
                nowNanos(), /*Sync=*/true);
  }

  BatchJob job(uint64_t Job) {
    const uint64_t JobSpan = trace::newId();
    const uint64_t J0 = trace::start();
    BatchJob B;
    size_t Before[NumProblems];
    for (unsigned P = 0; P < NumProblems; ++P)
      Before[P] = Stats[P].LvarSec.size();

    auto Levels = timed(Bfs, Name::PbbsBfs, JobSpan, Job, [&](auto &Opts) {
      return pbbs::bfsLevels(In.PowerLaw, 0, Opts);
    });
    auto LevelsRef = timedSeq(Bfs, Name::PbbsBfsSeq, JobSpan, Job, [&] {
      return pbbs::bfsSeq(In.PowerLaw, 0);
    });
    gate(std::move(Levels), LevelsRef, "graph: bfsLevels != bfsSeq", JobSpan,
         Job);

    auto Labels =
        timed(Components, Name::PbbsComponents, JobSpan, Job,
              [&](auto &Opts) { return pbbs::componentsLVar(In.Uniform, Opts); });
    auto LabelsRef = timedSeq(Components, Name::PbbsComponentsSeq, JobSpan,
                              Job, [&] { return pbbs::componentsSeq(In.Uniform); });
    gate(std::move(Labels), LabelsRef,
         "graph: componentsLVar != componentsSeq", JobSpan, Job);

    auto Edges = timed(Forest, Name::PbbsForest, JobSpan, Job, [&](auto &Opts) {
      return pbbs::spanningForestLVar(In.Forest, Opts);
    });
    auto EdgesRef = timedSeq(Forest, Name::PbbsForestSeq, JobSpan, Job, [&] {
      return pbbs::spanningForestSeq(In.Forest);
    });
    gate(std::move(Edges), EdgesRef,
         "graph: spanningForestLVar != spanningForestSeq", JobSpan, Job);

    for (unsigned P = 0; P < NumProblems; ++P) {
      B.LvarSec += Stats[P].LvarSec[Before[P]];
      B.SeqSec += Stats[P].SeqSec[Before[P]];
    }
    trace::span(Name::GraphJob, JobSpan, 0, Job, J0, nowNanos(),
                /*Sync=*/false);
    return B;
  }

  void reset() {
    for (ProblemStats &PS : Stats)
      PS = ProblemStats();
  }

  /// pbbs.* and the shared sched/core/data per-layer metrics.
  void setLayerMetrics() {
    const char *Keys[NumProblems] = {"bfs", "components", "forest"};
    LayerCounters All;
    for (unsigned P = 0; P < NumProblems; ++P) {
      ProblemStats &PS = Stats[P];
      std::string K = std::string("pbbs.") + Keys[P];
      R.set(K + "_s", median(PS.LvarSec));
      R.set(K + "_seq_s", median(PS.SeqSec));
      All += PS.Total;
    }
    const ProblemStats &C = Stats[Components];
    const double Puts = sum(C.Puts), NoOps = sum(C.NoOps);
    R.set("pbbs.components.puts", median(C.Puts));
    R.set("pbbs.components.puts.spread", relativeIqr(C.Puts));
    R.set("pbbs.components.useful_put_ratio",
          Puts > 0 ? (Puts - NoOps) / Puts : 0.0);
    R.set("pbbs.components.handler_invocations", median(C.Handlers));
    R.set("pbbs.components.handler_invocations.spread",
          relativeIqr(C.Handlers));
    R.set("pbbs.bfs.tasks_created", median(Stats[Bfs].Tasks));
    R.set("pbbs.bfs.tasks_created.spread", relativeIqr(Stats[Bfs].Tasks));
    R.set("pbbs.forest.tasks_created", median(Stats[Forest].Tasks));
    R.set("pbbs.forest.tasks_created.spread",
          relativeIqr(Stats[Forest].Tasks));
    setLayerCounts(R, All, static_cast<double>(C.LvarSec.size()));
  }
};

} // namespace

uint64_t graphInputFingerprint(const Options &O) {
  GraphInputs In = makeInputs(O);
  uint64_t H = hashVector(1, In.PowerLaw.Adjacency);
  H = hashVector(H, In.Uniform.Adjacency);
  for (auto [U, V] : In.Forest.Edges)
    H = mix64(H ^ (uint64_t{U} << 32 | V));
  return H;
}

RunResult runGraph(const Options &O, bench::BenchHarness &H) {
  RunResult R;
  // Set-up: input generation, repeated so the median is steady.
  std::vector<double> SetupSec;
  GraphInputs In;
  for (int Rep = 0; Rep < 3; ++Rep) {
    WallTimer T;
    In = makeInputs(O);
    SetupSec.push_back(T.elapsedSeconds());
  }
  GraphRun G{O, In, R, {}};
  auto Job = [&G](uint64_t J) { return G.job(J); };
  // Warm-up, untimed: every PBBS call starts a fresh 4-worker pool, and
  // AsymmetricGate hands each new thread one of MaxSlots fast-path slots
  // for good, so the process gets slower once the slots are used up -
  // after about ten jobs, by 3-5x on BFS and components. Warming up past
  // that point measures the steady state a long-lived caller sees.
  const unsigned WarmupJobs =
      O.pick(AsymmetricGate::MaxSlots / (NumProblems * Workers) + 2, 1u);
  for (unsigned J = 0; J < WarmupJobs; ++J)
    G.job(~uint64_t{0} - J);
  G.reset();

  const double S = O.Seconds;
  const unsigned MinJobs = O.pick(3u, 1u);
  if (!O.Trace) {
    BatchSamples B = runBatch(0.5 * S, 0.5 * S, O.pick(2.0, 0.02), MinJobs,
                              Job);
    // About 35 jobs a run, and they slow little with host noise: one
    // window.
    setBatchEndToEnd(R, B, 3.0, static_cast<double>(In.Records),
                     /*Window=*/0);
    addBatchSeries(H, B);
    R.set("setup_s", median(SetupSec));
    SchedulerStats Sched;
    for (unsigned P = 0; P < NumProblems; ++P) {
      static const char *Names[] = {"bfs", "components", "forest"};
      H.addSeries(std::string(Names[P]) + "_lvar_w4", G.Stats[P].LvarSec);
      H.addSeries(std::string(Names[P]) + "_seq", G.Stats[P].SeqSec);
      Sched += G.Stats[P].Total.Sched;
    }
    H.recordStats(Sched);
    return R;
  }

  // Traced run: counts from an untraced half, spans from a traced half.
  BatchSamples Plain = runBatch(0.5 * S, 0, 0, MinJobs, Job);
  G.setLayerMetrics();
  SchedulerStats Sched;
  for (const ProblemStats &PS : G.Stats)
    Sched += PS.Total.Sched;
  H.recordStats(Sched);
  G.reset();
  trace::setEnabled(true);
  BatchSamples Traced = runBatch(0.5 * S, 0, 0, MinJobs, Job);
  trace::setEnabled(false);
  R.set("trace.overhead", median(Traced.LvarSec) / median(Plain.LvarSec) - 1);
  return R;
}

} // namespace perfbench
} // namespace lvish
