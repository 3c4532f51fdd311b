//===- Service.cpp - The `service` workload: open-loop sessions ------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded Poisson arrivals into one long-lived service::Runtime (3
/// workers, MaxActiveSessions 8); the generator is the fourth thread.
/// Sessions are a seeded mix of three small bodies - sumSquares(4096)
/// fork-join, a 64-step IVar chain, a 256-element ISet fan-out - so the
/// session layer (admission, inject, quiesce, the finalizer hop, future
/// fulfilment) sits on every request's blocking path.
///
/// Phases: a closed loop (one session at a time: the unloaded session
/// time), two fixed rates (low_rate 2000/s, high_rate 5000/s), and a
/// fixed ladder of rates that finds the highest rate whose p50 stays
/// within 2 ms without a growing backlog. Every latency is timed from the
/// session's due time, so generator stalls count against the system; the
/// generator has a CPU of its own so that it stalls only when submit()
/// blocks.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"
#include "perfbench/src/Trace.h"

#include "bench/BenchHarness.h"

#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/service/Runtime.h"
#include "src/support/Hashing.h"
#include "src/support/SplitMix.h"
#include "src/support/Timer.h"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace lvish {
namespace perfbench {

namespace {

using trace::Body;
using trace::Name;

constexpr EffectSet D = Eff::Det;
constexpr unsigned Workers = 3;
constexpr unsigned MaxActive = 8;
constexpr double LowRate = 2000;
constexpr double HighRate = 5000;
/// A rate is sustained while this latency quantile stays within LimitMs
/// over the phase and over its second half (no growing backlog).
constexpr double LimitQuantile = 0.5;
constexpr double LimitMs = 2.0;
constexpr double Ladder[] = {1000, 2000, 3000, 3500, 4000, 4500,
                             5000, 5500, 6000, 7000, 8000, 10000};
constexpr double RungSeconds = 1.0;
/// Closed-loop sessions per window (job_s, job_tail_s, records_per_s).
constexpr size_t ClosedWindow = 500;

constexpr uint64_t SumSquaresN = 4096;
constexpr uint64_t ChainSteps = 64;
constexpr uint64_t FanOutElems = 256;

/// The closed form each session kind must return.
uint64_t expected(uint8_t Kind) {
  const uint64_t N = SumSquaresN;
  switch (Kind) {
  case 0:
    return (N - 1) * N * (2 * N - 1) / 6; // sum of i^2 for i < N
  case 1:
    return ChainSteps * (ChainSteps - 1) / 2; // 2016
  default:
    return FanOutElems;
  }
}

/// Fork-join sum of I*I over [Lo, Hi).
Par<uint64_t> sumSquares(ParCtx<D> Ctx, uint64_t Lo, uint64_t Hi, Body &B) {
  if (Hi - Lo <= 16) {
    uint64_t S = 0;
    for (uint64_t I = Lo; I < Hi; ++I)
      S += I * I;
    co_return S;
  }
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  auto Left = newIVar<uint64_t>(Ctx);
  auto LeftBody = [Left, Lo, Mid](ParCtx<D> C) -> Par<void> {
    Body Lane; // A forked lane: leaf statistics only, no span of its own.
    uint64_t V = co_await sumSquares(C, Lo, Mid, Lane);
    uint64_t T = trace::start();
    put(C, *Left, V);
    Lane.leaf(Name::CoreIVarPut, T);
  };
  uint64_t T = trace::start();
  fork(Ctx, LeftBody);
  B.leaf(Name::CoreFork, T);
  uint64_t Right = co_await sumSquares(Ctx, Mid, Hi, B);
  T = trace::start();
  uint64_t LeftV = co_await get(Ctx, *Left);
  B.leaf(Name::CoreIVarGetWait, T);
  co_return LeftV + Right;
}

/// K sequential IVar put/get round trips.
Par<uint64_t> ivarChain(ParCtx<D> Ctx, uint64_t K, Body &B) {
  uint64_t Acc = 0;
  for (uint64_t I = 0; I < K; ++I) {
    auto IV = newIVar<uint64_t>(Ctx);
    uint64_t T = trace::start();
    put(Ctx, *IV, I);
    B.leaf(Name::CoreIVarPut, T);
    T = trace::start();
    Acc += co_await get(Ctx, *IV);
    B.leaf(Name::CoreIVarGetWait, T);
  }
  co_return Acc;
}

/// Four forked writers fill an ISet; the body waits for its size.
Par<uint64_t> isetFanOut(ParCtx<D> Ctx, uint64_t Elems, Body &B) {
  auto S = newISet<uint64_t>(Ctx);
  const uint64_t Writers = 4;
  for (uint64_t W = 0; W < Writers; ++W) {
    auto Writer = [S, W, Elems](ParCtx<D> C) -> Par<void> {
      Body Lane;
      for (uint64_t I = W; I < Elems; I += Writers) {
        uint64_t T = trace::start();
        insert(C, *S, I);
        Lane.leaf(Name::DataISetInsert, T);
      }
      co_return;
    };
    uint64_t T = trace::start();
    fork(Ctx, Writer);
    B.leaf(Name::CoreFork, T);
  }
  uint64_t T = trace::start();
  co_await waitSize(Ctx, *S, Elems);
  B.leaf(Name::DataWaitSizeWait, T);
  co_return Elems;
}

/// Sequential reference for one session kind (the same arithmetic, no
/// LVars). \p N comes from a volatile so the loops are not folded away.
volatile uint64_t SeqScale = 1;
volatile uint64_t SeqSink = 0;
uint64_t sequential(uint8_t Kind) {
  const uint64_t Scale = SeqScale;
  switch (Kind) {
  case 0: {
    uint64_t S = 0;
    for (uint64_t I = 0; I < SumSquaresN * Scale; ++I)
      S += I * I;
    return S;
  }
  case 1: {
    uint64_t Acc = 0;
    for (uint64_t I = 0; I < ChainSteps * Scale; ++I)
      Acc += I;
    return Acc;
  }
  default: {
    std::unordered_set<uint64_t> Set;
    for (uint64_t I = 0; I < FanOutElems * Scale; ++I)
      Set.insert(I);
    return Set.size();
  }
  }
}

/// Splits the CPUs this thread may run on into the generator's (the
/// first) and the Runtime's (the rest). False when there are too few.
bool splitCpus(cpu_set_t &Generator, cpu_set_t &Runtime) {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0 ||
      CPU_COUNT(&Allowed) <= static_cast<int>(Workers))
    return false;
  CPU_ZERO(&Generator);
  Runtime = Allowed;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &Generator);
      CPU_CLR(C, &Runtime);
      return true;
    }
  return false;
}

bool pinTo(const cpu_set_t &Set) {
  return sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

/// One scheduled session: due offset from the phase start, body kind.
struct Arrival {
  uint64_t DueOffset = 0;
  uint8_t Kind = 0;
};

/// Everything measured about one submitted session.
struct SessionRec {
  uint64_t Due = 0;
  uint64_t SubmitStart = 0;
  uint64_t SubmitEnd = 0;
  uint64_t BodyStart = 0; ///< Traced runs only.
  uint64_t BodyEnd = 0;   ///< Traced runs only.
  uint64_t Done = 0;
  uint64_t SpanId = 0;
};

/// Poisson arrivals at \p Rate for \p N sessions.
std::vector<Arrival> makePlan(uint64_t Seed, double Rate, size_t N) {
  SplitMix64 Rng(Seed);
  std::vector<Arrival> Plan(N);
  double At = 0;
  const double MeanGapNs = 1e9 / Rate;
  for (Arrival &A : Plan) {
    At += -std::log(1.0 - Rng.nextDouble()) * MeanGapNs;
    A.DueOffset = static_cast<uint64_t>(At);
    A.Kind = static_cast<uint8_t>(Rng.nextBounded(3));
  }
  return Plan;
}

struct ServiceInputs {
  std::vector<Arrival> Warmup, Closed, Low, High;
  std::vector<std::vector<Arrival>> Rungs;
};

ServiceInputs makeInputs(const Options &O, bool Traced) {
  ServiceInputs In;
  const double S = O.Seconds;
  // The traced run measures each fixed rate twice (plain, then traced),
  // so its phases are half as long.
  const double Share = Traced ? 0.5 : 1.0;
  auto Count = [&](double Rate, double Sec) {
    return static_cast<size_t>(
        std::max(50.0, Rate * Sec * (O.Smoke ? 0.02 : 1.0)));
  };
  In.Warmup = makePlan(O.Seed ^ 0x77, LowRate, O.pick<size_t>(400, 50));
  In.Closed = makePlan(O.Seed ^ 0xc1, LowRate, O.pick<size_t>(4000, 100));
  In.Low = makePlan(O.Seed ^ 0x10, LowRate, Count(LowRate, 0.3 * S * Share));
  In.High = makePlan(O.Seed ^ 0x50, HighRate, Count(HighRate, 0.3 * S * Share));
  if (!Traced)
    for (double Rate : Ladder)
      In.Rungs.push_back(makePlan(O.Seed ^ static_cast<uint64_t>(Rate), Rate,
                                  Count(Rate, RungSeconds)));
  return In;
}

/// Sessions per latency window: a quarter second of arrivals at \p Rate.
size_t windowOf(double Rate) { return static_cast<size_t>(Rate / 4); }

/// What one phase measured.
struct Phase {
  std::vector<double> LatMs;  ///< Due time -> outcome ready, arrival order.
  std::vector<double> LateMs; ///< Due time -> submit call.
  std::vector<double> SubmitUs;
  std::vector<double> AdmitMs, BodyMs, FinalizeMs; ///< Traced only.
  uint64_t Failed = 0;
  double Rate = 0;

  /// Latency quantile over quarter-second windows of arrivals (see
  /// windowedQuantile).
  double latency(double P) const {
    return windowedQuantile(LatMs, windowOf(Rate), P);
  }
  double backlogRatio() const {
    size_t Half = LatMs.size() / 2;
    std::vector<double> First(LatMs.begin(), LatMs.begin() + Half);
    std::vector<double> Second(LatMs.begin() + Half, LatMs.end());
    double M = median(First);
    return M > 0 ? median(Second) / M : 0.0;
  }
  /// Within the latency limit, in both halves of the phase, with no
  /// refused or faulted session.
  bool sustained() const {
    size_t Half = LatMs.size() / 2;
    std::vector<double> Second(LatMs.begin() + Half, LatMs.end());
    return Failed == 0 && latency(LimitQuantile) <= LimitMs &&
           quantile(Second, LimitQuantile) <= LimitMs;
  }
};

struct ServiceRun {
  const Options &O;
  service::Runtime &RT;
  RunResult &R;

  auto body(uint8_t Kind, SessionRec *Rec) {
    return [Kind, Rec](ParCtx<D> Ctx) -> Par<uint64_t> {
      Body B = Body::open(Name::ServiceBody, Rec->SpanId, Rec->SpanId,
                          /*Sync=*/true);
      Rec->BodyStart = B.Start;
      uint64_t V = 0;
      if (Kind == 0)
        V = co_await sumSquares(Ctx, 0, SumSquaresN, B);
      else if (Kind == 1)
        V = co_await ivarChain(Ctx, ChainSteps, B);
      else
        V = co_await isetFanOut(Ctx, FanOutElems, B);
      B.close();
      Rec->BodyEnd = trace::start();
      co_return V;
    };
  }

  /// Runs \p Plan open loop at \p Rate, or closed loop when \p Rate is
  /// 0 (each session due when the previous one completes), and checks
  /// every outcome.
  Phase run(const std::vector<Arrival> &Plan, double Rate) {
    const bool Closed = Rate == 0;
    Phase P;
    P.Rate = Rate;
    std::vector<SessionRec> Recs(Plan.size());
    std::vector<service::SessionFuture<uint64_t>> Futures;
    Futures.reserve(Plan.size());
    const uint64_t Start = nowNanos();
    for (size_t I = 0; I < Plan.size(); ++I) {
      SessionRec &Rec = Recs[I];
      Rec.SpanId = trace::enabled() ? trace::newId() : 0;
      if (!Closed) {
        // Spin: the generator owns its CPU, and a sleep's wake-up can run
        // milliseconds late on a virtualized host.
        Rec.Due = Start + Plan[I].DueOffset;
        while (nowNanos() < Rec.Due) {
        }
      }
      Rec.SubmitStart = nowNanos();
      if (Closed)
        Rec.Due = Rec.SubmitStart;
      Futures.push_back(RT.submit<D>(body(Plan[I].Kind, &Rec)));
      Rec.SubmitEnd = nowNanos();
      if (Closed)
        Futures.back().wait();
    }
    RT.awaitIdle();
    for (size_t I = 0; I < Plan.size(); ++I) {
      SessionRec &Rec = Recs[I];
      Rec.Done = Rec.SubmitStart + Futures[I].latencyNanos();
      ParOutcome<uint64_t> Out = Futures[I].get();
      bool Ok = Out.ok();
      if (!Ok) {
        ++P.Failed;
        R.note("service: session refused or faulted: " + Out.fault().Message);
      }
      uint64_t V = Ok ? Out.value() : 0;
      if (O.PerturbOutput && I == 0)
        V += 1;
      R.check(Ok && V == expected(Plan[I].Kind),
              "service: session value != closed form", V);
      P.LatMs.push_back(static_cast<double>(Rec.Done - Rec.Due) * 1e-6);
      P.LateMs.push_back(static_cast<double>(Rec.SubmitStart - Rec.Due) *
                         1e-6);
      P.SubmitUs.push_back(
          static_cast<double>(Rec.SubmitEnd - Rec.SubmitStart) * 1e-3);
      if (Rec.SpanId && Rec.BodyStart && Rec.BodyEnd)
        recordSpans(Rec, P);
    }
    return P;
  }

  /// The session's phase spans; they tile [due, done].
  void recordSpans(const SessionRec &Rec, Phase &P) {
    const uint64_t Id = Rec.SpanId;
    auto Kid = [&](Name N, uint64_t A, uint64_t B) {
      trace::span(N, trace::newId(), Id, Id, A, B, /*Sync=*/true);
    };
    Kid(Name::LoadgenLate, Rec.Due, Rec.SubmitStart);
    Kid(Name::ServiceSubmit, Rec.SubmitStart, Rec.SubmitEnd);
    // A worker can enter the body before submit() has returned.
    const uint64_t Admitted = std::max(Rec.SubmitEnd, Rec.BodyStart);
    Kid(Name::ServiceAdmitWait, Rec.SubmitEnd, Admitted);
    Kid(Name::ServiceFinalize, Rec.BodyEnd, std::max(Rec.BodyEnd, Rec.Done));
    trace::span(Name::ServiceSession, Id, 0, Id, Rec.Due, Rec.Done,
                /*Sync=*/false);
    P.AdmitMs.push_back(static_cast<double>(Admitted - Rec.SubmitEnd) * 1e-6);
    P.BodyMs.push_back(static_cast<double>(Rec.BodyEnd - Rec.BodyStart) *
                       1e-6);
    P.FinalizeMs.push_back(
        static_cast<double>(std::max(Rec.BodyEnd, Rec.Done) - Rec.BodyEnd) *
        1e-6);
  }
};

void note(RunResult &R, const char *Label, const Phase &P) {
  char Buf[300];
  std::snprintf(Buf, sizeof(Buf),
                "%-9s %6.0f/s: %zu sessions, p50 %.3f ms, p99 %.3f ms "
                "(lower quartile over 0.25 s windows), backlog ratio %.2f, "
                "generator "
                "late p99 %.3f ms, submit p99 %.1f us%s",
                Label, P.Rate, P.LatMs.size(), P.latency(0.5), P.latency(0.99),
                P.backlogRatio(), quantile(P.LateMs, 0.99),
                quantile(P.SubmitUs, 0.99),
                P.sustained() ? "" : "  (not sustained)");
  R.note(Buf);
}

} // namespace

uint64_t serviceInputFingerprint(const Options &O) {
  ServiceInputs In = makeInputs(O, /*Traced=*/false);
  uint64_t H = 1;
  for (const auto *Plan : {&In.Warmup, &In.Closed, &In.Low, &In.High})
    for (const Arrival &A : *Plan)
      H = mix64(H ^ A.DueOffset ^ (uint64_t{A.Kind} << 60));
  for (const auto &Plan : In.Rungs)
    for (const Arrival &A : Plan)
      H = mix64(H ^ A.DueOffset ^ (uint64_t{A.Kind} << 60));
  return H;
}

RunResult runService(const Options &O, bench::BenchHarness &H) {
  RunResult R;
  // Set-up: arrival schedules plus Runtime construction, repeated so the
  // median is steady; the last Runtime serves the run.
  std::vector<double> SetupSec, StartMs;
  ServiceInputs In;
  std::unique_ptr<service::Runtime> RT;
  // Thread budget: the Runtime's threads (created from this thread, so
  // inheriting its mask) get all CPUs but one, the generator that one.
  // A generator that shares a CPU with the workers it wakes is preempted
  // by them for milliseconds, which would count as system latency.
  cpu_set_t GeneratorCpu, RuntimeCpus;
  const bool Pinned =
      splitCpus(GeneratorCpu, RuntimeCpus) && pinTo(RuntimeCpus);
  for (int Rep = 0; Rep < 9; ++Rep) {
    RT.reset();
    WallTimer T;
    In = makeInputs(O, O.Trace);
    WallTimer TR;
    RT = std::make_unique<service::Runtime>(service::RuntimeConfig{
        .Sched = {.NumWorkers = Workers}, .MaxActiveSessions = MaxActive});
    StartMs.push_back(TR.elapsedSeconds() * 1e3);
    SetupSec.push_back(T.elapsedSeconds());
  }
  ServiceRun Run{O, *RT, R};
  // The warm-up also starts the Runtime's lazily created finalizer
  // thread, which therefore shares the workers' CPUs.
  Run.run(In.Warmup, LowRate);
  if (!Pinned || !pinTo(GeneratorCpu))
    R.note("generator not pinned: it shares CPUs with the workers");

  if (!O.Trace) {
    // Closed loop: the unloaded session time, against the same bodies
    // computed sequentially.
    Phase Closed = Run.run(In.Closed, 0);
    std::vector<double> SeqSec;
    for (int Rep = 0; Rep < 21; ++Rep) {
      WallTimer T;
      uint64_t Acc = 0;
      for (const Arrival &A : In.Closed)
        Acc += sequential(A.Kind);
      SeqSec.push_back(T.elapsedSeconds());
      SeqSink = Acc;
    }
    // Every closed-loop statistic is a median over windows of
    // ClosedWindow sessions, so one burst of host noise moves one window.
    std::vector<double> ClosedSec, WindowRate;
    for (double Ms : Closed.LatMs)
      ClosedSec.push_back(Ms * 1e-3);
    for (size_t B = 0; B + ClosedWindow <= ClosedSec.size(); B += ClosedWindow)
      WindowRate.push_back(
          static_cast<double>(ClosedWindow) /
          sum({ClosedSec.begin() + B, ClosedSec.begin() + B + ClosedWindow}));
    const double JobSec = windowedQuantile(ClosedSec, ClosedWindow, 0.5);
    R.set("job_s", JobSec);
    R.set("job_tail_s", windowedTail(ClosedSec, ClosedWindow));
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "job_tail_s has ten sessions above it in each %zu-session "
                  "window; lower quartile over %zu windows",
                  ClosedWindow, WindowRate.size());
    R.note(Buf);
    const double SeqPerSession =
        median(SeqSec) / static_cast<double>(In.Closed.size());
    R.set("vs_seq", JobSec / SeqPerSession);
    R.set("records_per_s", WindowRate.empty() ? 1.0 / JobSec
                                              : median(WindowRate));

    Phase Low = Run.run(In.Low, LowRate);
    Phase High = Run.run(In.High, HighRate);
    note(R, "low_rate", Low);
    note(R, "high_rate", High);
    R.set("p50_ms.low_rate", Low.latency(0.5));
    R.set("p99_ms.low_rate", Low.latency(0.99));
    R.set("p50_ms.high_rate", High.latency(0.5));
    R.set("p99_ms.high_rate", High.latency(0.99));

    // The ladder: climb until two rungs in a row miss the limit.
    double Sustained = 0;
    unsigned Misses = 0;
    for (size_t I = 0; I < In.Rungs.size() && Misses < 2; ++I) {
      Phase P = Run.run(In.Rungs[I], Ladder[I]);
      note(R, "ladder", P);
      if (P.sustained()) {
        Sustained = Ladder[I];
        Misses = 0;
      } else {
        ++Misses;
      }
    }
    R.set("sustained_sps", Sustained);
    R.set("setup_s", median(SetupSec));
    H.addSeries("closed_loop_session", ClosedSec);
    std::vector<double> LowSec, HighSec;
    for (double Ms : Low.LatMs)
      LowSec.push_back(Ms * 1e-3);
    for (double Ms : High.LatMs)
      HighSec.push_back(Ms * 1e-3);
    H.addSeries("latency_low_rate", LowSec);
    H.addSeries("latency_high_rate", HighSec);
    H.recordStats(RT->scheduler().stats());
    return R;
  }

  // Traced run: counts and generator health from plain fixed-rate
  // phases, then the same phases traced.
  SchedulerStats S0 = RT->scheduler().stats();
  CounterProbe Probe;
  Phase Low = Run.run(In.Low, LowRate);
  Phase High = Run.run(In.High, HighRate);
  LayerCounters C = Probe.stop(RT->scheduler().stats() - S0);
  const double PerK =
      static_cast<double>(Low.LatMs.size() + High.LatMs.size()) / 1000.0;
  setLayerCounts(R, C, PerK);
  H.recordStats(C.Sched);
  std::vector<double> Late = Low.LateMs;
  Late.insert(Late.end(), High.LateMs.begin(), High.LateMs.end());
  std::vector<double> Submit = Low.SubmitUs;
  Submit.insert(Submit.end(), High.SubmitUs.begin(), High.SubmitUs.end());
  R.set("service.runtime_start_ms", median(StartMs));
  R.set("service.submit_us", sum(Submit) / static_cast<double>(Submit.size()));
  R.set("loadgen.late_ms.p99", quantile(Late, 0.99));
  R.set("loadgen.late_ms.max", quantile(Late, 1.0));
  R.set("loadgen.backlog_ratio.low_rate", Low.backlogRatio());
  R.set("loadgen.backlog_ratio.high_rate", High.backlogRatio());
  note(R, "low_rate", Low);
  note(R, "high_rate", High);

  trace::setEnabled(true);
  Phase TLow = Run.run(In.Low, LowRate);
  Phase THigh = Run.run(In.High, HighRate);
  trace::setEnabled(false);
  note(R, "traced", TLow);
  note(R, "traced", THigh);
  trace::Summary Sum = trace::summarize();
  std::vector<double> Admit = TLow.AdmitMs, Fin = TLow.FinalizeMs,
                      BodyMs = TLow.BodyMs;
  Admit.insert(Admit.end(), THigh.AdmitMs.begin(), THigh.AdmitMs.end());
  Fin.insert(Fin.end(), THigh.FinalizeMs.begin(), THigh.FinalizeMs.end());
  BodyMs.insert(BodyMs.end(), THigh.BodyMs.begin(), THigh.BodyMs.end());
  R.set("service.admit_wait_ms.p50", median(Admit));
  R.set("service.admit_wait_ms.p99", quantile(Admit, 0.99));
  R.set("service.body_ms", median(BodyMs));
  R.set("service.finalize_ms.p50", median(Fin));
  R.set("service.finalize_ms.p99", quantile(Fin, 0.99));
  R.set("core.fork_ns", Sum.meanNanos(Name::CoreFork));
  R.set("core.ivar_get_wait_us", Sum.meanNanos(Name::CoreIVarGetWait) * 1e-3);
  R.set("data.iset_insert_ns", Sum.meanNanos(Name::DataISetInsert));
  R.set("data.waitsize_wait_us", Sum.meanNanos(Name::DataWaitSizeWait) * 1e-3);
  R.set("trace.overhead", TLow.latency(0.5) / Low.latency(0.5) - 1);
  return R;
}

} // namespace perfbench
} // namespace lvish
