//===- Stream.cpp - The `stream` workload: BoundedStream pipelines ---------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One job = the log-ETL pipeline (feed -> parse/filter -> aggregate over
/// two BoundedStreams) and the word-count pipeline (feed -> strided
/// tokenizers, one per worker, folding into an IMap and a CounterVec),
/// each one session on a long-lived 2-worker service::Runtime, plus a
/// sequential fold of the same lines. The pipeline bodies are the
/// benchmark's own, so every put/get/advance/insert/fork in them is timed
/// when tracing.
///
/// ETL is park- and steal-bound (backpressure parks, steal attempts);
/// word count is join-bound (duplicate IMap inserts are no-op joins).
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Batch.h"
#include "perfbench/src/Trace.h"

#include "bench/BenchHarness.h"

#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/Stream.h"
#include "src/service/Runtime.h"
#include "src/support/Hashing.h"
#include "src/support/SplitMix.h"
#include "src/support/Timer.h"

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
constexpr EffectSet IOE = Eff::FullIO;
/// Two workers, not four. The pipelines hand every few records from one
/// worker to another, and an idle worker spins (yields) before it
/// sleeps, so four workers keep about 2.4 CPUs busy for little work. On a
/// shared virtual machine whose host grants it less than that, the
/// pipeline's critical path waits for CPU: under a 1.5-CPU budget a job
/// ran 1.9x slower with four workers and 8-20% slower with two.
constexpr unsigned Workers = 2;
constexpr uint32_t NumServices = 32;
constexpr uint32_t SentinelSvc = ~0u;
constexpr uint64_t Vocab = 1000;

struct StreamInputs {
  std::vector<std::string> EtlLines;
  std::vector<std::string> WcLines;
};

/// "svc<k> <status> <bytes>" access-log lines, ~25% errors.
std::vector<std::string> makeEtlLines(uint64_t Seed, uint64_t N) {
  SplitMix64 Rng(Seed);
  std::vector<std::string> Lines;
  Lines.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t Svc = static_cast<uint32_t>(Rng.nextBounded(NumServices));
    uint32_t Status = 200;
    uint64_t Roll = Rng.nextBounded(8);
    if (Roll == 0)
      Status = 404;
    else if (Roll == 1)
      Status = 503;
    uint64_t Bytes = 64 + Rng.nextBounded(4000);
    Lines.push_back("svc" + std::to_string(Svc) + " " +
                    std::to_string(Status) + " " + std::to_string(Bytes));
  }
  return Lines;
}

/// Lines of 6-12 words "w<k>" drawn with a skew toward small k.
std::vector<std::string> makeWcLines(uint64_t Seed, uint64_t N) {
  SplitMix64 Rng(Seed);
  std::vector<std::string> Lines;
  Lines.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Words = 6 + Rng.nextBounded(7);
    std::string L;
    for (uint64_t W = 0; W < Words; ++W) {
      uint64_t U = Rng.nextBounded(Vocab);
      if (W)
        L += ' ';
      L += 'w';
      L += std::to_string((U * U) / Vocab);
    }
    Lines.push_back(std::move(L));
  }
  return Lines;
}

StreamInputs makeInputs(const Options &O) {
  StreamInputs In;
  In.EtlLines = makeEtlLines(O.Seed, O.pick<uint64_t>(120'000, 3'000));
  In.WcLines = makeWcLines(O.Seed ^ 0x776f7264ULL, O.pick<uint64_t>(40'000, 1'000));
  return In;
}

struct Record {
  uint32_t Svc = 0;
  uint32_t Status = 0;
  uint64_t Bytes = 0;
};

Record parseLine(const std::string &L) {
  Record R;
  size_t At = 3; // Skip "svc".
  while (At < L.size() && L[At] != ' ')
    R.Svc = R.Svc * 10 + static_cast<uint32_t>(L[At++] - '0');
  ++At;
  while (At < L.size() && L[At] != ' ')
    R.Status = R.Status * 10 + static_cast<uint32_t>(L[At++] - '0');
  ++At;
  while (At < L.size())
    R.Bytes = R.Bytes * 10 + static_cast<uint64_t>(L[At++] - '0');
  return R;
}

uint64_t slotOf(const std::string &L, size_t Begin, size_t End) {
  uint64_t Idx = 0;
  for (size_t At = Begin + 1; At < End; ++At)
    Idx = Idx * 10 + static_cast<uint64_t>(L[At] - '0');
  return Idx;
}

struct EtlResult {
  uint64_t ErrorRecords = 0;
  uint64_t Checksum = 0; ///< Sum over services of Svc * errorBytes(Svc).
  bool operator==(const EtlResult &) const = default;
};

struct WcResult {
  uint64_t TotalWords = 0;
  uint64_t DistinctWords = 0;
  uint64_t Checksum = 0; ///< Sum of slot * count.
  bool operator==(const WcResult &) const = default;
};

EtlResult etlSeq(const std::vector<std::string> &Lines) {
  uint64_t PerSvc[NumServices] = {};
  EtlResult R;
  for (const std::string &L : Lines) {
    Record Rec = parseLine(L);
    if (Rec.Status >= 400) {
      PerSvc[Rec.Svc] += Rec.Bytes;
      ++R.ErrorRecords;
    }
  }
  for (uint32_t S = 0; S < NumServices; ++S)
    R.Checksum += S * PerSvc[S];
  return R;
}

WcResult wcSeq(const std::vector<std::string> &Lines) {
  std::vector<uint64_t> Counts(Vocab, 0);
  std::unordered_set<std::string> Seen;
  for (const std::string &L : Lines) {
    size_t Begin = 0;
    while (Begin < L.size()) {
      size_t End = L.find(' ', Begin);
      if (End == std::string::npos)
        End = L.size();
      ++Counts[slotOf(L, Begin, End)];
      Seen.insert(L.substr(Begin, End - Begin));
      Begin = End + 1;
    }
  }
  WcResult R;
  for (uint64_t S = 0; S < Vocab; ++S) {
    R.TotalWords += Counts[S];
    R.Checksum += S * Counts[S];
  }
  R.DistinctWords = Seen.size();
  return R;
}

/// Root-body timestamps of one session, for the admission / finalize
/// split of the blocking Runtime::run call.
struct RootTimes {
  uint64_t Start = 0;
  uint64_t End = 0;
};

/// The ETL pipeline as one session body. \p Parent / \p Group place its
/// spans under the job.
auto etlBody(const std::vector<std::string> *In, uint64_t Capacity,
             uint64_t Parent, uint64_t Group, RootTimes *Times) {
  return [=](ParCtx<D> Ctx) -> Par<uint64_t> {
    Body Root = Body::open(Name::EtlRoot, Parent, Group, /*Sync=*/true);
    Times->Start = Root.Start;
    auto Raw = newBoundedStream<std::string>(Ctx, Capacity);
    auto Errors = newBoundedStream<Record>(Ctx, Capacity);
    const uint64_t N = In->size();
    const uint64_t RootId = Root.Id;
    // Stage 1: feed. The only writer of Raw.
    auto Feed = [In, Raw, N, RootId, Group](ParCtx<D> C) -> Par<void> {
      Body B = Body::open(Name::EtlFeed, RootId, Group, /*Sync=*/false);
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t T = trace::start();
        auto Pw = put(C, *Raw, I, (*In)[I]);
        co_await Pw;
        B.leaf(Name::DataStreamPut, T);
      }
      B.close();
    };
    // Stage 2: parse and filter Raw into Errors, closed by a sentinel.
    auto Parse = [Raw, Errors, N, RootId, Group](ParCtx<D> C) -> Par<void> {
      Body B = Body::open(Name::EtlParse, RootId, Group, /*Sync=*/false);
      uint64_t Out = 0;
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t T = trace::start();
        auto Gw = get(C, *Raw, I + 1);
        const std::string &L = co_await Gw;
        B.leaf(Name::DataStreamGetWait, T);
        Record R = parseLine(L);
        T = trace::start();
        advance(C, *Raw, I + 1);
        B.leaf(Name::DataAdvance, T);
        if (R.Status >= 400) {
          T = trace::start();
          auto Pw = put(C, *Errors, Out, R);
          co_await Pw;
          B.leaf(Name::DataStreamPut, T);
          ++Out;
        }
      }
      Record End;
      End.Svc = SentinelSvc;
      uint64_t T = trace::start();
      auto Pw = put(C, *Errors, Out, End);
      co_await Pw;
      B.leaf(Name::DataStreamPut, T);
      B.close();
    };
    uint64_t T = trace::start();
    fork(Ctx, Feed);
    Root.leaf(Name::CoreFork, T);
    T = trace::start();
    fork(Ctx, Parse);
    Root.leaf(Name::CoreFork, T);
    // Stage 3 (root): aggregate error bytes per service.
    uint64_t PerSvc[NumServices] = {};
    uint64_t Count = 0;
    for (uint64_t I = 0;; ++I) {
      T = trace::start();
      auto Gw = get(Ctx, *Errors, I + 1);
      Record R = co_await Gw;
      Root.leaf(Name::DataStreamGetWait, T);
      T = trace::start();
      advance(Ctx, *Errors, I + 1);
      Root.leaf(Name::DataAdvance, T);
      if (R.Svc == SentinelSvc)
        break;
      PerSvc[R.Svc] += R.Bytes;
      ++Count;
    }
    uint64_t Sum = 0;
    for (uint32_t S = 0; S < NumServices; ++S)
      Sum += S * PerSvc[S];
    Root.close();
    Times->End = trace::start();
    co_return (Count << 40) ^ Sum;
  };
}

/// The word-count pipeline as one session body; results land in \p Out.
auto wcBody(const std::vector<std::string> *In, uint64_t Capacity,
            uint64_t Parent, uint64_t Group, RootTimes *Times, WcResult *Out) {
  return [=](ParCtx<IOE> Ctx) -> Par<uint64_t> {
    Body Root = Body::open(Name::WcRoot, Parent, Group, /*Sync=*/true);
    Times->Start = Root.Start;
    auto Text = newBoundedStream<std::string>(Ctx, Capacity);
    auto Slots = newEmptyMap<std::string, uint64_t>(Ctx);
    auto Counts = newCounterVec(Ctx, Vocab);
    auto Done = newCounter(Ctx);
    const uint64_t N = In->size();
    const uint64_t RootId = Root.Id;
    auto Feed = [In, Text, N, RootId, Group](ParCtx<IOE> C) -> Par<void> {
      Body B = Body::open(Name::WcFeed, RootId, Group, /*Sync=*/false);
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t T = trace::start();
        auto Pw = put(C, *Text, I, (*In)[I]);
        co_await Pw;
        B.leaf(Name::DataStreamPut, T);
      }
      B.close();
    };
    uint64_t T = trace::start();
    fork(Ctx, Feed);
    Root.leaf(Name::CoreFork, T);
    for (unsigned W = 0; W < Workers; ++W) {
      auto Tokenize = [Text, Slots, Counts, Done, N, W, RootId,
                       Group](ParCtx<IOE> C) -> Par<void> {
        Body B = Body::open(Name::WcTokenize, RootId, Group, /*Sync=*/false);
        for (uint64_t I = W; I < N; I += Workers) {
          uint64_t T = trace::start();
          auto Gw = get(C, *Text, I + 1);
          const std::string &L = co_await Gw;
          B.leaf(Name::DataStreamGetWait, T);
          size_t Begin = 0;
          while (Begin < L.size()) {
            size_t End = L.find(' ', Begin);
            if (End == std::string::npos)
              End = L.size();
            uint64_t Slot = slotOf(L, Begin, End);
            T = trace::start();
            insert(C, *Slots, L.substr(Begin, End - Begin), Slot);
            B.leaf(Name::DataIMapInsert, T);
            T = trace::start();
            incrCounterAt(C, *Counts, Slot);
            B.leaf(Name::DataCounterBump, T);
            Begin = End + 1;
          }
          // Strided consumers advance out of order; the credit mark is a
          // lub, so it only grows.
          T = trace::start();
          advance(C, *Text, I + 1);
          B.leaf(Name::DataAdvance, T);
          T = trace::start();
          incrCounter(C, *Done, 1);
          B.leaf(Name::DataCounterBump, T);
        }
        B.close();
      };
      T = trace::start();
      fork(Ctx, Tokenize);
      Root.leaf(Name::CoreFork, T);
    }
    T = trace::start();
    auto Gw = get(Ctx, *Done, N); // Every line tokenized.
    co_await Gw;
    Root.leaf(Name::DataCounterWait, T);
    T = trace::start();
    auto Totals = freezeCounterVec(Ctx, *Counts);
    auto Bound = freezeMap(Ctx, *Slots);
    Root.leaf(Name::DataFreeze, T);
    WcResult R;
    for (uint64_t S = 0; S < Vocab; ++S) {
      R.TotalWords += Totals[S];
      R.Checksum += S * Totals[S];
    }
    R.DistinctWords = Bound.size();
    *Out = R;
    Root.close();
    Times->End = trace::start();
    co_return R.TotalWords;
  };
}

struct StreamRun {
  const Options &O;
  const StreamInputs &In;
  service::Runtime &RT;
  RunResult &R;
  std::vector<double> EtlSec, WcSec, SeqSec, AdmitMs, FinalizeMs;
  LayerCounters Total;

  /// Records the admission (call -> root body) and finalize (root body
  /// end -> call returns) split of one blocking session.
  void split(uint64_t T0, const RootTimes &RootT, uint64_t T1) {
    if (!RootT.Start || !RootT.End)
      return;
    AdmitMs.push_back(static_cast<double>(RootT.Start - T0) * 1e-6);
    FinalizeMs.push_back(static_cast<double>(T1 - RootT.End) * 1e-6);
  }

  BatchJob job(uint64_t Job) {
    const uint64_t JobSpan = trace::newId();
    const uint64_t J0 = trace::start();
    BatchJob B;

    SchedulerStats EtlSt, WcSt;
    CounterProbe Probe;
    // ETL session.
    RootTimes EtlT;
    const uint64_t EtlSpan = trace::newId();
    uint64_t T0 = nowNanos();
    auto EtlO = RT.run<D>(etlBody(&In.EtlLines, 1024, EtlSpan, Job, &EtlT),
                          service::SessionOptions{.StatsOut = &EtlSt});
    uint64_t T1 = nowNanos();
    trace::span(Name::StreamEtl, EtlSpan, JobSpan, Job,
                trace::enabled() ? T0 : 0, T1, /*Sync=*/true);
    split(T0, EtlT, T1);
    EtlSec.push_back(static_cast<double>(T1 - T0) * 1e-9);
    // Word-count session.
    RootTimes WcT;
    WcResult Wc;
    const uint64_t WcSpan = trace::newId();
    T0 = nowNanos();
    auto WcO = RT.runIO<IOE>(wcBody(&In.WcLines, 512, WcSpan, Job, &WcT, &Wc),
                             service::SessionOptions{.StatsOut = &WcSt});
    T1 = nowNanos();
    trace::span(Name::StreamWordcount, WcSpan, JobSpan, Job,
                trace::enabled() ? T0 : 0, T1, /*Sync=*/true);
    split(T0, WcT, T1);
    WcSec.push_back(static_cast<double>(T1 - T0) * 1e-9);
    SchedulerStats Both = EtlSt;
    Both += WcSt;
    Total += Probe.stop(Both);

    // Sequential fold of the same lines.
    T0 = nowNanos();
    EtlResult EtlRef = etlSeq(In.EtlLines);
    WcResult WcRef = wcSeq(In.WcLines);
    T1 = nowNanos();
    trace::span(Name::StreamSeq, trace::newId(), JobSpan, Job,
                trace::enabled() ? T0 : 0, T1, /*Sync=*/true);
    SeqSec.push_back(static_cast<double>(T1 - T0) * 1e-9);

    // Correctness gate: faults and mismatches both count as failures.
    uint64_t C0 = trace::start();
    EtlResult Etl;
    if (EtlO.ok()) {
      Etl.ErrorRecords = EtlO.value() >> 40;
      Etl.Checksum = EtlO.value() & ((uint64_t{1} << 40) - 1);
    } else {
      R.note("stream: ETL session faulted: " + EtlO.fault().Message);
    }
    if (!WcO.ok())
      R.note("stream: word-count session faulted: " + WcO.fault().Message);
    if (O.PerturbOutput)
      Wc.Checksum += 1;
    R.check(EtlO.ok() && Etl == EtlRef,
            "stream: ETL error count / checksum != sequential fold",
            mix64(Etl.ErrorRecords) ^ Etl.Checksum);
    R.check(WcO.ok() && Wc == WcRef,
            "stream: word-count totals / checksum != sequential fold",
            mix64(mix64(Wc.TotalWords) ^ Wc.DistinctWords) ^ Wc.Checksum);
    trace::span(Name::BenchCheck, trace::newId(), JobSpan, Job, C0,
                nowNanos(), /*Sync=*/true);

    B.LvarSec = EtlSec.back() + WcSec.back();
    B.SeqSec = SeqSec.back();
    trace::span(Name::StreamJob, JobSpan, 0, Job, J0, nowNanos(),
                /*Sync=*/false);
    return B;
  }

  void reset() {
    EtlSec.clear();
    WcSec.clear();
    SeqSec.clear();
    AdmitMs.clear();
    FinalizeMs.clear();
    Total = LayerCounters();
  }
};

} // namespace

uint64_t streamInputFingerprint(const Options &O) {
  StreamInputs In = makeInputs(O);
  uint64_t H = 1;
  for (const auto *Lines : {&In.EtlLines, &In.WcLines})
    for (const std::string &L : *Lines)
      H = mix64(H ^ std::hash<std::string>()(L));
  return H;
}

RunResult runStream(const Options &O, bench::BenchHarness &H) {
  RunResult R;
  // Set-up: input generation plus Runtime construction, repeated so the
  // median is steady; the last Runtime serves the run.
  std::vector<double> SetupSec, StartMs;
  StreamInputs In;
  std::unique_ptr<service::Runtime> RT;
  for (int Rep = 0; Rep < 11; ++Rep) {
    RT.reset();
    WallTimer T;
    In = makeInputs(O);
    WallTimer TR;
    RT = std::make_unique<service::Runtime>(
        service::RuntimeConfig{.Sched = {.NumWorkers = Workers}});
    StartMs.push_back(TR.elapsedSeconds() * 1e3);
    SetupSec.push_back(T.elapsedSeconds());
  }
  StreamRun Run{O, In, *RT, R, {}, {}, {}, {}, {}, {}};
  auto Job = [&Run](uint64_t J) { return Run.job(J); };
  Run.job(~uint64_t{0}); // Warm-up.
  Run.reset();

  const double S = O.Seconds;
  const unsigned MinJobs = O.pick(3u, 1u);
  const double Records =
      static_cast<double>(In.EtlLines.size() + In.WcLines.size());
  if (!O.Trace) {
    BatchSamples B = runBatch(0.5 * S, 0.5 * S, O.pick(0.4, 0.02), MinJobs,
                              Job);
    setBatchEndToEnd(R, B, 2.0, Records, /*Window=*/10);
    addBatchSeries(H, B);
    R.set("setup_s", median(SetupSec));
    H.addSeries("etl_w" + std::to_string(Workers), Run.EtlSec);
    H.addSeries("wordcount_w" + std::to_string(Workers), Run.WcSec);
    H.addSeries("seq_fold", Run.SeqSec);
    H.recordStats(Run.Total.Sched);
    return R;
  }

  BatchSamples Plain = runBatch(0.5 * S, 0, 0, MinJobs, Job);
  const double Jobs = static_cast<double>(Run.EtlSec.size());
  setLayerCounts(R, Run.Total, Jobs);
  H.recordStats(Run.Total.Sched);
  R.set("stream.etl_s", median(Run.EtlSec));
  R.set("stream.wordcount_s", median(Run.WcSec));
  R.set("stream.seq_s", median(Run.SeqSec));
  R.set("service.runtime_start_ms", median(StartMs));
  Run.reset();
  trace::setEnabled(true);
  BatchSamples Traced = runBatch(0.5 * S, 0, 0, MinJobs, Job);
  trace::setEnabled(false);
  trace::Summary Sum = trace::summarize();
  R.set("service.admit_wait_ms.p50", median(Run.AdmitMs));
  R.set("service.admit_wait_ms.p99", quantile(Run.AdmitMs, 0.99));
  R.set("service.finalize_ms.p50", median(Run.FinalizeMs));
  R.set("service.finalize_ms.p99", quantile(Run.FinalizeMs, 0.99));
  R.set("core.fork_ns", Sum.meanNanos(Name::CoreFork));
  R.set("data.stream_put_us", Sum.meanNanos(Name::DataStreamPut) * 1e-3);
  R.set("data.stream_get_wait_us",
        Sum.meanNanos(Name::DataStreamGetWait) * 1e-3);
  R.set("data.advance_ns", Sum.meanNanos(Name::DataAdvance));
  R.set("data.imap_insert_ns", Sum.meanNanos(Name::DataIMapInsert));
  R.set("trace.overhead", median(Traced.LvarSec) / median(Plain.LvarSec) - 1);
  return R;
}

} // namespace perfbench
} // namespace lvish
