//===- Trace.cpp - Benchmark-side span recorder ----------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Trace.h"

#include "src/obs/Json.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace lvish {
namespace perfbench {
namespace trace {

namespace {

const char *const Names[NumNames] = {
    "graph.job",
    "stream.job",
    "service.session",
    "pbbs.bfs",
    "pbbs.bfs_seq",
    "pbbs.components",
    "pbbs.components_seq",
    "pbbs.forest",
    "pbbs.forest_seq",
    "stream.etl",
    "stream.wordcount",
    "stream.seq",
    "stream.etl.root",
    "stream.etl.feed",
    "stream.etl.parse",
    "stream.wordcount.root",
    "stream.wordcount.feed",
    "stream.wordcount.tokenize",
    "loadgen.late",
    "service.submit",
    "service.admit_wait",
    "service.body",
    "service.finalize",
    "service.wait",
    "bench.check",
    "core.fork",
    "core.ivar_put",
    "core.ivar_get_wait",
    "data.iset_insert",
    "data.waitsize_wait",
    "data.stream_put",
    "data.stream_get_wait",
    "data.advance",
    "data.imap_insert",
    "data.counter_bump",
    "data.counter_wait",
    "data.freeze",
};

/// Stored full spans beyond this many are counted as dropped; leaf
/// intervals beyond MaxLeaves are summed but not kept.
constexpr uint64_t MaxFull = 600'000;
constexpr uint64_t MaxLeaves = 20'000;
/// The chrome://tracing file keeps the earliest this many events.
constexpr size_t MaxWritten = 120'000;

struct SpanRec {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Group = 0;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Covered = 0;
  Name N = Name::Count_;
  bool Sync = false;
  uint32_t Tid = 0;
};

struct ThreadBuf {
  uint32_t Tid = 0;
  std::vector<SpanRec> Full;
  std::vector<SpanRec> Leaves;
  uint64_t LeafCount[NumNames] = {};
  uint64_t LeafNanos[NumNames] = {};
};

/// One buffer per recording thread, claimed on first use. Each buffer is
/// written only by its owner; readers run once the recorded work has
/// quiesced, ordered after it by the runtime's completion handshake.
constexpr unsigned MaxThreads = 512;
ThreadBuf Bufs[MaxThreads];
std::atomic<unsigned> NumBufs{0};
std::atomic<uint64_t> NextId{1};
std::atomic<uint64_t> StoredFull{0};
std::atomic<uint64_t> StoredLeaves{0};
std::atomic<uint64_t> Dropped{0};

/// This thread's buffer, or null once MaxThreads threads have recorded.
ThreadBuf *myBuf() {
  thread_local ThreadBuf *Mine = nullptr;
  if (!Mine) {
    unsigned I = NumBufs.fetch_add(1, std::memory_order_relaxed);
    if (I >= MaxThreads)
      return nullptr;
    Mine = &Bufs[I];
    Mine->Tid = I + 1;
  }
  return Mine;
}

/// The buffers claimed so far (call only once recording has quiesced).
unsigned claimedBufs() { return std::min(NumBufs.load(), MaxThreads); }

bool isRoot(Name N) {
  return N == Name::GraphJob || N == Name::StreamJob ||
         N == Name::ServiceSession;
}

/// Total length of the union of \p Iv clipped to [Lo, Hi].
uint64_t unionLength(std::vector<std::pair<uint64_t, uint64_t>> &Iv,
                     uint64_t Lo, uint64_t Hi) {
  std::sort(Iv.begin(), Iv.end());
  uint64_t Total = 0, CurLo = 0, CurHi = 0;
  bool Open = false;
  for (auto [A, B] : Iv) {
    A = std::max(A, Lo);
    B = std::min(B, Hi);
    if (A >= B)
      continue;
    if (Open && A <= CurHi) {
      CurHi = std::max(CurHi, B);
      continue;
    }
    if (Open)
      Total += CurHi - CurLo;
    CurLo = A;
    CurHi = B;
    Open = true;
  }
  if (Open)
    Total += CurHi - CurLo;
  return Total;
}

/// Every stored full span, all threads (call only once recording work
/// has quiesced).
std::vector<SpanRec> allFull() {
  std::vector<SpanRec> Out;
  for (unsigned I = 0; I < claimedBufs(); ++I)
    Out.insert(Out.end(), Bufs[I].Full.begin(), Bufs[I].Full.end());
  return Out;
}

} // namespace

std::atomic<bool> Enabled{false};

const char *nameOf(Name N) { return Names[static_cast<unsigned>(N)]; }

void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

void reset() {
  for (unsigned I = 0; I < claimedBufs(); ++I) {
    ThreadBuf &B = Bufs[I];
    B.Full.clear();
    B.Leaves.clear();
    std::fill(std::begin(B.LeafCount), std::end(B.LeafCount), 0);
    std::fill(std::begin(B.LeafNanos), std::end(B.LeafNanos), 0);
  }
  StoredFull = 0;
  StoredLeaves = 0;
  Dropped = 0;
}

uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

void span(Name N, uint64_t Id, uint64_t Parent, uint64_t Group,
          uint64_t Start, uint64_t End, bool Sync, uint64_t Covered) {
  if (!Start)
    return;
  ThreadBuf *B = myBuf();
  if (!B || StoredFull.fetch_add(1, std::memory_order_relaxed) >= MaxFull) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRec R;
  R.Id = Id;
  R.Parent = Parent;
  R.Group = Group;
  R.Start = Start;
  R.End = std::max(Start, End);
  R.Covered = Covered;
  R.N = N;
  R.Sync = Sync;
  R.Tid = B->Tid;
  B->Full.push_back(R);
}

Body Body::open(Name N, uint64_t Parent, uint64_t Group, bool Sync) {
  Body B;
  B.N = N;
  B.Parent = Parent;
  B.Group = Group;
  B.Sync = Sync;
  B.Start = start();
  if (B.Start)
    B.Id = newId();
  return B;
}

void Body::leaf(Name Op, uint64_t T0) {
  if (!T0)
    return;
  uint64_t T1 = nowNanos();
  uint64_t D = T1 - T0;
  Covered += D;
  ThreadBuf *Buf = myBuf();
  if (!Buf) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuf &B = *Buf;
  unsigned I = static_cast<unsigned>(Op);
  ++B.LeafCount[I];
  B.LeafNanos[I] += D;
  if (StoredLeaves.fetch_add(1, std::memory_order_relaxed) < MaxLeaves) {
    SpanRec R;
    R.Parent = Id;
    R.Group = Group;
    R.Start = T0;
    R.End = T1;
    R.N = Op;
    R.Sync = true;
    R.Tid = B.Tid;
    B.Leaves.push_back(R);
  }
}

void Body::close() {
  if (Id)
    span(N, Id, Parent, Group, Start, nowNanos(), Sync, Covered);
}

double Summary::meanNanos(Name N) const {
  const NameStats &S = PerName[static_cast<unsigned>(N)];
  return S.Count ? static_cast<double>(S.TotalNanos) /
                       static_cast<double>(S.Count)
                 : 0.0;
}

std::vector<std::string> Summary::topSelf(unsigned K) const {
  uint64_t Total = 0;
  std::vector<std::pair<uint64_t, unsigned>> Order;
  for (unsigned I = 0; I < NumNames; ++I) {
    Total += PerName[I].SelfNanos;
    if (!isRoot(static_cast<Name>(I)) && PerName[I].SelfNanos)
      Order.emplace_back(PerName[I].SelfNanos, I);
  }
  std::sort(Order.rbegin(), Order.rend());
  std::vector<std::string> Out;
  for (unsigned I = 0; I < K && I < Order.size(); ++I) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%s %.1f%%", Names[Order[I].second],
                  Total ? 100.0 * static_cast<double>(Order[I].first) /
                              static_cast<double>(Total)
                        : 0.0);
    Out.emplace_back(Buf);
  }
  return Out;
}

Summary summarize() {
  Summary S;
  std::vector<SpanRec> Full = allFull();
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      SyncKids;
  for (const SpanRec &R : Full)
    if (R.Sync && R.Parent)
      SyncKids[R.Parent].emplace_back(R.Start, R.End);
  uint64_t RootWall = 0, RootCovered = 0;
  for (const SpanRec &R : Full) {
    uint64_t Dur = R.End - R.Start;
    uint64_t Covered = R.Covered;
    if (auto It = SyncKids.find(R.Id); It != SyncKids.end())
      Covered += unionLength(It->second, R.Start, R.End);
    Covered = std::min(Covered, Dur);
    NameStats &NS = S.PerName[static_cast<unsigned>(R.N)];
    ++NS.Count;
    NS.TotalNanos += Dur;
    NS.SelfNanos += Dur - Covered;
    if (!R.Parent) {
      ++S.RootSpans;
      RootWall += Dur;
      RootCovered += Covered;
    }
  }
  for (unsigned B = 0; B < claimedBufs(); ++B)
    for (unsigned I = 0; I < NumNames; ++I) {
      S.PerName[I].Count += Bufs[B].LeafCount[I];
      S.PerName[I].TotalNanos += Bufs[B].LeafNanos[I];
      S.PerName[I].SelfNanos += Bufs[B].LeafNanos[I];
    }
  S.CoveredShare = RootWall ? static_cast<double>(RootCovered) /
                                  static_cast<double>(RootWall)
                            : 0.0;
  S.DroppedSpans = Dropped.load();
  return S;
}

bool writeChromeTrace(const std::string &Path) {
  std::vector<SpanRec> Events = allFull();
  for (unsigned I = 0; I < claimedBufs(); ++I)
    Events.insert(Events.end(), Bufs[I].Leaves.begin(), Bufs[I].Leaves.end());
  std::sort(Events.begin(), Events.end(),
            [](const SpanRec &A, const SpanRec &B) { return A.Start < B.Start; });
  if (Events.size() > MaxWritten)
    Events.resize(MaxWritten);
  const uint64_t Base = Events.empty() ? 0 : Events.front().Start;
  obs::JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("traceEvents");
  W.beginArray();
  for (const SpanRec &R : Events) {
    W.beginObject();
    W.key("name");
    W.value(nameOf(R.N));
    W.key("cat");
    W.value(R.Id ? "span" : "leaf");
    W.key("ph");
    W.value("X");
    W.key("ts");
    W.value(static_cast<double>(R.Start - Base) * 1e-3);
    W.key("dur");
    W.value(static_cast<double>(R.End - R.Start) * 1e-3);
    W.key("pid");
    W.value(uint64_t{1});
    W.key("tid");
    W.value(uint64_t{R.Tid});
    W.key("args");
    W.beginObject();
    W.key("id");
    W.value(R.Id);
    W.key("parent");
    W.value(R.Parent);
    W.key("group");
    W.value(R.Group);
    W.key("sync");
    W.value(R.Sync);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::string &Doc = W.str();
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}

} // namespace trace
} // namespace perfbench
} // namespace lvish
