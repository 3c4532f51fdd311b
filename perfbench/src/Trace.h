//===- Trace.h - Benchmark-side span recorder -------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the benchmark's own calls into each layer (the
/// library itself is not instrumented). Two kinds:
///
///  * full spans - jobs, sessions, session phases, pipeline stage bodies,
///    PBBS calls. Each has an id, a parent id, a group id shared by every
///    span of one job or session, a start and an end. A span is either a
///    *sync* child (its parent waited for it, so it covers part of the
///    parent's interval) or a *lane* (a forked body running beside its
///    parent; linked for causality, but it covers nothing of the parent).
///
///  * leaf spans - single LVar operations (put, get, advance, insert,
///    waitSize, fork) inside a body. They are summed per name and into
///    the enclosing body's covered time; only the first few thousand are
///    kept as intervals for the chrome://tracing file.
///
/// Self time of a full span = its duration minus what its leaf operations
/// and sync children cover. Recording is off unless setEnabled(true): an
/// untraced run pays one predictable branch per instrumented call.
///
/// Buffers are per thread (claimed once, with one atomic increment) and
/// read only after the recorded work has quiesced.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PERFBENCH_TRACE_H
#define LVISH_PERFBENCH_TRACE_H

#include "src/support/Timer.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lvish {
namespace perfbench {
namespace trace {

/// Every span name the benchmark records. Layer prefixes follow the
/// module names (service, sched, core, data, pbbs, stream).
enum class Name : uint16_t {
  // Roots.
  GraphJob,
  StreamJob,
  ServiceSession,
  // Graph calls.
  PbbsBfs,
  PbbsBfsSeq,
  PbbsComponents,
  PbbsComponentsSeq,
  PbbsForest,
  PbbsForestSeq,
  // Stream calls and stage bodies.
  StreamEtl,
  StreamWordcount,
  StreamSeq,
  EtlRoot,
  EtlFeed,
  EtlParse,
  WcRoot,
  WcFeed,
  WcTokenize,
  // Service session phases.
  LoadgenLate,
  ServiceSubmit,
  ServiceAdmitWait,
  ServiceBody,
  ServiceFinalize,
  ServiceWait, // Blocking get() of a closed-loop session.
  // The benchmark's own output checks.
  BenchCheck,
  // Leaf operations.
  CoreFork,
  CoreIVarPut,
  CoreIVarGetWait,
  DataISetInsert,
  DataWaitSizeWait,
  DataStreamPut,
  DataStreamGetWait,
  DataAdvance,
  DataIMapInsert,
  DataCounterBump,
  DataCounterWait,
  DataFreeze,
  Count_
};
inline constexpr unsigned NumNames = static_cast<unsigned>(Name::Count_);
const char *nameOf(Name N);

/// True while spans are being recorded.
extern std::atomic<bool> Enabled;
inline bool enabled() { return Enabled.load(std::memory_order_relaxed); }
void setEnabled(bool On);
/// Drops every recorded span and leaf statistic.
void reset();

/// Fresh span id (never 0).
uint64_t newId();

/// Timestamp for a span start: nowNanos() while tracing, else 0 (which
/// every recording call below treats as "not traced").
inline uint64_t start() { return enabled() ? nowNanos() : 0; }

/// Records a full span [Start, End]. \p Covered is leaf time inside it.
void span(Name N, uint64_t Id, uint64_t Parent, uint64_t Group,
          uint64_t Start, uint64_t End, bool Sync, uint64_t Covered = 0);

/// A body being recorded as a full span: leaf operations inside it add
/// to its covered time. A Body with Id 0 (an untraced or unspanned lane)
/// still feeds the per-name leaf statistics.
struct Body {
  Name N = Name::Count_;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Group = 0;
  uint64_t Start = 0;
  uint64_t Covered = 0;
  bool Sync = false;

  /// Opens a body span under \p Parent when tracing is on.
  static Body open(Name N, uint64_t Parent, uint64_t Group, bool Sync);
  /// Records a leaf operation that began at \p T0 (from start()).
  void leaf(Name Op, uint64_t T0);
  /// Closes the body span (no-op when it was not opened).
  void close();
};

/// Per-name totals over full and leaf spans.
struct NameStats {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
};

/// Attribution of everything recorded since reset().
struct Summary {
  NameStats PerName[NumNames];
  /// Share of root-span (job/session) wall time covered by child spans.
  double CoveredShare = 0;
  uint64_t RootSpans = 0;
  uint64_t DroppedSpans = 0;
  /// Mean duration of \p N in nanoseconds (0 when never recorded).
  double meanNanos(Name N) const;
  /// The \p K names with the most self time, roots excluded, as
  /// "name share%" strings.
  std::vector<std::string> topSelf(unsigned K) const;
};
Summary summarize();

/// Writes the stored spans as a chrome://tracing JSON document.
bool writeChromeTrace(const std::string &Path);

} // namespace trace
} // namespace perfbench
} // namespace lvish

#endif // LVISH_PERFBENCH_TRACE_H
