//===- Trace.h - Slice-level task-DAG trace recording -----------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optional recording of the dynamic computation DAG executed by the
/// scheduler, at the granularity of *slices*: maximal stretches of one
/// task's execution with no scheduling event inside. A slice ends when its
/// task parks, finishes, forks a child, or performs a put that wakes
/// another task - so every dependency in the recorded graph is a clean
/// "slice A completed before slice B started" edge:
///
///   * chain edges     - consecutive slices of one task;
///   * spawn edges     - the fork point precedes the child's first slice;
///   * wake edges      - the waking put precedes the blocked task's next
///                       slice.
///
/// The graph feeds the parallelism simulator (src/sim), which replays it
/// under P virtual workers to reproduce the paper's thread-scaling figures
/// on hardware with fewer cores than the authors' 12-core testbed (see
/// DESIGN.md, "Simulated hardware substitution"). Per-slice CPU time is
/// measured during a real run; per-slice memory traffic comes from
/// \c ParCtx::noteBytes annotations in the kernels.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_TRACE_H
#define LVISH_SCHED_TRACE_H

#include <cstdint>
#include <mutex>
#include <vector>

namespace lvish {

/// One recorded slice (a node of the replay DAG).
struct TraceSlice {
  uint32_t Task = 0;          ///< Owning task's trace id.
  uint64_t DurationNanos = 0; ///< Thread CPU time of this slice.
  uint64_t Bytes = 0;         ///< Announced memory traffic of this slice.
  /// Wall-clock start (nowNanos) of the slice; 0 when unknown (hand-built
  /// traces). Ignored by the simulator, consumed by the chrome://tracing
  /// exporter (src/obs/ChromeTrace.h).
  uint64_t StartNanos = 0;
};

/// A dependency edge between slices: Dst cannot start before Src ends.
struct TraceEdge {
  uint32_t Src;
  uint32_t Dst;
};

/// Thread-safe slice-level recorder. Enabled per Scheduler via
/// SchedulerConfig::EnableTracing; adds measurable overhead, so keep it
/// off outside DAG-capture runs.
class TraceRecorder {
public:
  static constexpr uint32_t None = ~0u;

  /// Registers a task; returns its trace id. \p ParentSlice is the
  /// spawning fork's slice (None for roots): it becomes a dependency of
  /// the task's first slice.
  uint32_t onTaskCreated(uint32_t ParentSlice) {
    std::lock_guard<std::mutex> Lock(Mutex);
    uint32_t Id = static_cast<uint32_t>(TaskPending.size());
    TaskPending.emplace_back();
    TaskLastSlice.push_back(None);
    if (ParentSlice != None)
      TaskPending[Id].push_back(ParentSlice);
    return Id;
  }

  /// Opens a new slice for \p TaskId; links it after the task's previous
  /// slice and any pending wake/spawn dependencies. Returns the slice id.
  uint32_t onSliceStart(uint32_t TaskId) {
    std::lock_guard<std::mutex> Lock(Mutex);
    uint32_t SliceId = static_cast<uint32_t>(Slices.size());
    Slices.push_back(TraceSlice{TaskId, 0, 0});
    if (TaskLastSlice[TaskId] != None)
      Edges.push_back(TraceEdge{TaskLastSlice[TaskId], SliceId});
    for (uint32_t Dep : TaskPending[TaskId])
      Edges.push_back(TraceEdge{Dep, SliceId});
    TaskPending[TaskId].clear();
    TaskLastSlice[TaskId] = SliceId;
    return SliceId;
  }

  /// Records the measured duration and byte count of a finished slice.
  /// \p StartNanos is the slice's wall-clock start, for timeline exports
  /// (0 = unknown, fine for simulator-only traces).
  void onSliceEnd(uint32_t SliceId, uint64_t DurationNanos, uint64_t Bytes,
                  uint64_t StartNanos = 0) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Slices[SliceId].DurationNanos = DurationNanos;
    Slices[SliceId].Bytes = Bytes;
    Slices[SliceId].StartNanos = StartNanos;
  }

  /// Records that \p WakerSlice's put unblocked \p TaskId: the task's next
  /// slice will depend on it.
  void onWake(uint32_t WakerSlice, uint32_t TaskId) {
    std::lock_guard<std::mutex> Lock(Mutex);
    TaskPending[TaskId].push_back(WakerSlice);
  }

  // Snapshot accessors (call only after the traced run has completed).
  const std::vector<TraceSlice> &slices() const { return Slices; }
  const std::vector<TraceEdge> &edges() const { return Edges; }
  size_t numTasks() const { return TaskLastSlice.size(); }

  void clear() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Slices.clear();
    Edges.clear();
    TaskPending.clear();
    TaskLastSlice.clear();
  }

private:
  std::mutex Mutex;
  std::vector<TraceSlice> Slices;
  std::vector<TraceEdge> Edges;
  /// Per task: dependencies awaiting the task's next slice.
  std::vector<std::vector<uint32_t>> TaskPending;
  /// Per task: its most recent slice (chain-edge source).
  std::vector<uint32_t> TaskLastSlice;
};

} // namespace lvish

#endif // LVISH_SCHED_TRACE_H
