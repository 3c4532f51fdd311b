//===- Stream.h - Prefix-ordered streaming LVars ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic streaming on LVar foundations (Rioux & Zdancewic,
/// "Functional Meaning for Parallel Streaming"): a stream is a monotone
/// LVar over the prefix-ordered sequence lattice. The state is a partial
/// map index -> value; `put(Ctx, S, idx, v)` binds a producer-owned index
/// (each index written at most once, like an IVar cell), and the *observable*
/// state is the contiguous filled prefix, whose length only grows:
///  * out-of-order puts join into a hole-tracking buffer; filling the
///    lowest hole advances the prefix over every already-buffered cell;
///  * a duplicate put to an index is a no-op when the value is equal and a
///    deterministic \c FaultCode::ConflictingInsert otherwise (the per-index
///    lattice top, exactly IMap's per-key rule);
///  * threshold reads are the unified spellings - \c lvish::get(Ctx, S, N)
///    blocks until the filled prefix reaches length N and returns element
///    N-1 (stable information: cell N-1 of the prefix never changes), and
///    \c waitSize(Ctx, S, N) blocks on the same watermark returning only
///    the threshold. Both ride the sharded waiter table's size heap;
///  * handlers fire exactly once per filled cell (current and future),
///    receiving \c StreamDelta{index, value};
///  * \c freezeStream closes the stream and yields a zero-copy
///    \c Stream::View of the final prefix (quasi-deterministic unless done
///    at session quiescence, like every freeze).
///
/// \c BoundedStream adds deterministic backpressure: a producer putting at
/// index I blocks until `I < Released + Capacity`, where \c Released is a
/// monotone consumer watermark advanced by \c advance(Ctx, S, upTo). The
/// park condition is monotone in Released, so whether a producer blocks is
/// a deterministic function of the put/advance partial order; *which* of
/// several starved producers resumes first when a credit arrives is the one
/// genuinely schedule-dependent choice, and it is surfaced to the explorer
/// as its own decision kind (ScheduleCtl::onBackpressure) so src/explore/
/// enumerates and replays it bit-for-bit. Producers park in a dedicated
/// key bucket that appends never scan, so credit wakes and prefix wakes
/// stay disjoint.
///
/// Locking: state (cells + prefix length) is guarded by the inherited
/// \c WaitMutex (the IVar idiom - Bucket0's mutex doubles as the state
/// lock), with an atomic mirror of the prefix length so the size heap's
/// tryCapture - which runs under the heap lock - never takes the state
/// lock. Frame-safety: once parkGet returns true the coroutine may already
/// have been resumed and destroyed on another worker, so awaiters never
/// touch their own members after a successful park; wake-side telemetry is
/// counted in await_resume.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_STREAM_H
#define LVISH_DATA_STREAM_H

#include "src/check/LatticeChecker.h"
#include "src/core/Lattice.h"
#include "src/core/LVarBase.h"
#include "src/core/Par.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace lvish {

/// One filled stream cell, as delivered to handlers.
template <typename T> struct StreamDelta {
  uint64_t Index;
  T Value;
};

/// Prefix-ordered sequence LVar; construct via \c newStream. See file
/// comment.
template <typename T> class Stream : public LVarBase {
public:
  using DeltaType = StreamDelta<T>;
  using Handler = typename HandlerList<DeltaType>::Handler;

  explicit Stream(uint64_t SessionId) : LVarBase(SessionId) {}

  /// Lub write: binds cell \p Idx to \p Val. Duplicate equal puts are
  /// no-ops; a conflicting value for a bound index is a deterministic
  /// error. Advances the filled prefix over any holes this put closes and
  /// wakes the prefix waiters it satisfies.
  void appendAt(uint64_t Idx, T Val, Task *Writer) {
    beginPut(Writer, check::FxPut, "Stream put");
    auto Gate = Handlers.guard();
    uint64_t NewFilled;
    {
      StateGuard Lock(WaitMutex);
      if (Idx < Cells.size() && Cells[Idx].has_value()) {
        if constexpr (std::equality_comparable<T>) {
          if (*Cells[Idx] == Val) {
            noOpPut();
            return; // Idempotent repeat: no delta, nothing to wake.
          }
        }
        detail::raiseSessionFault(Writer, FaultCode::ConflictingInsert,
                                  "conflicting put for an already-bound "
                                  "Stream index (per-cell lattice top "
                                  "reached)",
                                  debugName());
      }
      // Frozen check under the state lock (freezeStream's read also locks),
      // so a View handed out by freeze can never race a cell write.
      if (isFrozen())
        putAfterFreezeError(Writer, this);
      if (Idx >= Cells.size())
        Cells.resize(Idx + 1);
      Cells[Idx] = std::move(Val);
      const uint64_t OldFilled = Filled;
      while (Filled < Cells.size() && Cells[Filled].has_value())
        ++Filled;
      NewFilled = Filled;
      FilledAtomic.store(NewFilled, std::memory_order_release);
      if (check::sampleHit())
        check::checkJoinLaws<MaxUint64Lattice>(OldFilled, NewFilled);
    }
    obs::count(obs::Event::StreamAppends);
    // Handler delivery outside the state lock (a handler may put back into
    // this stream); the FastGuard still excludes a concurrent registration
    // replay, so each cell is delivered exactly once.
    if (!Handlers.empty())
      Handlers.deliver(DeltaType{Idx, cellAt(Idx)});
    notifyDelta(Writer, /*KeyHash=*/0, NewFilled);
  }

  /// Length of the contiguous filled prefix right now; deterministic only
  /// when frozen or quiescent (it is a monotone watermark otherwise).
  uint64_t filledNow() const {
    return FilledAtomic.load(std::memory_order_acquire);
  }

  /// Registers a handler; delivers every already-filled cell (including
  /// out-of-order cells beyond the current prefix), then every future one,
  /// exactly once (footnote-6 gate).
  void addHandlerRaw(Handler H, Task *Registrar) {
    checkSession(Registrar);
    Handlers.add(std::move(H), [this](const Handler &New) {
      std::vector<DeltaType> Replay;
      {
        StateGuard Lock(WaitMutex);
        for (uint64_t I = 0; I < Cells.size(); ++I)
          if (Cells[I].has_value())
            Replay.push_back(DeltaType{I, *Cells[I]});
      }
      for (const DeltaType &D : Replay)
        New(D);
    });
  }

  /// Zero-copy snapshot of the final filled prefix, handed out by
  /// \c freezeStream. Valid as long as the stream outlives it; cells
  /// beyond the frozen prefix (unfilled holes' buffered successors) are
  /// not observable through the view.
  class View {
  public:
    View() = default;
    View(const Stream *S, uint64_t Len) : Src(S), Len(Len) {}

    uint64_t size() const { return Len; }
    bool empty() const { return Len == 0; }
    const T &operator[](uint64_t I) const {
      assert(I < Len && "Stream::View index out of range");
      return *Src->Cells[I];
    }

  private:
    const Stream *Src = nullptr;
    uint64_t Len = 0;
  };

  /// The final prefix view, read under the state lock. \c freezeStream
  /// sets the freeze bit first, so every later put fails before it can
  /// touch a cell the view exposes.
  View frozenView() {
    StateGuard Lock(WaitMutex);
    return View(this, Filled);
  }

  /// Threshold read: unblocks once the filled prefix reaches length
  /// \p Threshold. With \p ReadsCell it returns a copy of element
  /// Threshold-1 (\c get); without, only the threshold (\c waitSize).
  template <bool ReadsCell> class PrefixAwaiter {
  public:
    PrefixAwaiter(Stream &S, Task *Reader, uint64_t Threshold)
        : Str(S), Tsk(Reader), Threshold(Threshold) {
      assert((!ReadsCell || Threshold >= 1) &&
             "prefix threshold must be at least 1");
    }

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      // Set before parkGet: after a successful park this frame may already
      // be resumed (and destroyed) on another worker, so no member of this
      // awaiter may be touched on this path again.
      Parked = true;
      if (Str.parkGet(Tsk, H, this, WaitSlot::size(Threshold)))
        return true;
      Parked = false;
      return false;
    }
    auto await_resume() {
      if (Parked)
        obs::count(obs::Event::PrefixWakeups);
      if constexpr (ReadsCell)
        return Str.cellAt(Threshold - 1);
    }

    // Size-heap contract: exactly "current size >= Threshold", against the
    // atomic mirror so the state lock is never taken under the heap lock.
    bool tryCapture() {
      return Str.FilledAtomic.load(std::memory_order_acquire) >= Threshold;
    }

  private:
    Stream &Str;
    Task *Tsk;
    uint64_t Threshold;
    bool Parked = false;
  };
  using GetPrefixAwaiter = PrefixAwaiter<true>;
  using WaitPrefixAwaiter = PrefixAwaiter<false>;

protected:
  /// Locked copy of a cell known to be bound. A copy, not a reference: a
  /// later put past the end may resize (and so move) the cell storage once
  /// the lock drops.
  T cellAt(uint64_t Idx) const {
    StateGuard Lock(WaitMutex);
    return *Cells[Idx];
  }

  /// Contiguous-prefix mirror probed lock-free by size-heap tryCapture and
  /// the notify fast path.
  std::atomic<uint64_t> FilledAtomic{0};

private:
  /// Partial map index -> value (holes = unbound cells), guarded by
  /// WaitMutex.
  std::vector<std::optional<T>> Cells;
  /// Length of the contiguous filled prefix, guarded by WaitMutex;
  /// FilledAtomic mirrors it for lock-free probes.
  uint64_t Filled = 0;
  HandlerList<DeltaType> Handlers;
};

/// Bounded variant with deterministic backpressure; see file comment.
/// Producers block while their index is at least \c Released + Capacity;
/// the consumer side grants credit with \c advance.
template <typename T> class BoundedStream : public Stream<T> {
public:
  /// Producers waiting for credit park in this key bucket; appends notify
  /// with KeyHash 0 so prefix deltas never scan it (disjoint wake paths).
  static constexpr uint64_t BackpressureKeyHash = 1;

  BoundedStream(uint64_t SessionId, uint64_t Capacity)
      : Stream<T>(SessionId), Capacity(Capacity) {
    assert(Capacity >= 1 && "BoundedStream capacity must be at least 1");
  }

  uint64_t capacity() const { return Capacity; }

  /// The consumer's monotone release watermark.
  uint64_t releasedNow() const {
    return Released.load(std::memory_order_acquire);
  }

  /// Consumer side: joins \p UpTo into the release watermark (CAS-max; a
  /// stale advance is a no-op, so racing consumers are deterministic) and
  /// grants the freed capacity to parked producers.
  void advanceTo(uint64_t UpTo, Task *Caller) {
    this->beginPut(Caller, check::FxPut, "BoundedStream advance");
    uint64_t Old = Released.load(std::memory_order_relaxed);
    while (Old < UpTo &&
           !Released.compare_exchange_weak(Old, UpTo,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
    }
    if (Old >= UpTo) {
      this->noOpPut();
      return; // Stale watermark: nothing newly released.
    }
    if (check::sampleHit())
      check::checkJoinLaws<MaxUint64Lattice>(Old, UpTo);
    this->notifyCredit(Caller, BackpressureKeyHash);
  }

  /// Blocking producer put: waits until index \p Idx is within the
  /// released capacity window, then binds the cell (same join semantics
  /// as the unbounded put).
  class PutAwaiter {
  public:
    PutAwaiter(BoundedStream &S, Task *Writer, uint64_t Idx, T Val)
        : Str(S), Tsk(Writer), Idx(Idx), Val(std::move(Val)) {}

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      Parked = true;
      if (Str.parkGet(Tsk, H, this, WaitSlot::key(BackpressureKeyHash)))
        return true;
      Parked = false;
      return false;
    }
    void await_resume() {
      if (Parked)
        obs::count(obs::Event::BackpressureParks);
      Str.appendAt(Idx, std::move(Val), Tsk);
    }

    // Monotone in Released: once the window admits Idx it stays admitted,
    // so whether this producer parks is deterministic.
    bool tryCapture() {
      return Idx < Str.Released.load(std::memory_order_acquire) +
                       Str.Capacity;
    }

  private:
    BoundedStream &Str;
    Task *Tsk;
    uint64_t Idx;
    T Val;
    bool Parked = false;
  };

private:
  const uint64_t Capacity;
  std::atomic<uint64_t> Released{0};
};

/// Allocates an empty (unbounded) stream for the current session.
template <typename T, EffectSet E>
std::shared_ptr<Stream<T>> newStream(ParCtx<E> Ctx) {
  return std::make_shared<Stream<T>>(Ctx.sessionId());
}

/// Allocates an empty bounded stream with \p Capacity cells of producer
/// headroom beyond the consumer's release watermark.
template <typename T, EffectSet E>
std::shared_ptr<BoundedStream<T>> newBoundedStream(ParCtx<E> Ctx,
                                                   uint64_t Capacity) {
  return std::make_shared<BoundedStream<T>>(Ctx.sessionId(), Capacity);
}

/// `put :: HasPut e => Stream s a -> Int -> a -> Par e s ()` - binds cell
/// \p Idx (producer-owned index). Non-blocking.
template <EffectSet E, typename T>
  requires(hasPut(E))
void put(ParCtx<E> Ctx, Stream<T> &S, uint64_t Idx, T Val) {
  S.appendAt(Idx, std::move(Val), Ctx.task());
}

/// Bounded producer put: `co_await put(Ctx, S, Idx, Val)`. Requires Get as
/// well as Put - waiting for the consumer's release watermark IS a
/// threshold read (the producer learns monotone information about
/// Released before writing).
template <EffectSet E, typename T>
  requires(hasPut(E) && hasGet(E))
typename BoundedStream<T>::PutAwaiter put(ParCtx<E> Ctx, BoundedStream<T> &S,
                                          uint64_t Idx, T Val) {
  return typename BoundedStream<T>::PutAwaiter(S, Ctx.task(), Idx,
                                               std::move(Val));
}

/// Blocks until the filled prefix reaches length \p N (N >= 1) and returns
/// element N-1 - the unified threshold-read spelling.
template <EffectSet E, typename T>
  requires(hasGet(E))
typename Stream<T>::GetPrefixAwaiter get(ParCtx<E> Ctx, Stream<T> &S,
                                         uint64_t N) {
  return typename Stream<T>::GetPrefixAwaiter(S, Ctx.task(), N);
}

/// Blocks until the filled prefix reaches length \p N; returns only the
/// threshold (the element itself is not observed).
template <EffectSet E, typename T>
  requires(hasGet(E))
typename Stream<T>::WaitPrefixAwaiter waitSize(ParCtx<E> Ctx, Stream<T> &S,
                                               uint64_t N) {
  return typename Stream<T>::WaitPrefixAwaiter(S, Ctx.task(), N);
}

/// Consumer side of a BoundedStream: releases producer capacity up to
/// index \p UpTo (exclusive). A put-class effect - it joins a monotone
/// watermark and can only unblock writers.
template <EffectSet E, typename T>
  requires(hasPut(E))
void advance(ParCtx<E> Ctx, BoundedStream<T> &S, uint64_t UpTo) {
  S.advanceTo(UpTo, Ctx.task());
}

/// Freezes mid-computation (quasi-deterministic) and returns the zero-copy
/// view of the final filled prefix.
template <EffectSet E, typename T>
  requires(hasFreeze(E))
typename Stream<T>::View freezeStream(ParCtx<E> Ctx, Stream<T> &S) {
  return S.freezeAndRead(Ctx.task(), "Stream freeze",
                         [&] { return S.frozenView(); });
}

} // namespace lvish

#endif // LVISH_DATA_STREAM_H
