//===- PureLVar.h - LVars over a pure lattice value --------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c PureLVar: "the simplest way to implement an LVar data structure (and
/// the easiest way to satisfy said proof obligations) is to represent it as
/// a single, pure value in a mutable box" (Section 2). The box is guarded
/// by the LVar's mutex; \c put takes the least upper bound of the old and
/// new states, and \c getPure performs a threshold read against a set of
/// pairwise-incompatible trigger sets, returning the index of whichever
/// trigger the state rose above.
///
/// Handlers ("latent event handlers that run when puts that change the
/// state of an LVar occur") are delivered under the footnote-6 asymmetric
/// gate, so registration never races a put and every state change is
/// delivered exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_PURELVAR_H
#define LVISH_CORE_PURELVAR_H

#include "src/check/LatticeChecker.h"
#include "src/core/LVarBase.h"
#include "src/core/Lattice.h"
#include "src/core/Par.h"

#include <concepts>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

namespace lvish {

/// A threshold set for PureLVar reads: a list of trigger sets, each a list
/// of lattice states. The read unblocks when the LVar's state is >= some
/// element of some trigger set, and returns that trigger set's index. The
/// trigger sets must be pairwise incompatible (the lub of states drawn from
/// two different sets must be top); \c checkPairwiseIncompatible verifies
/// this for lattices with a designated top.
template <typename D> using ThresholdSets = std::vector<std::vector<D>>;

/// LVar holding one pure lattice value; see file comment.
template <typename L>
  requires Lattice<L>
class PureLVar : public LVarBase {
public:
  using D = typename L::ValueType;
  /// Handlers observe whole new states (the "delta" of a pure LVar is the
  /// state itself).
  using DeltaType = D;
  using Handler = typename HandlerList<D>::Handler;

  PureLVar(uint64_t SessionId, D Initial)
      : LVarBase(SessionId), State(std::move(Initial)) {}

  explicit PureLVar(uint64_t SessionId) : PureLVar(SessionId, L::bottom()) {}

  /// Lub write. Top-valued results are a deterministic error when the
  /// lattice designates a top; state changes on a frozen LVar likewise.
  void putValue(const D &V, Task *Writer) {
    beginPut(Writer, check::FxPut, "PureLVar put");
    auto Gate = Handlers.guard();
    bool Changed = false;
    D NewState{L::bottom()};
    {
      std::lock_guard<std::mutex> Lock(WaitMutex);
      // Spot-check the author's join-law obligations on the live pair.
      if (check::sampleHit())
        check::checkJoinLaws<L>(State, V);
      D Joined = L::join(State, V);
      if (!(Joined == State)) {
        if (isFrozen())
          putAfterFreezeError(Writer, this);
        if constexpr (LatticeWithTop<L>) {
          if (L::isTop(Joined))
            detail::raiseSessionFault(Writer, FaultCode::LatticeTop,
                                      "PureLVar put reached lattice top "
                                      "(conflicting writes)",
                                      debugName());
        }
        State = Joined;
        Changed = true;
        NewState = State;
      }
    }
    if (!Changed) {
      noOpPut();
      return;
    }
    // Deliver the new state to handlers while still inside the gate's fast
    // section, then re-check blocked threshold reads.
    Handlers.deliver(NewState);
    // State and every parked waiter live under WaitMutex (Bucket0.Mu), so
    // the mutex alone orders this notify's probe - no fence needed.
    notifyWaiters(Writer, NotifyOrder::MutexGuarded);
  }

  /// Registers a change handler and delivers the current state to it once
  /// (exactly-once against racing puts: see HandlerList).
  void addHandlerRaw(Handler H, Task *Registrar) {
    checkSession(Registrar);
    Handlers.add(std::move(H), [this](const Handler &New) {
      D Current = peek();
      if (!(Current == L::bottom()))
        New(Current);
    });
  }

  /// Exact read of the current state; deterministic only after freezing or
  /// at session quiescence.
  D peek() const {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    return State;
  }

  /// Verification that trigger sets are pairwise incompatible (requires a
  /// designated top). Cheap for the finite lattices where it is
  /// exhaustive, e.g. the parallel-and lattice of Figure 1. Runs in every
  /// build, armed or not, through the LatticeChecker: inside a session a
  /// violation is a contained CheckerViolation fault, outside one it is
  /// fatal (unless a test installed a violation handler).
  static void checkPairwiseIncompatible(const ThresholdSets<D> &Sets) {
    check::checkThresholdSets<L>(Sets);
  }

  /// Blocking read against a *general monotone threshold function*
  /// (footnote 5 of the paper: "in practice, we allow ourselves to use
  /// more general monotonic threshold functions" than trigger sets). The
  /// function must be monotone: once it returns a value for some state,
  /// it must return the SAME value for every state above it - that is
  /// the author's proof obligation, checked only by the determinism
  /// sweeps in tests.
  template <typename R> class GetWithAwaiter {
  public:
    using ThresholdFn = std::function<std::optional<R>(const D &)>;

    GetWithAwaiter(PureLVar &V, Task *T, ThresholdFn Fn)
        : Var(V), Tsk(T), Fn(std::move(Fn)) {}

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      return Var.parkGet(Tsk, H, this);
    }
    R await_resume() { return std::move(*Out); }

    bool tryCapture() {
      Out = Fn(Var.State);
      return Out.has_value();
    }

  private:
    PureLVar &Var;
    Task *Tsk;
    ThresholdFn Fn;
    std::optional<R> Out;
  };

  /// Blocking threshold read; see ThresholdSets.
  class GetAwaiter {
  public:
    GetAwaiter(PureLVar &V, Task *T, ThresholdSets<D> Sets)
        : Var(V), Tsk(T), Triggers(std::move(Sets)) {
#ifndef NDEBUG
      checkPairwiseIncompatible(Triggers);
#endif
    }

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> H) {
      return Var.parkGet(Tsk, H, this);
    }
    size_t await_resume() const { return *Out; }

    /// Under WaitMutex: activated iff the state is above some element of
    /// some trigger set.
    bool tryCapture() {
      for (size_t I = 0, E = Triggers.size(); I != E; ++I)
        for (const D &Trig : Triggers[I])
          if (latticeLeq<L>(Trig, Var.State)) {
            Out = I;
            return true;
          }
      return false;
    }

  private:
    PureLVar &Var;
    Task *Tsk;
    ThresholdSets<D> Triggers;
    std::optional<size_t> Out;
  };

private:
  friend class GetAwaiter;
  template <typename R> friend class GetWithAwaiter;
  D State; ///< Guarded by WaitMutex.
  HandlerList<D> Handlers;
};

/// Allocates a PureLVar at its lattice bottom.
template <typename L, EffectSet E>
  requires Lattice<L>
std::shared_ptr<PureLVar<L>> newPureLVar(ParCtx<E> Ctx) {
  return std::make_shared<PureLVar<L>>(Ctx.sessionId());
}

/// Allocates a PureLVar at a given initial (bottom-reachable) state.
template <typename L, EffectSet E>
  requires Lattice<L>
std::shared_ptr<PureLVar<L>> newPureLVar(ParCtx<E> Ctx,
                                         typename L::ValueType Init) {
  return std::make_shared<PureLVar<L>>(Ctx.sessionId(), std::move(Init));
}

/// `putPureLVar`: lub write (requires HasPut).
template <EffectSet E, typename L>
  requires(hasPut(E) && Lattice<L>)
void putPureLVar(ParCtx<E> Ctx, PureLVar<L> &LV,
                 const typename L::ValueType &V) {
  LV.putValue(V, Ctx.task());
}

/// Threshold read returning the activated trigger index - the unified
/// spelling of the paper's `getPureLVar`.
template <EffectSet E, typename L>
  requires(hasGet(E) && Lattice<L>)
typename PureLVar<L>::GetAwaiter
get(ParCtx<E> Ctx, PureLVar<L> &LV,
    ThresholdSets<typename L::ValueType> Triggers) {
  return typename PureLVar<L>::GetAwaiter(LV, Ctx.task(),
                                          std::move(Triggers));
}

/// General monotone-threshold read (footnote 5): blocks until \p Fn
/// returns an engaged optional on the LVar's state, and returns its
/// value. \p Fn must be monotone (stable above its activation point).
/// The result type is deduced from the callable's optional return.
template <EffectSet E, typename L, typename FnT>
  requires(hasGet(E) && Lattice<L> &&
           std::invocable<FnT &, const typename L::ValueType &>)
auto get(ParCtx<E> Ctx, PureLVar<L> &LV, FnT Fn) {
  using OptR = std::invoke_result_t<FnT &, const typename L::ValueType &>;
  using R = typename OptR::value_type;
  return typename PureLVar<L>::template GetWithAwaiter<R>(LV, Ctx.task(),
                                                          std::move(Fn));
}

/// Freezes and returns the exact state (requires HasFreeze).
template <EffectSet E, typename L>
  requires(hasFreeze(E) && Lattice<L>)
typename L::ValueType freezePureLVar(ParCtx<E> Ctx, PureLVar<L> &LV) {
  return LV.freezeAndRead(Ctx.task(), "PureLVar freeze",
                          [&] { return LV.peek(); });
}

} // namespace lvish

#endif // LVISH_CORE_PURELVAR_H
