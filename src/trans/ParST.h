//===- ParST.h - Disjoint destructive parallel state ------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c ParST (Section 5): "it should be possible for threads to update
/// memory destructively, so long as the memory updated by different
/// threads is disjoint" - Deterministic Parallel Java's discipline,
/// integrated with blocking LVar dataflow.
///
/// The mutable state is accessed through \c VecView slices. Safety rests on
/// the paper's two requirements, transposed to C++:
///
///  * Disjointness. \c forkSTSplit partitions a view at a split point and
///    runs two child computations fork-join style, each seeing only its
///    half (child index 0 of the right half is global index split). While
///    the children run, the parent's view is *generation-poisoned*: any
///    access through it aborts. (Haskell used higher-rank types to make
///    this a compile error; without effect typing we make it a runtime
///    check, as anticipated by this reproduction's calibration notes.)
///  * Alias freedom. "Users do not populate the state directly, but only
///    describe a recipe for its creation": \c runParVec allocates the
///    vector itself and hands the body a unique root view, so two views
///    can never secretly alias unless produced by splitting - which is
///    disjoint by construction.
///
/// The ST capability is a one-shot switch on the effect set: \c runParVec
/// requires a not-yet-ST context and provides an ST one; \c forkSTSplit
/// requires ST. "A given Par monad can either have the ST feature, or not
/// ... It is not safe to combine two copies of ParST." Reordering-tolerant
/// transformers (withState, withRng, ...) compose freely on either side.
///
/// State transformation: \c zoomIn runs a computation on a sub-range, and
/// \c withTempBuffer "zooms out" by pairing the state with a fresh scratch
/// vector (the shape the merge phase of the parallel sort needs).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_PARST_H
#define LVISH_TRANS_PARST_H

#include "src/check/DisjointnessChecker.h"
#include "src/check/EffectAuditor.h"
#include "src/core/IVar.h"
#include "src/core/Par.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

namespace lvish {

/// An alias-free window onto a contiguous block of mutable state. Cheap to
/// copy; validity is tracked by a generation cell shared with the region's
/// current owner chain.
template <typename T> class VecView {
public:
  VecView() : Data(nullptr), Len(0), Gen(nullptr), MyGen(0) {}

  VecView(T *D, size_t N, std::shared_ptr<std::atomic<uint64_t>> G,
          uint64_t Expected)
      : Data(D), Len(N), Gen(std::move(G)), MyGen(Expected) {}

  size_t size() const { return Len; }

  /// Direct pointer to the underlying storage - the paper's \c reify,
  /// "a pointer ... that can be passed to any standard library procedures".
  /// Checks validity once; the pointer must not outlive the view's scope.
  T *raw() const {
    shadowCheck(Data, Len);
    checkLive();
    return Data;
  }

  T &operator[](size_t I) const {
#ifndef NDEBUG
    shadowCheck(Data + I, 1);
    checkLive();
    assert(I < Len && "VecView index out of range");
#endif
    return Data[I];
  }

  /// Reads/writes with always-on checking (tests and non-hot paths).
  T readChecked(size_t I) const {
    shadowCheck(Data + I, 1);
    checkLive();
    if (I >= Len)
      // ST-discipline breach: the abort is the deterministic outcome the
      // DisjointnessChecker documents. lvish-lint: allow(fatal)
      fatalError("VecView access out of range");
    return Data[I];
  }
  void writeChecked(size_t I, const T &V) const {
    shadowCheck(Data + I, 1);
    checkLive();
    if (I >= Len)
      // lvish-lint: allow(fatal)
      fatalError("VecView write out of range");
    Data[I] = V;
  }

  /// Fills the whole view with \p V (the paper's \c set).
  void fill(const T &V) const {
    shadowCheck(Data, Len);
    checkLive();
    for (size_t I = 0; I < Len; ++I)
      Data[I] = V;
  }

  bool live() const {
    return Gen && Gen->load(std::memory_order_acquire) == MyGen;
  }

  /// Aborts unless the view is live. Public so the split/zoom combinators
  /// (trusted code) can check before taking ownership.
  void checkLive() const {
    if (live())
      return;
    // Poisoned-view access may race task teardown; abort, do not unwind.
    if (check::armed()) {
      // Upgrade the generic generation-mismatch abort with what the shadow
      // interval map knows about the region's current owner.
      char Desc[160];
      check::DisjointnessChecker::instance().describeAddress(Data, Desc,
                                                             sizeof(Desc));
      char Msg[288];
      std::snprintf(Msg, sizeof(Msg),
                    "access through a poisoned VecView (view generation "
                    "%llu); %s",
                    static_cast<unsigned long long>(MyGen), Desc);
      // lvish-lint: allow(fatal)
      fatalError(Msg);
    }
    // lvish-lint: allow(fatal)
    fatalError("access through a poisoned VecView (the region is "
               "currently owned by forkSTSplit children, or its scope "
               "ended)");
  }

  /// Sub-view sharing this view's ownership scope. The two views alias;
  /// use forkSTSplit (not two slices) to hand disjoint halves to parallel
  /// children. Intended for sequential leaf code.
  VecView slice(size_t Begin, size_t End) const {
    assert(Begin <= End && End <= Len && "bad slice bounds");
    return VecView(Data, Len, Gen, MyGen).offsetUnsafe(Begin, End);
  }

  /// The ownership generation cell (trusted combinators only).
  const std::shared_ptr<std::atomic<uint64_t>> &ownerGenCell() const {
    return Gen;
  }

  /// The generation this view expects its cell to hold while it is live
  /// (trusted combinators and the disjointness checker only).
  uint64_t expectedGen() const { return MyGen; }

private:
  VecView offsetUnsafe(size_t Begin, size_t End) const {
    return VecView(Data + Begin, End - Begin, Gen, MyGen);
  }

  /// Sampled classification of the byte access [P, P+Count) against the
  /// shadow interval map; reports Stale/ForeignOwner before the coarse
  /// generation abort fires, so the diagnostic names the actual owner.
  void shadowCheck(const T *P, size_t Count) const {
    if (check::sampleHit())
      check::DisjointnessChecker::instance().checkAccess(P, P + Count,
                                                         Gen.get(), MyGen);
  }

  T *Data;
  size_t Len;
  std::shared_ptr<std::atomic<uint64_t>> Gen;
  uint64_t MyGen;
};

namespace detail {

/// Fresh generation cell for a newly owned region.
inline std::shared_ptr<std::atomic<uint64_t>> newGenCell() {
  return std::make_shared<std::atomic<uint64_t>>(0);
}

} // namespace detail

/// Allocates a vector of \p N copies of \p Init and runs \p Body with (a)
/// an ST-enabled context and (b) the unique root view of the vector. The
/// vector lives exactly as long as the call: the returned view is poisoned
/// afterwards. Mirrors `runParVecT n (...)`.
///
/// \p Wanted is the ST-enabled effect level the body runs at; it defaults
/// to the caller's effects plus ST. The caller must not already hold ST
/// (one-shot switch).
template <EffectSet Wanted = Eff::DetST, EffectSet E, typename T, typename F>
auto runParVec(ParCtx<E> Ctx, size_t N, T Init, F Body) {
  static_assert(!hasST(E), "ParST cannot be stacked: this context already "
                           "has the ST capability (Section 5)");
  static_assert(hasST(Wanted), "runParVec must grant the ST capability");
  static_assert(Wanted.subsumes(E),
                "the ST-enabled level must keep every capability the "
                "caller already had (pass Wanted explicitly for Bump/"
                "Freeze contexts)");
  using Ret = std::invoke_result_t<F, ParCtx<Wanted>, VecView<T>>;
  return [](ParCtx<E> Ctx2, size_t N2, T Init2, F Body2) -> Ret {
    std::vector<T> Storage(N2, Init2);
    auto Gen = detail::newGenCell();
    VecView<T> Root(Storage.data(), Storage.size(), Gen, 0);
    ParCtx<Wanted> STCtx = detail::CtxAccess::make<Wanted>(Ctx2.task());
    // The grant is legitimate (one-shot switch, statically checked above):
    // widen the running task's declared mask so the audit agrees.
    check::RaiseDeclaredScope Raise(Ctx2.task(), check::effectMask(Wanted));
    auto &DC = check::DisjointnessChecker::instance();
    DC.registerExtent(Storage.data(), Storage.data() + Storage.size(),
                      Gen.get(), 0, "runParVec root");
    if constexpr (std::is_void_v<decltype(std::declval<Ret>()
                                              .await_resume())>) {
      co_await Body2(STCtx, Root);
      DC.releaseExtent(Storage.data(), Gen.get());
      Gen->fetch_add(1, std::memory_order_acq_rel); // Poison escapees.
      co_return;
    } else {
      auto R = co_await Body2(STCtx, Root);
      DC.releaseExtent(Storage.data(), Gen.get());
      Gen->fetch_add(1, std::memory_order_acq_rel);
      co_return R;
    }
  }(Ctx, N, std::move(Init), std::move(Body));
}

/// Fork-join disjoint split (the paper's `forkSTSplit (SplitAt mid)`):
/// partitions \p View at \p Mid, runs \p Left on [0,Mid) and \p Right on
/// [Mid,len) in parallel, and returns when both complete. The parent view
/// is poisoned for the duration; the children receive fresh views that die
/// at the join. Children may freely use LVar effects - this is the
/// integration of DPJ-style disjoint update with dataflow communication.
template <typename T, EffectSet E, typename L, typename R>
  requires(hasST(E) && hasPut(E) && hasGet(E))
Par<void> forkSTSplit(ParCtx<E> Ctx, VecView<T> View, size_t Mid, L Left,
                      R Right) {
  if (Mid > View.size())
    // Static misuse of the split API. lvish-lint: allow(fatal)
    fatalError("forkSTSplit: split point out of range");
  check::auditEffect(Ctx.task(), check::FxST, "forkSTSplit");
  T *Base = View.raw();
  // Poison the parent view; each child gets its OWN ownership scope (a
  // shared cell would let one child's nested split poison its sibling).
  View.ownerGenCell()->fetch_add(1, std::memory_order_acq_rel);
  auto LGen = detail::newGenCell();
  auto RGen = detail::newGenCell();
  VecView<T> LView(Base, Mid, LGen, 0);
  VecView<T> RView(Base + Mid, View.size() - Mid, RGen, 0);
  // Hand the region over in the shadow map: the parent's extent steps
  // aside while the children's halves are live, and returns at the join.
  auto &DC = check::DisjointnessChecker::instance();
  check::ExtentInfo ParentExtent =
      DC.detachExtentContaining(Base, View.ownerGenCell().get());
  DC.registerExtent(Base, Base + Mid, LGen.get(), 0, "forkSTSplit left");
  DC.registerExtent(Base + Mid, Base + View.size(), RGen.get(), 0,
                    "forkSTSplit right");

  auto Done = newIVar<bool>(Ctx);
  fork(Ctx, [Done, LView, Left](ParCtx<E> C) -> Par<void> {
    co_await Left(C, LView);
    put(C, *Done, true);
  });
  co_await Right(Ctx, RView);
  co_await get(Ctx, *Done);

  // Join: retire the child views, then un-poison the parent.
  DC.releaseExtent(Base, LGen.get());
  DC.releaseExtent(Base + Mid, RGen.get());
  DC.restoreExtent(ParentExtent, View.ownerGenCell().get());
  LGen->fetch_add(1, std::memory_order_acq_rel);
  RGen->fetch_add(1, std::memory_order_acq_rel);
  View.ownerGenCell()->fetch_sub(1, std::memory_order_acq_rel);
  co_return;
}

/// Two-region variant: splits view \p A at \p MidA and view \p B at
/// \p MidB; Left gets (A[0,MidA), B[0,MidB)), Right the complements. This
/// is the tuple-of-vectors state shape of the merge phase (Section 7.3),
/// where "both of these buffers are split at the same locations".
template <typename T, typename T2, EffectSet E, typename L, typename R>
  requires(hasST(E) && hasPut(E) && hasGet(E))
Par<void> forkSTSplit2(ParCtx<E> Ctx, VecView<T> A, size_t MidA,
                       VecView<T2> B, size_t MidB, L Left, R Right) {
  if (MidA > A.size() || MidB > B.size())
    // lvish-lint: allow(fatal)
    fatalError("forkSTSplit2: split point out of range");
  check::auditEffect(Ctx.task(), check::FxST, "forkSTSplit2");
  T *BaseA = A.raw();
  T2 *BaseB = B.raw();
  A.ownerGenCell()->fetch_add(1, std::memory_order_acq_rel);
  if (B.ownerGenCell() != A.ownerGenCell())
    B.ownerGenCell()->fetch_add(1, std::memory_order_acq_rel);
  // Left and right children each own their (pair of) regions through a
  // private cell; see the sibling-poisoning note in forkSTSplit.
  auto LGen = detail::newGenCell();
  auto RGen = detail::newGenCell();
  VecView<T> LA(BaseA, MidA, LGen, 0);
  VecView<T> RA(BaseA + MidA, A.size() - MidA, RGen, 0);
  VecView<T2> LB(BaseB, MidB, LGen, 0);
  VecView<T2> RB(BaseB + MidB, B.size() - MidB, RGen, 0);
  auto &DC = check::DisjointnessChecker::instance();
  check::ExtentInfo ExtA =
      DC.detachExtentContaining(BaseA, A.ownerGenCell().get());
  check::ExtentInfo ExtB =
      DC.detachExtentContaining(BaseB, B.ownerGenCell().get());
  DC.registerExtent(BaseA, BaseA + MidA, LGen.get(), 0, "forkSTSplit2 left");
  DC.registerExtent(BaseB, BaseB + MidB, LGen.get(), 0, "forkSTSplit2 left");
  DC.registerExtent(BaseA + MidA, BaseA + A.size(), RGen.get(), 0,
                    "forkSTSplit2 right");
  DC.registerExtent(BaseB + MidB, BaseB + B.size(), RGen.get(), 0,
                    "forkSTSplit2 right");

  auto Done = newIVar<bool>(Ctx);
  fork(Ctx, [Done, LA, LB, Left](ParCtx<E> C) -> Par<void> {
    co_await Left(C, LA, LB);
    put(C, *Done, true);
  });
  co_await Right(Ctx, RA, RB);
  co_await get(Ctx, *Done);

  DC.releaseExtent(BaseA, LGen.get());
  DC.releaseExtent(BaseB, LGen.get());
  DC.releaseExtent(BaseA + MidA, RGen.get());
  DC.releaseExtent(BaseB + MidB, RGen.get());
  DC.restoreExtent(ExtA, A.ownerGenCell().get());
  DC.restoreExtent(ExtB, B.ownerGenCell().get());
  LGen->fetch_add(1, std::memory_order_acq_rel);
  RGen->fetch_add(1, std::memory_order_acq_rel);
  A.ownerGenCell()->fetch_sub(1, std::memory_order_acq_rel);
  if (B.ownerGenCell() != A.ownerGenCell())
    B.ownerGenCell()->fetch_sub(1, std::memory_order_acq_rel);
  co_return;
}

/// Zoom in: runs \p Body on the sub-range [Begin, End) of \p View. The
/// parent view is poisoned for the duration (the sub-view is the unique
/// capability), restoring afterwards.
template <typename T, EffectSet E, typename F>
  requires(hasST(E))
auto zoomIn(ParCtx<E> Ctx, VecView<T> View, size_t Begin, size_t End,
            F Body) {
  using Ret = std::invoke_result_t<F, ParCtx<E>, VecView<T>>;
  return [](ParCtx<E> C, VecView<T> V, size_t B2, size_t E2,
            F Body2) -> Ret {
    if (B2 > E2 || E2 > V.size())
      // lvish-lint: allow(fatal)
      fatalError("zoomIn: bad sub-range");
    check::auditEffect(C.task(), check::FxST, "zoomIn");
    T *Base = V.raw();
    V.ownerGenCell()->fetch_add(1, std::memory_order_acq_rel);
    auto SubGen = detail::newGenCell();
    VecView<T> Sub(Base + B2, E2 - B2, SubGen, 0);
    auto &DC = check::DisjointnessChecker::instance();
    check::ExtentInfo ParentExtent =
        DC.detachExtentContaining(Base, V.ownerGenCell().get());
    DC.registerExtent(Base + B2, Base + E2, SubGen.get(), 0, "zoomIn");
    if constexpr (std::is_void_v<decltype(std::declval<Ret>()
                                              .await_resume())>) {
      co_await Body2(C, Sub);
      DC.releaseExtent(Base + B2, SubGen.get());
      DC.restoreExtent(ParentExtent, V.ownerGenCell().get());
      SubGen->fetch_add(1, std::memory_order_acq_rel);
      V.ownerGenCell()->fetch_sub(1, std::memory_order_acq_rel);
      co_return;
    } else {
      auto R = co_await Body2(C, Sub);
      DC.releaseExtent(Base + B2, SubGen.get());
      DC.restoreExtent(ParentExtent, V.ownerGenCell().get());
      SubGen->fetch_add(1, std::memory_order_acq_rel);
      V.ownerGenCell()->fetch_sub(1, std::memory_order_acq_rel);
      co_return R;
    }
  }(Ctx, View, Begin, End, std::move(Body));
}

/// Zoom out: pairs \p View with a freshly allocated scratch vector of
/// \p TempLen default-initialized elements for the extent of \p Body -
/// "placing the current state inside a newly constructed one". The sort's
/// merge phase shifts from a single-vector state to (input, buffer) this
/// way.
template <typename T, EffectSet E, typename F>
  requires(hasST(E))
auto withTempBuffer(ParCtx<E> Ctx, VecView<T> View, size_t TempLen, F Body) {
  using Ret = std::invoke_result_t<F, ParCtx<E>, VecView<T>, VecView<T>>;
  return [](ParCtx<E> C, VecView<T> V, size_t N, F Body2) -> Ret {
    V.checkLive();
    check::auditEffect(C.task(), check::FxST, "withTempBuffer");
    std::vector<T> Scratch(N);
    auto TmpGen = detail::newGenCell();
    VecView<T> Tmp(Scratch.data(), Scratch.size(), TmpGen, 0);
    auto &DC = check::DisjointnessChecker::instance();
    DC.registerExtent(Scratch.data(), Scratch.data() + Scratch.size(),
                      TmpGen.get(), 0, "withTempBuffer scratch");
    if constexpr (std::is_void_v<decltype(std::declval<Ret>()
                                              .await_resume())>) {
      co_await Body2(C, V, Tmp);
      DC.releaseExtent(Scratch.data(), TmpGen.get());
      TmpGen->fetch_add(1, std::memory_order_acq_rel);
      co_return;
    } else {
      auto R = co_await Body2(C, V, Tmp);
      DC.releaseExtent(Scratch.data(), TmpGen.get());
      TmpGen->fetch_add(1, std::memory_order_acq_rel);
      co_return R;
    }
  }(Ctx, View, TempLen, std::move(Body));
}

} // namespace lvish

#endif // LVISH_TRANS_PARST_H
