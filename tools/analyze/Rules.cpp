//===- Rules.cpp - Ported lvish-lint rules on the token stream ------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every rule of the retired per-line lvish-lint, re-expressed as token
/// sequences over the stripped token stream. The move from line regexes to
/// tokens is what fixes the multi-line false negatives: `std::mutex`
/// declared with the `::` on the next line, or a deprecated threshold-read
/// call whose `(` wraps, now match exactly like their one-line spellings.
///
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

namespace lvish {
namespace analyze {

namespace {

struct TokenRule {
  const char *Name;
  /// Alternative token sequences; any match fires the rule.
  std::vector<std::vector<std::string>> Seqs;
  /// Path substrings where the construct is legitimate (trusted layers).
  std::vector<const char *> AllowedDirs;
  const char *Why;
  /// When non-empty, the rule ONLY applies to paths containing one of
  /// these substrings (layer-local rules like explore-rng).
  std::vector<const char *> LimitDirs;
};

/// Lexes a rule pattern into its token-sequence form, so the table below
/// can keep the readable one-string spellings.
std::vector<std::string> seqOf(const char *Pattern) {
  std::vector<std::string> Out;
  for (const Token &T : tokenize(Pattern))
    Out.push_back(T.Text);
  return Out;
}

std::vector<std::vector<std::string>> seqsOf(
    std::initializer_list<const char *> Patterns) {
  std::vector<std::vector<std::string>> Out;
  for (const char *P : Patterns)
    Out.push_back(seqOf(P));
  return Out;
}

const std::vector<TokenRule> &tokenRules() {
  // The library-internal rules exempt tests/ and examples/ in addition to
  // the historical trusted layers: the retired lint never scanned those
  // trees, and tests/examples legitimately poke internals (wordcount's
  // direct Table->modifyKey, test raw-thread scaffolding). The
  // deprecated-threshold-read rule deliberately does NOT exempt them -
  // it absorbs the ci.sh shell grep that existed precisely to cover
  // tests/ and examples/.
  static const std::vector<TokenRule> Rules = {
      {"raw-sync",
       seqsOf({"std::thread", "std::jthread", "std::mutex",
               "std::shared_mutex", "std::recursive_mutex",
               "std::condition_variable"}),
       // /fault/ joined with the ServiceChaos harness: its delivery
       // thread is chaos scaffolding AROUND the scheduler, same standing
       // as tests' raw-thread drivers.
       {"/sched/", "/core/", "/service/", "/support/", "/check/", "/obs/",
        "/fault/", "tests/", "examples/"},
       "parallelism and blocking must flow through the scheduler so the "
       "effect audit and cancellation polling see it",
       /*LimitDirs=*/{}},
      {"no-throw",
       seqsOf({"throw", "dynamic_cast"}),
       {"tests/", "examples/"},
       "library errors are deterministic fatalError aborts; exceptions "
       "unwinding coroutine frames on scheduler threads are not",
       /*LimitDirs=*/{}},
      {"ctx-forge",
       seqsOf({"CtxAccess::make"}),
       {"/core/", "/service/", "/trans/", "tests/", "examples/"},
       "forging a stronger ParCtx bypasses the static effect discipline; "
       "only trusted transformer internals may bless effects",
       /*LimitDirs=*/{}},
      {"fatal",
       seqsOf({"fatalError"}),
       {"/support/", "tests/", "examples/"},
       "contract violations must report through detail::raiseSessionFault "
       "so sessions contain them as deterministic Faults; the only "
       "sanctioned abort path is ParOutcome::valueOrAbort",
       /*LimitDirs=*/{}},
      {"state-bypass",
       seqsOf({".putValue", "->putValue", ".insertElem", "->insertElem",
               ".insertKV", "->insertKV", ".bump", "->bump", ".bumpAt",
               "->bumpAt", ".modifyKey", "->modifyKey", ".markFrozen",
               "->markFrozen", ".addHandlerRaw", "->addHandlerRaw"}),
       {"/core/", "/data/", "/service/", "tests/", "examples/"},
       "direct LVar state access skips the ParCtx effect requirements and "
       "session checks",
       /*LimitDirs=*/{}},
      {"deprecated-threshold-read",
       // The `(` is part of each sequence (matching the semantics of the
       // retired ci.sh grep); the token stream makes it match even when
       // the paren lands on the next line. The aliases themselves were
       // deleted (PR-5 generation retired), so there are no defining
       // directories to exempt: any occurrence anywhere is a resurrected
       // name that no longer exists.
       seqsOf({"getKey(", "waitElem(", "waitMapSize(",
               "waitCounterAtLeast(", "getPureLVar(", "getPureLVarWith(",
               "getKeyPure(", "waitPureMapSize(", "getIdx("}),
       {},
       "the old per-structure threshold-read spellings were removed; use "
       "the unified lvish::get / lvish::waitSize API",
       /*LimitDirs=*/{}},
      {"deprecated-borrowed-scheduler",
       // Both the field spellings and the *On wrappers. `runParOn` is a
       // full identifier token, so the internal `runParOnImpl` funnel
       // (a distinct token) never matches. The shims were deleted (PR-7
       // generation retired), so no directory is exempt anymore: any
       // occurrence is a resurrected name that no longer exists.
       seqsOf({"RunOptions::On", ".Borrowed", "->Borrowed", "runParOn",
               "tryRunParOn", "runParIOOn", "tryRunParIOOn",
               "runParThenFreezeOn"}),
       {},
       "the borrowed-Scheduler session surface was removed; hold a "
       "service::Runtime and submit sessions through Runtime::run / "
       "Runtime::submit instead",
       /*LimitDirs=*/{}},
      {"retired-build-flag",
       // Fault injection and the determinism checkers are compiled into
       // every build (an installed FaultPlan / a CheckScope arms them) and
       // the stderr trace macros were deleted, so no directory is exempt:
       // any occurrence resurrects a build configuration the CI matrix no
       // longer builds. Whole identifier tokens only: LVISH_FAULTS_VALUE,
       // LVISH_CHECK_SAMPLE and the LVISH_CHECK_*_H header guards are
       // distinct tokens.
       seqsOf({"LVISH_FAULTS", "InjectionEnabled", "LVISH_CHECK",
               "LVISH_TRACE_DEBUG", "LVISH_TRACE", "LVISH_TRACE2",
               "LVISH_TRACE3"}),
       {},
       "fault injection and the determinism checkers are always compiled "
       "and armed at run time (fault::PlanScope, check::CheckScope or "
       "LVISH_CHECK_SAMPLE), and the stderr trace macros are gone; use "
       "the TraceRecorder / obs::Span recorders instead of a compile-time "
       "switch",
       /*LimitDirs=*/{}},
      {"wall-clock-in-core",
       // All three standard clock spellings; the token stream matches the
       // fully qualified std::chrono:: prefix forms too (the sequence
       // anchors at the clock name).
       seqsOf({"steady_clock::now", "system_clock::now",
               "high_resolution_clock::now"}),
       {"/service/", "bench/", "tools/"},
       "the deterministic layers must not read wall clocks - time "
       "dependence breaks explore/replay bit-for-bit reproduction; "
       "deadlines belong to the service admission layer and execution "
       "bounds are step budgets (SessionOptions::MaxSteps), with "
       "support/Timer.h nowNanos() as the one sanctioned choke point",
       /*LimitDirs=*/{}},
      {"explore-rng",
       seqsOf({"std::mt19937", "std::mt19937_64", "std::random_device",
               "std::uniform_int_distribution",
               "std::uniform_real_distribution",
               "std::bernoulli_distribution", "std::shuffle",
               "std::random_shuffle", "std::default_random_engine", "srand",
               "rand(", "drand48", "arc4random"}),
       {},
       "every bit of explorer randomness must come from the seeded "
       "SplitMix64 stream so schedules are a pure function of (seed, "
       "program) and replay strings stay bit-for-bit reproducible",
       /*LimitDirs=*/{"/explore/"}},
  };
  return Rules;
}

bool pathHasAny(const std::string &Path,
                const std::vector<const char *> &Dirs) {
  for (const char *Dir : Dirs)
    if (Path.find(Dir) != std::string::npos)
      return true;
  return false;
}

std::string joinSeq(const std::vector<std::string> &Seq) {
  std::string S;
  for (const std::string &T : Seq)
    S += T;
  return S;
}

/// bench-harness is shape-based rather than token-based: it fires on the
/// `int main` of a bench/ source that never names BenchHarness.
void runBenchHarness(const FileModel &M, std::vector<Finding> &Out) {
  if (M.Path.find("bench/") == std::string::npos)
    return;
  size_t MainTok = Npos;
  for (size_t I = 0; I < M.Toks.size(); ++I) {
    if (M.Toks[I].Text == "BenchHarness")
      return;
    if (MainTok == Npos && matchSeq(M.Toks, I, {"int", "main"}))
      MainTok = I;
  }
  if (MainTok == Npos)
    return;
  uint32_t Line = M.Toks[MainTok].Line;
  if (M.suppressed(Line - 1, "bench-harness"))
    return;
  Finding F;
  F.Rule = "bench-harness";
  F.File = M.Path;
  F.Line = Line;
  F.Detail = "int main";
  F.Message =
      "`int main`: bench executables must measure through "
      "bench/BenchHarness.h so every bench emits a uniform "
      "BENCH_<name>.json";
  Out.push_back(std::move(F));
}

} // namespace

void runTokenRules(const FileModel &M, std::vector<Finding> &Out) {
  runBenchHarness(M, Out);
  for (const TokenRule &R : tokenRules()) {
    if (pathHasAny(M.Path, R.AllowedDirs))
      continue;
    if (!R.LimitDirs.empty() && !pathHasAny(M.Path, R.LimitDirs))
      continue;
    for (size_t I = 0; I < M.Toks.size(); ++I) {
      const std::vector<std::string> *Hit = nullptr;
      for (const auto &Seq : R.Seqs)
        if (matchSeq(M.Toks, I, Seq)) {
          Hit = &Seq;
          break;
        }
      if (!Hit)
        continue;
      uint32_t Line = M.Toks[I].Line;
      if (M.suppressed(Line - 1, R.Name))
        continue;
      Finding F;
      F.Rule = R.Name;
      F.File = M.Path;
      F.Line = Line;
      F.Detail = joinSeq(*Hit);
      F.Message = "`" + F.Detail + "`: " + R.Why;
      Out.push_back(std::move(F));
      I += Hit->size() - 1; // One finding per construct, not per token.
    }
  }
}

} // namespace analyze
} // namespace lvish
