//===- AnalyzeTest.cpp - Golden tests for lvish-analyze -------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the lvish-analyze passes against the on-disk fixture tree
/// (tests/fixtures/analyze/): one seeded-violation and one clean fixture
/// per pass, the multi-line shapes the retired per-line lint could not
/// see, the suppression-comment contract, and a baseline-file round trip.
///
/// Fixtures are scanned, never compiled, and each declares the path the
/// analyzer should believe it lives at (rule applicability is
/// path-scoped) in a first-line `lvish-analyze-fixture-path:` comment -
/// the real fixture path contains "tests/fixtures/", which the analyzer
/// deliberately exempts/skips.
///
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

#include "src/obs/Json.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

using namespace lvish::analyze;

std::string readFixture(const std::string &Name) {
  std::string Path = std::string(LVISH_ANALYZE_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The path the fixture wants to be analyzed under (first-line comment).
std::string declaredPath(const std::string &Contents) {
  const std::string Tag = "lvish-analyze-fixture-path:";
  size_t At = Contents.find(Tag);
  EXPECT_NE(At, std::string::npos) << "fixture lacks a path declaration";
  size_t Begin = At + Tag.size();
  while (Begin < Contents.size() && Contents[Begin] == ' ')
    ++Begin;
  size_t End = Contents.find('\n', Begin);
  return Contents.substr(Begin, End - Begin);
}

std::vector<Finding> analyzeFixture(const std::string &Name,
                                    AnalyzerConfig Cfg = {}) {
  std::string Contents = readFixture(Name);
  return analyzeContents(declaredPath(Contents), Contents, Cfg);
}

int errorsOfRule(const std::vector<Finding> &Fs, const std::string &Rule) {
  int N = 0;
  for (const Finding &F : Fs)
    N += F.Sev == Finding::Error && F.Rule == Rule;
  return N;
}

int totalErrors(const std::vector<Finding> &Fs) {
  int N = 0;
  for (const Finding &F : Fs)
    N += F.Sev == Finding::Error;
  return N;
}

TEST(Analyze, EffectConsistencySeededViolations) {
  auto Fs = analyzeFixture("effect_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "effect-consistency"), 2);
  EXPECT_EQ(totalErrors(Fs), 2) << "no other rule should fire";
}

TEST(Analyze, EffectConsistencyCleanFixture) {
  auto Fs = analyzeFixture("effect_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0);
}

TEST(Analyze, StreamEffectsSeededViolations) {
  // The streaming API flows through the shared EffectOps table: the
  // analyzer must charge stream put/advance as Put, get/waitSize as Get,
  // and freezeStream as Freeze against the declared level.
  auto Fs = analyzeFixture("stream_effects_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "effect-consistency"), 3);
  EXPECT_EQ(totalErrors(Fs), 3) << "no other rule should fire";
}

TEST(Analyze, StreamEffectsCleanFixture) {
  auto Fs = analyzeFixture("stream_effects_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0);
}

TEST(Analyze, CtxEscapeSeededViolations) {
  auto Fs = analyzeFixture("ctx_escape_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "ctx-escape"), 2)
      << "handler capture + static-storage capture";
  EXPECT_EQ(totalErrors(Fs), 2);
}

TEST(Analyze, CtxEscapeCleanFixture) {
  auto Fs = analyzeFixture("ctx_escape_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0);
}

TEST(Analyze, HandlerCycleSeededViolation) {
  auto Fs = analyzeFixture("handler_cycle_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "handler-cycle"), 1);
  EXPECT_EQ(totalErrors(Fs), 1);
}

TEST(Analyze, HandlerCycleCleanFixture) {
  auto Fs = analyzeFixture("handler_cycle_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0);
}

TEST(Analyze, ParkUnderLockSeededViolation) {
  auto Fs = analyzeFixture("park_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "park-under-lock"), 1);
  EXPECT_EQ(totalErrors(Fs), 1);
}

TEST(Analyze, ParkUnderLockCleanFixture) {
  auto Fs = analyzeFixture("park_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0);
}

TEST(Analyze, MultiLineShapesStillMatch) {
  auto Fs = analyzeFixture("multiline_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "raw-sync"), 1)
      << "std::mutex split across lines";
  EXPECT_EQ(errorsOfRule(Fs, "deprecated-threshold-read"), 1)
      << "deprecated call with ( on the next line";
  EXPECT_EQ(totalErrors(Fs), 2);
}

TEST(Analyze, DeprecatedBorrowedSchedulerSeededViolations) {
  auto Fs = analyzeFixture("borrowed_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "deprecated-borrowed-scheduler"), 8)
      << "field assignment x2, On() factory, and all five *On wrappers";
  EXPECT_EQ(totalErrors(Fs), 8);
}

TEST(Analyze, DeprecatedBorrowedSchedulerCleanFixture) {
  auto Fs = analyzeFixture("borrowed_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0)
      << "Runtime::run/submit and the runParOnImpl funnel must not match";
}

TEST(Analyze, RetiredBuildFlagSeededViolations) {
  auto Fs = analyzeFixture("retired_flag_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "retired-build-flag"), 7)
      << "the fault and checker switches, the fault switch's constexpr "
         "mirror, and four trace macros";
  EXPECT_EQ(totalErrors(Fs), 7);
}

TEST(Analyze, RetiredBuildFlagCleanFixture) {
  auto Fs = analyzeFixture("retired_flag_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0)
      << "planActive() and the surviving build switches must not match";
}

TEST(Analyze, WallClockInCoreSeededViolations) {
  auto Fs = analyzeFixture("wallclock_violation.cpp");
  EXPECT_EQ(errorsOfRule(Fs, "wall-clock-in-core"), 3)
      << "steady/system/high_resolution ::now(), one split across lines";
  EXPECT_EQ(totalErrors(Fs), 3);
}

TEST(Analyze, WallClockInCoreCleanFixture) {
  auto Fs = analyzeFixture("wallclock_clean.cpp");
  EXPECT_EQ(totalErrors(Fs), 0)
      << "nowNanos(), step budgets, and clock TYPE mentions must not fire";
}

TEST(Analyze, SuppressionComments) {
  auto Fs = analyzeFixture("suppression.cpp");
  EXPECT_EQ(totalErrors(Fs), 0)
      << "every seeded violation carries its allow(<rule>) marker";
}

TEST(Analyze, FindingsCarryRuleFileAndLine) {
  auto Fs = analyzeFixture("park_violation.cpp");
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Rule, "park-under-lock");
  EXPECT_EQ(Fs[0].File, "src/sched/park_violation.cpp");
  EXPECT_GT(Fs[0].Line, 0u);
  EXPECT_FALSE(Fs[0].Message.empty());
}

TEST(Analyze, BaselineRoundTrip) {
  auto Fs = analyzeFixture("effect_violation.cpp");
  ASSERT_EQ(totalErrors(Fs), 2);

  std::string Doc = baselineToJson(Fs);
  std::string Err;
  std::map<std::string, int> Baseline = loadBaseline(Doc, Err);
  EXPECT_TRUE(Err.empty()) << Err;

  // Applying the freshly-written baseline grandfathers every finding.
  int NewErrors = 0;
  for (const Finding &F : Fs) {
    auto It = Baseline.find(F.key());
    if (It != Baseline.end() && It->second > 0)
      --It->second;
    else if (F.Sev == Finding::Error)
      ++NewErrors;
  }
  EXPECT_EQ(NewErrors, 0);

  // A finding NOT in the baseline stays fatal.
  auto Other = analyzeFixture("park_violation.cpp");
  ASSERT_EQ(Other.size(), 1u);
  EXPECT_EQ(Baseline.count(Other[0].key()), 0u);

  // Corrupt documents are rejected with a diagnostic, not silently empty.
  loadBaseline("{\"schema\":\"bogus\"}", Err);
  EXPECT_FALSE(Err.empty());
}

TEST(Analyze, JsonDocumentShape) {
  auto Fs = analyzeFixture("multiline_violation.cpp");
  std::string Doc = findingsToJson(Fs, 0);
  lvish::obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(lvish::obs::JsonValue::parse(Doc, V, &Err)) << Err;
  const auto *Schema = V.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Str, "lvish-analyze-v1");
  const auto *List = V.find("findings");
  ASSERT_NE(List, nullptr);
  ASSERT_TRUE(List->isArray());
  ASSERT_EQ(List->Arr.size(), Fs.size());
  for (const auto &F : List->Arr) {
    EXPECT_NE(F.find("rule"), nullptr);
    EXPECT_NE(F.find("severity"), nullptr);
    EXPECT_NE(F.find("file"), nullptr);
    EXPECT_NE(F.find("line"), nullptr);
    EXPECT_NE(F.find("message"), nullptr);
    EXPECT_NE(F.find("key"), nullptr);
  }
}

TEST(Analyze, EngineSelfTest) { EXPECT_EQ(lvish::analyze::selfTest(), 0); }

} // namespace
