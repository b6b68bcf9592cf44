// whyq-lint rule tests: every rule is exercised against its positive and
// negative fixtures under tests/lint_fixtures/ (linted under virtual
// src/ paths so path-based applicability triggers), plus inline edge
// cases for the lexer, and a check that every stats counter key is in the
// docs/ARCHITECTURE.md glossary. The final test runs the linter over the
// real tree, which is what keeps the repo invariant-clean.
//
// Note: banned tokens appear below only inside string literals — the
// linter strips literals before matching, so this file stays clean when
// the tree scan reaches it.

#include "tools/lint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats_fields.h"
#include "gtest/gtest.h"

namespace whyq::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(WHYQ_LINT_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<int> Lines(const std::vector<Violation>& vs) {
  std::vector<int> lines;
  for (const auto& v : vs) lines.push_back(v.line);
  return lines;
}

void ExpectAllRule(const std::vector<Violation>& vs, const std::string& rule) {
  for (const auto& v : vs) EXPECT_EQ(v.rule, rule) << v.message;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintStripTest, BlanksCommentsAndLiteralsPreservingLines) {
  std::string src =
      "int a; // trailing comment\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"quoted \\\" cout\";\n"
      "char c = 'x';\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("comment"), std::string::npos);
  EXPECT_EQ(out.find("block"), std::string::npos);
  EXPECT_EQ(out.find("quoted"), std::string::npos);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintStripTest, RawStringsAreBlanked) {
  std::string src = "auto s = R\"(body with cout and \" quote)\"; int k;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int k;"), std::string::npos);
}

TEST(LintStripTest, PrefixedRawStringsAreBlanked) {
  // u8R/uR/UR/LR openers were once unrecognized: the prefix letter made
  // the `R` look like the tail of an identifier, so the body leaked into
  // the token stream as code.
  std::string src =
      "auto a = u8R\"(cout inside utf8 raw)\"; int p;\n"
      "auto b = LR\"(cout inside wide raw)\"; int q;\n"
      "auto c = uR\"x(cout with \" quote)x\"; int r;\n"
      "auto d = UR\"(cout once more)\"; int s;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int p;"), std::string::npos);
  EXPECT_NE(out.find("int q;"), std::string::npos);
  EXPECT_NE(out.find("int r;"), std::string::npos);
  EXPECT_NE(out.find("int s;"), std::string::npos);
}

TEST(LintStripTest, RawStringClosingDelimiterIsBlanked) {
  // The `)123"` terminator must not leak its digits into the token
  // stream — a limits rule would read them as a decimal literal.
  std::string src = "auto s = R\"123(body text)123\"; int k = 7;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("123"), std::string::npos);
  EXPECT_EQ(out.find("body"), std::string::npos);
  EXPECT_NE(out.find("int k = 7;"), std::string::npos);
}

TEST(LintStripTest, EncodingPrefixedOrdinaryStringsStillBlank) {
  std::string src = "auto s = u8\"cout here\"; int k;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int k;"), std::string::npos);
}

TEST(LintStripTest, DigitSeparatorsDoNotOpenCharLiterals) {
  // A ' after a (hex) digit is a C++14 separator; treating it as a char
  // literal would swallow the rest of the line.
  std::string src = "size_t n = 1'048'576; uint32_t m = 0xFF'FF; int t;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_NE(out.find("1'048'576"), std::string::npos);
  EXPECT_NE(out.find("0xFF'FF"), std::string::npos);
  EXPECT_NE(out.find("int t;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// v2 per-TU model
// ---------------------------------------------------------------------------

TEST(LintModelTest, ExtractsFunctionExtentsAndLoops) {
  std::string src =
      "namespace n {\n"
      "class C {\n"
      " public:\n"
      "  int Twice(int x) { return x + x; }\n"
      "};\n"
      "int Sum(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    while (s < i) ++s;\n"
      "  }\n"
      "  do { --s; } while (s > 0);\n"
      "  return s;\n"
      "}\n"
      "}  // namespace n\n";
  TuModel m = BuildTuModel(src);
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "Twice");
  EXPECT_TRUE(m.functions[0].loops.empty());
  EXPECT_EQ(m.functions[1].name, "Sum");
  ASSERT_EQ(m.functions[1].loops.size(), 3u);
  // Ordered by body offset: the for body, the braceless while nested in
  // it, then the do-while (whose trailing while-terminator is not a
  // fourth loop).
  EXPECT_EQ(m.functions[1].loops[0].depth, 1);
  EXPECT_EQ(m.functions[1].loops[1].depth, 2);
  EXPECT_EQ(m.functions[1].loops[2].depth, 1);
}

TEST(LintModelTest, RecordHeadsWithMacroParensAreNotFunctions) {
  // `class WHYQ_CAPABILITY("mutex") Mutex {` carries a paren-looking
  // macro; only the two real member functions may become extents.
  std::string src =
      "class WHYQ_CAPABILITY(\"mutex\") Mutex {\n"
      " public:\n"
      "  void Lock() WHYQ_ACQUIRE() { mu_.lock(); }\n"
      "  void Unlock() WHYQ_RELEASE() { mu_.unlock(); }\n"
      "};\n";
  TuModel m = BuildTuModel(src);
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].name, "Lock");
  EXPECT_EQ(m.functions[1].name, "Unlock");
}

TEST(LintModelTest, TemplateIntroDoesNotReadAsRecord) {
  std::string src =
      "template <class Clock, class Duration>\n"
      "bool WaitUntil(int deadline) {\n"
      "  while (deadline > 0) --deadline;\n"
      "  return true;\n"
      "}\n";
  TuModel m = BuildTuModel(src);
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "WaitUntil");
  EXPECT_EQ(m.functions[0].loops.size(), 1u);
}

TEST(LintStripTest, BannedTokenInCommentIsInvisible) {
  // The fixture relies on this: its comments name the poll functions.
  std::vector<Violation> v = LintFile(
      "src/service/x.cc", "// mentions printf and cout only here\nint a;\n");
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Rule 1: cancel-poll
// ---------------------------------------------------------------------------

TEST(LintCancelPollTest, FlagsHotLoopsWithoutPoll) {
  std::vector<Violation> v =
      LintFile("src/why/fixture.cc", ReadFixture("rule1_cancel_bad.cc"));
  ExpectAllRule(v, "cancel-poll");
  EXPECT_EQ(Lines(v), (std::vector<int>{10, 19, 15}));  // whiles first
}

TEST(LintCancelPollTest, AcceptsPolledLoops) {
  std::vector<Violation> v =
      LintFile("src/matcher/fixture.cc", ReadFixture("rule1_cancel_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintCancelPollTest, RuleOnlyAppliesToWhyAndMatcher) {
  // The same unpolled loops are legal elsewhere (e.g. offline gen code).
  std::vector<Violation> v =
      LintFile("src/gen/fixture.cc", ReadFixture("rule1_cancel_bad.cc"));
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Rule 2: determinism
// ---------------------------------------------------------------------------

TEST(LintDeterminismTest, FlagsUnseededRandomnessAndWallClockSeeds) {
  std::vector<Violation> v =
      LintFile("src/gen/fixture.cc", ReadFixture("rule2_determinism_bad.cc"));
  ExpectAllRule(v, "determinism");
  // srand + wall-clock time() on line 10, the raw call on 11, the device
  // on 12.
  ASSERT_EQ(v.size(), 4u);
  std::vector<int> lines = Lines(v);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{10, 10, 11, 12}));
}

TEST(LintDeterminismTest, AcceptsSeededRngAndSubstringIdentifiers) {
  std::vector<Violation> v =
      LintFile("src/gen/fixture.cc", ReadFixture("rule2_determinism_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintDeterminismTest, RngImplementationIsExempt) {
  std::vector<Violation> v = LintFile("src/common/rng.cc",
                                      ReadFixture("rule2_determinism_bad.cc"));
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Rule 3: output-channel
// ---------------------------------------------------------------------------

TEST(LintOutputChannelTest, FlagsConsoleOutputInLibraryCode) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule3_output_bad.cc"));
  ExpectAllRule(v, "output-channel");
  EXPECT_EQ(Lines(v), (std::vector<int>{10, 11, 12, 13}));
}

TEST(LintOutputChannelTest, AcceptsMetricsAndBufferFormatting) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule3_output_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintOutputChannelTest, ToolsAndBenchAreExempt) {
  EXPECT_TRUE(
      LintFile("tools/fixture.cc", ReadFixture("rule3_output_bad.cc"))
          .empty());
  EXPECT_TRUE(
      LintFile("bench/fixture.cc", ReadFixture("rule3_output_bad.cc"))
          .empty());
}

// ---------------------------------------------------------------------------
// Rule 5: nodespan-member
// ---------------------------------------------------------------------------

TEST(LintNodeSpanTest, FlagsStoredSpans) {
  std::vector<Violation> v =
      LintFile("src/why/fixture.cc", ReadFixture("rule5_nodespan_bad.cc"));
  ExpectAllRule(v, "nodespan-member");
  EXPECT_EQ(Lines(v), (std::vector<int>{19, 23}));
}

TEST(LintNodeSpanTest, AcceptsLocalsParamsReturnsAndAliases) {
  std::vector<Violation> v =
      LintFile("src/why/fixture.cc", ReadFixture("rule5_nodespan_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintNodeSpanTest, GraphLayerIsExempt) {
  std::vector<Violation> v =
      LintFile("src/graph/fixture.cc", ReadFixture("rule5_nodespan_bad.cc"));
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Rule 6: header-guard
// ---------------------------------------------------------------------------

TEST(LintHeaderGuardTest, FlagsNonCanonicalGuard) {
  std::vector<Violation> v =
      LintFile("src/why/rule6_guard_bad.h", ReadFixture("rule6_guard_bad.h"));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "header-guard");
  EXPECT_NE(v[0].message.find("WHYQ_WHY_RULE6_GUARD_BAD_H_"),
            std::string::npos);
}

TEST(LintHeaderGuardTest, AcceptsCanonicalGuard) {
  std::vector<Violation> v = LintFile("src/why/rule6_guard_good.h",
                                      ReadFixture("rule6_guard_good.h"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintHeaderGuardTest, ReportsMissingGuardAndUnclosedGuard) {
  std::vector<Violation> none =
      LintFile("src/common/x.h", "#pragma once\nint a;\n");
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].rule, "header-guard");

  std::vector<Violation> open = LintFile(
      "src/common/x.h", "#ifndef WHYQ_COMMON_X_H_\n#define WHYQ_COMMON_X_H_\n");
  ASSERT_EQ(open.size(), 1u);
  EXPECT_NE(open[0].message.find("never closed"), std::string::npos);

  std::vector<Violation> mismatch = LintFile(
      "src/common/x.h", "#ifndef WHYQ_COMMON_X_H_\n#define OTHER\n#endif\n");
  ASSERT_EQ(mismatch.size(), 1u);
  EXPECT_NE(mismatch[0].message.find("does not match"), std::string::npos);
}

TEST(LintHeaderGuardTest, SrcPrefixIsDroppedAndToolsPrefixKept) {
  // src/common/cancel.h -> WHYQ_COMMON_CANCEL_H_ (convention predates the
  // linter); tools keep the full path.
  std::vector<Violation> v = LintFile(
      "src/common/cancel.h",
      "#ifndef WHYQ_COMMON_CANCEL_H_\n#define WHYQ_COMMON_CANCEL_H_\n"
      "#endif\n");
  EXPECT_TRUE(v.empty()) << v.front().message;
  std::vector<Violation> t = LintFile(
      "tools/lint/lint.h",
      "#ifndef WHYQ_TOOLS_LINT_LINT_H_\n#define WHYQ_TOOLS_LINT_LINT_H_\n"
      "#endif\n");
  EXPECT_TRUE(t.empty()) << t.front().message;
}

// ---------------------------------------------------------------------------
// Rule 7: server-limits
// ---------------------------------------------------------------------------

TEST(LintServerLimitsTest, FlagsInlineLimitsInServerCode) {
  std::vector<Violation> v =
      LintFile("src/server/fixture.cc", ReadFixture("rule7_limits_bad.cc"));
  ExpectAllRule(v, "server-limits");
  EXPECT_EQ(Lines(v), (std::vector<int>{9, 10, 14}));
}

TEST(LintServerLimitsTest, AcceptsNamedLimitsMasksAndSmallConstants) {
  std::vector<Violation> v =
      LintFile("src/server/fixture.cc", ReadFixture("rule7_limits_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintServerLimitsTest, LimitsHeaderAndOtherLayersAreExempt) {
  // The pigeonhole itself may (must) hold the literals...
  EXPECT_TRUE(
      LintFile("src/server/limits.h",
               "#ifndef WHYQ_SERVER_LIMITS_H_\n#define WHYQ_SERVER_LIMITS_H_\n"
               "inline constexpr int kCap = 65536;\n#endif\n")
          .empty());
  // ...and the rule does not reach outside src/server/.
  EXPECT_TRUE(
      LintFile("src/service/fixture.cc", ReadFixture("rule7_limits_bad.cc"))
          .empty());
}

TEST(LintServerLimitsTest, SuffixedAndSeparatedLiteralsAreCaught) {
  std::vector<Violation> v = LintFile(
      "src/server/x.cc", "size_t a = 1'048'576ull;\nint b = 100;\n");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].message.find("1048576"), std::string::npos);
  EXPECT_NE(v[1].message.find("100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule 8: snapshot-limits
// ---------------------------------------------------------------------------

TEST(LintSnapshotLimitsTest, FlagsInlineFormatConstantsInSerializer) {
  std::vector<Violation> v = LintFile("src/graph/snapshot.cc",
                                      ReadFixture("rule8_snapshot_bad.cc"));
  ExpectAllRule(v, "snapshot-limits");
  EXPECT_EQ(Lines(v), (std::vector<int>{11, 12, 16}));
}

TEST(LintSnapshotLimitsTest, AcceptsNamedConstantsMasksAndSmallValues) {
  std::vector<Violation> v = LintFile("src/graph/snapshot.cc",
                                      ReadFixture("rule8_snapshot_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintSnapshotLimitsTest, HeaderAndOtherGraphFilesAreExempt) {
  // The pigeonhole itself may (must) hold the literals...
  EXPECT_TRUE(LintFile("src/graph/snapshot.h",
                       "#ifndef WHYQ_GRAPH_SNAPSHOT_H_\n"
                       "#define WHYQ_GRAPH_SNAPSHOT_H_\n"
                       "inline constexpr int kAlign = 4096;\n#endif\n")
                  .empty());
  // ...and the rule binds to the snapshot layer only, not all of
  // src/graph/ (graph.cc may size reserve() calls freely).
  EXPECT_TRUE(LintFile("src/graph/graph.cc",
                       ReadFixture("rule8_snapshot_bad.cc"))
                  .empty());
}

// ---------------------------------------------------------------------------
// Rule 9: graph-mutation
// ---------------------------------------------------------------------------

TEST(LintGraphMutationTest, FlagsStorageMemberReferencesOutsideGraphCore) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule9_mutation_bad.cc"));
  ExpectAllRule(v, "graph-mutation");
  // bucket_nodes_ on 10, out_nbrs_ on 13, attr_range_ on 19; the
  // out_range_ mention on 13 is in a comment and the attr_ranges_view
  // identifier on 18 only contains a member name as a substring —
  // neither may fire. Violations come out in token order, so sort.
  std::vector<int> lines = Lines(v);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{10, 13, 19}));
}

TEST(LintGraphMutationTest, AcceptsPublicApiAndSubstringIdentifiers) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule9_mutation_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintGraphMutationTest, GraphCoreFilesAreExempt) {
  // Builder, updater and snapshot codec are the sanctioned writers...
  EXPECT_TRUE(LintFile("src/graph/update.cc",
                       ReadFixture("rule9_mutation_bad.cc"))
                  .empty());
  EXPECT_TRUE(LintFile("src/graph/snapshot.cc",
                       ReadFixture("rule9_mutation_bad.cc"))
                  .empty());
  // ...but the exemption is per-file, not all of src/graph/.
  std::vector<Violation> v =
      LintFile("src/graph/graph_io.cc", ReadFixture("rule9_mutation_bad.cc"));
  ExpectAllRule(v, "graph-mutation");
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Rule 10: plan-limits
// ---------------------------------------------------------------------------

TEST(LintPlanLimitsTest, FlagsInlineFormatConstantsInSerializer) {
  std::vector<Violation> v = LintFile("src/service/plan.cc",
                                      ReadFixture("rule10_plan_bad.cc"));
  ExpectAllRule(v, "plan-limits");
  EXPECT_EQ(Lines(v), (std::vector<int>{11, 12, 16}));
}

TEST(LintPlanLimitsTest, AcceptsNamedConstantsMasksAndSmallValues) {
  std::vector<Violation> v = LintFile("src/service/plan.cc",
                                      ReadFixture("rule10_plan_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintPlanLimitsTest, HeaderAndOtherServiceFilesAreExempt) {
  // The pigeonhole itself may (must) hold the literals...
  EXPECT_TRUE(LintFile("src/service/plan.h",
                       "#ifndef WHYQ_SERVICE_PLAN_H_\n"
                       "#define WHYQ_SERVICE_PLAN_H_\n"
                       "inline constexpr int kAlign = 4096;\n#endif\n")
                  .empty());
  // ...and the rule binds to the plan layer only, not all of
  // src/service/ (service.cc may size reserve() calls freely).
  EXPECT_TRUE(LintFile("src/service/service.cc",
                       ReadFixture("rule10_plan_bad.cc"))
                  .empty());
}

// ---------------------------------------------------------------------------
// Limits-rule literal edge cases (shared across rules 7, 8 and 10): hex
// and binary stay exempt under every path, suffixes and separators never
// disguise a decimal knob.
// ---------------------------------------------------------------------------

TEST(LintLimitsEdgeTest, HexAndBinaryLiteralsAreExemptEverywhere) {
  std::string good = ReadFixture("limits_edge_good.cc");
  for (const char* path : {"src/server/fixture.cc", "src/graph/snapshot.cc",
                           "src/service/plan.cc", "src/common/image.cc"}) {
    std::vector<Violation> v = LintFile(path, good);
    EXPECT_TRUE(v.empty()) << path << ": " << v.front().message;
  }
}

TEST(LintLimitsEdgeTest, SuffixedAndSeparatedDecimalsAreCaughtEverywhere) {
  std::string bad = ReadFixture("limits_edge_bad.cc");
  struct Case {
    const char* path;
    const char* rule;
  };
  for (const Case& c : {Case{"src/server/fixture.cc", "server-limits"},
                        Case{"src/graph/snapshot.cc", "snapshot-limits"},
                        Case{"src/service/plan.cc", "plan-limits"},
                        Case{"src/common/image.cc", "image-limits"}}) {
    std::vector<Violation> v = LintFile(c.path, bad);
    ExpectAllRule(v, c.rule);
    EXPECT_EQ(Lines(v), (std::vector<int>{9, 10, 11})) << c.path;
  }
}

// ---------------------------------------------------------------------------
// Rule 11: epoch-pin
// ---------------------------------------------------------------------------

TEST(LintEpochPinTest, FlagsMemberStoreAndStaticLocalWithoutPin) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule11_epoch_bad.cc"));
  ExpectAllRule(v, "epoch-pin");
  EXPECT_EQ(Lines(v), (std::vector<int>{14, 18}));
}

TEST(LintEpochPinTest, AcceptsPinnedMembersAndLocals) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule11_epoch_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintEpochPinTest, GraphLayerIsExempt) {
  // The graph core owns the storage the spans borrow; its internals may
  // hand views around freely.
  EXPECT_TRUE(
      LintFile("src/graph/fixture.cc", ReadFixture("rule11_epoch_bad.cc"))
          .empty());
}

// ---------------------------------------------------------------------------
// Rule 12: unchecked-status
// ---------------------------------------------------------------------------

TEST(LintUncheckedStatusTest, FlagsDiscardedCallsAndUnreadLocals) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule12_status_bad.cc"));
  ExpectAllRule(v, "unchecked-status");
  std::vector<int> lines = Lines(v);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{9, 11, 12, 13, 14}));
}

TEST(LintUncheckedStatusTest, AcceptsConsumedVerdicts) {
  std::vector<Violation> v =
      LintFile("src/service/fixture.cc", ReadFixture("rule12_status_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintUncheckedStatusTest, VoidCastDocumentsADeliberateDrop) {
  std::vector<Violation> v = LintFile(
      "src/service/x.cc",
      "void F(WhyqService& s) { (void)s.TrySubmit(Req(), nullptr); }\n");
  EXPECT_TRUE(v.empty()) << v.front().message;
}

// ---------------------------------------------------------------------------
// Rule 13: hot-loop-alloc
// ---------------------------------------------------------------------------

TEST(LintHotLoopAllocTest, FlagsAllocationAndGrowthInHotLoops) {
  std::vector<Violation> v = LintFile("src/matcher/fixture.cc",
                                      ReadFixture("rule13_hotloop_bad.cc"));
  ExpectAllRule(v, "hot-loop-alloc");
  EXPECT_EQ(Lines(v), (std::vector<int>{11, 18}));
}

TEST(LintHotLoopAllocTest, AcceptsPreSizedScratchAndColdFunctions) {
  std::vector<Violation> v = LintFile("src/matcher/fixture.cc",
                                      ReadFixture("rule13_hotloop_good.cc"));
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(LintHotLoopAllocTest, RuleOnlyAppliesToMatcherAndWhy) {
  // Offline generators may allocate in loops named like the hot path.
  EXPECT_TRUE(
      LintFile("src/gen/fixture.cc", ReadFixture("rule13_hotloop_bad.cc"))
          .empty());
}

// ---------------------------------------------------------------------------
// Stats glossary: every serialized counter is one row of a
// common/stats_fields.h list; its JSON key must be documented, backticked,
// in a row of the matching glossary table of docs/ARCHITECTURE.md.
// ---------------------------------------------------------------------------

std::string GlossaryTableRows(const std::string& doc,
                              const std::string& heading) {
  size_t begin = doc.find("\n" + heading + "\n");
  EXPECT_NE(begin, std::string::npos) << "missing section " << heading;
  if (begin == std::string::npos) return "";
  size_t end = doc.find("\n#", begin + heading.size() + 2);
  std::istringstream lines(doc.substr(begin, end - begin));
  std::string rows;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("|", 0) == 0) rows += line + "\n";
  }
  return rows;
}

TEST(StatsGlossaryTest, EveryCounterKeyIsDocumented) {
  std::ifstream in(std::string(WHYQ_REPO_ROOT) + "/docs/ARCHITECTURE.md");
  ASSERT_TRUE(in.is_open());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string stats = GlossaryTableRows(ss.str(), "### Stats glossary");
  const std::string server =
      GlossaryTableRows(ss.str(), "### Server stats glossary");
  auto expect_documented = [](const std::string& table, const char* glossary,
                              const std::string& key) {
    EXPECT_NE(table.find("`" + key + "`"), std::string::npos)
        << "add `" << key << "` to the " << glossary;
  };
#define WHYQ_IN_STATS(name, key, help) \
  expect_documented(stats, "Stats glossary", key);
#define WHYQ_IN_SERVER(name, key, help) \
  expect_documented(server, "Server stats glossary", key);
  WHYQ_STAGE_TOTALS(WHYQ_IN_STATS)
  WHYQ_WORK_COUNTERS(WHYQ_IN_STATS)
  WHYQ_CTX_COUNTERS(WHYQ_IN_STATS)
  WHYQ_SERVICE_COUNTERS(WHYQ_IN_STATS)
  WHYQ_PLAN_STORE_COUNTERS(WHYQ_IN_STATS)
  WHYQ_SERVER_COUNTERS(WHYQ_IN_SERVER)
#undef WHYQ_IN_STATS
#undef WHYQ_IN_SERVER
}

// ---------------------------------------------------------------------------
// The real tree must be clean — same invariant as the lint_tree ctest
// entry, but failing inside the suite gives a better signal locally.
// ---------------------------------------------------------------------------

TEST(LintTreeTest, RepositoryIsInvariantClean) {
  std::string error;
  std::vector<Violation> v = LintTree(WHYQ_REPO_ROOT, &error);
  EXPECT_TRUE(error.empty()) << error;
  for (const auto& viol : v) {
    ADD_FAILURE() << viol.file << ":" << viol.line << ": [" << viol.rule
                  << "] " << viol.message;
  }
}

}  // namespace
}  // namespace whyq::lint
