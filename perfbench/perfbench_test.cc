// Tests of the benchmark's own logic: span arithmetic, order statistics,
// the pinned environment and the output checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/report.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"

namespace perfbench {
namespace {

Span MakeSpan(std::string_view name, int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.name = name;
  span.layer = LayerOf(name);
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimes, NestedChildrenAreSubtractedOnceEach) {
  const std::vector<Span> spans = {
      MakeSpan("request.job", 0, 100, -1),
      MakeSpan("engine.run", 10, 40, 0),
      MakeSpan("rc4.init", 20, 30, 1),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{70, 20, 10}));
}

TEST(SelfTimes, OverlappingChildrenSubtractTheirUnion) {
  const std::vector<Span> spans = {
      MakeSpan("request.job", 0, 100, -1),
      MakeSpan("engine.a", 10, 50, 0),
      MakeSpan("engine.b", 30, 70, 0),   // overlaps a by 20
      MakeSpan("store.c", 90, 130, 0),   // only 10 inside the parent
      MakeSpan("store.d", 35, 45, 0),    // inside both a and b
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfTimes, TimerChildrenSubtractTheirTotal) {
  std::vector<Span> spans = {MakeSpan("recovery.traverse", 0, 100, -1)};
  Span timer = MakeSpan("recovery.verify", 0, 25, 0);
  timer.timer = true;
  spans.push_back(timer);
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{75, 25}));
}

TEST(LayerShares, CoverageIsTheShareInsideLayerCalls) {
  std::vector<Span> spans = {
      MakeSpan("request.trial", 0, 100, -1),
      MakeSpan("crypto.keygen", 0, 60, 0),
      MakeSpan("request.trial", 200, 300, -1),
      MakeSpan("core.rank", 200, 220, 2),
  };
  spans[3].layer = "recovery";  // an explicit self-time layer wins
  const std::vector<LayerShare> shares = LayerShares(spans);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0].layer, "request");
  EXPECT_DOUBLE_EQ(shares[0].share, 120.0 / 200.0);
  EXPECT_EQ(shares[1].layer, "crypto");
  EXPECT_EQ(shares[2].layer, "recovery");
  EXPECT_DOUBLE_EQ(Coverage(spans), 80.0 / 200.0);
}

TEST(TraceBuffer, NestsAndInheritsTheRequest) {
  TraceBuffer buffer(true);
  {
    ScopedSpan root(&buffer, "request.trial", 7);
    ScopedSpan child(&buffer, "core.rank");
    child.set_work(3);
  }
  ASSERT_EQ(buffer.spans().size(), 2u);
  EXPECT_EQ(buffer.spans()[1].parent, 0);
  EXPECT_EQ(buffer.spans()[1].request, 7u);
  EXPECT_EQ(buffer.spans()[1].work, 3u);
  EXPECT_LE(buffer.spans()[0].start_ns, buffer.spans()[1].start_ns);
  EXPECT_GE(buffer.spans()[0].end_ns, buffer.spans()[1].end_ns);
}

TEST(TraceBuffer, DisabledOrNullRecordsNothing) {
  TraceBuffer off(false);
  {
    ScopedSpan span(&off, "core.rank");
    ScopedSpan none(nullptr, "core.rank");
    AccumulatedTimer timer(&off);
    timer.Start();
    timer.Stop();
    timer.Commit(&off, "recovery.verify");
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(AppendSpans, RebasesParents) {
  std::vector<Span> all = {MakeSpan("request.a", 0, 1, -1)};
  AppendSpans(&all, {MakeSpan("request.b", 0, 10, -1), MakeSpan("core.c", 1, 2, 0)});
  EXPECT_EQ(all[1].parent, -1);
  EXPECT_EQ(all[2].parent, 1);
}

TEST(Stats, MedianAndPercentileInterpolate) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10, 20, 30, 40}, 90), 36.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10, 20, 30, 40}, 100), 40.0);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> values;
  for (int i = 0; i < 19; ++i) values.push_back(i);
  Summary summary = Summarize(values);
  EXPECT_EQ(summary.count, 19u);
  EXPECT_DOUBLE_EQ(summary.median, 9.0);
  EXPECT_EQ(summary.tail_pct, 0.0);  // not even 10 beyond the median

  values.clear();
  for (int i = 0; i < 100; ++i) values.push_back(i);
  summary = Summarize(values);
  EXPECT_EQ(summary.tail_pct, 90.0);
  EXPECT_NEAR(summary.tail, 89.1, 1e-9);

  values.resize(1000, 0.0);
  EXPECT_EQ(Summarize(values).tail_pct, 99.0);
}

TEST(Environment, RefusesPinnedVariablesAndAssertBuilds) {
  const auto none = [](const char*) -> const char* { return nullptr; };
  EXPECT_EQ(EnvironmentProblem(none, true), "");
  EXPECT_NE(EnvironmentProblem(none, false), "");
  for (const char* pinned : kPinnedEnvironment) {
    const auto one = [pinned](const char* name) -> const char* {
      return std::string(name) == pinned ? "x" : nullptr;
    };
    const std::string problem = EnvironmentProblem(one, true);
    EXPECT_NE(problem.find(pinned), std::string::npos) << problem;
  }
}

TEST(RowSum, OneFlippedCellIsCaught) {
  rc4b::SingleByteAccumulator accumulator(16);
  rc4b::EngineOptions options;
  options.keys = 1000;
  options.workers = 2;
  rc4b::RunKeystreamEngine(options, accumulator);
  std::vector<uint64_t> cells(accumulator.grid().Cells().begin(),
                              accumulator.grid().Cells().end());
  EXPECT_EQ(RowSumProblem(cells, 256, 1000), "");
  cells[5 * 256 + 17] ^= 1;
  const std::string problem = RowSumProblem(cells, 256, 1000);
  EXPECT_NE(problem.find("row 5"), std::string::npos) << problem;
  EXPECT_NE(RowSumProblem(cells, 255, 1000), "");
}

TEST(RecordTrial, OnlyAWrongAcceptedPlaintextFails) {
  OutcomeLog log;
  rc4b::recovery::RecoveryResult result;
  RecordTrial(result, 0, &log);  // nothing accepted within budget
  result.found = true;
  result.correct = true;
  RecordTrial(result, 1, &log);
  result.correct = false;
  RecordTrial(result, 2, &log);
  EXPECT_EQ(log.attempted(), 3u);
  EXPECT_EQ(log.failed(), 1u);
  EXPECT_NE(log.failures()[0].find("trial 2"), std::string::npos);
}

TEST(Digest, KeptValuesAreLookedUpByWorkloadAndSeed) {
  const std::string path = "perfbench_digest_test.txt";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("# comment\ntkip-attack 1 00000000000000ff\ncookie-attack 1 10\n", file);
  std::fclose(file);
  EXPECT_EQ(ExpectedDigest(path, "tkip-attack", 1), 0xffu);
  EXPECT_EQ(ExpectedDigest(path, "cookie-attack", 1), 0x10u);
  EXPECT_FALSE(ExpectedDigest(path, "tkip-attack", 2).has_value());
  std::filesystem::remove(path);
  const uint64_t words[] = {1, 2};
  EXPECT_NE(DigestWords(kDigestInit, words), DigestWords(kDigestInit, {}));
}

TEST(ResultJson, HasExactlyTheResultKeys) {
  Metric metric{"keys_per_s", "1/s", 1.5, 3, 0, 0, "throughput_per_s"};
  EXPECT_EQ(ResultJson(true, 4, 0, {metric}),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
            "{\"throughput_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace perfbench
