#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace whyq {
namespace {

TEST(MetricsTest, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(MetricsTest, CounterConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, HistogramEmpty) {
  StreamingHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 0.0);
}

TEST(MetricsTest, HistogramTracksExactMinMeanMax) {
  StreamingHistogram h;
  h.Record(1.5);
  h.Record(2.5);
  h.Record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 104.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 104.0);
}

TEST(MetricsTest, QuantilesWithinBucketResolution) {
  StreamingHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  // Bucket width is <= 12.5% relative; allow 15% slack.
  EXPECT_NEAR(h.Quantile(0.50), 500.0, 75.0);
  EXPECT_NEAR(h.Quantile(0.95), 950.0, 143.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 149.0);
  // Edge quantiles resolve to the edge buckets (within bucket width) and
  // never leave the exact [min, max] envelope.
  EXPECT_NEAR(h.Quantile(0.0), 1.0, 0.15);
  EXPECT_NEAR(h.Quantile(1.0), 1000.0, 20.0);
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

// The property the old sample-buffer stats provably lacked: after any
// number of samples, a shift in the input distribution still moves the
// quantiles — nothing is frozen on early traffic.
TEST(MetricsTest, QuantilesTrackMidRunShift) {
  StreamingHistogram h;
  constexpr int kPhase = 70000;  // > the old 65536-sample buffer
  for (int i = 0; i < kPhase; ++i) h.Record(1.0);
  EXPECT_NEAR(h.Quantile(0.95), 1.0, 0.2);
  for (int i = 0; i < kPhase; ++i) h.Record(100.0);
  // 95th percentile of the combined stream lies in the slow phase.
  EXPECT_GT(h.Quantile(0.95), 80.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.count(), 2u * kPhase);
}

TEST(MetricsTest, BucketGeometry) {
  // Bounds are monotone, and every recorded value lands in a bucket whose
  // [lower, upper) interval contains it.
  for (size_t i = 0; i + 1 < StreamingHistogram::kBucketCount; ++i) {
    EXPECT_LT(StreamingHistogram::BucketLowerBound(i),
              StreamingHistogram::BucketLowerBound(i + 1));
  }
  for (double v : {0.001, 0.5, 1.0, 1.5, 3.7, 64.0, 1000.0, 123456.0}) {
    size_t i = StreamingHistogram::BucketIndex(v);
    ASSERT_LT(i, StreamingHistogram::kBucketCount);
    EXPECT_LE(StreamingHistogram::BucketLowerBound(i), v) << "v=" << v;
    EXPECT_GT(StreamingHistogram::BucketUpperBound(i), v) << "v=" << v;
  }
}

TEST(MetricsTest, OutOfRangeValuesClampToEdgeBuckets) {
  StreamingHistogram h;
  h.Record(0.0);    // below the covered range
  h.Record(-5.0);   // nonsense input: clamps, never crashes
  h.Record(1e12);   // above the covered range
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);   // exact envelope keeps the raw value
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(StreamingHistogram::kBucketCount - 1), 1u);
  // Quantiles stay within the exact envelope even for clamped samples.
  EXPECT_GE(h.Quantile(0.99), -5.0);
  EXPECT_LE(h.Quantile(0.99), 1e12);
}

TEST(MetricsTest, RequestTraceTotalsAndRendering) {
  RequestTrace t;
  t.queue_ms = 1.0;
  t.parse_ms = 2.0;
  t.prepare_ms = 3.0;
  t.candidates_ms = 1.0;
  t.answer_match_ms = 1.5;
  t.path_index_ms = 0.5;
  t.search_ms = 4.0;
  t.matcher_candidates = 7;
  t.mbs_enumerated = 5;
  t.mbs_verified = 3;
  t.greedy_rounds = 0;
  EXPECT_DOUBLE_EQ(t.StagesTotalMs(), 10.0);
  std::string s = t.ToString();
  EXPECT_NE(s.find("stages:"), std::string::npos);
  EXPECT_NE(s.find("work:"), std::string::npos);
  EXPECT_NE(s.find("mbs-enumerated=5"), std::string::npos);
  EXPECT_NE(s.find("mbs-verified=3"), std::string::npos);
  // Sub-stages render only when the prepare step actually built something.
  EXPECT_NE(s.find("path-index"), std::string::npos);
  RequestTrace hit;
  hit.prepare_ms = 0.1;
  EXPECT_EQ(hit.ToString().find("path-index"), std::string::npos);
}

// Golden bytes: every field distinct, so a renamed, dropped or reordered
// counter changes the rendering.
RequestTrace GoldenTrace() {
  RequestTrace t;
  t.queue_ms = 1.25;
  t.parse_ms = 2.5;
  t.prepare_ms = 3.75;
  t.candidates_ms = 0.5;
  t.answer_match_ms = 0.625;
  t.path_index_ms = 0.875;
  t.search_ms = 10.125;
  t.matcher_candidates = 11;
  t.mbs_enumerated = 12;
  t.mbs_verified = 13;
  t.greedy_rounds = 14;
  t.ctx_hits = 15;
  t.ctx_misses = 16;
  t.ctx_delta_builds = 17;
  t.ctx_pruned = 18;
  t.ctx_literal_scans = 19;
  return t;
}

TEST(MetricsTest, RequestTraceToStringGoldenBytes) {
  EXPECT_EQ(GoldenTrace().ToString(),
            "stages: queue=1.25ms parse=2.50ms prepare=3.75ms "
            "(candidates=0.50ms match=0.62ms path-index=0.88ms) "
            "search=10.12ms\n"
            "work: candidates=11 mbs-enumerated=12 mbs-verified=13 "
            "greedy-rounds=14\n"
            "ctx: hits=15 misses=16 delta-builds=17 pruned=18 "
            "literal-scans=19\n");
  RequestTrace hit = GoldenTrace();
  hit.candidates_ms = 0;
  hit.answer_match_ms = 0;
  hit.path_index_ms = 0;
  EXPECT_EQ(hit.ToString(),
            "stages: queue=1.25ms parse=2.50ms prepare=3.75ms "
            "search=10.12ms\n"
            "work: candidates=11 mbs-enumerated=12 mbs-verified=13 "
            "greedy-rounds=14\n"
            "ctx: hits=15 misses=16 delta-builds=17 pruned=18 "
            "literal-scans=19\n");
}

}  // namespace
}  // namespace whyq
