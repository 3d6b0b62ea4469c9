// Unit tests for the spe::obs observability layer: the geometric
// histogram's bucket geometry (pinned so exposition output cannot
// silently shift), the metrics registry + collector lifecycle, the
// trace ring, and the exposition text format.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "spe/obs/histogram.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"
#include "spe/serve/server_stats.h"

namespace spe {
namespace {

// ---------------------------------------------------------------------------
// GeometricHistogram geometry. These constants are load-bearing: the
// serve latency exposition publishes these exact bucket bounds, so a
// change here is a breaking change for anything scraping the metrics.

TEST(GeometricHistogramTest, SubBits3FirstBucketsAreExact) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, v), v);
    EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, v), v);
  }
}

TEST(GeometricHistogramTest, SubBits3PinnedBoundaries) {
  // One sub-bucket step inside each octave: 8 sub-buckets per power of
  // two from 8 upward.
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 8), 8u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 15), 15u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 16), 16u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 17), 16u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 18), 17u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(3, 1000), 63u);
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, 8), 8u);
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, 16), 16u);
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, 17), 18u);
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, 63), 960u);
  // The serve layer's 488-bucket histogram: its top bucket's lower
  // bound is the largest that fits in 64 bits.
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(3, 487),
            std::uint64_t{15} << 59);
}

TEST(GeometricHistogramTest, SubBits0IsPowerOfTwoBuckets) {
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 0), 0u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 1), 1u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 2), 2u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 3), 2u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 4), 3u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 255), 8u);
  EXPECT_EQ(obs::GeometricHistogram::IndexFor(0, 256), 9u);
  // Bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(0, 1), 1u);
  EXPECT_EQ(obs::GeometricHistogram::LowerBoundFor(0, 9), 256u);
}

TEST(GeometricHistogramTest, LowerBoundInvertsIndex) {
  for (const int sub_bits : {0, 1, 3, 5}) {
    // Stay inside the representable index domain: past MaxIndexFor the
    // bucket's lower bound would overflow 64 bits (the constructor
    // rejects such geometries).
    const std::size_t limit = std::min<std::size_t>(
        200, obs::GeometricHistogram::MaxIndexFor(sub_bits) + 1);
    for (std::size_t index = 0; index < limit; ++index) {
      const std::uint64_t lo =
          obs::GeometricHistogram::LowerBoundFor(sub_bits, index);
      EXPECT_EQ(obs::GeometricHistogram::IndexFor(sub_bits, lo), index)
          << "sub_bits=" << sub_bits << " index=" << index;
      if (lo > 0) {
        // The value just below the lower bound belongs to the previous
        // bucket — bounds are tight.
        EXPECT_EQ(obs::GeometricHistogram::IndexFor(sub_bits, lo - 1),
                  index - 1);
      }
    }
  }
}

TEST(GeometricHistogramTest, ServerStatsSharesTheGeometry) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{100}, std::uint64_t{12345},
        std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t raw = obs::GeometricHistogram::IndexFor(3, v);
    const std::size_t clamped =
        raw < ServerStats::kLatencyBuckets ? raw
                                           : ServerStats::kLatencyBuckets - 1;
    EXPECT_EQ(ServerStats::BucketIndex(v), clamped);
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{10},
                              std::size_t{100}, std::size_t{487}}) {
    EXPECT_EQ(ServerStats::BucketLowerBound(i),
              obs::GeometricHistogram::LowerBoundFor(3, i));
  }
}

TEST(GeometricHistogramTest, RecordAndAggregates) {
  obs::GeometricHistogram hist(3, 488);
  hist.Record(5);
  hist.Record(5);
  hist.Record(1000);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 1010u);
  EXPECT_EQ(hist.bucket_count(5), 2u);
  EXPECT_EQ(hist.bucket_count(63), 1u);
}

TEST(GeometricHistogramTest, OverflowLandsInLastBucket) {
  obs::GeometricHistogram hist(0, 4);
  hist.Record(1);    // bucket 1
  hist.Record(100);  // bucket index 7 -> clamped to 3
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
}

// ---------------------------------------------------------------------------
// Exposition format.

TEST(ExpositionTest, FormatMetricValue) {
  EXPECT_EQ(obs::FormatMetricValue(1.0), "1");
  EXPECT_EQ(obs::FormatMetricValue(-3.0), "-3");
  EXPECT_EQ(obs::FormatMetricValue(0.25), "0.25");
  EXPECT_EQ(obs::FormatMetricValue(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(obs::FormatMetricValue(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(obs::FormatMetricValue(std::nan("")), "NaN");
}

TEST(ExpositionTest, HistogramExpositionIsCumulativeAndElided) {
  obs::GeometricHistogram hist(0, 25);
  hist.Record(1);
  hist.Record(3);
  hist.Record(200);
  std::string out;
  obs::AppendHistogramExposition(out, "h", hist);
  EXPECT_EQ(out,
            "h_bucket{le=\"0\"} 0\n"
            "h_bucket{le=\"1\"} 1\n"
            "h_bucket{le=\"3\"} 2\n"
            "h_bucket{le=\"7\"} 2\n"
            "h_bucket{le=\"15\"} 2\n"
            "h_bucket{le=\"31\"} 2\n"
            "h_bucket{le=\"63\"} 2\n"
            "h_bucket{le=\"127\"} 2\n"
            "h_bucket{le=\"255\"} 3\n"
            "h_bucket{le=\"+Inf\"} 3\n"
            "h_sum 204\n"
            "h_count 3\n");
}

TEST(ExpositionTest, EmptyHistogramStillClosesTheSeries) {
  obs::GeometricHistogram hist(3, 488);
  std::string out;
  obs::AppendHistogramExposition(out, "h", hist);
  EXPECT_EQ(out, "h_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n");
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, CounterAndGaugeReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& c1 = registry.GetCounter("obs_test_stable_total");
  obs::Counter& c2 = registry.GetCounter("obs_test_stable_total");
  EXPECT_EQ(&c1, &c2);
  c1.Add();
  c2.Add(2);
  EXPECT_EQ(c1.value(), 3u);
  obs::Gauge& g = registry.GetGauge("obs_test_gauge");
  g.Set(1.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("obs_test_gauge").value(), 1.5);
}

TEST(MetricsRegistryTest, RenderTextShapes) {
  obs::MetricsRegistry registry;
  registry.GetCounter("t_requests_total").Add(4);
  registry.GetGauge("t_alpha{bin=\"0\"}").Set(0.5);
  registry.GetGauge("t_alpha{bin=\"1\"}").Set(1.5);
  registry.GetHistogram("t_lat", 3, 488).Record(7);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE t_requests_total counter\nt_requests_total 4\n"),
            std::string::npos);
  // One TYPE line for the labeled family, then both series.
  EXPECT_NE(text.find("# TYPE t_alpha gauge\nt_alpha{bin=\"0\"} 0.5\n"
                      "t_alpha{bin=\"1\"} 1.5\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE t_alpha gauge"),
            text.rfind("# TYPE t_alpha gauge"));
  EXPECT_NE(text.find("# TYPE t_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_count 1\n"), std::string::npos);
  // Process family and terminator are always present.
  EXPECT_NE(text.find("spe_threads "), std::string::npos);
  EXPECT_NE(text.find("spe_parallel_loops_total{mode=\"serial\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spe_spans_total "), std::string::npos);
  EXPECT_TRUE(text.ends_with("# EOF\n"));
}

TEST(MetricsRegistryTest, CollectorLifecycle) {
  obs::MetricsRegistry registry;
  {
    const obs::CollectorHandle handle = registry.AddCollector(
        [](std::string& out) { out += "from_collector 1\n"; });
    EXPECT_NE(registry.RenderText().find("from_collector 1\n"),
              std::string::npos);
  }
  // RAII: out of scope means out of the exposition.
  EXPECT_EQ(registry.RenderText().find("from_collector"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorHandleMoves) {
  obs::MetricsRegistry registry;
  obs::CollectorHandle outer;
  {
    obs::CollectorHandle inner = registry.AddCollector(
        [](std::string& out) { out += "moved_collector 1\n"; });
    outer = std::move(inner);
  }
  EXPECT_NE(registry.RenderText().find("moved_collector 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing.

TEST(TraceTest, RingWrapsOldestFirst) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    obs::SpanRecord r;
    r.name = "wrap";
    r.start_us = i;
    ring.Record(r);
  }
  EXPECT_EQ(ring.total(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const std::vector<obs::SpanRecord> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().start_us, 2u);
  EXPECT_EQ(snapshot.back().start_us, 5u);
  ring.Clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceTest, SpanRecordsNameDepthAndAggregates) {
  obs::ResetSpansForTest();
  obs::SetEnabled(true);
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0u);
  {
    const obs::TraceSpan outer("obs_test.outer");
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 1u);
    const obs::TraceSpan inner("obs_test.inner");
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 2u);
  }
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0u);
  const auto aggregates = obs::SpanAggregates();
  ASSERT_TRUE(aggregates.count("obs_test.outer"));
  ASSERT_TRUE(aggregates.count("obs_test.inner"));
  EXPECT_EQ(aggregates.at("obs_test.outer").count, 1u);
  // The inner span completed first and at depth 1.
  const auto snapshot = obs::TraceRing::Global().Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_STREQ(snapshot[snapshot.size() - 2].name, "obs_test.inner");
  EXPECT_EQ(snapshot[snapshot.size() - 2].depth, 1u);
  EXPECT_STREQ(snapshot.back().name, "obs_test.outer");
  EXPECT_EQ(snapshot.back().depth, 0u);

  std::string exposition;
  obs::AppendSpanExposition(exposition);
  EXPECT_NE(exposition.find("spe_span_count{span=\"obs_test.outer\"} 1\n"),
            std::string::npos);
  const std::string json = obs::SpanSummariesJson();
  EXPECT_NE(json.find("\"obs_test.inner\":{\"count\":1,"), std::string::npos);
  obs::ResetSpansForTest();
}

TEST(TraceTest, DisabledSpansAreNoOps) {
  obs::ResetSpansForTest();
  obs::SetEnabled(false);
  {
    const obs::TraceSpan span("obs_test.disabled");
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0u);
  }
  obs::SetEnabled(true);
  EXPECT_EQ(obs::TraceRing::Global().total(), 0u);
  EXPECT_TRUE(obs::SpanAggregates().empty());
}

// ---------------------------------------------------------------------------
// ServerStats exposition (the serve family names the pipeline test and
// docs/observability.md promise).

TEST(ServerStatsExpositionTest, PublishesServeFamily) {
  ServerStats stats;
  stats.RecordRequest(100);
  stats.RecordBatch(1);
  stats.RecordShed();
  stats.RecordDeadlineExpired();
  stats.RecordBatch(3, /*degraded=*/true);
  std::string out;
  stats.AppendExposition(out);
  EXPECT_NE(out.find("spe_serve_requests_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("spe_serve_batches_total 2\n"), std::string::npos);
  EXPECT_NE(out.find("spe_serve_batch_rows_total 4\n"), std::string::npos);
  EXPECT_NE(out.find("spe_serve_shed_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("spe_serve_deadline_expired_total 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("spe_serve_degraded_batches_total 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("spe_serve_degraded_rows_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE spe_serve_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("spe_serve_latency_us_count 1\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE spe_serve_batch_size histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("spe_serve_batch_size_sum 4\n"), std::string::npos);
}

}  // namespace
}  // namespace spe
