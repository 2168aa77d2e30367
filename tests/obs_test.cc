// Observability subsystem tests: metrics registry semantics, timeseries
// bucket edges, trace-span ring behavior, and JSONL export round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "obs/jsonl_reader.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_sink.h"

namespace seaweed::obs {
namespace {

// --- Registry ---

TEST(MetricsRegistryTest, HandlesAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.count");
  Counter* c2 = reg.GetCounter("a.count");
  EXPECT_EQ(c1, c2);
  c1->Add();
  c2->Add(4);
  EXPECT_EQ(c1->value(), 5u);

  EXPECT_EQ(reg.FindCounter("a.count"), c1);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("a.count"), nullptr);  // different kind namespace
}

TEST(MetricsRegistryTest, GaugeTracksMax) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  g->Set(7);
  g->Set(3);
  g->Add(1);
  EXPECT_EQ(g->value(), 4);
  EXPECT_EQ(g->max(), 7);
}

TEST(HistogramTest, CountSumMinMaxAndBuckets) {
  Histogram h;
  for (uint64_t v : {0ULL, 1ULL, 1ULL, 3ULL, 1000ULL}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1005u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  // log2 buckets: 0 -> bucket 0; 1 -> bucket 1; 3 -> bucket 2;
  // 1000 -> bucket 10 (512..1023).
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1005.0 / 5.0);
  // Quantiles land on bucket upper bounds, clamped to the observed max.
  EXPECT_EQ(h.ApproxQuantile(0.5), 1u);
  EXPECT_EQ(h.ApproxQuantile(0.99), 1000u);
}

TEST(TimeseriesTest, BucketBoundariesAtExactHourEdges) {
  Timeseries ts(kHour);
  ts.Record(0, 1);                  // first µs of hour 0
  ts.Record(kHour - 1, 10);         // last µs of hour 0
  ts.Record(kHour, 100);            // first µs of hour 1
  ts.Record(2 * kHour - 1, 1000);   // last µs of hour 1
  ts.Record(2 * kHour, 10000);      // first µs of hour 2
  ASSERT_EQ(ts.buckets().size(), 3u);
  EXPECT_EQ(ts.buckets()[0], 11u);
  EXPECT_EQ(ts.buckets()[1], 1100u);
  EXPECT_EQ(ts.buckets()[2], 10000u);
  EXPECT_EQ(ts.total(), 11111u);
  EXPECT_EQ(ts.bucket_width(), kHour);
}

TEST(TimeseriesTest, NegativeTimesClampToFirstBucket) {
  Timeseries ts(kHour);
  ts.Record(-5, 3);
  ASSERT_EQ(ts.buckets().size(), 1u);
  EXPECT_EQ(ts.buckets()[0], 3u);
}

// --- Trace sink ---

TEST(TraceSinkTest, AutoParentingToTraceRoot) {
  TraceSink sink(16);
  SpanId root = sink.StartSpan("query", /*trace_key=*/42, /*now=*/100);
  SpanId child = sink.StartSpan("disseminate", 42, 150);
  SpanId other_trace = sink.StartSpan("query", 43, 160);
  EXPECT_EQ(sink.RootOf(42), root);
  EXPECT_EQ(sink.Find(child)->parent, root);
  EXPECT_EQ(sink.Find(other_trace)->parent, kNoSpan);

  sink.EndSpan(child, 250);
  EXPECT_EQ(sink.Find(child)->Duration(), 100);
  EXPECT_EQ(sink.Find(root)->end, kOpenSpan);
}

TEST(TraceSinkTest, RingOverwriteDropsOldestAndIgnoresStaleEnds) {
  TraceSink sink(4);
  SpanId first = sink.StartSpan("s", 1, 0);
  for (int i = 0; i < 4; ++i) sink.StartSpan("s", 1, i + 1);
  EXPECT_EQ(sink.started(), 5u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.Find(first), nullptr);
  sink.EndSpan(first, 99);  // no-op, must not corrupt the occupying span
  int visited = 0;
  sink.ForEach([&](const SpanRecord& rec) {
    EXPECT_NE(rec.id, first);
    EXPECT_EQ(rec.end, kOpenSpan);
    ++visited;
  });
  EXPECT_EQ(visited, 4);
}

TEST(TraceSinkTest, DisabledSinkRecordsNothing) {
  TraceSink sink(8);
  sink.set_enabled(false);
  EXPECT_EQ(sink.StartSpan("s", 1, 0), kNoSpan);
  EXPECT_EQ(sink.started(), 0u);
  sink.AddAttr(kNoSpan, "k", int64_t{1});  // must be a safe no-op
  sink.EndSpan(kNoSpan, 5);
}

// --- JSONL export round-trip ---

const Json* FindLine(const std::vector<Json>& lines, const char* kind,
                     const char* name) {
  for (const Json& j : lines) {
    const Json* k = j.Find("kind");
    const Json* n = j.Find("name");
    if (k != nullptr && n != nullptr && k->AsString() == kind &&
        n->AsString() == name) {
      return &j;
    }
  }
  return nullptr;
}

TEST(ExportTest, JsonlRoundTrip) {
  Observability o;
  o.metrics.GetCounter("msgs")->Add(7);
  Gauge* g = o.metrics.GetGauge("depth");
  g->Set(9);
  g->Set(2);
  Histogram* h = o.metrics.GetHistogram("lat");
  h->Record(3);
  h->Record(500);
  Timeseries* ts = o.metrics.GetTimeseries("bw.tx.pastry");
  ts->Record(0, 4);
  ts->Record(kHour, 6);

  SpanId root = o.trace.StartSpan("query", 0xabcdef, 10);
  o.trace.AddAttr(root, "sql", std::string("SELECT \"x\"\n"));
  o.trace.AddAttr(root, "origin", int64_t{3});
  SpanId child = o.trace.StartSpan("disseminate", 0xabcdef, 12);
  o.trace.EndSpan(child, 40);

  std::ostringstream out;
  WriteMetricsJsonl(o.metrics, out);
  WriteTraceJsonl(o.trace, out);
  std::istringstream in(out.str());
  auto parsed = ParseJsonLines(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const std::vector<Json>& lines = parsed.value();

  const Json* c = FindLine(lines, "counter", "msgs");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Find("value")->AsUint(), 7u);

  const Json* gauge = FindLine(lines, "gauge", "depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("value")->AsInt(), 2);
  EXPECT_EQ(gauge->Find("max")->AsInt(), 9);

  const Json* hist = FindLine(lines, "histogram", "lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsUint(), 2u);
  EXPECT_EQ(hist->Find("sum")->AsUint(), 503u);
  EXPECT_EQ(hist->Find("buckets")->items.size(), 2u);  // sparse

  const Json* series = FindLine(lines, "timeseries", "bw.tx.pastry");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("total")->AsUint(), 10u);
  ASSERT_EQ(series->Find("buckets")->items.size(), 2u);
  EXPECT_EQ(series->Find("buckets")->items[1].AsUint(), 6u);

  const Json* root_line = FindLine(lines, "span", "query");
  ASSERT_NE(root_line, nullptr);
  EXPECT_EQ(root_line->Find("trace")->AsString(), "0000000000abcdef");
  EXPECT_TRUE(root_line->Find("end")->is_null());
  EXPECT_EQ(root_line->Find("attrs")->Find("origin")->AsInt(), 3);
  EXPECT_EQ(root_line->Find("attrs")->Find("sql")->AsString(),
            "SELECT \"x\"\n");

  const Json* child_line = FindLine(lines, "span", "disseminate");
  ASSERT_NE(child_line, nullptr);
  EXPECT_EQ(child_line->Find("parent")->AsUint(), root);
  EXPECT_EQ(child_line->Find("end")->AsInt(), 40);
}

TEST(ExportTest, DumpToFileAndParseBack) {
  Observability o;
  o.metrics.GetCounter("x")->Add(1);
  std::string path = ::testing::TempDir() + "/obs_dump_test.jsonl";
  ASSERT_TRUE(DumpToFile(&o.metrics, &o.trace, path).ok());
  std::ifstream in(path);
  auto parsed = ParseJsonLines(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(FindLine(parsed.value(), "counter", "x"), nullptr);
  std::remove(path.c_str());
}

TEST(ExportTest, DumpToFileCountsOverwrittenSpans) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) sink.StartSpan("s", 1, i);
  std::string path = ::testing::TempDir() + "/obs_dump_dropped_test.jsonl";
  ASSERT_TRUE(DumpToFile(nullptr, &sink, path).ok());
  std::ifstream in(path);
  auto parsed = ParseJsonLines(in);
  ASSERT_TRUE(parsed.ok());
  const Json* started = FindLine(parsed.value(), "counter", "obs.trace.started");
  const Json* dropped = FindLine(parsed.value(), "counter", "obs.trace.dropped");
  ASSERT_NE(started, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(started->Find("value")->AsUint(), 10u);
  EXPECT_EQ(dropped->Find("value")->AsUint(), 6u);
  std::remove(path.c_str());
}

TEST(JsonlReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  std::istringstream in("{\"ok\":1}\nnot json\n");
  auto lines = ParseJsonLines(in);
  EXPECT_FALSE(lines.ok());
}

}  // namespace
}  // namespace seaweed::obs
