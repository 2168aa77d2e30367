// Determinism of the simulation engine: a seeded run repeated in the same
// process must be byte-identical — same events, same messages, same obs
// JSONL (metrics and trace spans).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

namespace seaweed {
namespace {

struct RunArtifacts {
  uint64_t events_executed = 0;
  uint64_t messages_sent = 0;
  int joined = 0;
  std::string metrics_jsonl;
  std::string trace_jsonl;
};

RunArtifacts RunSeededCluster(int endsystems, SimDuration duration) {
  FarsiteModelConfig trace_cfg;
  trace_cfg.seed = 11;
  AvailabilityTrace trace =
      GenerateFarsiteTrace(trace_cfg, endsystems, duration + kHour);

  ClusterOptions opts;
  opts.WithEndsystems(endsystems)
      .WithSeed(11)
      .WithKeepTables(false)
      .WithEncodeInFlight(true);
  SeaweedCluster cluster(opts.BuildOrDie());
  cluster.DriveFromTrace(trace, duration);

  const SimTime inject_at = duration / 4;
  cluster.sim().At(inject_at, [&cluster, duration, inject_at] {
    for (int e = 0; e < cluster.config().num_endsystems; ++e) {
      if (cluster.pastry_node(e)->joined()) {
        (void)cluster.InjectQuery(
            e, "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
            QueryObserver{}, duration - inject_at);
        return;
      }
    }
  });

  cluster.sim().RunUntil(duration);
  cluster.PublishStatsGauges();

  RunArtifacts a;
  a.events_executed = cluster.sim().events_executed();
  a.messages_sent = cluster.network().messages_sent();
  a.joined = cluster.CountJoined();
  std::ostringstream metrics;
  obs::WriteMetricsJsonl(cluster.obs().metrics, metrics);
  a.metrics_jsonl = metrics.str();
  std::ostringstream spans;
  obs::WriteTraceJsonl(cluster.obs().trace, spans);
  a.trace_jsonl = spans.str();
  return a;
}

TEST(Determinism, RepeatedRunIsByteIdentical) {
  // Guards against nondeterminism from iteration order, uninitialized state
  // or wall-clock leaks.
  const SimDuration kDuration = 20 * kMinute;
  RunArtifacts a = RunSeededCluster(400, kDuration);
  RunArtifacts b = RunSeededCluster(400, kDuration);
  // The run must have actually done something before identity means much.
  EXPECT_GT(a.joined, 400 / 2);
  EXPECT_GT(a.messages_sent, 10000u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.joined, b.joined);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

TEST(Determinism, EngineGaugesPublished) {
  RunArtifacts a = RunSeededCluster(200, 10 * kMinute);
  // Engine stats and memory-footprint gauges must appear in the metrics
  // dump (obs_report and the benches consume these names).
  EXPECT_NE(a.metrics_jsonl.find("\"sim.events.scheduled\""),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("\"sim.events.cancelled\""),
            std::string::npos);
  // Published after the run, so the gauge equals the engine's own count.
  EXPECT_NE(a.metrics_jsonl.find("\"sim.events.executed\",\"value\":" +
                                 std::to_string(a.events_executed) + ","),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.overlay.routing_bytes"),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.meta.store_bytes"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.sim.event_queue_bytes"),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("\"mem.seaweed.vertices\""),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("\"mem.seaweed.vertex_bytes\""),
            std::string::npos);
}

}  // namespace
}  // namespace seaweed
