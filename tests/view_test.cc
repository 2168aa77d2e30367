// Tests for selective replication (§3.2.2): replicated views answered from
// the metadata plane.
#include <gtest/gtest.h>

#include "seaweed/cluster_options.h"

namespace seaweed {
namespace {

// Endsystem e holds e+1 rows with qty=10 each.
std::shared_ptr<StaticDataProvider> MakeData(int n) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({
      {"qty", db::ColumnType::kInt64, true},
  });
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    auto table = database->CreateTable("Stock", schema);
    for (int i = 0; i <= e; ++i) {
      (*table)->column(0).AppendInt64(10);
      (*table)->CommitRow();
    }
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

ClusterConfig Cfg(int n) {
  ClusterOptions opts;
  opts.WithEndsystems(n).WithSummaryWireBytes(0);
  opts.seaweed().views.push_back(
      {"total_stock", "SELECT SUM(qty), COUNT(*) FROM Stock"});
  // Fast pushes so view values replicate quickly in the test.
  opts.seaweed().summary_push_period = 2 * kMinute;
  return opts.BuildOrDie();
}

TEST(ViewSnapshotTest, FullCoverageWithAllUp) {
  const int n = 30;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);

  bool got = false;
  db::AggregateResult snapshot;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    got = true;
    snapshot = r;
  };
  auto qid = cluster.seaweed_node(0)->QueryViewSnapshot("total_stock",
                                                        std::move(obs));
  ASSERT_TRUE(qid.ok()) << qid.status();
  SimTime asked = cluster.sim().Now();
  cluster.sim().RunUntil(asked + kMinute);
  ASSERT_TRUE(got);
  // All endsystems up: snapshot equals the live total.
  int64_t rows = static_cast<int64_t>(n) * (n + 1) / 2;
  EXPECT_EQ(snapshot.rows_matched, rows);
  EXPECT_DOUBLE_EQ(snapshot.states[0].sum, 10.0 * static_cast<double>(rows));
  EXPECT_EQ(snapshot.endsystems, n);
}

TEST(ViewSnapshotTest, CoversDownEndsystemsFromReplicas) {
  const int n = 30;
  const int down = 6;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  // Let a few push periods replicate view values, then fail some endsystems.
  cluster.sim().RunUntil(10 * kMinute);
  for (int e = n - down; e < n; ++e) cluster.BringDown(e);
  cluster.sim().RunUntil(cluster.sim().Now() + 4 * kMinute);

  db::AggregateResult snapshot;
  bool got = false;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    got = true;
    snapshot = r;
  };
  auto qid = cluster.seaweed_node(0)->QueryViewSnapshot("total_stock",
                                                        std::move(obs));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  ASSERT_TRUE(got);

  // The snapshot must include the down endsystems' stale view values —
  // that is the whole point of selective replication. Allow a small
  // shortfall for replicas lost to simultaneous failures.
  int64_t all_rows = static_cast<int64_t>(n) * (n + 1) / 2;
  EXPECT_GE(snapshot.rows_matched, all_rows - down);
  EXPECT_LE(snapshot.rows_matched, all_rows);
  // And it should arrive fast, unlike waiting for the machines to return.
  EXPECT_GE(snapshot.endsystems, n - 1);
}

TEST(ViewSnapshotTest, RemoteRootDeliveryClosesTheDisseminateSpan) {
  // A snapshot has no predictor phase: its answer ends dissemination too.
  // When the tree root is another node, the answer arrives as a
  // kResultDeliver, and that path must close the origin's `disseminate`
  // span just as the root-is-origin shortcut does.
  const int n = 30;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);

  bool got = false;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult&) {
    got = true;
  };
  auto qid = cluster.seaweed_node(0)->QueryViewSnapshot("total_stock",
                                                        std::move(obs));
  ASSERT_TRUE(qid.ok()) << qid.status();
  int root = 0;
  for (int e = 1; e < n; ++e) {
    if (cluster.pastry_node(e)->id().RingDistanceTo(*qid) <
        cluster.pastry_node(root)->id().RingDistanceTo(*qid)) {
      root = e;
    }
  }
  ASSERT_NE(root, 0) << "the origin is the tree root; pick another time";
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  ASSERT_TRUE(got);

  const obs::SpanRecord* dissem = nullptr;
  cluster.obs().trace.ForEach([&](const obs::SpanRecord& span) {
    if (span.trace == obs::TraceKey(*qid) &&
        std::string(span.name) == "disseminate") {
      dissem = cluster.obs().trace.Find(span.id);
    }
  });
  ASSERT_NE(dissem, nullptr);
  EXPECT_NE(dissem->end, obs::kOpenSpan);
}

TEST(ViewSnapshotTest, UnknownViewRejected) {
  const int n = 6;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(2 * kMinute);
  auto qid = cluster.seaweed_node(0)->QueryViewSnapshot("nope",
                                                        QueryObserver{});
  EXPECT_TRUE(qid.status().IsNotFound());
}

TEST(ViewSnapshotTest, ViewQueriesDoNotTriggerResultPlane) {
  // A view snapshot must not cause endsystems to execute/submit leaf
  // results (that is what distinguishes it from a one-shot query).
  const int n = 16;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  uint64_t result_bytes_before =
      cluster.meter().CategoryTxBytes(TrafficCategory::kResult);
  auto qid = cluster.seaweed_node(0)->QueryViewSnapshot("total_stock",
                                                        QueryObserver{});
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  uint64_t result_bytes_after =
      cluster.meter().CategoryTxBytes(TrafficCategory::kResult);
  // No leaf submissions / vertex replication beyond incidental query-list
  // chatter: allow only a trivial increase.
  EXPECT_LT(result_bytes_after - result_bytes_before, 2000u);
}

}  // namespace
}  // namespace seaweed
