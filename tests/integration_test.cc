// End-to-end tests of the full Seaweed stack: Pastry overlay + metadata
// replication + query dissemination + completeness prediction + result
// aggregation, over the simulated network.
#include <gtest/gtest.h>

#include "anemone/anemone.h"
#include "db/sql_parser.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

namespace seaweed {
namespace {

// Builds simple per-endsystem databases where endsystem e has exactly
// (e+1) rows matching `port = 80` out of 2*(e+1) total rows.
std::shared_ptr<StaticDataProvider> MakeToyData(int n) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({
      {"port", db::ColumnType::kInt64, true},
      {"bytes", db::ColumnType::kInt64, true},
  });
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    auto table = database->CreateTable("Flow", schema);
    for (int i = 0; i < e + 1; ++i) {
      (*table)->column(0).AppendInt64(80);
      (*table)->column(1).AppendInt64(100);
      (*table)->CommitRow();
      (*table)->column(0).AppendInt64(443);
      (*table)->column(1).AppendInt64(50);
      (*table)->CommitRow();
    }
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

// Total rows matching port=80 over endsystems [0, n): sum of (e+1).
int64_t ToyMatching(int n) {
  return static_cast<int64_t>(n) * (n + 1) / 2;
}
// Total bytes: each matching row contributes 100.
double ToyBytes(int n) { return 100.0 * static_cast<double>(ToyMatching(n)); }

struct Capture {
  bool got_predictor = false;
  CompletenessPredictor predictor;
  std::vector<std::pair<SimTime, db::AggregateResult>> results;
  SimTime predictor_at = -1;

  QueryObserver MakeObserver(Simulator* sim) {
    QueryObserver obs;
    obs.on_predictor = [this, sim](const NodeId&,
                                   const CompletenessPredictor& p) {
      got_predictor = true;
      predictor = p;
      predictor_at = sim->Now();
    };
    obs.on_result = [this, sim](const NodeId&, const db::AggregateResult& r) {
      results.push_back({sim->Now(), r});
    };
    return obs;
  }

  const db::AggregateResult* latest() const {
    return results.empty() ? nullptr : &results.back().second;
  }
};

ClusterConfig ToyConfig(int n, uint64_t seed = 1) {
  return ClusterOptions()
      .WithEndsystems(n)
      .WithSeed(seed)
      .WithSummaryWireBytes(0)  // charge actual summary sizes
      .BuildOrDie();
}

TEST(IntegrationTest, AllUpQueryReturnsExactResult) {
  const int n = 40;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  Capture cap;
  auto qid = cluster.InjectQuery(
      0, "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
      cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok()) << qid.status();
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  // Predictor arrived within seconds and covers all endsystems.
  ASSERT_TRUE(cap.got_predictor);
  EXPECT_EQ(cap.predictor.endsystems(), n);
  // All nodes are up: everything available immediately, and the row
  // estimate should be near-exact (exact-count histograms on toy data).
  EXPECT_NEAR(cap.predictor.ExpectedRowsBy(0),
              static_cast<double>(ToyMatching(n)),
              0.02 * static_cast<double>(ToyMatching(n)));

  // Results converge to the exact global aggregate.
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n));
  EXPECT_DOUBLE_EQ(cap.latest()->states[0].sum, ToyBytes(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
}

// The 120-endsystem, seed-7 cluster's whole-table query: the simulated time
// from injection to the first result that covers every endsystem, which
// must equal the ground truth (the same SQL on every endsystem, merged).
void TimeToCompleteResult(SimDuration* elapsed) {
  const int n = 120;
  const std::string sql = "SELECT COUNT(*), SUM(Bytes) FROM Flow";
  SeaweedCluster cluster(
      ClusterOptions().WithEndsystems(n).WithSeed(7).BuildOrDie());
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  auto parsed = db::ParseSelect(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  db::AggregateResult truth;
  for (int e = 0; e < n; ++e) {
    auto local = cluster.data()->Execute(e, *parsed);
    ASSERT_TRUE(local.ok()) << local.status();
    truth.Merge(*local);
  }
  ASSERT_EQ(truth.endsystems, n);

  Capture cap;
  const SimTime inject_at = cluster.sim().Now();
  auto qid = cluster.InjectQuery(0, sql, cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok()) << qid.status();
  cluster.sim().RunUntil(inject_at + 2 * kMinute);

  const std::pair<SimTime, db::AggregateResult>* complete = nullptr;
  for (const auto& update : cap.results) {
    if (update.second.endsystems == n) {
      complete = &update;
      break;
    }
  }
  ASSERT_NE(complete, nullptr) << "no result covered every endsystem";
  EXPECT_EQ(complete->second, truth);
  *elapsed = complete->first - inject_at;
}

// A result pays one fold-pass spacing (result_deliver_debounce) per network
// hop, not one per vertex-id level of the chain folded on the root's node:
// per level, with 2 s spacing, this cluster's first complete result took
// ~65 s (2 s x ~26 levels + hops).
TEST(IntegrationTest, CompleteResultArrivesWithinTenSeconds) {
  SimDuration elapsed = 0;
  ASSERT_NO_FATAL_FAILURE(TimeToCompleteResult(&elapsed));
  EXPECT_LE(elapsed, 10 * kSecond);
}

// Most of the time above is the spacing itself, paid at each of ~3 hops to
// the root: the same result arrives 4.63 s after injection with 2 s spacing
// and 1.63 s after it with 0.5 s, so this bound fails at 2 s.
TEST(IntegrationTest, CompleteResultArrivesWithinTwoAndAHalfSeconds) {
  SimDuration elapsed = 0;
  ASSERT_NO_FATAL_FAILURE(TimeToCompleteResult(&elapsed));
  EXPECT_LE(elapsed, 2500 * kMillisecond);
}

TEST(IntegrationTest, PredictorLatencyIsSeconds) {
  const int n = 40;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  Capture cap;
  SimTime inject_at = cluster.sim().Now();
  auto qid = cluster.InjectQuery(3, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(inject_at + kMinute);
  ASSERT_TRUE(cap.got_predictor);
  // §4.3.3: 3.1 s at 2,000 endsystems; small nets should be well under 30 s.
  EXPECT_LT(cap.predictor_at - inject_at, 30 * kSecond);
}

// The origin's task and the tree root's task both cover the queryId, one as
// the child range it dispatches and one as the range it handles. When the
// origin is itself the root, its own report must still find the origin's
// child, once: one predictor, no reissue.
TEST(IntegrationTest, OriginThatIsTheTreeRootGetsOnePredictor) {
  const int n = 40;
  const std::string sql =
      "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80";
  const std::string salt = "origin-is-root";
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  // The salt pins the queryId; the endsystem closest to it is the root.
  auto probe = Query::Create(sql, 0, overlay::NodeHandle(), kHour, salt);
  ASSERT_TRUE(probe.ok()) << probe.status();
  const NodeId qid = probe->query_id;
  int root = 0;
  for (int e = 1; e < n; ++e) {
    if (cluster.seaweed_node(e)->id().RingDistanceTo(qid) <
        cluster.seaweed_node(root)->id().RingDistanceTo(qid)) {
      root = e;
    }
  }

  int predictors = 0;
  Capture cap;
  QueryObserver obs = cap.MakeObserver(&cluster.sim());
  obs.on_predictor = [&predictors, inner = obs.on_predictor](
                         const NodeId& id, const CompletenessPredictor& p) {
    ++predictors;
    inner(id, p);
  };
  auto injected = cluster.InjectQuery(root, sql, std::move(obs), kHour, salt);
  ASSERT_TRUE(injected.ok()) << injected.status();
  ASSERT_EQ(*injected, qid);
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  EXPECT_EQ(predictors, 1);
  EXPECT_EQ(cap.predictor.endsystems(), n);
  EXPECT_EQ(
      cluster.obs().metrics.GetCounter("seaweed.dissem_reissues")->value(), 0u);
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
}

// Two of one node's tasks can hold the same child range: nested ranges from
// different parents both contain a leafset neighbour's whole cell. The
// neighbour's one report names only that range, and must resolve the child
// in both tasks; a child left unresolved is reissued on its timer.
TEST(IntegrationTest, PredictorReportResolvesEveryTaskHoldingItsRange) {
  const int n = 40;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  SeaweedNode* node = cluster.seaweed_node(0);
  const overlay::Leafset& ls = cluster.pastry_node(0)->leafset();
  ASSERT_GE(ls.cw().size(), 2u);
  ASSERT_GE(ls.ccw().size(), 1u);
  const NodeId& ccw = ls.ccw()[0].id;
  const NodeId& cw2 = ls.cw()[1].id;
  // Both contain the nearest clockwise neighbour's whole cell, which lies
  // between this node and its second clockwise neighbour.
  const IdRange inner{node->id(), cw2, false};
  const IdRange outer{ccw, cw2, false};
  // The tasks report to a node that does not hold the query.
  int parent = 1;
  while (parent < n && ls.Contains(cluster.seaweed_node(parent)->id())) {
    ++parent;
  }
  ASSERT_LT(parent, n);
  const overlay::NodeHandle parent_handle =
      cluster.pastry_node(parent)->handle();

  auto query = Query::Create("SELECT COUNT(*) FROM Flow WHERE port = 80",
                             cluster.sim().Now(), parent_handle, kHour,
                             "shadowed-child");
  ASSERT_TRUE(query.ok()) << query.status();
  for (const IdRange& range : {inner, outer}) {
    auto msg = std::make_shared<SeaweedMessage>();
    msg->kind = SeaweedMessage::Kind::kBroadcast;
    msg->queries.push_back(*query);
    msg->query_id = query->query_id;
    msg->range = range;
    msg->parent = parent_handle;
    node->OnAppMessage(parent_handle, /*routed=*/false, query->query_id, msg);
  }
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);

  EXPECT_EQ(
      cluster.obs().metrics.GetCounter("seaweed.dissem_reissues")->value(), 0u);
}

TEST(IntegrationTest, DownEndsystemsPredictedNotCountedYet) {
  const int n = 40;
  const int down_count = 8;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);

  // Take down the last `down_count` endsystems; wait for failure detection
  // and metadata down-marking.
  for (int e = n - down_count; e < n; ++e) cluster.BringDown(e);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(
      0, "SELECT SUM(bytes) FROM Flow WHERE port = 80",
      cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  ASSERT_TRUE(cap.got_predictor);
  // The predictor should know about (nearly) all endsystems, including the
  // down ones whose metadata is replicated.
  EXPECT_GE(cap.predictor.endsystems(), n - 1);
  double immediate = cap.predictor.ExpectedRowsBy(0);
  double total = cap.predictor.TotalRows();
  double up_rows = static_cast<double>(ToyMatching(n - down_count));
  double all_rows = static_cast<double>(ToyMatching(n));
  // Immediate completeness reflects only the live population...
  EXPECT_NEAR(immediate, up_rows, 0.05 * up_rows);
  // ...while the projected total includes the unavailable data.
  EXPECT_NEAR(total, all_rows, 0.05 * all_rows);

  // The incremental result counts only live endsystems' rows.
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n - down_count));
}

TEST(IntegrationTest, RejoiningEndsystemContributesLater) {
  const int n = 30;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  cluster.BringDown(7);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow WHERE port = 80",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  int64_t before = cap.latest()->rows_matched;
  EXPECT_EQ(before, ToyMatching(n) - 8);  // endsystem 7 has 8 matching rows

  // Endsystem 7 rejoins: the active-query handoff (query list from its
  // neighbor) must get it executing and submitting its result.
  cluster.BringUp(7);
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
}

TEST(IntegrationTest, ExactlyOnceUnderResubmission) {
  // Result refresh re-submits results periodically; versioned child slots
  // must keep every endsystem counted exactly once.
  const int n = 24;
  ClusterConfig cfg = ToyConfig(n);
  cfg.seaweed.result_refresh_period = 30 * kSecond;  // aggressive refresh
  SeaweedCluster cluster(cfg, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 20 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
  // And it never exceeded the true total at any point.
  for (const auto& [t, r] : cap.results) {
    EXPECT_LE(r.rows_matched, 2 * ToyMatching(n));
    EXPECT_LE(r.endsystems, n);
  }
}

TEST(IntegrationTest, SurvivesAggregationVertexFailure) {
  const int n = 32;
  SeaweedCluster cluster(ToyConfig(n, /*seed=*/5), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow WHERE port = 80",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);

  // Kill the node hosting the root vertex (closest to queryId) — the worst
  // possible interior failure. Backups + refresh must reconstruct.
  auto root = cluster.overlay().OracleRoot(*qid);
  ASSERT_TRUE(root.has_value());
  if (root->address != 0) {  // don't kill the origin, it holds the observer
    cluster.BringDown(static_cast<int>(root->address));
  }
  cluster.sim().RunUntil(cluster.sim().Now() + 15 * kMinute);

  ASSERT_NE(cap.latest(), nullptr);
  int64_t expected = ToyMatching(n);
  if (root->address != 0) {
    expected -= static_cast<int64_t>(root->address) + 1;  // its own rows gone
  }
  EXPECT_GE(cap.latest()->rows_matched, expected - 2);
  EXPECT_LE(cap.latest()->rows_matched, ToyMatching(n));
}

TEST(IntegrationTest, MetadataReplicatedToNeighbors) {
  const int n = 20;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(30 * kMinute);

  // Every endsystem's metadata should be held by several peers.
  for (int e = 0; e < n; ++e) {
    NodeId owner = cluster.pastry_node(e)->id();
    int holders = 0;
    for (int other = 0; other < n; ++other) {
      if (other == e) continue;
      if (cluster.seaweed_node(other)->metadata_store().Find(owner)) {
        ++holders;
      }
    }
    EXPECT_GE(holders, 3) << "endsystem " << e << " under-replicated";
  }
  EXPECT_GT(cluster.meter().CategoryTxBytes(TrafficCategory::kMetadata), 0u);
}

TEST(IntegrationTest, QueriesUnderRealisticChurn) {
  // Farsite-style churn for a few hours with a query injected mid-way:
  // the system must stay consistent (no over-counting) and the result must
  // track the live population.
  const int n = 60;
  ClusterConfig cfg = ToyConfig(n, /*seed=*/9);
  SeaweedCluster cluster(cfg, MakeToyData(n));

  FarsiteModelConfig fcfg;
  fcfg.seed = 17;
  auto trace = GenerateFarsiteTrace(fcfg, n, 12 * kHour);
  cluster.DriveFromTrace(trace, 12 * kHour);
  cluster.sim().RunUntil(2 * kHour);

  Capture cap;
  // Find an endsystem that is up to inject from.
  int origin = -1;
  for (int e = 0; e < n; ++e) {
    if (cluster.pastry_node(e)->joined()) {
      origin = e;
      break;
    }
  }
  ASSERT_GE(origin, 0);
  auto qid = cluster.InjectQuery(origin, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()),
                                 /*ttl=*/10 * kHour);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(6 * kHour);

  ASSERT_TRUE(cap.got_predictor);
  EXPECT_GT(cap.predictor.endsystems(), n / 2);
  ASSERT_NE(cap.latest(), nullptr);
  // Never over-counts.
  for (const auto& [t, r] : cap.results) {
    EXPECT_LE(r.rows_matched, 2 * ToyMatching(n));
    EXPECT_LE(r.endsystems, n);
  }
  // By 4 hours in, most endsystems that were ever up should have
  // contributed (origin stayed up or not, results persist in the tree).
  EXPECT_GT(cap.latest()->endsystems, n / 2);
}

}  // namespace
}  // namespace seaweed
