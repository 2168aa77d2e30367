// Query lifecycle tests: cancellation, TTL expiry, continuous queries, and
// grouped aggregates executed end-to-end over the simulated cluster.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "seaweed/cluster_options.h"

namespace seaweed {
namespace {

// Endsystem e has e+1 rows with port=80 and value 100, plus one mutable
// "counter" row pattern for continuous-query tests.
std::shared_ptr<StaticDataProvider> MakeData(int n) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({
      {"port", db::ColumnType::kInt64, true},
      {"bytes", db::ColumnType::kInt64, true},
      {"app", db::ColumnType::kString, true},
  });
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    auto table = database->CreateTable("Flow", schema);
    for (int i = 0; i <= e; ++i) {
      (*table)->column(0).AppendInt64(80);
      (*table)->column(1).AppendInt64(100);
      (*table)->column(2).AppendString(e % 2 ? "HTTP" : "SMB");
      (*table)->CommitRow();
    }
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

ClusterConfig Cfg(int n) {
  return ClusterOptions().WithEndsystems(n).WithSummaryWireBytes(0)
      .BuildOrDie();
}

TEST(QueryLifecycleTest, CancelStopsResultFlowAndDropsState) {
  const int n = 30;
  auto data = MakeData(n);
  SeaweedCluster cluster(Cfg(n), data);
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  int result_updates = 0;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult&) {
    ++result_updates;
  };
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 std::move(obs));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);
  EXPECT_GT(result_updates, 0);

  // Cancel from the origin; give the epidemic time to spread (it crosses
  // the ring via leafset gossip).
  cluster.seaweed_node(0)->CancelQuery(*qid);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  // Every node dropped the query.
  int still_active = 0;
  for (int e = 0; e < n; ++e) {
    if (cluster.seaweed_node(e)->HasActiveQuery(*qid)) ++still_active;
  }
  EXPECT_EQ(still_active, 0);

  // And a late joiner does not re-adopt it via the query-list handoff.
  cluster.BringDown(5);
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);
  cluster.BringUp(5);
  cluster.sim().RunUntil(cluster.sim().Now() + 3 * kMinute);
  EXPECT_FALSE(cluster.seaweed_node(5)->HasActiveQuery(*qid));
}

TEST(QueryLifecycleTest, TtlExpiryDropsStateEverywhere) {
  const int n = 20;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 QueryObserver{}, /*ttl=*/20 * kMinute);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);
  int active_mid = 0;
  for (int e = 0; e < n; ++e) {
    if (cluster.seaweed_node(e)->HasActiveQuery(*qid)) ++active_mid;
  }
  EXPECT_GT(active_mid, n / 2);

  // Run well past TTL + sweep period.
  cluster.sim().RunUntil(cluster.sim().Now() + 50 * kMinute);
  for (int e = 0; e < n; ++e) {
    EXPECT_FALSE(cluster.seaweed_node(e)->HasActiveQuery(*qid))
        << "endsystem " << e;
  }
}

// Late messages for `qid`, as a node that still held it would send them:
// a leaf submit to the root vertex and a one-child replicate of it.
void DeliverStragglers(SeaweedCluster& cluster, const NodeId& qid, int to) {
  const overlay::NodeHandle from = cluster.pastry_node((to + 1) %
      cluster.config().num_endsystems)->handle();
  auto result = std::make_shared<const db::AggregateResult>();
  auto submit = std::make_shared<SeaweedMessage>();
  submit->kind = SeaweedMessage::Kind::kResultSubmit;
  submit->query_id = qid;
  submit->vertex_id = qid;
  submit->child_key = from.id;
  submit->version = 1;
  submit->result = *result;
  auto replicate = std::make_shared<SeaweedMessage>();
  replicate->kind = SeaweedMessage::Kind::kVertexReplicate;
  replicate->query_id = qid;
  replicate->replicas.push_back({qid, {{from.id, 1, result}}});
  SeaweedNode* node = cluster.seaweed_node(to);
  node->OnAppMessage(from, /*routed=*/false, qid, submit);
  node->OnAppMessage(from, /*routed=*/false, qid, replicate);
}

TEST(QueryLifecycleTest, TtlEndFreesStateAtTtl) {
  const int n = 20;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  const SimDuration ttl = 20 * kMinute;
  const SimTime injected = cluster.sim().Now();
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 QueryObserver{}, ttl);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(injected + ttl);
  int active = 0;
  uint64_t vertices = 0;
  for (int e = 0; e < n; ++e) {
    if (cluster.seaweed_node(e)->HasActiveQuery(*qid)) ++active;
    vertices += cluster.seaweed_node(e)->vertex_footprint().vertices;
  }
  EXPECT_GT(active, n / 2);
  EXPECT_GT(vertices, 0u);
  auto query_entries = [&cluster] {
    cluster.PublishStatsGauges();
    const obs::Gauge* g =
        cluster.obs().metrics.FindGauge("mem.seaweed.query_entries");
    return g == nullptr ? int64_t{-1} : g->value();
  };
  EXPECT_EQ(query_entries(), active);

  // One second past the TTL, before any node's next 10-minute sweep (due
  // 30 minutes after the joins), every node has let the query go.
  cluster.sim().RunUntil(injected + ttl + kSecond);
  for (int e = 0; e < n; ++e) {
    SeaweedNode* node = cluster.seaweed_node(e);
    EXPECT_FALSE(node->HasActiveQuery(*qid)) << "endsystem " << e;
    EXPECT_EQ(node->vertex_footprint().vertices, 0u) << "endsystem " << e;
    EXPECT_EQ(node->vertex_footprint().bytes, 0u) << "endsystem " << e;
  }
  EXPECT_EQ(query_entries(), 0);

  // A straggling submit or replicate recreates nothing.
  for (int e = 0; e < n; ++e) DeliverStragglers(cluster, *qid, e);
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  for (int e = 0; e < n; ++e) {
    EXPECT_FALSE(cluster.seaweed_node(e)->HasActiveQuery(*qid))
        << "endsystem " << e;
  }
}

TEST(QueryLifecycleTest, ReplicateAfterCancelDoesNotReadopt) {
  const int n = 16;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 QueryObserver{});
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);
  cluster.seaweed_node(0)->CancelQuery(*qid);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  for (int e = 0; e < n; ++e) {
    ASSERT_FALSE(cluster.seaweed_node(e)->HasActiveQuery(*qid));
    DeliverStragglers(cluster, *qid, e);
    EXPECT_FALSE(cluster.seaweed_node(e)->HasActiveQuery(*qid))
        << "endsystem " << e;
  }
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  for (int e = 0; e < n; ++e) {
    EXPECT_FALSE(cluster.seaweed_node(e)->HasActiveQuery(*qid))
        << "endsystem " << e;
  }
}

// A query id pinned by a salt names the same query when injected again:
// once it has ended on the origin, a second injection is refused, not
// started on a blank entry.
TEST(QueryLifecycleTest, ReinjectingAnEndedQueryIsRefused) {
  const int n = 12;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  SeaweedNode* origin = cluster.seaweed_node(0);
  const std::string sql = "SELECT COUNT(*) FROM Flow";
  auto first = origin->InjectQuery(sql, QueryObserver{}, kHour, "pinned");
  ASSERT_TRUE(first.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  origin->CancelQuery(*first);
  auto again = origin->InjectQuery(sql, QueryObserver{}, kHour, "pinned");
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition)
      << again.status().ToString();
  EXPECT_FALSE(origin->HasActiveQuery(*first));

  // A TTL already past is refused the same way.
  auto expired = origin->InjectQuery(sql, QueryObserver{}, -kSecond, "late");
  EXPECT_EQ(expired.status().code(), StatusCode::kFailedPrecondition)
      << expired.status().ToString();
  EXPECT_EQ(origin->active_query_count(), 0u);
}

// A TTL that ends after the run changes nothing within it: the same
// results at the same times, the same events and the same bytes as the
// default 48-hour TTL.
TEST(QueryLifecycleTest, TtlBeyondRunChangesNothing) {
  struct Run {
    std::vector<std::tuple<SimTime, int64_t, int64_t>> results;
    std::vector<SimTime> predictors;
    uint64_t events = 0;
    uint64_t tx_bytes = 0;
  };
  auto run = [](SimDuration ttl) {
    const int n = 24;
    SeaweedCluster cluster(Cfg(n), MakeData(n));
    cluster.BringUpAll();
    cluster.sim().RunUntil(5 * kMinute);
    Run out;
    QueryObserver obs;
    obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
      out.results.emplace_back(cluster.sim().Now(), r.rows_matched,
                               r.endsystems);
    };
    obs.on_predictor = [&](const NodeId&, const CompletenessPredictor&) {
      out.predictors.push_back(cluster.sim().Now());
    };
    const SimTime injected = cluster.sim().Now();
    EXPECT_TRUE(cluster.InjectQuery(3, "SELECT COUNT(*) FROM Flow",
                                    std::move(obs), ttl)
                    .ok());
    // Three refresh periods; the short TTL ends 5 minutes after the run.
    cluster.sim().RunUntil(injected + 50 * kMinute);
    out.events = cluster.sim().events_executed();
    out.tx_bytes = cluster.meter().total_tx_bytes();
    return out;
  };
  const Run long_ttl = run(48 * kHour);
  const Run short_ttl = run(55 * kMinute);
  EXPECT_FALSE(long_ttl.results.empty());
  EXPECT_EQ(short_ttl.results, long_ttl.results);
  EXPECT_EQ(short_ttl.predictors, long_ttl.predictors);
  EXPECT_EQ(short_ttl.events, long_ttl.events);
  EXPECT_EQ(short_ttl.tx_bytes, long_ttl.tx_bytes);
}

TEST(QueryLifecycleTest, ContinuousQueryTracksDataChanges) {
  const int n = 16;
  auto data = MakeData(n);
  SeaweedCluster cluster(Cfg(n), data);
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  std::vector<int64_t> observed_counts;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    if (observed_counts.empty() || observed_counts.back() != r.rows_matched) {
      observed_counts.push_back(r.rows_matched);
    }
  };
  auto qid = cluster.seaweed_node(0)->InjectContinuousQuery(
      "SELECT COUNT(*) FROM Flow WHERE port = 80", /*period=*/2 * kMinute,
      std::move(obs), /*ttl=*/4 * kHour);
  ASSERT_TRUE(qid.ok()) << qid.status();

  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);
  ASSERT_FALSE(observed_counts.empty());
  int64_t initial = observed_counts.back();
  EXPECT_EQ(initial, static_cast<int64_t>(n) * (n + 1) / 2);

  // Append rows on a few endsystems; within two re-execution periods the
  // origin's streamed aggregate must reflect them.
  for (int e = 0; e < 4; ++e) {
    db::Table* table = data->database(e)->FindTable("Flow");
    for (int i = 0; i < 10; ++i) {
      table->column(0).AppendInt64(80);
      table->column(1).AppendInt64(1);
      table->column(2).AppendString("HTTP");
      table->CommitRow();
    }
    data->InvalidateSummary(e);
  }
  cluster.sim().RunUntil(cluster.sim().Now() + 6 * kMinute);
  EXPECT_EQ(observed_counts.back(), initial + 40);
}

TEST(QueryLifecycleTest, ContinuousRejectsBadPeriod) {
  const int n = 4;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(2 * kMinute);
  auto qid = cluster.seaweed_node(0)->InjectContinuousQuery(
      "SELECT COUNT(*) FROM Flow", 0, QueryObserver{});
  EXPECT_TRUE(qid.status().IsInvalidArgument());
}

TEST(QueryLifecycleTest, GroupedAggregateEndToEnd) {
  const int n = 24;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  db::AggregateResult latest;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
  };
  auto qid = cluster.InjectQuery(
      0, "SELECT app, SUM(bytes), COUNT(*) FROM Flow GROUP BY app",
      std::move(obs));
  ASSERT_TRUE(qid.ok()) << qid.status();
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  // Even endsystems hold SMB rows, odd hold HTTP. Row counts: endsystem e
  // has e+1 rows.
  int64_t smb = 0, http = 0;
  for (int e = 0; e < n; ++e) {
    (e % 2 ? http : smb) += e + 1;
  }
  ASSERT_EQ(latest.groups.size(), 2u);
  const auto* http_states = latest.FindGroup(db::Value(std::string("HTTP")));
  const auto* smb_states = latest.FindGroup(db::Value(std::string("SMB")));
  ASSERT_NE(http_states, nullptr);
  ASSERT_NE(smb_states, nullptr);
  EXPECT_EQ((*http_states)[2].count, http);
  EXPECT_EQ((*smb_states)[2].count, smb);
  EXPECT_DOUBLE_EQ((*http_states)[1].sum, 100.0 * static_cast<double>(http));
  EXPECT_EQ(latest.endsystems, n);
}

TEST(QueryLifecycleTest, OriginDownQueryStillAggregates) {
  // The origin injects and then dies: the query keeps running; results
  // accumulate in the root vertex (the origin just is not there to see
  // them). On rejoin... the origin lost its observer state (volatile), so
  // we only assert the system stays consistent and other nodes keep the
  // query active.
  const int n = 24;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  auto qid = cluster.InjectQuery(3, "SELECT COUNT(*) FROM Flow",
                                 QueryObserver{}, /*ttl=*/4 * kHour);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + kMinute);
  cluster.BringDown(3);
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  int active = 0;
  for (int e = 0; e < n; ++e) {
    if (cluster.seaweed_node(e)->HasActiveQuery(*qid)) ++active;
  }
  EXPECT_GT(active, n / 2);
}

TEST(QueryLifecycleTest, TraceSpansFormConsistentTree) {
  const int n = 20;
  SeaweedCluster cluster(Cfg(n), MakeData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  int results = 0;
  QueryObserver observer;
  observer.on_result = [&](const NodeId&, const db::AggregateResult&) {
    ++results;
  };
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 std::move(observer));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);
  ASSERT_GT(results, 0);

  const obs::TraceSink& trace = cluster.obs().trace;
  ASSERT_EQ(trace.dropped(), 0u);
  const uint64_t key = obs::TraceKey(*qid);
  const obs::SpanId root = trace.RootOf(key);
  ASSERT_NE(root, obs::kNoSpan);

  std::unordered_map<obs::SpanId, obs::SpanRecord> by_id;
  trace.ForEach(
      [&](const obs::SpanRecord& rec) { by_id.emplace(rec.id, rec); });
  ASSERT_TRUE(by_id.count(root));
  EXPECT_STREQ(by_id.at(root).name, "query");
  EXPECT_EQ(by_id.at(root).parent, obs::kNoSpan);

  bool saw_disseminate = false, saw_result = false, saw_lookup = false;
  for (const auto& [id, rec] : by_id) {
    if (rec.trace != key) continue;
    // Parent links stay within the trace, point at an earlier-started span,
    // and only the root lacks one.
    if (id == root) {
      EXPECT_EQ(rec.parent, obs::kNoSpan);
    } else {
      ASSERT_TRUE(by_id.count(rec.parent)) << rec.name;
      const obs::SpanRecord& parent = by_id.at(rec.parent);
      EXPECT_EQ(parent.trace, key) << rec.name;
      EXPECT_LE(parent.start, rec.start) << rec.name;
    }
    if (rec.end != obs::kOpenSpan) EXPECT_GE(rec.end, rec.start) << rec.name;
    std::string name = rec.name;
    if (name == "disseminate") {
      saw_disseminate = true;
      EXPECT_NE(rec.end, obs::kOpenSpan);  // closed by predictor delivery
    } else if (name == "result_delivery") {
      saw_result = true;
      EXPECT_NE(rec.end, obs::kOpenSpan);  // closed by first result
    } else if (name == "metadata_lookup") {
      saw_lookup = true;
    }
  }
  EXPECT_TRUE(saw_disseminate);
  EXPECT_TRUE(saw_result);
  EXPECT_TRUE(saw_lookup);

  // The latency histograms recorded alongside the span closures.
  const obs::Histogram* lat =
      cluster.obs().metrics.FindHistogram("seaweed.result_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count(), 1u);
}

}  // namespace
}  // namespace seaweed
