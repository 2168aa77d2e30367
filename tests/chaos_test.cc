// Chaos soak: the full Seaweed stack under a deterministic FaultPlan —
// churn, a 20% loss burst, a network partition epoch, delay/reorder
// windows, and crash/restart epochs, all at once.
//
// The invariants checked are the paper's hard guarantees, which must hold
// not just on a friendly network but under injected chaos:
//   * exactly-once aggregation: no intermediate result ever overcounts
//     (rows/endsystems never exceed ground truth), and the final result
//     converges to the exact global aggregate once faults clear;
//   * the completeness predictor stays a monotone CDF in [0, 1];
//   * retries/timeouts are visible in the obs counters (the retry machinery
//     actually engaged — a soak that never retried proves nothing);
//   * replay determinism: two runs with the same seed and plan produce
//     byte-identical obs exports.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/export.h"
#include "seaweed/cluster_options.h"

namespace seaweed {
namespace {

// Endsystem e: (e+1) rows matching port=80 out of 2*(e+1) total.
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

int64_t ToyMatching(int n) { return static_cast<int64_t>(n) * (n + 1) / 2; }

// The chaos schedule. The query is injected at t=15min (before any fault);
// every fault window has cleared by t=95min, leaving the repair machinery
// (reissue timers, result refresh, overlay stabilization) time to converge.
FaultPlan ChaosPlan() {
  FaultPlan plan;
  plan.WithSeed(99)
      .AddBurst(20 * kMinute, 50 * kMinute, 0.2)
      .AddDelayWindow(30 * kMinute, 45 * kMinute, 200 * kMillisecond,
                      300 * kMillisecond)
      .AddReorderWindow(52 * kMinute, 62 * kMinute, 0.3, 500 * kMillisecond)
      .AddFractionPartition(25 * kMinute, 40 * kMinute, 0.3)
      .AddCrash(5, 70 * kMinute, 85 * kMinute)
      .AddCrash(11, 72 * kMinute, 88 * kMinute)
      .AddCrash(17, 75 * kMinute, 92 * kMinute);
  return plan;
}

uint64_t CounterValue(SeaweedCluster& cluster, const std::string& name) {
  return cluster.obs().metrics.GetCounter(name)->value();
}

TEST(ChaosTest, ExactlyOnceAggregationSurvivesChaos) {
  const int n = 32;
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(7)
      .WithSummaryWireBytes(0)
      .WithFaultPlan(ChaosPlan());
  // Tight refresh so post-fault repair converges within the soak window.
  opts.seaweed().result_refresh_period = 5 * kMinute;
  SeaweedCluster cluster(opts, MakeToyData(n));
  ASSERT_NE(cluster.fault_transport(), nullptr);

  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  const int64_t exact_rows = ToyMatching(n);
  bool got_predictor = false;
  bool predictor_ok = true;
  int64_t max_rows = 0, max_endsystems = 0;
  bool overcounted = false;
  db::AggregateResult latest;

  QueryObserver obs;
  obs.on_predictor = [&](const NodeId&, const CompletenessPredictor& p) {
    got_predictor = true;
    // Monotone CDF in [0, 1] across increasing horizons.
    double prev = 0;
    for (SimDuration h : {SimDuration{0}, kMinute, kHour, 12 * kHour,
                          48 * kHour}) {
      double c = p.CompletenessAt(h);
      if (c < prev - 1e-9 || c < 0 || c > 1 + 1e-9) predictor_ok = false;
      prev = c;
    }
  };
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
    max_rows = std::max(max_rows, r.rows_matched);
    max_endsystems = std::max(max_endsystems, r.endsystems);
    if (r.rows_matched > exact_rows || r.endsystems > n) overcounted = true;
  };

  cluster.sim().At(15 * kMinute, [&] {
    auto qid = cluster.InjectQuery(
        0, "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
        std::move(obs), /*ttl=*/6 * kHour);
    ASSERT_TRUE(qid.ok()) << qid.status();
  });

  cluster.sim().RunUntil(3 * kHour);

  // The plan actually fired.
  EXPECT_GT(cluster.fault_transport()->injected_drops(), 0u);
  EXPECT_GT(cluster.fault_transport()->injected_delays(), 0u);
  EXPECT_GT(CounterValue(cluster, "fault.burst_drops"), 0u);
  EXPECT_GT(CounterValue(cluster, "fault.partition_drops"), 0u);

  // The retry machinery engaged and is visible in obs counters.
  uint64_t retries = CounterValue(cluster, "seaweed.leaf_retries") +
                     CounterValue(cluster, "seaweed.vertex_retries") +
                     CounterValue(cluster, "seaweed.dissem_reissues") +
                     CounterValue(cluster, "seaweed.dissem_fastpath_reissues");
  EXPECT_GT(retries, 0u);

  // Exactly-once: never overcounted at any point, and converged to the
  // exact global aggregate after the faults cleared.
  EXPECT_TRUE(got_predictor);
  EXPECT_TRUE(predictor_ok);
  EXPECT_FALSE(overcounted)
      << "max rows " << max_rows << " (exact " << exact_rows << "), max "
      << "endsystems " << max_endsystems << " (n " << n << ")";
  EXPECT_EQ(latest.rows_matched, exact_rows);
  EXPECT_EQ(latest.endsystems, n);
  EXPECT_DOUBLE_EQ(latest.states[0].sum, 100.0 * static_cast<double>(exact_rows));
}

TEST(ChaosTest, ConcurrentQueriesSurviveChaos) {
  // A denser chaos schedule with several concurrent queries from one origin
  // under an admission limit. Each dropped descriptor is retried per child
  // range, so exactly-once must survive partial dissemination loss: no
  // query may ever overcount, and each must converge to its exact global
  // aggregate.
  const int n = 32;
  // The burst opens 400ms after injection: the origin's routed kBroadcast
  // lands clean, while the tree dissemination below it runs straight into
  // 25% loss.
  FaultPlan plan;
  plan.WithSeed(99)
      .AddBurst(15 * kMinute + 400 * kMillisecond, 45 * kMinute, 0.25)
      .AddDelayWindow(20 * kMinute, 35 * kMinute, 200 * kMillisecond,
                      300 * kMillisecond)
      .AddReorderWindow(36 * kMinute, 46 * kMinute, 0.3, 500 * kMillisecond)
      .AddCrash(5, 50 * kMinute, 65 * kMinute)
      .AddCrash(11, 52 * kMinute, 68 * kMinute);
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(7)
      .WithSummaryWireBytes(0)
      .WithFaultPlan(plan);
  opts.seaweed().result_refresh_period = 5 * kMinute;
  opts.seaweed().max_active_queries = 8;
  SeaweedCluster cluster(opts, MakeToyData(n));
  ASSERT_NE(cluster.fault_transport(), nullptr);

  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  const int64_t exact_rows = ToyMatching(n);
  const int kQueries = 3;
  std::vector<db::AggregateResult> latest(kQueries);
  std::vector<bool> predictor_ok(kQueries, true);
  std::vector<bool> got_predictor(kQueries, false);
  bool overcounted = false;

  cluster.sim().At(15 * kMinute, [&] {
    const char* sql[kQueries] = {
        "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
        "SELECT COUNT(*) FROM Flow WHERE port = 80",
        "SELECT COUNT(*) FROM Flow WHERE port = 443",
    };
    for (int q = 0; q < kQueries; ++q) {
      QueryObserver obs;
      obs.on_predictor = [&, q](const NodeId&,
                                const CompletenessPredictor& p) {
        got_predictor[q] = true;
        double prev = 0;
        for (SimDuration h : {SimDuration{0}, kMinute, kHour, 12 * kHour}) {
          double c = p.CompletenessAt(h);
          if (c < prev - 1e-9 || c < 0 || c > 1 + 1e-9) {
            predictor_ok[q] = false;
          }
          prev = c;
        }
      };
      obs.on_result = [&, q](const NodeId&, const db::AggregateResult& r) {
        latest[q] = r;
        if (r.rows_matched > exact_rows || r.endsystems > n) {
          overcounted = true;
        }
      };
      auto qid = cluster.InjectQuery(0, sql[q], std::move(obs),
                                     /*ttl=*/6 * kHour);
      ASSERT_TRUE(qid.ok()) << qid.status();
    }
  });

  cluster.sim().RunUntil(3 * kHour);

  // Some dissemination was reissued under fire (the per-child retry path
  // is what this soak is about).
  uint64_t reissues =
      CounterValue(cluster, "seaweed.dissem_reissues") +
      CounterValue(cluster, "seaweed.dissem_fastpath_reissues");
  EXPECT_GT(reissues, 0u);

  EXPECT_FALSE(overcounted);
  // The root's report to the origin is retried like every other child's,
  // so every predictor lands, and each is monotone.
  int predictors = 0;
  for (int q = 0; q < kQueries; ++q) {
    predictors += got_predictor[q] ? 1 : 0;
    EXPECT_TRUE(predictor_ok[q]) << "query " << q;
    EXPECT_EQ(latest[q].endsystems, n) << "query " << q;
  }
  EXPECT_EQ(predictors, kQueries);
  EXPECT_EQ(latest[0].rows_matched, exact_rows);
  ASSERT_FALSE(latest[0].states.empty());
  EXPECT_DOUBLE_EQ(latest[0].states[0].sum,
                   100.0 * static_cast<double>(exact_rows));
  EXPECT_EQ(latest[1].rows_matched, exact_rows);
  EXPECT_EQ(latest[2].rows_matched, exact_rows);
}

TEST(ChaosTest, DissemRefreshReteachesRangesAfterTotalLossOutlastsRetries) {
  // A loss burst that swallows the network for longer than the whole
  // dissemination retry chain (~4.5 min with the 10s->2min backoff) makes
  // parents exhaust max_child_retries and mark subranges done with no
  // predictor report ever arriving. Nothing restarts, so the on-rejoin
  // query-list catch-up never runs: the slow dissemination refresh is the
  // only mechanism left that can re-send the descriptor once the burst
  // clears. Require (a) the refresh actually fired, and (b) the query
  // still converges to all n endsystems exactly once.
  const int n = 24;
  FaultPlan plan;
  // 100ms in: the origin's first routed hop lands (one-way delays start
  // around 1ms), while the fan-out below it runs into the wall.
  plan.WithSeed(17).AddBurst(15 * kMinute + 100 * kMillisecond,
                             25 * kMinute, 1.0);
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(7)
      .WithSummaryWireBytes(0)
      .WithFaultPlan(plan);
  opts.seaweed().result_refresh_period = 5 * kMinute;
  SeaweedCluster cluster(opts, MakeToyData(n));

  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  const int64_t exact_rows = ToyMatching(n);
  bool overcounted = false;
  db::AggregateResult latest;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
    if (r.rows_matched > exact_rows || r.endsystems > n) overcounted = true;
  };

  cluster.sim().At(15 * kMinute, [&] {
    auto qid = cluster.InjectQuery(
        0, "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
        std::move(obs), /*ttl=*/6 * kHour);
    ASSERT_TRUE(qid.ok()) << qid.status();
  });

  cluster.sim().RunUntil(2 * kHour);

  // The retry chain gave up on unreachable subranges and the refresh path
  // — not the fast retries — carried the descriptor once the burst ended.
  EXPECT_GT(CounterValue(cluster, "seaweed.dissem_refreshes"), 0u);
  EXPECT_FALSE(overcounted)
      << "rows " << latest.rows_matched << " (exact " << exact_rows
      << "), endsystems " << latest.endsystems << " (n " << n << ")";
  EXPECT_EQ(latest.rows_matched, exact_rows);
  EXPECT_EQ(latest.endsystems, n);
}

TEST(ChaosTest, QuerySurvivesLossOfTheOriginsFirstBroadcast) {
  // The origin's full-range broadcast toward the tree root is a child range
  // like any other: a total-loss burst that swallows it, and its first
  // reissue, delays the query by one backoff step instead of losing it.
  const int n = 24;
  FaultPlan plan;
  plan.WithSeed(17).AddBurst(15 * kMinute - kSecond,
                             15 * kMinute + 25 * kSecond, 1.0);
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(7)
      .WithSummaryWireBytes(0)
      .WithFaultPlan(plan);
  opts.seaweed().result_refresh_period = 5 * kMinute;
  SeaweedCluster cluster(opts, MakeToyData(n));

  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  const int64_t exact_rows = ToyMatching(n);
  int predictors = 0;
  int64_t predicted_endsystems = 0;
  bool overcounted = false;
  db::AggregateResult latest;
  QueryObserver obs;
  obs.on_predictor = [&](const NodeId&, const CompletenessPredictor& p) {
    ++predictors;
    predicted_endsystems = p.endsystems();
  };
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
    if (r.rows_matched > exact_rows || r.endsystems > n) overcounted = true;
  };

  cluster.sim().At(15 * kMinute, [&] {
    auto qid = cluster.InjectQuery(
        0, "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
        std::move(obs), /*ttl=*/6 * kHour);
    ASSERT_TRUE(qid.ok()) << qid.status();
  });

  cluster.sim().RunUntil(kHour);

  EXPECT_GT(CounterValue(cluster, "fault.burst_drops"), 0u);
  EXPECT_GT(CounterValue(cluster, "seaweed.dissem_reissues"), 0u);
  EXPECT_EQ(predictors, 1);
  EXPECT_EQ(predicted_endsystems, n);
  EXPECT_FALSE(overcounted)
      << "rows " << latest.rows_matched << " (exact " << exact_rows
      << "), endsystems " << latest.endsystems << " (n " << n << ")";
  EXPECT_EQ(latest.rows_matched, exact_rows);
  EXPECT_EQ(latest.endsystems, n);
  ASSERT_FALSE(latest.states.empty());
  EXPECT_DOUBLE_EQ(latest.states[0].sum,
                   100.0 * static_cast<double>(exact_rows));
}

TEST(ChaosTest, RootChainPrimaryCrashBetweenFoldPasses) {
  // The root's primary folds the whole chain of vertex-id levels it owns in
  // one pass and replicates the pass to its backups as one message each. If
  // it crashes after one pass has delivered a partial result and before the
  // next, a backup must take over with exactly the per-vertex state the
  // pass left: the crashed node's own contribution, which only the backups
  // still hold, must be counted once, and nothing twice.
  const int n = 32;
  ClusterOptions opts;
  opts.WithEndsystems(n).WithSeed(7).WithSummaryWireBytes(0);
  SeaweedCluster cluster(opts, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);
  // The result is checked before the first periodic refresh could repair
  // a lost aggregate: failover must work from the replicated state alone.
  const SimDuration check_after = opts.seaweed().result_refresh_period / 2;

  // Endsystem e has e+1 rows on each port: 100 bytes on 80, 50 on 443.
  const int64_t per_port = ToyMatching(n);
  bool predictor_ok = true;
  bool overcounted = false;
  int primary = -1;
  bool crashed_between_passes = false;
  db::AggregateResult latest;

  QueryObserver obs;
  obs.on_predictor = [&](const NodeId&, const CompletenessPredictor& p) {
    double prev = 0;
    for (SimDuration h : {SimDuration{0}, kMinute, kHour, 12 * kHour}) {
      double c = p.CompletenessAt(h);
      if (c < prev - 1e-9 || c < 0 || c > 1 + 1e-9) predictor_ok = false;
      prev = c;
    }
  };
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
    if (r.rows_matched > 2 * per_port || r.endsystems > n) overcounted = true;
    for (const auto& [key, states] : r.groups) {
      if (states[1].count > per_port) overcounted = true;
    }
    if (primary < 0 || crashed_between_passes) return;
    // The first delivery is the first fold pass at the root's primary. It
    // is partial: later hops are still on their way, so the next pass
    // would have folded more. Crash the primary before that pass.
    EXPECT_LT(r.endsystems, n);
    crashed_between_passes = true;
    cluster.sim().After(kMillisecond, [&] { cluster.BringDown(primary); });
  };

  auto qid = cluster.InjectQuery(
      0, "SELECT port, COUNT(*), SUM(bytes) FROM Flow GROUP BY port",
      std::move(obs), /*ttl=*/6 * kHour);
  ASSERT_TRUE(qid.ok()) << qid.status();
  // The root vertex's primary is the endsystem numerically closest to the
  // queryId; the test needs it to be someone other than the origin.
  for (int e = 0; e < n; ++e) {
    if (primary < 0 ||
        cluster.pastry_node(e)->id().RingDistanceTo(*qid) <
            cluster.pastry_node(primary)->id().RingDistanceTo(*qid)) {
      primary = e;
    }
  }
  ASSERT_NE(primary, 0);

  cluster.sim().RunUntil(cluster.sim().Now() + check_after);

  EXPECT_TRUE(crashed_between_passes);
  EXPECT_TRUE(predictor_ok);
  EXPECT_FALSE(overcounted);
  EXPECT_EQ(latest.endsystems, n);
  EXPECT_EQ(latest.rows_matched, 2 * per_port);
  ASSERT_EQ(latest.groups.size(), 2u);
  const auto* port80 = latest.FindGroup(db::Value(int64_t{80}));
  const auto* port443 = latest.FindGroup(db::Value(int64_t{443}));
  ASSERT_NE(port80, nullptr);
  ASSERT_NE(port443, nullptr);
  EXPECT_EQ((*port80)[1].count, per_port);
  EXPECT_EQ((*port80)[2].sum, 100.0 * static_cast<double>(per_port));
  EXPECT_EQ((*port443)[1].count, per_port);
  EXPECT_EQ((*port443)[2].sum, 50.0 * static_cast<double>(per_port));
}

TEST(ChaosTest, PeriodicRepropagationAfterRootPrimaryCrash) {
  // Every vertex re-propagates once per result_refresh_period for as long
  // as its query lives; a fold pass or a re-propagation round arms one
  // timer for all the vertices it touched. Crash the root chain's primary
  // after the first round: the backups take over, and the rounds after the
  // crash must keep the result exact and never overcount.
  const int n = 24;
  ClusterOptions opts;
  opts.WithEndsystems(n).WithSeed(5).WithSummaryWireBytes(0);
  SeaweedCluster cluster(opts, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);
  const SimDuration period = opts.seaweed().result_refresh_period;

  const int64_t per_port = ToyMatching(n);
  bool overcounted = false;
  bool crashed = false;
  int deliveries_after_crash = 0;
  db::AggregateResult latest;
  QueryObserver obs;
  obs.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    latest = r;
    if (r.rows_matched > per_port || r.endsystems > n) overcounted = true;
    if (crashed) ++deliveries_after_crash;
  };
  const SimTime injected = cluster.sim().Now();
  auto qid = cluster.InjectQuery(
      0, "SELECT COUNT(*), SUM(bytes) FROM Flow WHERE port = 80",
      std::move(obs), /*ttl=*/6 * kHour);
  ASSERT_TRUE(qid.ok()) << qid.status();
  int primary = 0;
  for (int e = 1; e < n; ++e) {
    if (cluster.pastry_node(e)->id().RingDistanceTo(*qid) <
        cluster.pastry_node(primary)->id().RingDistanceTo(*qid)) {
      primary = e;
    }
  }
  ASSERT_NE(primary, 0);

  // The first round runs one period after the first fold passes.
  cluster.sim().RunUntil(injected + period + 2 * kMinute);
  EXPECT_GT(CounterValue(cluster, "seaweed.repropagation_rounds"), 0u);
  EXPECT_EQ(latest.endsystems, n);
  cluster.BringDown(primary);
  crashed = true;
  cluster.sim().RunUntil(injected + 3 * period);

  EXPECT_GT(CounterValue(cluster, "seaweed.vertex_repropagations"), 0u);
  EXPECT_FALSE(overcounted);
  EXPECT_GT(deliveries_after_crash, 0);
  EXPECT_EQ(latest.endsystems, n);
  EXPECT_EQ(latest.rows_matched, per_port);
  ASSERT_EQ(latest.states.size(), 2u);
  EXPECT_EQ(latest.states[1].sum, 100.0 * static_cast<double>(per_port));
  // One timer per fold pass or round that asked for any, plus at most one
  // per vertex update made outside them — never one per vertex folded.
  EXPECT_LE(CounterValue(cluster, "seaweed.repropagation_timers"),
            CounterValue(cluster, "seaweed.fold_passes") +
                CounterValue(cluster, "seaweed.repropagation_rounds") +
                CounterValue(cluster, "seaweed.vertex_updates_outside_pass"));
}

// One full run of a smaller chaos scenario, returning the obs exports.
std::pair<std::string, std::string> RunOnce() {
  const int n = 20;
  FaultPlan plan;
  plan.WithSeed(41)
      .AddBurst(12 * kMinute, 25 * kMinute, 0.25)
      .AddDelayWindow(14 * kMinute, 22 * kMinute, 100 * kMillisecond,
                      400 * kMillisecond)
      .AddPartition(15 * kMinute, 24 * kMinute, {1, 4, 7, 10, 13, 16})
      .AddCrash(3, 26 * kMinute, 30 * kMinute);
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(13)
      .WithSummaryWireBytes(0)
      .WithFaultPlan(plan);
  SeaweedCluster cluster(opts, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(8 * kMinute);
  QueryObserver obs;  // results tracked via obs export, not callbacks
  cluster.sim().At(10 * kMinute, [&cluster, obs]() mutable {
    (void)cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow WHERE port = 80",
                              std::move(obs), /*ttl=*/2 * kHour);
  });
  cluster.sim().RunUntil(45 * kMinute);

  std::ostringstream metrics, traces;
  obs::WriteMetricsJsonl(cluster.obs().metrics, metrics);
  obs::WriteTraceJsonl(cluster.obs().trace, traces);
  return {metrics.str(), traces.str()};
}

TEST(ChaosTest, SameSeedAndPlanReplaysByteIdentically) {
  auto [metrics_a, traces_a] = RunOnce();
  auto [metrics_b, traces_b] = RunOnce();
  // Byte-identical exports: every counter, timeseries bucket, and trace
  // span — i.e. the entire simulation — replayed identically.
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(traces_a, traces_b);
  EXPECT_FALSE(metrics_a.empty());
  EXPECT_FALSE(traces_a.empty());
}

}  // namespace
}  // namespace seaweed
