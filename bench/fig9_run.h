// The Figure 9 run: a Farsite-driven cluster with the paper's query
// injected at a quarter of the run and live to its end, and the per-online-
// endsystem bandwidth it produces, split into MSPastry, Seaweed maintenance
// and query traffic. bench/fig9_overheads prints it at laptop scale;
// tests/paper_gates_test.cc runs a scaled-down configuration of the same
// shape against bands recorded in EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

namespace seaweed::bench {

inline ClusterConfig MakeFig9Config(int n, uint64_t seed) {
  ClusterOptions opts;
  opts.WithEndsystems(n)
      .WithSeed(seed)
      .WithKeepTables(false)  // regenerate per execution; cache summaries only
      .WithSummaryWireBytes(6473);  // Table 1 h
  opts.anemone().days = 7;
  opts.anemone().workstation_flows_per_day = 20;
  return opts.BuildOrDie();
}

struct Fig9Run {
  double mean_tx_per_online = 0;       // B/s, whole run
  double pastry_per_online = 0;        // B/s
  double maintenance_per_online = 0;   // B/s
  double query_per_online = 0;         // B/s
  double tx_p99 = 0;                   // per-endsystem-hour 99th pct, B/s
  double rx_p99 = 0;
  std::vector<double> tx_rates;        // per (endsystem, hour) samples
  double predictor_latency_s = -1;
  double predictor_coverage = 0;  // endsystems in predictor / N
  double dissemination_bytes_per_endsystem = 0;
  double predictor_bytes_per_endsystem = 0;
  std::vector<std::vector<double>> hourly;  // t, pastry, maint, query
  // Cross-check of the two obs paths (see below): sum of the per-category
  // "bw.tx.*" registry timeseries vs the independent total-bytes counter.
  uint64_t registry_category_tx_bytes = 0;
  uint64_t meter_total_tx_bytes = 0;
};

// The per-category breakdown is read from the observability registry
// ("bw.tx.<category>" timeseries), not from private meter state: the
// BandwidthMeter publishes its category accounting as registry timeseries,
// so this bench, tools/obs_report, and any test all see the same bytes.
inline Fig9Run RunFig9(int n, SimDuration duration, uint64_t seed,
                       bool print_progress = false,
                       const char* obs_dump = nullptr) {
  ClusterConfig cfg = MakeFig9Config(n, seed);
  SeaweedCluster cluster(cfg);
  FarsiteModelConfig fcfg;
  fcfg.seed = seed * 131 + 7;
  auto trace = GenerateFarsiteTrace(fcfg, n, duration + kHour);
  cluster.DriveFromTrace(trace, duration);

  // Inject the paper's query a quarter of the way in, running to the end.
  SimTime inject_at = duration / 4;
  struct {
    SimTime injected = -1;
    SimTime predictor_at = -1;
    int64_t predictor_endsystems = 0;
  } obs_state;
  cluster.sim().At(inject_at, [&cluster, &obs_state, inject_at, duration] {
    // Find a live endsystem to inject from.
    for (int e = 0; e < cluster.config().num_endsystems; ++e) {
      if (cluster.pastry_node(e)->joined()) {
        QueryObserver obs;
        obs.on_predictor = [&cluster, &obs_state](
                               const NodeId&, const CompletenessPredictor& p) {
          if (obs_state.predictor_at < 0) {
            obs_state.predictor_at = cluster.sim().Now();
            obs_state.predictor_endsystems = p.endsystems();
          }
        };
        auto st = cluster.InjectQuery(
            e,
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW() "
            "AND ts >= NOW() - 86400",
            std::move(obs), duration - inject_at);
        if (st.ok()) obs_state.injected = cluster.sim().Now();
        return;
      }
    }
  });

  cluster.sim().RunUntil(duration);
  if (print_progress) {
    std::printf("  [N=%d: %llu events, %llu msgs]\n", n,
                static_cast<unsigned long long>(cluster.sim().events_executed()),
                static_cast<unsigned long long>(
                    cluster.network().messages_sent()));
  }

  Fig9Run out;
  const obs::MetricsRegistry& reg = cluster.obs().metrics;
  auto cat_series = [&reg](TrafficCategory c) {
    return reg.FindTimeseries(std::string("bw.tx.") + TrafficCategoryName(c));
  };
  int64_t h0 = 1, h1 = duration / kHour - 1;
  out.mean_tx_per_online = cluster.MeanTxPerOnline(h0, h1);
  out.pastry_per_online = cluster.MeanTxPerOnline(
      h0, h1, static_cast<int>(TrafficCategory::kPastry));
  out.maintenance_per_online = cluster.MeanTxPerOnline(
      h0, h1, static_cast<int>(TrafficCategory::kMetadata));
  out.query_per_online =
      cluster.MeanTxPerOnline(h0, h1,
                              static_cast<int>(TrafficCategory::kDissemination)) +
      cluster.MeanTxPerOnline(h0, h1,
                              static_cast<int>(TrafficCategory::kPredictor)) +
      cluster.MeanTxPerOnline(h0, h1,
                              static_cast<int>(TrafficCategory::kResult));
  out.tx_rates = cluster.meter().HourlyTxRates(h0, h1);
  out.tx_p99 = Percentile(out.tx_rates, 99);
  out.rx_p99 = Percentile(cluster.meter().HourlyRxRates(h0, h1), 99);
  if (obs_state.predictor_at >= 0) {
    out.predictor_latency_s =
        ToSeconds(obs_state.predictor_at - obs_state.injected);
    // The paper's consistency guarantee covers H_U(-inf, T_e): endsystems
    // ever seen by the system. Machines that have never been online have no
    // metadata anywhere and are correctly absent.
    int ever_seen = 0;
    for (int e = 0; e < n; ++e) {
      if (trace.endsystem(e).NextUpAt(0) <= obs_state.injected) ++ever_seen;
    }
    out.predictor_coverage =
        ever_seen > 0
            ? static_cast<double>(obs_state.predictor_endsystems) / ever_seen
            : 0;
  }
  out.dissemination_bytes_per_endsystem =
      static_cast<double>(cat_series(TrafficCategory::kDissemination)->total())
      / n;
  out.predictor_bytes_per_endsystem =
      static_cast<double>(cat_series(TrafficCategory::kPredictor)->total()) / n;

  for (int64_t h = h0; h <= h1; ++h) {
    double online = cluster.OnlineSecondsInHour(h);
    if (online <= 0) continue;
    auto cat = [&](TrafficCategory c) {
      const auto& tl = cat_series(c)->buckets();
      return static_cast<size_t>(h) < tl.size()
                 ? static_cast<double>(tl[static_cast<size_t>(h)]) / online
                 : 0.0;
    };
    out.hourly.push_back(
        {static_cast<double>(h), cat(TrafficCategory::kPastry),
         cat(TrafficCategory::kMetadata),
         cat(TrafficCategory::kDissemination) +
             cat(TrafficCategory::kPredictor) +
             cat(TrafficCategory::kResult)});
  }

  // The five category timeseries and the total-bytes counter are distinct
  // instruments fed from the same RecordTx calls; equal sums mean neither
  // path dropped bytes.
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    out.registry_category_tx_bytes +=
        cat_series(static_cast<TrafficCategory>(c))->total();
  }
  out.meter_total_tx_bytes = cluster.meter().total_tx_bytes();
  if (obs_dump != nullptr) {
    DumpObs(cluster.obs(), obs_dump);
  }
  return out;
}

}  // namespace seaweed::bench
