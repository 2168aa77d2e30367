// Reproduces Figure 9: bandwidth overheads of the full Seaweed system on the
// packet-level simulator, driven by the Farsite-like availability trace,
// with the paper's query (SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80)
// running throughout.
//
//  (a) overhead timeline per online endsystem, split into MSPastry /
//      Seaweed maintenance / query components — paper: mean ~69 B/s,
//      maintenance (histogram replication) dominant;
//  (b) distribution of per-endsystem per-hour tx and rx bandwidth —
//      paper: 99th percentile 178 B/s tx / 195 B/s rx, evenly spread;
//  (c) sensitivity to endsystemId assignment (5 random seeds) —
//      paper: curves visually indistinguishable;
//  (d) per-endsystem overhead vs network size N — paper: maintenance O(1),
//      query and MSPastry O(log N) and 1-3 orders of magnitude smaller;
//      predictor latency 3.1 s @2,000 -> 12.0 s @51,663; dissemination
//      ~1,043 B and predictor aggregation ~776 B per query per endsystem.
//
// Defaults are laptop-scaled (N=1,000 timeline, N sweep to 2,000); set
// SEAWEED_BENCH_SCALE to push toward paper scale.
#include <cstdio>
#include <vector>

#include "bench/fig9_run.h"

using namespace seaweed;
using seaweed::bench::Fig9Run;
using seaweed::bench::Header;
using seaweed::bench::Note;
using seaweed::bench::RunFig9;

int main() {
  Header("Figure 9", "Seaweed bandwidth overheads (packet-level simulation)");

  // ---- (a) + (b): timeline and load distribution ----
  int n_main = seaweed::bench::ScaledN(1000);
  SimDuration dur_main = 2 * kDay;
  std::printf("\nrunning main configuration: N=%d over %s "
              "(paper: N=20,000 over 4 weeks)...\n",
              n_main, FormatDuration(dur_main).c_str());
  Fig9Run main_run = RunFig9(n_main, dur_main, /*seed=*/1, true,
                                  /*obs_dump=*/"fig9_obs.jsonl");

  std::printf("\n(a) overhead per online endsystem by component "
              "(bytes/s, hourly):\n");
  std::vector<std::vector<double>> hourly_with_total;
  for (const auto& row : main_run.hourly) {
    hourly_with_total.push_back(
        {row[0], row[1], row[2], row[3], row[1] + row[2] + row[3]});
  }
  seaweed::bench::HourlyTable({"pastry", "maintenance", "query", "total"},
                              hourly_with_total);
  std::printf("\nmean total: %.1f B/s per online endsystem (paper: 69 B/s)\n",
              main_run.mean_tx_per_online);
  std::printf("  pastry %.1f | maintenance %.1f | query %.3f  B/s "
              "(paper: maintenance dominant, query ~3 orders below)\n",
              main_run.pastry_per_online, main_run.maintenance_per_online,
              main_run.query_per_online);
  std::printf("  obs cross-check: category timeseries sum %llu B, meter "
              "total counter %llu B (%s)\n",
              static_cast<unsigned long long>(
                  main_run.registry_category_tx_bytes),
              static_cast<unsigned long long>(main_run.meter_total_tx_bytes),
              main_run.registry_category_tx_bytes ==
                      main_run.meter_total_tx_bytes
                  ? "match"
                  : "MISMATCH");

  std::printf("\n(b) per-endsystem per-hour tx bandwidth distribution:\n");
  seaweed::bench::PercentileTable(main_run.tx_rates, "tx B/s");
  std::printf("  99th pct: tx %.1f B/s, rx %.1f B/s "
              "(paper: 178 / 195 B/s at its h push rate)\n",
              main_run.tx_p99, main_run.rx_p99);
  double zero_frac = 0;
  for (double r : main_run.tx_rates) {
    if (r == 0) zero_frac += 1;
  }
  zero_frac /= static_cast<double>(main_run.tx_rates.size());
  std::printf("  zero-bandwidth (offline) endsystem-hours: %.1f%% "
              "(paper: y-intercept = mean unavailability ~19%%)\n",
              100 * zero_frac);

  // ---- (c) id-assignment sensitivity ----
  std::printf("\n(c) sensitivity to endsystemId assignment "
              "(5 seeds, N=%d, 12 h):\n", seaweed::bench::ScaledN(500));
  std::printf("%6s %10s %10s %10s %10s\n", "seed", "mean", "p50", "p90",
              "p99");
  double min_mean = 1e18, max_mean = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Fig9Run r = RunFig9(seaweed::bench::ScaledN(500), 12 * kHour, seed);
    std::printf("%6llu %10.2f %10.2f %10.2f %10.2f\n",
                static_cast<unsigned long long>(seed),
                r.mean_tx_per_online, Percentile(r.tx_rates, 50),
                Percentile(r.tx_rates, 90), Percentile(r.tx_rates, 99));
    min_mean = std::min(min_mean, r.mean_tx_per_online);
    max_mean = std::max(max_mean, r.mean_tx_per_online);
  }
  std::printf("  spread of means across assignments: %.2f%% "
              "(paper: curves visually indistinguishable)\n",
              100 * (max_mean - min_mean) / std::max(1e-9, min_mean));

  // ---- (d) scaling with N ----
  std::printf("\n(d) per-endsystem overhead vs network size (12 h runs):\n");
  std::printf("%8s %10s %12s %10s %12s %10s %14s %14s\n", "N", "pastry",
              "maintenance", "query", "pred-lat(s)", "coverage",
              "dissem B/node", "predagg B/node");  // coverage = predictor endsystems / ever-seen
  for (int n : {250, 500, 1000, 2000}) {
    int scaled = seaweed::bench::ScaledN(n);
    Fig9Run r = RunFig9(scaled, 12 * kHour, /*seed=*/3);
    std::printf("%8d %10.2f %12.2f %10.3f %12.1f %9.1f%% %14.0f %14.0f\n",
                scaled, r.pastry_per_online, r.maintenance_per_online,
                r.query_per_online, r.predictor_latency_s,
                100 * r.predictor_coverage,
                r.dissemination_bytes_per_endsystem,
                r.predictor_bytes_per_endsystem);
  }
  Note("shape checks: maintenance O(1) in N and dominant; pastry and query "
       "grow slowly (O(log N)) and sit 1-3 orders of magnitude lower; "
       "predictor latency seconds-scale, growing with N (paper: 3.1 s at "
       "2,000); dissemination ~1 KB per endsystem per query (paper: 1,043 "
       "B), predictor aggregation smaller (paper: 776 B)");

  seaweed::bench::ResultWriter results("fig9");
  results.Scalar("mean_tx_per_online", main_run.mean_tx_per_online);
  results.Scalar("pastry_per_online", main_run.pastry_per_online);
  results.Scalar("maintenance_per_online", main_run.maintenance_per_online);
  results.Scalar("query_per_online", main_run.query_per_online);
  results.Scalar("tx_p99", main_run.tx_p99);
  results.Scalar("rx_p99", main_run.rx_p99);
  results.Scalar("predictor_latency_s", main_run.predictor_latency_s);
  results.Scalar("predictor_coverage", main_run.predictor_coverage);
  results.Table("hourly", {"hour", "pastry", "maintenance", "query"},
                main_run.hourly);
  results.WriteFromEnv();
  return 0;
}
