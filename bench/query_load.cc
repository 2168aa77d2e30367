// Multi-tenant query load driver: open-loop Poisson arrivals of mixed
// point / range / GROUP BY queries over Anemone data, measuring per-query
// time-to-first-predictor and time-to-90%-complete at several arrival
// rates.
//
// Open-loop means arrivals are scheduled up front from the rate alone:
// a slow system does not throttle its own offered load, so queueing shows
// up as latency instead of silently shrinking the workload. Per-query
// bandwidth flows through the existing obs accounting ("query.<id>.tx_bytes"
// counters plus the bw.tx.* category timeseries), so per-query
// dissemination bytes are read straight from the meter.
//
// Committed results live at BENCH_query_load.json; reproduce with
//
//   SEAWEED_BENCH_OUT=query_load.raw.json ./build/bench/query_load
//   scripts/query_load_to_json.py query_load.raw.json > BENCH_query_load.json
//
// Knobs:
//   SEAWEED_LOAD_RATES    comma list of arrival rates in queries/sim-second
//                         (default "0.5,2,8")
//   SEAWEED_LOAD_SMOKE    when set: small population, capped rates, short
//                         window — the whole sweep fits a CI wall-clock
//                         budget of about a minute
//   SEAWEED_OBS_DUMP      dump the first rate's metrics+spans as JSONL
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/export.h"
#include "seaweed/cluster_options.h"

using namespace seaweed;
using seaweed::bench::Header;
using seaweed::bench::Note;

namespace {

struct LoadConfig {
  double rate_qps;  // Poisson arrival rate, queries per sim-second
  int endsystems;
  SimDuration window;  // arrivals occur in [warmup, warmup+window)
  SimDuration drain;   // extra sim time for in-flight queries to finish
};

// Per-query bookkeeping, indexed by arrival order.
struct QueryTrack {
  SimTime injected_at = 0;
  SimTime first_predictor_at = -1;
  SimTime complete90_at = -1;
  NodeId id;
  bool injected = false;
  bool shed = false;
};

struct ConfigResult {
  int arrivals = 0;
  int injected = 0;
  int shed = 0;
  int completed90 = 0;
  double p50_ttfp_ms = 0, p99_ttfp_ms = 0;
  double p50_tt90_ms = 0, p99_tt90_ms = 0;
  double dissem_bytes_per_query = 0;
  double query_tx_bytes_avg = 0;  // from the per-query obs counters
  double events_executed = 0;
};

std::vector<double> ParseRates(bool smoke) {
  std::vector<double> rates = smoke ? std::vector<double>{1, 4}
                                    : std::vector<double>{0.5, 2, 8};
  if (const char* env = std::getenv("SEAWEED_LOAD_RATES")) {
    rates.clear();
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      double r = std::atof(s.substr(pos, comma - pos).c_str());
      if (r > 0) rates.push_back(r);
      pos = comma + 1;
    }
  }
  return rates;
}

// The mixed workload, rotated deterministically per arrival.
const char* WorkloadSql(int i) {
  static const char* kSql[] = {
      // point: indexed equality on one port
      "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80",
      // range: selective scan over the Bytes index
      "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE Bytes > 20000",
      // GROUP BY: per-port breakdown, exercises grouped merge up the tree
      "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort",
  };
  return kSql[i % 3];
}

ConfigResult RunConfig(const LoadConfig& cfg) {
  ClusterOptions opts;
  opts.WithEndsystems(cfg.endsystems).WithSeed(17).WithKeepTables(true);
  // Faster metadata convergence than the paper's 17.5 min pushes so the
  // load window starts from a warm, fully-summarized network.
  opts.seaweed().summary_push_period = 2 * kMinute;
  opts.seaweed().result_refresh_period = 5 * kMinute;
  opts.anemone().days = 2;
  opts.anemone().workstation_flows_per_day = 20;
  SeaweedCluster cluster(opts.BuildOrDie());
  cluster.BringUpAll();

  const SimDuration warmup = 10 * kMinute;
  const SimTime load_end = warmup + cfg.window;
  const SimTime run_end = load_end + cfg.drain;

  // Open-loop arrival schedule, fixed before the run.
  Rng arrivals_rng(1234);
  std::vector<SimTime> arrivals;
  double t = 0;
  while (true) {
    t += arrivals_rng.Exponential(1.0 / cfg.rate_qps);
    SimTime at = warmup + static_cast<SimDuration>(t * kSecond);
    if (at >= load_end) break;
    arrivals.push_back(at);
  }

  auto tracks = std::make_shared<std::vector<QueryTrack>>(arrivals.size());
  const int need90 = (cfg.endsystems * 9 + 9) / 10;  // ceil(0.9 * N)

  for (size_t i = 0; i < arrivals.size(); ++i) {
    cluster.sim().At(arrivals[i], [&cluster, tracks, i, run_end, need90] {
      // Round-robin origins across the (fully online) population.
      const int origin = static_cast<int>(i) % cluster.config().num_endsystems;
      QueryTrack& track = (*tracks)[i];
      track.injected_at = cluster.sim().Now();
      QueryObserver obs;
      obs.on_predictor = [&cluster, tracks, i](const NodeId&,
                                               const CompletenessPredictor&) {
        QueryTrack& qt = (*tracks)[i];
        if (qt.first_predictor_at < 0) {
          qt.first_predictor_at = cluster.sim().Now();
        }
      };
      obs.on_result = [&cluster, tracks, i, need90](
                          const NodeId&, const db::AggregateResult& r) {
        QueryTrack& qt = (*tracks)[i];
        if (qt.complete90_at < 0 && r.endsystems >= need90) {
          qt.complete90_at = cluster.sim().Now();
        }
      };
      auto qid = cluster.InjectQuery(
          origin, WorkloadSql(static_cast<int>(i)), std::move(obs),
          /*ttl=*/run_end - cluster.sim().Now());
      if (qid.ok()) {
        track.injected = true;
        track.id = *qid;
      } else {
        track.shed = qid.status().code() == StatusCode::kUnavailable;
      }
    });
  }

  cluster.sim().RunUntil(run_end);

  ConfigResult res;
  res.arrivals = static_cast<int>(arrivals.size());
  res.events_executed = static_cast<double>(cluster.sim().events_executed());

  std::vector<double> ttfp_ms, tt90_ms;
  double query_tx_sum = 0;
  int query_tx_n = 0;
  for (const QueryTrack& track : *tracks) {
    if (!track.injected) {
      res.shed += track.shed ? 1 : 0;
      continue;
    }
    ++res.injected;
    if (track.first_predictor_at >= 0) {
      ttfp_ms.push_back(
          static_cast<double>(track.first_predictor_at - track.injected_at) /
          kMillisecond);
    }
    if (track.complete90_at >= 0) {
      ++res.completed90;
      tt90_ms.push_back(
          static_cast<double>(track.complete90_at - track.injected_at) /
          kMillisecond);
    }
    // Per-query bandwidth from the obs counters the nodes charge.
    if (const obs::Counter* c = cluster.obs().metrics.FindCounter(
            "query." + track.id.ToShortString() + ".tx_bytes")) {
      query_tx_sum += static_cast<double>(c->value());
      ++query_tx_n;
    }
  }
  res.p50_ttfp_ms = Percentile(ttfp_ms, 50);
  res.p99_ttfp_ms = Percentile(ttfp_ms, 99);
  res.p50_tt90_ms = Percentile(tt90_ms, 50);
  res.p99_tt90_ms = Percentile(tt90_ms, 99);

  const double dissem = static_cast<double>(
      cluster.meter().CategoryTxBytes(TrafficCategory::kDissemination));
  res.dissem_bytes_per_query =
      res.injected > 0 ? dissem / res.injected : 0;
  res.query_tx_bytes_avg = query_tx_n > 0 ? query_tx_sum / query_tx_n : 0;

  static bool dumped = false;
  if (!dumped) {
    bench::DumpObs(cluster.obs(), nullptr);
    dumped = true;
  }
  return res;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("SEAWEED_LOAD_SMOKE") != nullptr;
  Header("query_load",
         "open-loop Poisson query load: latency percentiles and per-query "
         "dissemination bytes");
  Note("mixed workload: point (SrcPort=80), range (Bytes>20000), and");
  Note("GROUP BY SrcPort, rotated per arrival; origins round-robin.");
  if (smoke) Note("SEAWEED_LOAD_SMOKE: reduced population/window for CI.");

  LoadConfig base{};
  base.endsystems = smoke ? 48 : 120;
  base.window = (smoke ? 20 : 60) * kSecond;
  base.drain = (smoke ? 3 : 5) * kMinute;

  bench::ResultWriter results("query_load");
  std::vector<std::vector<double>> rows;

  std::printf("%8s %9s %6s %12s %12s %12s %12s %14s %14s\n", "rate_qps",
              "injected", "shed", "p50_ttfp_ms", "p99_ttfp_ms", "p50_tt90_ms",
              "p99_tt90_ms", "dissemB/query", "queryB_avg");
  for (double rate : ParseRates(smoke)) {
    LoadConfig cfg = base;
    cfg.rate_qps = rate;
    ConfigResult r = RunConfig(cfg);
    std::printf("%8.2f %9d %6d %12.1f %12.1f %12.1f %12.1f %14.1f %14.1f\n",
                rate, r.injected, r.shed, r.p50_ttfp_ms, r.p99_ttfp_ms,
                r.p50_tt90_ms, r.p99_tt90_ms, r.dissem_bytes_per_query,
                r.query_tx_bytes_avg);
    std::fflush(stdout);
    rows.push_back({rate, static_cast<double>(cfg.endsystems),
                    static_cast<double>(cfg.window) / kSecond,
                    static_cast<double>(r.arrivals),
                    static_cast<double>(r.injected),
                    static_cast<double>(r.shed),
                    static_cast<double>(r.completed90), r.p50_ttfp_ms,
                    r.p99_ttfp_ms, r.p50_tt90_ms, r.p99_tt90_ms,
                    r.dissem_bytes_per_query, r.query_tx_bytes_avg,
                    r.events_executed});
  }

  results.Table("load",
                {"rate_qps", "endsystems", "window_s", "arrivals", "injected",
                 "shed", "completed90", "p50_ttfp_ms", "p99_ttfp_ms",
                 "p50_tt90_ms", "p99_tt90_ms", "dissem_bytes_per_query",
                 "query_tx_bytes_avg", "events_executed"},
                rows);
  results.WriteFromEnv();
  return 0;
}
