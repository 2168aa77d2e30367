// sim_workload: one repetition of a simulated benchmark workload.
//
//   sim_workload --workload query_mix|churn_5k --seed S [--trace 0|1]
//                [--spans FILE]
//
// Builds the workload's cluster kSetups times (the median build is setup_s),
// runs the timed phase on the last build, checks every answer against ground
// truth computed through the db layer, and prints one JSON object as the
// last line of stdout. perfbench/run.py runs this binary once per
// repetition, in its own process, so peak RSS measures one workload alone.
//
// With --trace 1 the run records spans into a benchmark-owned TraceSink,
// timed from outside the program: SeaweedCluster construction,
// GenerateFarsiteTrace, every Simulator::RunUntil slice, and every call into
// a DataProvider decorator wrapping AnemoneDataProvider. Span timestamps are
// wall-clock microseconds since the process started. Nothing inside src/ is
// changed; the counters, gauges and spans the program already exports are
// read from the cluster's obs domain.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/sql_parser.h"
#include "net/result_format.h"
#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

namespace {

using namespace seaweed;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - kProcessStart)
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  int endsystems = 0;
  bool churn = false;        // Farsite trace (else: all online, warm)
  int anemone_days = 0;
  double flows_per_day = 0;
  SimDuration warmup = 0;    // setup runs the simulation up to here
  SimDuration idle = 0;      // quiet stretch of the timed phase
  int queries = 0;           // fixed count of open-loop arrivals
  double rate_qps = 0;       // arrival rate, queries per simulated second
  // Poisson arrivals (the count fixed, so uniform times over the window
  // queries/rate), or one arrival per 1/rate with up to a third of that as
  // seeded jitter (a steady stream whose overlap, and so memory, is fixed).
  bool poisson = true;
  SimDuration horizon = 0;   // timed phase ends here (0: last arrival+drain)
  SimDuration drain = 0;
  SimDuration ttl = 0;       // query time-to-live (0: until the horizon)
  std::vector<std::string> mix;  // SQL, rotated per arrival
};

const char* kPoint = "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80";
const char* kRange = "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE Bytes > 20000";
const char* kGroupApp = "SELECT App, COUNT(*), SUM(Bytes) FROM Flow GROUP BY App";
const char* kGroupPort =
    "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort";
const char* kQuantile = "SELECT QUANTILE(Bytes, 0.9) FROM Flow";
const char* kPaper = "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80";

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "query_mix") {
    w.endsystems = 120;
    w.anemone_days = 2;
    w.flows_per_day = 20;
    w.warmup = 2 * kMinute;
    w.idle = 30 * kSecond;
    w.queries = 120;
    w.rate_qps = 0.25;
    w.drain = 3 * kMinute;
    // The ~5.5k-group GROUP BY SrcPort costs ~30x a cheap query in wall
    // time, and its state stays resident until the query's TTL, so it takes
    // one arrival slot in 24; the other four kinds share the rest.
    const char* cheap[] = {kPoint, kRange, kGroupApp, kQuantile};
    for (int i = 0; i < 23; ++i) w.mix.push_back(cheap[i % 4]);
    w.mix.push_back(kGroupPort);
  } else if (name == "churn_5k") {
    w.endsystems = 5000;
    w.churn = true;
    // bench/sim_scale's small tables: each execution regenerates the table,
    // and at 7 days x 40 flows that alone cost ~1.4 s of wall per query.
    w.anemone_days = 1;
    w.flows_per_day = 6;
    // The whole hour is measured, join storm included, as in Fig 9: setup
    // is trace generation and cluster construction only.
    w.warmup = 0;
    w.idle = 15 * kMinute;  // arrivals start at T/4 of the hour
    w.queries = 12;
    w.rate_qps = 1.0 / 90;
    w.poisson = false;
    w.horizon = kHour;
    // A query's state and periodic refreshes live until its TTL; a short
    // TTL keeps the stream small next to the hour's maintenance work.
    w.ttl = 5 * kMinute;
    w.mix = {kPaper};
  }
  return w;
}

// ---------------------------------------------------------------------------
// Benchmark-side tracing
// ---------------------------------------------------------------------------

// Spans around calls into each layer's public functions, kept in memory and
// written out when the run ends. Also accumulates the db layer's call counts
// and wall time, which the untraced run does not collect.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), sink_(on ? (1u << 19) : 1) {
    sink_.set_enabled(on);
  }

  bool on() const { return on_; }
  obs::SpanId Start(const char* name, uint64_t key,
                    obs::SpanId parent = obs::kNoSpan) {
    return on_ ? sink_.StartSpan(name, key, WallUs(), parent) : obs::kNoSpan;
  }
  void End(obs::SpanId id) {
    if (on_) sink_.EndSpan(id, WallUs());
  }
  const obs::TraceSink& sink() const { return sink_; }

  // The RunUntil slice in progress: the parent of db spans.
  obs::SpanId slice = obs::kNoSpan;

  // db accounting since the last ResetDb().
  std::vector<double> exec_us;
  double exec_wall_s = 0;
  int64_t summary_calls = 0;
  double summary_wall_s = 0;
  void ResetDb() {
    exec_us.clear();
    exec_wall_s = 0;
    summary_calls = 0;
    summary_wall_s = 0;
  }
  double db_wall_s() const { return exec_wall_s + summary_wall_s; }

 private:
  bool on_;
  obs::TraceSink sink_;
};

uint64_t KeyOf(const std::string& query_key) {
  return std::hash<std::string>{}(query_key) | 1;
}

// DataProvider decorator: times every call into the db layer (and, when
// tables are not kept, the anemone table generation it triggers).
class TimedDataProvider final : public DataProvider {
 public:
  TimedDataProvider(std::shared_ptr<DataProvider> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const db::DatabaseSummary& Summary(int endsystem) override {
    const obs::SpanId span =
        tracer_->Start("db.summary", kSummaryKey, tracer_->slice);
    const int64_t t0 = WallUs();
    const db::DatabaseSummary& s = inner_->Summary(endsystem);
    tracer_->summary_wall_s += 1e-6 * static_cast<double>(WallUs() - t0);
    ++tracer_->summary_calls;
    tracer_->End(span);
    return s;
  }

  Result<db::AggregateResult> Execute(int endsystem,
                                      const db::SelectQuery& query) override {
    return Timed("", [&] { return inner_->Execute(endsystem, query); });
  }

  Result<db::AggregateResult> ExecuteCached(int endsystem,
                                            const db::SelectQuery& query,
                                            db::PlanCache* cache,
                                            const std::string& key) override {
    return Timed(key, [&] {
      return inner_->ExecuteCached(endsystem, query, cache, key);
    });
  }

  // Not timed: the stock configuration never slices execution.
  Result<SlicedExecution> BeginSlicedExecution(int endsystem,
                                               const db::SelectQuery& query,
                                               db::PlanCache* cache,
                                               const std::string& key) override {
    return inner_->BeginSlicedExecution(endsystem, query, cache, key);
  }

  uint32_t SummaryWireBytes(int endsystem) override {
    return inner_->SummaryWireBytes(endsystem);
  }

 private:
  static constexpr uint64_t kSummaryKey = 2;

  template <typename Fn>
  Result<db::AggregateResult> Timed(const std::string& key, Fn&& fn) {
    const obs::SpanId span =
        tracer_->Start("db.exec", KeyOf(key), tracer_->slice);
    const int64_t t0 = WallUs();
    Result<db::AggregateResult> r = fn();
    const double us = static_cast<double>(WallUs() - t0);
    tracer_->exec_us.push_back(us);
    tracer_->exec_wall_s += 1e-6 * us;
    tracer_->End(span);
    return r;
  }

  std::shared_ptr<DataProvider> inner_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct World {
  std::unique_ptr<AvailabilityTrace> trace;
  std::shared_ptr<AnemoneDataProvider> data;
  std::unique_ptr<SeaweedCluster> cluster;
  double setup_s = 0;
  double trace_gen_s = 0;
  double join_s = 0;  // simulated join + warm-up, wall-clock (all online)
};

// churn_5k's world is fixed: the Farsite trace and the cluster (node ids,
// topology) always come from this seed, like every workload's tables. Its
// --seed varies only the arrival schedule and the first origin, so seeds
// differ in what the queries meet, not in the hour of maintenance around
// them. query_mix draws ids and topology from --seed.
constexpr uint64_t kWorldSeed = 7;
// Cluster builds per run; setup_s is their median.
constexpr int kSetups = 9;
constexpr uint64_t kRunKey = 1;
constexpr uint64_t kSetupKeyBase = 16;

std::unique_ptr<World> Build(const Workload& w, uint64_t seed, Tracer* tracer,
                             int setup_index) {
  auto world = std::make_unique<World>();
  const int64_t t0 = WallUs();
  const uint64_t key = kSetupKeyBase + static_cast<uint64_t>(setup_index);
  const obs::SpanId root = tracer->Start("setup", key);

  if (w.churn) {
    const obs::SpanId span = tracer->Start("trace.generate", key, root);
    const int64_t g0 = WallUs();
    FarsiteModelConfig trace_cfg;
    trace_cfg.seed = kWorldSeed;
    world->trace = std::make_unique<AvailabilityTrace>(
        GenerateFarsiteTrace(trace_cfg, w.endsystems, w.horizon + kHour));
    world->trace_gen_s = 1e-6 * static_cast<double>(WallUs() - g0);
    tracer->End(span);
  }

  ClusterOptions opts;
  opts.WithEndsystems(w.endsystems)
      .WithSeed(w.churn ? kWorldSeed : seed)
      .WithKeepTables(!w.churn);
  opts.anemone().days = w.anemone_days;
  opts.anemone().workstation_flows_per_day = w.flows_per_day;
  const ClusterConfig config = opts.BuildOrDie();

  const obs::SpanId build_span = tracer->Start("cluster.build", key, root);
  world->data = std::make_shared<AnemoneDataProvider>(
      config.anemone, config.num_endsystems, config.keep_tables,
      config.summary_wire_bytes);
  std::shared_ptr<DataProvider> provider = world->data;
  if (tracer->on()) {
    provider = std::make_shared<TimedDataProvider>(world->data, tracer);
  }
  world->cluster = std::make_unique<SeaweedCluster>(config, provider);
  tracer->End(build_span);

  SeaweedCluster& cluster = *world->cluster;
  const int64_t j0 = WallUs();
  const obs::SpanId join_span = tracer->Start("join", key, root);
  if (w.churn) {
    cluster.DriveFromTrace(*world->trace, w.horizon);
  } else {
    cluster.BringUpAll();
  }
  while (cluster.sim().Now() < w.warmup) {
    tracer->slice = tracer->Start("sim.run_until", key, join_span);
    cluster.sim().RunUntil(std::min<SimTime>(cluster.sim().Now() + 10 * kSecond,
                                             w.warmup));
    tracer->End(tracer->slice);
    tracer->slice = obs::kNoSpan;
  }
  tracer->End(join_span);
  world->join_s = 1e-6 * static_cast<double>(WallUs() - j0);
  tracer->End(root);
  world->setup_s = 1e-6 * static_cast<double>(WallUs() - t0);
  return world;
}

// ---------------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------------

struct Track {
  std::string sql;
  SimTime injected_at = -1;
  SimTime first_predictor_at = -1;
  SimTime complete90_at = -1;
  SimTime ends_at = -1;  // injection + TTL
  int need90 = 0;
  NodeId id;
  bool injected = false;
  bool monotone = true;
  double predictor_rows = -1;
  int64_t predictor_endsystems = -1;
  CompletenessPredictor predictor;
  bool have_result = false;
  db::AggregateResult result;
};

// Reads the cluster's span ring (dense ids 1..started in the serial engine)
// after every slice: each new span once, open ones again until they end.
// Spans of the timed phase only; one overwritten before it was read ended
// is counted as lost.
class SpanHarvester {
 public:
  explicit SpanHarvester(const obs::TraceSink& sink)
      : sink_(sink), next_(sink.started() + 1) {}

  void Harvest() {
    std::vector<obs::SpanId> still_open;
    for (obs::SpanId id : open_) Visit(id, &still_open);
    for (; next_ <= sink_.started(); ++next_) Visit(next_, &still_open);
    open_.swap(still_open);
  }

  std::map<std::string, std::vector<double>> ms;  // ended spans, by name
  uint64_t lost = 0;

 private:
  void Visit(obs::SpanId id, std::vector<obs::SpanId>* still_open) {
    const obs::SpanRecord* s = sink_.Find(id);
    if (s == nullptr) {
      ++lost;
    } else if (s->end == obs::kOpenSpan) {
      still_open->push_back(id);
    } else {
      ms[s->name].push_back(ToSeconds(s->end - s->start) * 1e3);
    }
  }

  const obs::TraceSink& sink_;
  obs::SpanId next_;
  std::vector<obs::SpanId> open_;
};

struct Segment {
  double wall_s = 0;
  double sim_s = 0;
  double db_s = 0;
};

std::map<std::string, uint64_t> SnapshotCounters(const obs::MetricsRegistry& m) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : m.counters()) out[name] = c->value();
  return out;
}

struct Json {
  std::string s = "{";
  void Num(const std::string& k, double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    s += "\"" + k + "\":" + buf;
  }
  void Raw(const std::string& k, const std::string& v) {
    Sep();
    s += "\"" + k + "\":" + v;
  }
  void Str(const std::string& k, const std::string& v) {
    Sep();
    std::string esc;
    obs::AppendJsonEscaped(&esc, v);
    s += "\"" + k + "\":\"" + esc + "\"";
  }
  std::string Close() { return s + "}"; }

 private:
  void Sep() {
    if (s.size() > 1) s += ",";
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string spans;
};

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload);
  if (w.endsystems == 0) {
    std::fprintf(stderr, "sim_workload: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Tracer tracer(args.trace);

  // --- Setup, several times; the last build is kept for the timed phase.
  std::vector<double> setup_s, trace_gen_s, join_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = Build(w, args.seed, &tracer, i);
    setup_s.push_back(world->setup_s);
    trace_gen_s.push_back(world->trace_gen_s);
    join_s.push_back(world->join_s);
  }
  SeaweedCluster& cluster = *world->cluster;
  Simulator& sim = cluster.sim();

  // --- Inputs: the open-loop arrival schedule and the SQL rotation.
  const SimTime first_arrival = w.warmup + w.idle;
  std::vector<SimTime> arrivals;
  Rng arrival_rng(args.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  const double gap_s = 1.0 / w.rate_qps;
  for (int i = 0; i < w.queries; ++i) {
    const double at = w.poisson ? arrival_rng.Uniform(0, w.queries * gap_s)
                                : i * gap_s + arrival_rng.Uniform(0, gap_s / 3);
    arrivals.push_back(first_arrival + static_cast<SimDuration>(at * kSecond));
  }
  std::sort(arrivals.begin(), arrivals.end());
  const SimTime last_arrival = arrivals.back();
  const SimTime horizon = w.horizon > 0 ? w.horizon : last_arrival + w.drain;

  auto tracks = std::make_shared<std::vector<Track>>(arrivals.size());
  auto next_origin = std::make_shared<int>(
      static_cast<int>(arrival_rng.NextBelow(static_cast<uint64_t>(w.endsystems))));
  for (size_t i = 0; i < arrivals.size(); ++i) {
    (*tracks)[i].sql = w.mix[i % w.mix.size()];
    const SimDuration ttl = w.ttl;
    sim.At(arrivals[i], [&cluster, tracks, next_origin, i, horizon, ttl] {
      Track& track = (*tracks)[i];
      // Round-robin origins over the endsystems that are online now.
      const int n = cluster.config().num_endsystems;
      int origin = -1;
      for (int k = 0; k < n; ++k) {
        const int e = (*next_origin + k) % n;
        if (cluster.pastry_node(e)->joined()) {
          origin = e;
          break;
        }
      }
      if (origin < 0) return;
      *next_origin = origin + 1;
      track.injected_at = cluster.sim().Now();
      track.need90 = (cluster.CountUp() * 9 + 9) / 10;
      QueryObserver observer;
      observer.on_predictor = [&cluster, tracks, i](
                                  const NodeId&,
                                  const CompletenessPredictor& p) {
        Track& q = (*tracks)[i];
        if (q.first_predictor_at < 0) q.first_predictor_at = cluster.sim().Now();
        if (p.TotalRows() < q.predictor_rows ||
            p.endsystems() < q.predictor_endsystems) {
          q.monotone = false;
        }
        q.predictor_rows = p.TotalRows();
        q.predictor_endsystems = p.endsystems();
        q.predictor = p;
      };
      observer.on_result = [&cluster, tracks, i](const NodeId&,
                                                 const db::AggregateResult& r) {
        Track& q = (*tracks)[i];
        if (q.complete90_at < 0 && r.endsystems >= q.need90) {
          q.complete90_at = cluster.sim().Now();
        }
        q.have_result = true;
        q.result = r;
      };
      const SimDuration left = horizon - cluster.sim().Now();
      const SimDuration life = ttl > 0 ? std::min(ttl, left) : left;
      track.ends_at = track.injected_at + life;
      auto qid = cluster.InjectQuery(origin, track.sql, std::move(observer),
                                     life);
      if (qid.ok()) {
        track.injected = true;
        track.id = *qid;
      }
    });
  }

  // --- Timed phase: fixed load, RunUntil in slices of simulated time.
  const obs::MetricsRegistry& reg = cluster.obs().metrics;
  const auto counters0 = SnapshotCounters(reg);
  const uint64_t events0 = sim.events_executed();
  uint64_t cat0[kNumTrafficCategories];
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    cat0[c] = cluster.meter().CategoryTxBytes(static_cast<TrafficCategory>(c));
  }
  tracer.ResetDb();
  Segment idle, load, drain;
  double online_s = 0;
  // Churn: the join storm is part of the timed phase; overlay.join_s is the
  // wall-clock until 95% of the online endsystems have joined.
  double churn_join_s = -1;
  SpanHarvester spans(cluster.obs().trace);
  // The traced run steps in shorter slices so the harvest after each one
  // reads every span before the ring wraps.
  const SimDuration slice = tracer.on() ? 100 * kMillisecond : kSecond;
  // The traced run also samples the memory gauges (mem.*) every 10 simulated
  // seconds, so their max() is a peak over the timed phase.
  const SimDuration gauge_period = 10 * kSecond;
  SimTime next_gauges = sim.Now() + gauge_period;
  const obs::SpanId run_span = tracer.Start("run", kRunKey);
  const double cpu0 = CpuSeconds();
  const int64_t wall0 = WallUs();
  while (sim.Now() < horizon) {
    const SimTime from = sim.Now();
    const SimTime to = std::min<SimTime>(from + slice, horizon);
    const double db0 = tracer.db_wall_s();
    const int64_t s0 = WallUs();
    tracer.slice = tracer.Start("sim.run_until", kRunKey, run_span);
    sim.RunUntil(to);
    tracer.End(tracer.slice);
    tracer.slice = obs::kNoSpan;
    Segment& seg = to <= first_arrival ? idle : (from < last_arrival ? load : drain);
    seg.wall_s += 1e-6 * static_cast<double>(WallUs() - s0);
    seg.sim_s += ToSeconds(to - from);
    seg.db_s += tracer.db_wall_s() - db0;
    const int up = cluster.CountUp();
    online_s += static_cast<double>(up) * ToSeconds(to - from);
    if (w.churn && churn_join_s < 0 && cluster.CountJoined() * 20 >= up * 19) {
      churn_join_s = 1e-6 * static_cast<double>(WallUs() - wall0);
    }
    if (tracer.on()) {
      spans.Harvest();
      if (to >= next_gauges) {
        cluster.PublishStatsGauges();  // between slices: an exclusive context
        next_gauges += gauge_period;
      }
    }
  }
  const double run_wall_s = 1e-6 * static_cast<double>(WallUs() - wall0);
  const double cpu_s = CpuSeconds() - cpu0;
  tracer.End(run_span);
  const uint64_t events = sim.events_executed() - events0;
  cluster.PublishStatsGauges();
  const auto counters1 = SnapshotCounters(reg);
  auto delta = [&](const std::string& name) {
    auto a = counters1.find(name);
    auto b = counters0.find(name);
    const uint64_t v1 = a == counters1.end() ? 0 : a->second;
    const uint64_t v0 = b == counters0.end() ? 0 : b->second;
    return static_cast<double>(v1 - v0);
  };
  double cat_tx[kNumTrafficCategories];
  double tx_total = 0;
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    cat_tx[c] = static_cast<double>(
        cluster.meter().CategoryTxBytes(static_cast<TrafficCategory>(c)) -
        cat0[c]);
    tx_total += cat_tx[c];
  }

  // --- Ground truth through the db layer, outside the timed phase.
  std::map<std::string, db::SelectQuery> parsed;
  std::map<std::string, db::AggregateResult> truth;
  for (const std::string& sql : w.mix) {
    if (parsed.count(sql)) continue;
    auto q = db::ParseSelect(sql);
    if (!q.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", sql.c_str(),
                   q.status().ToString().c_str());
      return 1;
    }
    db::AggregateResult all;
    for (int e = 0; e < w.endsystems; ++e) {
      auto r = world->data->Execute(e, *q);
      if (!r.ok()) {
        std::fprintf(stderr, "ground truth %s: %s\n", sql.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      all.Merge(*r);
    }
    parsed.emplace(sql, std::move(*q));
    truth.emplace(sql, std::move(all));
  }

  // --- Per-query outcomes and the correctness check.
  std::vector<double> ttfp_ms, tt90_ms, pred_err, query_tx;
  std::map<std::string, int> fail_reasons;
  int failed = 0, wrong = 0, sketch_queries = 0;
  for (const Track& q : *tracks) {
    const char* reason = nullptr;
    const db::SelectQuery& sq = parsed.at(q.sql);
    const db::AggregateResult& gt = truth.at(q.sql);
    const bool sketch = q.sql == kQuantile;
    if (sketch) ++sketch_queries;
    if (!q.injected) {
      reason = "refused";
    } else if (q.first_predictor_at < 0) {
      reason = "no_predictor";
    } else if (!q.monotone) {
      reason = "predictor_not_monotone";
    } else if (q.complete90_at < 0) {
      reason = "missed_90pct";
    } else if (w.churn) {
      if (q.result.rows_matched > gt.rows_matched) reason = "overcount";
    } else if (q.result.endsystems != w.endsystems) {
      reason = "incomplete_at_end";
    } else if (sketch ? q.result.rows_matched != gt.rows_matched
                      : net::FormatAggregateLine(sq, q.result) !=
                            net::FormatAggregateLine(sq, gt)) {
      reason = "wrong_answer";
    }
    if (q.injected) {
      if (q.first_predictor_at >= 0) {
        ttfp_ms.push_back(ToSeconds(q.first_predictor_at - q.injected_at) * 1e3);
      }
      if (q.complete90_at >= 0) {
        tt90_ms.push_back(ToSeconds(q.complete90_at - q.injected_at) * 1e3);
      }
      if (q.have_result && q.result.rows_matched > 0 && q.first_predictor_at >= 0) {
        // What the predictor promised by the end of the query's life.
        const double expected =
            q.predictor.ExpectedRowsBy(q.ends_at - q.injected_at);
        const double delivered = static_cast<double>(q.result.rows_matched);
        pred_err.push_back(std::fabs(expected - delivered) / delivered);
      }
      if (const obs::Counter* c =
              reg.FindCounter("query." + q.id.ToShortString() + ".tx_bytes")) {
        query_tx.push_back(static_cast<double>(c->value()));
      }
    }
    if (reason != nullptr) {
      ++failed;
      ++fail_reasons[reason];
      if (std::strcmp(reason, "wrong_answer") == 0 ||
          std::strcmp(reason, "overcount") == 0 ||
          std::strcmp(reason, "predictor_not_monotone") == 0) {
        ++wrong;
      }
    }
  }
  const double n_queries = static_cast<double>(tracks->size());
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };

  Json e2e;
  // A p90 needs at least ten samples beyond it.
  e2e.Num("ttfp_p50_ms", Percentile(ttfp_ms, 50));
  if (ttfp_ms.size() >= 100) e2e.Num("ttfp_p90_ms", Percentile(ttfp_ms, 90));
  e2e.Num("tt90_p50_ms", Percentile(tt90_ms, 50));
  if (tt90_ms.size() >= 100) e2e.Num("tt90_p90_ms", Percentile(tt90_ms, 90));
  e2e.Num("predictor_err", mean(pred_err));
  e2e.Num("query_fail_frac", failed / n_queries);
  e2e.Num("query_tx_kb", mean(query_tx) / 1e3);
  e2e.Num("overhead_Bps", online_s > 0 ? tx_total / online_s : 0);
  e2e.Num("run_wall_s", run_wall_s);
  e2e.Num("cpu_s", cpu_s);
  e2e.Num("setup_s", Median(setup_s));

  // --- Per-layer numbers (meaningful in the traced run).
  const auto& gauges = reg.gauges();
  auto gauge_max = [&](const std::string& name) {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : static_cast<double>(it->second->max());
  };
  auto hist = [&](const std::string& name) { return reg.FindHistogram(name); };
  auto per_query = [&](double v) { return v / n_queries; };
  auto tx_rate = [&](TrafficCategory c) {
    return online_s > 0 ? cat_tx[static_cast<int>(c)] / online_s : 0;
  };

  // Program spans (sim time): durations by name, aggregation rounds.
  auto& span_ms = spans.ms;
  auto span_p50 = [&](const char* name) {
    auto it = span_ms.find(name);
    return it == span_ms.end() ? 0.0 : Percentile(it->second, 50);
  };

  const double slices_wall = idle.wall_s + load.wall_s + drain.wall_s;
  const double slices_db = idle.db_s + load.db_s + drain.db_s;
  const double idle_rate = idle.sim_s > 0 ? idle.wall_s / idle.sim_s : 0;
  const double load_rate = load.sim_s > 0 ? load.wall_s / load.sim_s : 0;

  Json layers;
  layers.Num("trace.gen_s", Median(trace_gen_s));
  layers.Num("seaweed.predictor_err", mean(pred_err));
  layers.Num("seaweed.ttfp_p50_ms", Percentile(ttfp_ms, 50));
  std::vector<double> exec_us = tracer.exec_us;
  layers.Num("db.exec.calls", static_cast<double>(exec_us.size()));
  layers.Num("db.exec.us_p50", exec_us.empty() ? 0 : Percentile(exec_us, 50));
  layers.Num("db.exec.us_p99", exec_us.empty() ? 0 : Percentile(exec_us, 99));
  layers.Num("db.exec.wall_s", tracer.exec_wall_s);
  layers.Num("db.exec.share", run_wall_s > 0 ? tracer.exec_wall_s / run_wall_s : 0);
  layers.Num("db.summary.calls", static_cast<double>(tracer.summary_calls));
  layers.Num("db.summary.wall_s", tracer.summary_wall_s);
  if (const auto* scanned = hist("db.rows_scanned")) {
    const auto* selected = hist("db.rows_selected");
    layers.Num("db.rows_scanned_per_exec", scanned->Mean());
    layers.Num("db.selectivity",
               scanned->sum() > 0 && selected != nullptr
                   ? static_cast<double>(selected->sum()) /
                         static_cast<double>(scanned->sum())
                   : 0);
  }
  const double hits = delta("db.plan_cache.hits");
  const double binds = delta("db.plan_cache.binds");
  layers.Num("db.plan_cache.hit_ratio", hits + binds > 0 ? hits / (hits + binds) : 0);

  layers.Num("sim.events", static_cast<double>(events));
  layers.Num("sim.ns_per_event_self",
             events > 0 ? 1e9 * (slices_wall - slices_db) / static_cast<double>(events) : 0);
  layers.Num("sim.idle_wall_per_sim_s", idle_rate);
  layers.Num("sim.load_wall_per_sim_s", load_rate);
  const double msgs = delta("sim.msgs_sent");
  layers.Num("sim.msgs_sent", msgs);
  layers.Num("sim.msgs_lost_ratio", msgs > 0 ? delta("sim.msgs_lost") / msgs : 0);
  layers.Num("mem.sim.event_queue_mb", gauge_max("mem.sim.event_queue_bytes") / 1e6);

  if (const auto* hops = hist("overlay.route_hops")) {
    layers.Num("overlay.hops_per_route", hops->Mean());
  }
  layers.Num("overlay.joins", delta("overlay.joins"));
  layers.Num("overlay.heartbeats", delta("overlay.heartbeats"));
  layers.Num("overlay.leafset_repairs", delta("overlay.leafset_repairs"));
  layers.Num("overlay.tx_Bps", tx_rate(TrafficCategory::kPastry));
  layers.Num("mem.overlay.routing_mb", gauge_max("mem.overlay.routing_bytes") / 1e6);
  layers.Num("overlay.join_s", w.churn ? churn_join_s : Median(join_s));

  layers.Num("seaweed.metadata_pushes", delta("seaweed.metadata_pushes"));
  layers.Num("seaweed.metadata_rereplications",
             delta("seaweed.metadata_rereplications"));
  layers.Num("seaweed.metadata.tx_Bps", tx_rate(TrafficCategory::kMetadata));
  const double store_bytes = gauge_max("mem.meta.store_bytes");
  const double store_records = gauge_max("mem.meta.store_records");
  layers.Num("mem.meta.store_mb", store_bytes / 1e6);
  layers.Num("mem.meta.bytes_per_record",
             store_records > 0 ? store_bytes / store_records : 0);

  layers.Num("seaweed.dissem.bytes_per_query",
             per_query(cat_tx[static_cast<int>(TrafficCategory::kDissemination)] +
                       cat_tx[static_cast<int>(TrafficCategory::kBatched)]));
  layers.Num("seaweed.predictor.bytes_per_query",
             per_query(cat_tx[static_cast<int>(TrafficCategory::kPredictor)]));
  layers.Num("seaweed.dissem_reissues_per_query",
             per_query(delta("seaweed.dissem_reissues")));
  layers.Num("seaweed.predictor_merges_per_query",
             per_query(delta("seaweed.predictor_merges")));
  if (const auto* fanout = hist("seaweed.dissem_fanout")) {
    layers.Num("seaweed.dissem_fanout_p50",
               static_cast<double>(fanout->ApproxQuantile(0.5)));
  }
  layers.Num("span.disseminate_ms_p50", span_p50("disseminate"));
  layers.Num("span.metadata_lookup_ms_p50", span_p50("metadata_lookup"));

  layers.Num("seaweed.result.bytes_per_query",
             per_query(cat_tx[static_cast<int>(TrafficCategory::kResult)]));
  layers.Num("seaweed.vertex_updates_per_query",
             per_query(delta("seaweed.vertex_updates")));
  layers.Num("seaweed.vertex_handovers", delta("seaweed.vertex_handovers"));
  layers.Num("seaweed.vertex_repropagations",
             delta("seaweed.vertex_repropagations"));
  layers.Num("seaweed.retries_per_query",
             per_query(delta("seaweed.leaf_retries") + delta("seaweed.vertex_retries")));
  layers.Num("seaweed.duplicates_suppressed", delta("seaweed.duplicates_suppressed"));
  layers.Num("seaweed.sketch.state_bytes_per_query",
             sketch_queries > 0 ? delta("seaweed.sketch.state_bytes") / sketch_queries : 0);
  layers.Num("span.local_exec_ms_p50", span_p50("local_exec"));
  layers.Num("span.aggregation_rounds_per_query",
             per_query(static_cast<double>(span_ms["aggregation_round"].size())));
  layers.Num("span.aggregation_round_ms_p50", span_p50("aggregation_round"));
  layers.Num("span.result_delivery_ms_p50", span_p50("result_delivery"));
  layers.Num("seaweed.wall_ms_per_query",
             1e3 * ((load_rate - idle_rate) * load.sim_s - load.db_s) / n_queries);
  layers.Num("wire.bytes_per_msg", msgs > 0 ? delta("bw.tx.total_bytes") / msgs : 0);
  layers.Num("obs.spans_dropped", static_cast<double>(cluster.obs().trace.dropped()));
  layers.Num("obs.spans_lost", static_cast<double>(spans.lost));
  layers.Num("obs.bench_spans_dropped", static_cast<double>(tracer.sink().dropped()));
  layers.Num("obs.accounted_frac", run_wall_s > 0 ? slices_wall / run_wall_s : 0);

  if (!args.spans.empty()) {
    Status st = obs::DumpToFile(nullptr, &tracer.sink(), args.spans);
    if (!st.ok()) {
      std::fprintf(stderr, "span dump: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  Json reasons;
  for (const auto& [reason, n] : fail_reasons) reasons.Num(reason, n);
  Json out;
  out.Str("workload", w.name);
  out.Num("seed", static_cast<double>(args.seed));
  out.Num("attempted", n_queries);
  out.Num("failed", failed);
  out.Num("wrong", wrong);
  out.Raw("fail_reasons", reasons.Close());
  out.Num("ttfp_n", static_cast<double>(ttfp_ms.size()));
  out.Num("tt90_n", static_cast<double>(tt90_ms.size()));
  out.Num("endsystems", w.endsystems);
  out.Num("window_s", ToSeconds(last_arrival - first_arrival));
  out.Num("horizon_s", ToSeconds(horizon));
  std::string samples = "[";
  for (double v : setup_s) {
    samples += (samples.size() > 1 ? "," : "") + std::to_string(v);
  }
  out.Raw("setup_samples_s", samples + "]");
  std::string ttfp_list = "[";
  for (double v : ttfp_ms) {
    ttfp_list += (ttfp_list.size() > 1 ? "," : "") + std::to_string(v);
  }
  out.Raw("ttfp_samples_ms", ttfp_list + "]");
  out.Raw("e2e", e2e.Close());
  out.Raw("layers", layers.Close());
  std::printf("%s\n", out.Close().c_str());
  std::fflush(stdout);
  // The process ends here: skip tearing down gigabytes of protocol state.
  std::_Exit(0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--spans") args.spans = value;
    else {
      std::fprintf(stderr, "sim_workload: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return Run(args);
}
