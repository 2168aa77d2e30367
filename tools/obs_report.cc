// obs_report: renders the JSONL observability dump written by
// obs::DumpToFile (e.g. by bench/fig9_overheads, or any SeaweedCluster user
// via bench::DumpObs / SEAWEED_OBS_DUMP) as a human-readable run report:
//
//   - run summary (messages, peak population, event-queue depth, trace
//     spans started and lost to ring overwrite)
//   - per-category bandwidth breakdown (from the "bw.tx.*" / "bw.rx.*"
//     timeseries — the same storage BandwidthMeter accounts into, so the
//     totals here equal the meter's byte-for-byte)
//   - per-query report (egress bytes from "query.<id>.tx_bytes",
//     time-to-predictor / time-to-result from "disseminate" /
//     "result_delivery" trace spans, metadata lookups)
//   - multi-tenant pipeline counters (admission control) when nonzero
//   - repair / recovery counters (leafset repairs, metadata re-replication,
//     aggregation-tree handovers and re-propagations)
//   - latency and size histograms
//
// Usage: obs_report <dump.jsonl>
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time_types.h"
#include "obs/jsonl_reader.h"

namespace {

using seaweed::FormatDuration;
using seaweed::SimTime;
using seaweed::obs::Json;

struct HistData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::vector<std::pair<int, uint64_t>> buckets;  // (bit_width, count)
};

struct TsData {
  int64_t bucket_us = 0;
  uint64_t total = 0;
  std::vector<uint64_t> buckets;
};

struct SpanData {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string trace;
  std::string name;
  SimTime start = 0;
  SimTime end = -1;  // -1 = still open in the dump
  std::string query;  // "query" attr when present
  std::string kind;
  std::string sql;
};

struct Dump {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<int64_t, int64_t>> gauges;  // value, max
  std::map<std::string, HistData> histograms;
  std::map<std::string, TsData> timeseries;
  std::vector<SpanData> spans;
};

uint64_t CounterOr0(const Dump& d, const std::string& name) {
  auto it = d.counters.find(name);
  return it != d.counters.end() ? it->second : 0;
}

// Approximate quantile from the log2 buckets, mirroring
// obs::Histogram::ApproxQuantile (upper bound of the covering bucket,
// clamped to the observed max).
uint64_t HistQuantile(const HistData& h, double q) {
  if (h.count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(h.count));
  if (rank >= h.count) rank = h.count - 1;
  uint64_t seen = 0;
  for (const auto& [bit_width, count] : h.buckets) {
    seen += count;
    if (seen > rank) {
      uint64_t upper =
          bit_width >= 64 ? ~0ULL : (1ULL << bit_width) - 1;
      return std::min(upper, h.max);
    }
  }
  return h.max;
}

bool LoadDump(const char* path, Dump* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "obs_report: cannot open %s\n", path);
    return false;
  }
  auto lines = seaweed::obs::ParseJsonLines(in);
  if (!lines.ok()) {
    std::fprintf(stderr, "obs_report: %s: %s\n", path,
                 std::string(lines.status().message()).c_str());
    return false;
  }
  for (const Json& j : lines.value()) {
    const Json* kind = j.Find("kind");
    const Json* name = j.Find("name");
    if (kind == nullptr || name == nullptr) continue;
    const std::string& k = kind->AsString();
    if (k == "counter") {
      const Json* v = j.Find("value");
      out->counters[name->AsString()] = v != nullptr ? v->AsUint() : 0;
    } else if (k == "gauge") {
      const Json* v = j.Find("value");
      const Json* m = j.Find("max");
      out->gauges[name->AsString()] = {v != nullptr ? v->AsInt() : 0,
                                       m != nullptr ? m->AsInt() : 0};
    } else if (k == "histogram") {
      HistData h;
      if (const Json* f = j.Find("count")) h.count = f->AsUint();
      if (const Json* f = j.Find("sum")) h.sum = f->AsUint();
      if (const Json* f = j.Find("min")) h.min = f->AsUint();
      if (const Json* f = j.Find("max")) h.max = f->AsUint();
      if (const Json* f = j.Find("buckets")) {
        for (const Json& b : f->items) {
          if (b.items.size() == 2) {
            h.buckets.emplace_back(static_cast<int>(b.items[0].AsInt()),
                                   b.items[1].AsUint());
          }
        }
      }
      out->histograms[name->AsString()] = std::move(h);
    } else if (k == "timeseries") {
      TsData ts;
      if (const Json* f = j.Find("bucket_us")) ts.bucket_us = f->AsInt();
      if (const Json* f = j.Find("total")) ts.total = f->AsUint();
      if (const Json* f = j.Find("buckets")) {
        for (const Json& b : f->items) ts.buckets.push_back(b.AsUint());
      }
      out->timeseries[name->AsString()] = std::move(ts);
    } else if (k == "span") {
      SpanData s;
      if (const Json* f = j.Find("id")) s.id = f->AsUint();
      if (const Json* f = j.Find("parent")) s.parent = f->AsUint();
      if (const Json* f = j.Find("trace")) s.trace = f->AsString();
      s.name = name->AsString();
      if (const Json* f = j.Find("start")) s.start = f->AsInt();
      const Json* end = j.Find("end");
      s.end = (end != nullptr && !end->is_null()) ? end->AsInt() : -1;
      if (const Json* attrs = j.Find("attrs")) {
        if (const Json* q = attrs->Find("query")) s.query = q->AsString();
        if (const Json* q = attrs->Find("kind")) s.kind = q->AsString();
        if (const Json* q = attrs->Find("sql")) s.sql = q->AsString();
      }
      out->spans.push_back(std::move(s));
    }
  }
  return true;
}

void PrintRunSummary(const Dump& d) {
  std::printf("== run summary ==\n");
  // A simulation dump carries sim.* message counters; a live seaweedd dump
  // carries net.* datagram counters instead. Print whichever transport the
  // dump came from.
  if (d.counters.count("net.datagrams_tx") != 0) {
    std::printf("  datagrams: %" PRIu64 " tx, %" PRIu64
                " rx (%" PRIu64 " decode rejects, %" PRIu64
                " oversize drops, %" PRIu64 " send errors)\n",
                CounterOr0(d, "net.datagrams_tx"),
                CounterOr0(d, "net.datagrams_rx"),
                CounterOr0(d, "net.decode_rejects"),
                CounterOr0(d, "net.oversize_drops"),
                CounterOr0(d, "net.send_errors"));
    if (CounterOr0(d, "net.tx_fragmented") != 0 ||
        CounterOr0(d, "net.frags_rx") != 0) {
      std::printf("  fragmentation: %" PRIu64 " messages split, %" PRIu64
                  " fragments rx, %" PRIu64 " reassembled, %" PRIu64
                  " reassembly drops\n",
                  CounterOr0(d, "net.tx_fragmented"),
                  CounterOr0(d, "net.frags_rx"),
                  CounterOr0(d, "net.reassembled"),
                  CounterOr0(d, "net.reassembly_drops"));
    }
    if (CounterOr0(d, "net.rejoins") != 0) {
      std::printf("  warm rejoins: %" PRIu64 "\n",
                  CounterOr0(d, "net.rejoins"));
    }
    // A live daemon run under `--transport faulty:<plan>` registers
    // net.fault.* at startup; surface the injected chaos next to the
    // datagram totals it distorted.
    if (d.counters.count("net.fault.burst_drops") != 0) {
      std::printf("  fault injection: %" PRIu64 " burst drops, %" PRIu64
                  " partition drops, %" PRIu64 " delayed\n",
                  CounterOr0(d, "net.fault.burst_drops"),
                  CounterOr0(d, "net.fault.partition_drops"),
                  CounterOr0(d, "net.fault.delayed"));
    }
  } else {
    std::printf("  messages: %" PRIu64 " sent, %" PRIu64
                " delivered, %" PRIu64 " lost\n",
                CounterOr0(d, "sim.msgs_sent"),
                CounterOr0(d, "sim.msgs_delivered"),
                CounterOr0(d, "sim.msgs_lost"));
  }
  if (d.counters.count("server.requests") != 0) {
    std::printf("  control plane: %" PRIu64 " requests (%" PRIu64
                " bad), %" PRIu64 " queries submitted, %" PRIu64
                " events pushed\n",
                CounterOr0(d, "server.requests"),
                CounterOr0(d, "server.bad_requests"),
                CounterOr0(d, "server.queries_submitted"),
                CounterOr0(d, "server.events_pushed"));
  }
  if (auto it = d.gauges.find("sim.online_endsystems"); it != d.gauges.end()) {
    std::printf("  online endsystems: %" PRId64 " at dump, peak %" PRId64 "\n",
                it->second.first, it->second.second);
  }
  if (auto it = d.gauges.find("sim.event_queue_depth");
      it != d.gauges.end()) {
    std::printf("  event queue depth: %" PRId64 " at dump, peak %" PRId64 "\n",
                it->second.first, it->second.second);
  }
  std::printf("  overlay: %" PRIu64 " joins, %" PRIu64 " heartbeats, %" PRIu64
              " routed deliveries\n",
              CounterOr0(d, "overlay.joins"),
              CounterOr0(d, "overlay.heartbeats"),
              CounterOr0(d, "overlay.routed_delivered"));
  std::printf("  queries injected: %" PRIu64 "\n",
              CounterOr0(d, "seaweed.queries_injected"));
  if (d.counters.count("obs.trace.started") != 0) {
    const uint64_t dropped = CounterOr0(d, "obs.trace.dropped");
    std::printf("  trace spans: %" PRIu64 " started, %" PRIu64
                " overwritten%s\n",
                CounterOr0(d, "obs.trace.started"), dropped,
                dropped != 0 ? "  WARNING: the ring wrapped, span tables "
                               "below miss the oldest spans"
                             : "");
  }
}

// The category rows come from the "bw.tx.<cat>" / "bw.rx.<cat>" timeseries.
// BandwidthMeter records into these same instruments, so the per-category
// bytes and the totals printed here match the meter exactly; the
// "total_bytes" counters are independent instruments and serve as the
// cross-check.
void PrintBandwidth(const Dump& d) {
  std::printf("\n== bandwidth by category ==\n");
  std::printf("  %-14s %16s %16s %8s\n", "category", "tx bytes", "rx bytes",
              "tx %");
  uint64_t tx_sum = 0, rx_sum = 0;
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> rows;
  for (const auto& [name, ts] : d.timeseries) {
    if (name.rfind("bw.tx.", 0) != 0) continue;
    std::string cat = name.substr(6);
    uint64_t rx = 0;
    if (auto it = d.timeseries.find("bw.rx." + cat);
        it != d.timeseries.end()) {
      rx = it->second.total;
    }
    rows.push_back({cat, {ts.total, rx}});
    tx_sum += ts.total;
    rx_sum += rx;
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  for (const auto& [cat, bytes] : rows) {
    std::printf("  %-14s %16" PRIu64 " %16" PRIu64 " %7.2f%%\n", cat.c_str(),
                bytes.first, bytes.second,
                tx_sum > 0 ? 100.0 * static_cast<double>(bytes.first) /
                                 static_cast<double>(tx_sum)
                           : 0.0);
  }
  std::printf("  %-14s %16" PRIu64 " %16" PRIu64 "\n", "total", tx_sum,
              rx_sum);
  uint64_t tx_counter = CounterOr0(d, "bw.tx.total_bytes");
  uint64_t rx_counter = CounterOr0(d, "bw.rx.total_bytes");
  bool ok = tx_sum == tx_counter && rx_sum == rx_counter;
  std::printf("  cross-check vs meter counters: tx %" PRIu64 ", rx %" PRIu64
              " -> %s\n",
              tx_counter, rx_counter, ok ? "match" : "MISMATCH");
}

// Per trace: query label from the root "query" span, latencies from the
// closed "disseminate" (injection -> first aggregated predictor) and
// "result_delivery" (injection -> first delivered result) child spans,
// egress bytes from the per-query "query.<id>.tx_bytes" counter that
// SeaweedNode charges every descriptor, retry, and aggregation send to.
void PrintPerQuery(const Dump& d, size_t top_n) {
  struct QueryInfo {
    std::string query;
    std::string kind;
    std::string sql;
    SimTime dissem = -1;
    SimTime result = -1;
    uint64_t tx_bytes = 0;
    int aggregation_rounds = 0;
    int predictor_merges = 0;
    int lookups = 0;
  };
  std::unordered_map<std::string, QueryInfo> by_trace;
  for (const SpanData& s : d.spans) {
    QueryInfo& q = by_trace[s.trace];
    if (s.name == "query") {
      if (!s.query.empty()) q.query = s.query;
      q.kind = s.kind;
      q.sql = s.sql;
    } else if (s.name == "disseminate" && s.end >= 0) {
      q.dissem = s.end - s.start;
    } else if (s.name == "result_delivery" && s.end >= 0) {
      q.result = s.end - s.start;
    } else if (s.name == "aggregation_round") {
      ++q.aggregation_rounds;
    } else if (s.name == "predictor_merge") {
      ++q.predictor_merges;
    } else if (s.name == "metadata_lookup") {
      ++q.lookups;
    }
  }
  std::vector<QueryInfo> queries;
  for (auto& [trace, q] : by_trace) {
    if (q.query.empty()) q.query = trace.substr(0, 8);
    q.tx_bytes = CounterOr0(d, "query." + q.query + ".tx_bytes");
    if (q.dissem >= 0 || q.result >= 0) queries.push_back(std::move(q));
  }
  std::printf("\n== per-query report ==\n");
  if (queries.empty()) {
    std::printf("  (no closed query-lifecycle spans in dump)\n");
    return;
  }
  std::sort(queries.begin(), queries.end(),
            [](const QueryInfo& a, const QueryInfo& b) {
              return std::max(a.result, a.dissem) >
                     std::max(b.result, b.dissem);
            });
  std::printf("  %-10s %-14s %12s %14s %14s %7s %7s %10s\n", "query", "kind",
              "tx bytes", "predictor", "result", "rounds", "merges",
              "lookups");
  uint64_t tx_total = 0;
  for (size_t i = 0; i < queries.size() && i < top_n; ++i) {
    const QueryInfo& q = queries[i];
    std::printf("  %-10s %-14s %12" PRIu64 " %14s %14s %7d %7d %10d\n",
                q.query.c_str(), q.kind.c_str(), q.tx_bytes,
                q.dissem >= 0 ? FormatDuration(q.dissem).c_str() : "-",
                q.result >= 0 ? FormatDuration(q.result).c_str() : "-",
                q.aggregation_rounds, q.predictor_merges, q.lookups);
    if (!q.sql.empty()) std::printf("      sql: %s\n", q.sql.c_str());
  }
  for (const QueryInfo& q : queries) tx_total += q.tx_bytes;
  if (queries.size() > top_n) {
    std::printf("  ... %zu more queries\n", queries.size() - top_n);
  }
  std::printf("  %zu queries, %" PRIu64
              " attributed tx bytes (query.*.tx_bytes)\n",
              queries.size(), tx_total);
}

// Multi-tenant pipeline counters: admission control's load shedding.
// Zero, and the table omitted, when no admission limit was hit.
void PrintPipeline(const Dump& d) {
  const uint64_t shed = CounterOr0(d, "server.queries_shed");
  if (shed == 0) return;
  std::printf("\n== multi-tenant pipeline ==\n");
  std::printf("  %-36s %12" PRIu64 "\n", "queries load-shed", shed);
}

// Result plane: vertex updates, the fold passes that propagate them (one
// per query and node per debounce; a pass folds the locally owned chain of
// vertex-id levels in one step), and what goes to the vertex backups: one
// kVertexReplicate per backup per pass, plus one per backup for each
// remote submit that arrives between passes. Then the vertex state the
// nodes hold as primaries and backups (gauges: at dump, and peak).
void PrintResultPlane(const Dump& d) {
  const uint64_t updates = CounterOr0(d, "seaweed.vertex_updates");
  const uint64_t passes = CounterOr0(d, "seaweed.fold_passes");
  const uint64_t folded = CounterOr0(d, "seaweed.fold_vertices");
  const uint64_t msgs = CounterOr0(d, "seaweed.replicate_msgs");
  const uint64_t bytes = CounterOr0(d, "seaweed.replicate_bytes");
  if (updates + passes + msgs == 0) return;  // no aggregate results flowed
  std::printf("\n== seaweed result plane ==\n");
  std::printf("  %-36s %12" PRIu64 "\n", "vertex updates", updates);
  std::printf("  %-36s %12" PRIu64 "\n", "fold passes", passes);
  std::printf("  %-36s %12" PRIu64 "\n", "vertices folded", folded);
  if (passes > 0) {
    std::printf("  %-36s %12.2f\n", "vertices per fold pass",
                static_cast<double>(folded) / static_cast<double>(passes));
  }
  std::printf("  %-36s %12" PRIu64 "\n", "replicate messages", msgs);
  std::printf("  %-36s %12" PRIu64 "\n", "replicate bytes", bytes);
  if (msgs > 0) {
    std::printf("  %-36s %12.1f\n", "bytes per replicate message",
                static_cast<double>(bytes) / static_cast<double>(msgs));
  }
  const std::pair<const char*, const char*> kVertexGauges[] = {
      {"mem.seaweed.vertices", "vertex entries held"},
      {"mem.seaweed.vertex_bytes", "vertex state bytes"},
  };
  for (const auto& [name, label] : kVertexGauges) {
    if (auto it = d.gauges.find(name); it != d.gauges.end()) {
      std::printf("  %-36s %12" PRId64 " (peak %" PRId64 ")\n", label,
                  it->second.first, it->second.second);
    }
  }
}

void PrintSketches(const Dump& d) {
  const uint64_t results = CounterOr0(d, "seaweed.sketch.results");
  const uint64_t merges = CounterOr0(d, "seaweed.sketch.merges");
  const uint64_t bytes = CounterOr0(d, "seaweed.sketch.state_bytes");
  if (results + merges + bytes == 0) return;  // no approximate queries ran
  std::printf("\n== approximate aggregates (sketches) ==\n");
  std::printf("  %-36s %12" PRIu64 "\n", "leaf results with sketch states",
              results);
  std::printf("  %-36s %12" PRIu64 "\n", "sketch merges (2+ children)",
              merges);
  std::printf("  %-36s %12" PRIu64 "\n", "sketch bytes on wire", bytes);
}

void PrintRepairs(const Dump& d) {
  std::printf("\n== repairs and recovery ==\n");
  const std::pair<const char*, const char*> kRepairs[] = {
      {"overlay.leafset_repairs", "leafset repairs"},
      {"seaweed.metadata_rereplications", "metadata re-replications"},
      {"seaweed.vertex_handovers", "aggregation-tree vertex handovers"},
      {"seaweed.vertex_repropagations", "aggregation-tree re-propagations"},
      {"seaweed.dissem_reissues", "dissemination re-issues"},
      {"seaweed.dissem_refreshes", "dissemination refreshes"},
      {"seaweed.dissem_guard_trips", "range subdivision guard trips"},
      {"seaweed.leaf_retries", "leaf-result retries"},
      {"overlay.hop_limit_drops", "hop-limit drops"},
  };
  for (const auto& [name, label] : kRepairs) {
    std::printf("  %-36s %12" PRIu64 "\n", label, CounterOr0(d, name));
  }
}

void PrintHistograms(const Dump& d) {
  if (d.histograms.empty()) return;
  std::printf("\n== histograms ==\n");
  std::printf("  %-30s %10s %12s %10s %10s %10s\n", "name", "count", "mean",
              "p50", "p99", "max");
  for (const auto& [name, h] : d.histograms) {
    if (h.count == 0) continue;
    std::printf("  %-30s %10" PRIu64 " %12.1f %10" PRIu64 " %10" PRIu64
                " %10" PRIu64 "\n",
                name.c_str(), h.count,
                static_cast<double>(h.sum) / static_cast<double>(h.count),
                HistQuantile(h, 0.5), HistQuantile(h, 0.99), h.max);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: obs_report <dump.jsonl>\n"
                 "  dump.jsonl: written by bench/fig9_overheads (or any run "
                 "with SEAWEED_OBS_DUMP set)\n");
    return argc == 2 ? 0 : 2;
  }
  Dump dump;
  if (!LoadDump(argv[1], &dump)) return 1;
  std::printf("obs_report: %s\n\n", argv[1]);
  PrintRunSummary(dump);
  PrintBandwidth(dump);
  PrintPerQuery(dump, /*top_n=*/10);
  PrintResultPlane(dump);
  PrintPipeline(dump);
  PrintSketches(dump);
  PrintRepairs(dump);
  PrintHistograms(dump);
  return 0;
}
