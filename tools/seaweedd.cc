// seaweedd: one shard of a live Seaweed cluster.
//
// The daemon embeds the unmodified seaweed::Node protocol sources over a
// wall-clock EventLoop and UDP SocketTransport (src/net), brings up the
// endsystems its shard owns, and serves the line-JSON query protocol
// (net::QueryService) on its control port. Start P of these with the same
// --endsystems/--seed/--epoch and they form one overlay.
//
//   seaweedd --endsystems 12 --shards 3 --shard 0 --base-port 9400
//            --seed 7 --epoch-us 1754500000000000
//   seaweedd --peers peers.json --shard 1 --seed 7 --epoch-us ...
//
// --reference runs the in-memory simulation oracle instead: the same seed
// and endsystem count inside a single-process SeaweedCluster, one query,
// and the canonical FINAL line on stdout. scripts/loopback_test.sh diffs
// this against the live cluster's answer byte for byte.
#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "net/live_cluster.h"
#include "net/query_service.h"
#include "net/result_format.h"
#include "obs/export.h"
#include "seaweed/cluster.h"

namespace {

using namespace seaweed;

net::EventLoop* g_loop = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: Stop() is a flag store plus a self-pipe write.
  if (g_loop != nullptr) g_loop->Stop();
}

struct Args {
  int endsystems = 12;
  int shards = 1;
  int shard = 0;
  uint16_t base_port = 9400;
  std::string peers_file;
  uint64_t seed = 1;
  int64_t epoch_us = 0;
  std::string profile = "fast";
  int stagger_ms = 200;
  int max_active_queries = 0;
  std::string transport;
  bool rejoin = false;
  std::string obs_dump;
  bool reference = false;
  std::string query;
  std::string salt;
  int timeout_s = 600;
};

[[noreturn]] void Usage(const std::string& error) {
  if (!error.empty()) std::cerr << "seaweedd: " << error << "\n";
  std::cerr <<
      "usage: seaweedd [--endsystems N --shards P | --peers FILE] --shard p\n"
      "                [--base-port 9400] [--seed S] [--epoch-us UNIX_US]\n"
      "                [--profile fast|paper] [--stagger-ms MS]\n"
      "                [--max-active-queries N] [--obs-dump FILE]\n"
      "                [--transport SPEC] [--rejoin]\n"
      "  --transport: decorators over the udp base, outermost first, e.g.\n"
      "               serializing,faulty:plan.json (counters: net.fault.*)\n"
      "  --rejoin:    warm re-join after a crash — bootstrap this shard's\n"
      "               endsystems through a remote shard instead of the cold\n"
      "               synchronized start (counters: net.rejoins)\n"
      "       seaweedd --reference --query SQL [--endsystems N] [--seed S]\n"
      "                [--timeout-s SECS] [--salt S]\n"
      "  --salt:      pin the query id (aggregation-tree shape) so sketch\n"
      "               aggregates are bit-reproducible against a live run\n"
      "               submitted with the same salt\n";
  exit(error.empty() ? 0 : 2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--endsystems") args.endsystems = std::stoi(value());
    else if (flag == "--shards") args.shards = std::stoi(value());
    else if (flag == "--shard") args.shard = std::stoi(value());
    else if (flag == "--base-port")
      args.base_port = static_cast<uint16_t>(std::stoi(value()));
    else if (flag == "--peers") args.peers_file = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--epoch-us") args.epoch_us = std::stoll(value());
    else if (flag == "--profile") args.profile = value();
    else if (flag == "--stagger-ms") args.stagger_ms = std::stoi(value());
    else if (flag == "--max-active-queries")
      args.max_active_queries = std::stoi(value());
    else if (flag == "--transport") args.transport = value();
    else if (flag == "--rejoin") args.rejoin = true;
    else if (flag == "--obs-dump") args.obs_dump = value();
    else if (flag == "--reference") args.reference = true;
    else if (flag == "--query") args.query = value();
    else if (flag == "--salt") args.salt = value();
    else if (flag == "--timeout-s") args.timeout_s = std::stoi(value());
    else if (flag == "--help" || flag == "-h") Usage("");
    else Usage("unknown flag " + flag);
  }
  return args;
}

// Timing profile for live runs. "paper" keeps the simulation defaults
// (30 s heartbeats, 17.5 min summary pushes); "fast" compresses every
// period so a loopback cluster joins and answers within seconds. Timing
// never changes aggregate *values*, only when they arrive.
void ApplyProfile(const std::string& profile, net::LiveConfig* cfg) {
  if (profile == "paper") return;
  if (profile != "fast") {
    std::cerr << "seaweedd: unknown profile \"" << profile
              << "\" (known: fast, paper)\n";
    exit(2);
  }
  cfg->pastry.heartbeat_period = 2 * kSecond;
  cfg->pastry.probe_period = 20 * kSecond;
  cfg->pastry.probe_timeout = kSecond;
  cfg->pastry.join_retry_timeout = kSecond;
  cfg->seaweed.exec_delay = 100 * kMillisecond;
  cfg->seaweed.child_timeout = 2 * kSecond;
  cfg->seaweed.result_ack_timeout = kSecond;
  cfg->seaweed.max_retry_backoff = 5 * kSecond;
  cfg->seaweed.summary_push_period = 30 * kSecond;
  cfg->seaweed.result_refresh_period = 15 * kSecond;
  cfg->seaweed.dissem_refresh_period = 3 * kSecond;
  cfg->seaweed.result_deliver_debounce = 200 * kMillisecond;
  cfg->seaweed.query_sweep_period = kMinute;
}

// --reference: the single-process simulation oracle for the loopback
// differential. Same seed, same endsystem count, same query; prints the
// canonical FINAL line that the live cluster must reproduce.
int RunReference(const Args& args) {
  if (args.query.empty()) Usage("--reference requires --query");
  ClusterConfig config;
  config.num_endsystems = args.endsystems;
  config.seed = args.seed;
  config.keep_tables = true;
  SeaweedCluster cluster(config);
  cluster.BringUpAll();

  Simulator& sim = cluster.sim();
  const SimTime join_deadline = 10 * kMinute;
  while (cluster.CountJoined() < args.endsystems &&
         sim.Now() < join_deadline) {
    sim.RunUntil(sim.Now() + 10 * kSecond);
  }
  if (cluster.CountJoined() < args.endsystems) {
    std::cerr << "reference: only " << cluster.CountJoined() << "/"
              << args.endsystems << " joined\n";
    return 1;
  }

  auto parsed = db::ParseSelect(args.query);
  if (!parsed.ok()) {
    std::cerr << "reference: parse: " << parsed.status().message() << "\n";
    return 1;
  }

  bool done = false;
  std::string final_line;
  QueryObserver observer;
  observer.on_result = [&](const NodeId&, const db::AggregateResult& r) {
    final_line = net::FormatAggregateLine(*parsed, r);
    if (r.endsystems == args.endsystems) done = true;
  };
  auto id = cluster.InjectQuery(0, args.query, std::move(observer),
                                48 * kHour, args.salt);
  if (!id.ok()) {
    std::cerr << "reference: inject: " << id.status().message() << "\n";
    return 1;
  }

  const SimTime limit = sim.Now() + 24 * kHour;
  while (!done && sim.Now() < limit) {
    sim.RunUntil(sim.Now() + kMinute);
  }
  if (!done) {
    std::cerr << "reference: query did not complete in simulated time\n";
    return 1;
  }
  std::cout << final_line << std::endl;
  return 0;
}

int RunDaemon(const Args& args) {
  net::ShardMap map;
  if (!args.peers_file.empty()) {
    auto loaded = net::LoadShardMap(args.peers_file, args.shard);
    if (!loaded.ok()) {
      std::cerr << "seaweedd: " << loaded.status().message() << "\n";
      return 2;
    }
    map = std::move(*loaded);
  } else {
    map = net::MakeLoopbackShardMap(args.endsystems, args.shards, args.shard,
                                    args.base_port);
    Status valid = map.Validate();
    if (!valid.ok()) {
      std::cerr << "seaweedd: " << valid.message() << "\n";
      return 2;
    }
  }

  net::LiveConfig config;
  config.seed = args.seed;
  config.bringup_stagger =
      static_cast<SimDuration>(args.stagger_ms) * kMillisecond;
  ApplyProfile(args.profile, &config);
  if (args.max_active_queries < 0) {
    Usage("--max-active-queries must be >= 0");
  }
  config.seaweed.max_active_queries = args.max_active_queries;
  config.transport = args.transport;
  config.rejoin = args.rejoin;
  if (args.rejoin && map.num_shards() < 2) {
    Usage("--rejoin needs a remote shard to bootstrap through");
  }

  net::EventLoop loop(args.epoch_us);
  g_loop = &loop;
  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);
  signal(SIGPIPE, SIG_IGN);

  net::LiveCluster cluster(&loop, map, config);
  const uint16_t control_port =
      map.peers[static_cast<size_t>(map.self_shard)].control_port;
  net::QueryService service(&cluster, control_port);
  cluster.BringUpLocal();

  std::cerr << "seaweedd: shard " << map.self_shard << "/" << map.num_shards()
            << " endsystems=" << map.num_endsystems
            << " local=" << map.LocalEndsystems().size()
            << " udp=" << map.peers[static_cast<size_t>(map.self_shard)].udp_port
            << " control=" << control_port << " seed=" << args.seed
            << (args.rejoin ? " rejoin=1" : "")
            << (args.transport.empty() ? ""
                                       : " transport=" + args.transport)
            << "\n";

  loop.Run();
  g_loop = nullptr;

  if (!args.obs_dump.empty()) {
    Status st = obs::DumpToFile(&cluster.obs().metrics, &cluster.obs().trace,
                                args.obs_dump);
    if (!st.ok()) {
      std::cerr << "seaweedd: obs dump: " << st.message() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  if (args.reference) return RunReference(args);
  return RunDaemon(args);
}
