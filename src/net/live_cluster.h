// LiveCluster: the seaweedd process's shard of a real multi-process
// deployment.
//
// This is SeaweedCluster's construction recipe replayed over a
// SocketTransport and an EventLoop instead of a Network and a Simulator:
// the same seed derives the same node ids, the same topology (Pastry's
// proximity metric) and the same Anemone tables in every process, so all P
// daemons agree on the full N-endsystem namespace while each brings up only
// the endsystems its shard owns. The seaweed::Node sources run unmodified —
// the only thing that changed underneath them is which Scheduler and
// Transport the overlay hands them.
//
// Every process instantiates all N PastryNode/SeaweedNode objects (cheap:
// down nodes hold no volatile state) because overlay delivery dispatches by
// endsystem index; only the local shard's nodes are ever started.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/event_loop.h"
#include "net/shard_map.h"
#include "net/socket_transport.h"
#include "obs/obs.h"
#include "seaweed/node.h"
#include "sim/transport_stack.h"

namespace seaweed::net {

struct LiveConfig {
  overlay::PastryConfig pastry;
  SeaweedConfig seaweed;
  TopologyConfig topology;
  anemone::AnemoneConfig anemone;
  // Tables stay resident: a daemon re-executes queries over its lifetime.
  bool keep_tables = true;
  // Same paper-calibrated default as ClusterConfig.
  uint32_t summary_wire_bytes = 6473;
  // Must match across all shards AND the --reference run: it derives node
  // ids, topology coordinates and table contents.
  uint64_t seed = 1;
  // Delay between successive local bring-ups (join pacing).
  SimDuration bringup_stagger = 200 * kMillisecond;
  // Decorator spec stacked over the socket transport, outermost first —
  // e.g. "serializing,faulty:plan.json" or the equivalent
  // "serializing,faulty:plan.json,udp" (the trailing "udp" names the base
  // this cluster always provides). Fault injection runs off the wall-clock
  // scheduler with counters under net.fault.*.
  std::string transport;
  // Warm re-join after a crash: bootstrap this shard's endsystems through a
  // remote shard's contact instead of the cold synchronized start (where
  // endsystem 0 must self-seed the ring). Counted in net.rejoins.
  bool rejoin = false;
};

class LiveCluster {
 public:
  LiveCluster(EventLoop* loop, const ShardMap& map, const LiveConfig& config);

  // Schedules staggered BringUp() for every local endsystem, lowest index
  // first (shard 0 therefore starts endsystem 0 — the static bootstrap —
  // before anything else tries to join through it).
  void BringUpLocal();

  // Joined endsystems among the local shard.
  int CountJoinedLocal() const;
  // Lowest-indexed local endsystem that has completed its overlay join —
  // the preferred query origin — or nullopt while still joining.
  std::optional<int> LowestJoinedLocal() const;

  Result<NodeId> InjectQuery(int e, const std::string& sql,
                             QueryObserver observer,
                             SimDuration ttl = 48 * kHour,
                             const std::string& id_salt = "");
  void CancelQuery(int e, const NodeId& query_id);

  EventLoop& loop() { return *loop_; }
  const ShardMap& map() const { return map_; }
  const LiveConfig& config() const { return config_; }
  obs::Observability& obs() { return obs_; }
  // The socket base (stats, fd introspection)…
  SocketTransport& transport() { return transport_; }
  // …and the decorated top of the stack the overlay actually sends through.
  Transport& wire() { return *stack_->top(); }
  const TransportStack& stack() const { return *stack_; }
  overlay::OverlayNetwork& overlay() { return *overlay_; }
  SeaweedNode* seaweed_node(int e) {
    return seaweed_[static_cast<size_t>(e)].get();
  }
  int num_endsystems() const { return map_.num_endsystems; }

 private:
  EventLoop* loop_;
  ShardMap map_;
  LiveConfig config_;

  // Builds the decorator stack named by config_.transport over transport_.
  std::unique_ptr<TransportStack> BuildTransportStack();

  // Same declaration-order contract as SeaweedCluster: obs before meter and
  // transport (both publish into it at construction).
  obs::Observability obs_;
  Topology topology_;
  BandwidthMeter meter_;
  SocketTransport transport_;

  std::shared_ptr<DataProvider> data_;
  std::vector<NodeId> ids_;
  std::unique_ptr<TransportStack> stack_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  SeaweedMetrics seaweed_metrics_{&obs_.metrics};
  std::vector<std::unique_ptr<SeaweedNode>> seaweed_;
  obs::Counter* rejoins_ = nullptr;
};

}  // namespace seaweed::net
