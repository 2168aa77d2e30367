// A single Pastry endsystem: routing state plus the control protocols
// (join, leafset repair, liveness probing).
//
// Implements the MSPastry design the paper builds on: key-based routing to
// the numerically closest node, leafsets maintained by periodic heartbeats,
// and routing tables filled at join time and repaired by probing. Heartbeats
// use a simulation fast path (bandwidth is charged and liveness bookkeeping
// updated without scheduling per-message events) because they dominate event
// count at scale; all other traffic takes the full latency/loss path.
#pragma once

#include <memory>
#include <optional>

#include "common/flat_map.h"
#include "common/time_types.h"
#include "overlay/leafset.h"
#include "overlay/packet.h"
#include "overlay/routing_table.h"

namespace seaweed::overlay {

class OverlayNetwork;

// Application callbacks. One app instance is attached per endsystem; all
// callbacks run in simulation-event context.
class PastryApp {
 public:
  virtual ~PastryApp() = default;

  // An application message arrived (routed to a key we are root for, or
  // sent directly to us). `payload` may be null (control-only packets).
  virtual void OnAppMessage(const NodeHandle& from, bool routed,
                            const NodeId& key, WireMessagePtr payload) = 0;

  // This node completed its join and is a functioning overlay member.
  virtual void OnJoined() {}

  // This node is going down (crash/stop). State will be lost.
  virtual void OnStopping() {}

  // A leafset neighbor was detected as failed.
  virtual void OnNeighborFailed(const NodeHandle& /*neighbor*/) {}

  // A new neighbor entered the leafset.
  virtual void OnNeighborAdded(const NodeHandle& /*neighbor*/) {}

  // A *direct* application send to `dead` was reported undeliverable by the
  // per-hop retransmission timeout. Routed traffic is re-routed by the
  // overlay itself; direct sends are the application's retry to make (this
  // is the drop-notice fast path the Seaweed retry machinery keys off).
  virtual void OnAppSendFailed(const NodeHandle& /*dead*/,
                               WireMessagePtr /*payload*/) {}
};

struct PastryConfig {
  int b = 4;                                 // digit width
  int l = 8;                                 // leafset size
  SimDuration heartbeat_period = 30 * kSecond;
  double failure_timeout_multiple = 2.5;     // no-contact window => failed
  SimDuration probe_period = 120 * kSecond;  // routing-table entry probing
  SimDuration probe_timeout = 3 * kSecond;
  SimDuration join_retry_timeout = 10 * kSecond;
  int max_route_hops = 64;
  // Every Nth heartbeat tick, pull the leafset of a random bootstrap-style
  // contact (not just current neighbors). This is what re-merges rings that
  // split under a long partition: after the heal, neighbors on the far side
  // have been evicted, so neighbor-only stabilization can never rediscover
  // them. 0 disables.
  int global_stabilize_every = 10;
};

class PastryNode {
 public:
  PastryNode(OverlayNetwork* net, NodeHandle self, const PastryConfig& config);

  const NodeHandle& handle() const { return self_; }
  const NodeId& id() const { return self_.id; }
  EndsystemIndex address() const { return self_.address; }
  bool up() const { return up_; }
  bool joined() const { return joined_; }
  const Leafset& leafset() const { return leafset_; }
  const RoutingTable& routing_table() const { return routing_table_; }
  const PastryConfig& config() const { return config_; }

  void set_app(PastryApp* app) { app_ = app; }
  PastryApp* app() const { return app_; }

  // --- Lifecycle (driven by OverlayNetwork) ---
  // Brings the node up and begins the join protocol. `bootstrap` is empty
  // only for the very first node in the overlay.
  void Start(std::optional<NodeHandle> bootstrap);
  // Crash/stop: all volatile overlay state is discarded.
  void Stop();

  // --- Application API ---
  // Routes an application payload to the live node numerically closest to
  // `key`. The payload's encoded size is charged to `category`.
  void RouteApp(const NodeId& key, WireMessagePtr payload,
                TrafficCategory category);
  // Sends an application payload directly to a known node (one hop).
  void SendApp(const NodeHandle& to, WireMessagePtr payload,
               TrafficCategory category);

  // --- Invoked by OverlayNetwork ---
  void HandlePacket(EndsystemIndex from, const std::shared_ptr<Packet>& pkt);
  // Fast-path liveness bookkeeping: a heartbeat from `from` reached us.
  void NoteHeartbeat(const NodeHandle& from);
  // Per-hop retransmission timeout: a packet we sent to `dead` was not
  // delivered because the node is down. Repairs routing state; routed
  // packets are re-routed around the failure.
  void OnSendFailed(const NodeHandle& dead, const std::shared_ptr<Packet>& pkt);

  // Heap bytes held by this node's overlay state (routing table, leafset,
  // liveness bookkeeping).
  size_t ApproxStateBytes() const;

 private:
  friend class OverlayNetwork;

  void Reset();
  // Reports (up && joined) transitions to the OverlayNetwork joined list.
  // Call after any change to up_ or joined_.
  void UpdateMembership();
  void HeartbeatTick(uint64_t generation);
  void CheckFailures();
  void ProbeTick(uint64_t generation);
  void JoinTimeout(uint64_t generation, int attempt);

  // Routing core: forwards `pkt` toward pkt->key, or delivers locally.
  void RouteOrDeliver(const std::shared_ptr<Packet>& pkt);
  void DeliverLocally(const std::shared_ptr<Packet>& pkt);
  void SendPacket(const NodeHandle& to, const std::shared_ptr<Packet>& pkt);

  void Learn(const NodeHandle& node);  // opportunistic state fill
  void HandleNeighborFailure(const NodeHandle& failed);

  OverlayNetwork* net_;
  NodeHandle self_;
  PastryConfig config_;
  PastryApp* app_ = nullptr;

  bool up_ = false;
  bool joined_ = false;
  // Last membership value reported via UpdateMembership.
  bool member_ = false;
  // Incremented on every Start/Stop; stale scheduled callbacks check it.
  uint64_t generation_ = 0;

  Leafset leafset_;
  RoutingTable routing_table_;
  FlatMap<NodeId, SimTime> last_heard_;
  // Recently-declared-dead nodes and the time until which third-party
  // mentions of them are ignored.
  FlatMap<NodeId, SimTime> obituaries_;
  uint64_t stabilize_phase_ = 0;
  Rng rng_;
};

}  // namespace seaweed::overlay
