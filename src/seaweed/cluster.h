// SeaweedCluster: one self-contained packet-level simulation — topology,
// network, Pastry overlay, Seaweed nodes and their data — driven by an
// availability trace.
//
// This is the top-level object benches and examples construct. It owns the
// whole object graph and exposes query injection plus the measurement
// surfaces (bandwidth meter, online-population tracking, protocol stats).
#pragma once

#include <memory>
#include <vector>

#include "obs/obs.h"
#include "seaweed/node.h"
#include "sim/fault_plan.h"
#include "sim/fault_transport.h"
#include "sim/network.h"
#include "sim/serializing_transport.h"
#include "sim/transport_stack.h"
#include "trace/availability_trace.h"

namespace seaweed {

struct ClusterConfig {
  int num_endsystems = 100;
  overlay::PastryConfig pastry;
  SeaweedConfig seaweed;
  TopologyConfig topology;
  anemone::AnemoneConfig anemone;
  double message_loss_rate = 0.0;
  // Keep generated tables resident (small N) instead of regenerating per
  // execution (large N).
  bool keep_tables = true;
  // Wire size charged per summary push; 0 = actual serialized size. The
  // default reproduces the paper's measured h (Table 1: 6,473 bytes).
  uint32_t summary_wire_bytes = 6473;
  // Transport decorator spec, outermost first (ParseTransportSpec):
  // "" (bare network), "serializing" (round-trip every message through the
  // wire codec in flight; behaviourally identical, any codec gap
  // CHECK-fails at the offending message), "faulty" (apply `fault_plan`),
  // "faulty:<plan.json>" (load the plan from a file), or compositions like
  // "serializing,faulty".
  std::string transport;
  // Injected-fault schedule, applied by a "faulty" transport layer. A
  // non-empty plan implies the layer even when `transport` does not name
  // it; crash epochs are scheduled regardless of the transport spec.
  FaultPlan fault_plan;
  uint64_t seed = 1;
  // Store in-flight messages as encoded wire bytes instead of live message
  // objects (Network::SetEncodeInFlight): flat storage for queued traffic,
  // essential at 10^5+ endsystems.
  bool encode_in_flight = false;
};

class ClusterOptions;

class SeaweedCluster {
 public:
  explicit SeaweedCluster(const ClusterConfig& config);
  // As above but with a caller-supplied data provider (tests).
  SeaweedCluster(const ClusterConfig& config,
                 std::shared_ptr<DataProvider> data);
  // Builder forms: validate via ClusterOptions::BuildOrDie() first.
  explicit SeaweedCluster(const ClusterOptions& options);
  SeaweedCluster(const ClusterOptions& options,
                 std::shared_ptr<DataProvider> data);

  Simulator& sim() { return sim_; }
  BandwidthMeter& meter() { return meter_; }
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }
  overlay::OverlayNetwork& overlay() { return *overlay_; }
  Network& network() { return network_; }
  // The transport the overlay actually sends through: the top of the
  // decorator stack (the bare network when the stack is empty).
  Transport& transport() { return *stack_->top(); }
  // Stack layers by type, or nullptr when the spec named no such layer.
  const SerializingTransport* serializing_transport() const {
    return stack_->Find<SerializingTransport>();
  }
  const FaultInjectingTransport* fault_transport() const {
    return stack_->Find<FaultInjectingTransport>();
  }
  const ClusterConfig& config() const { return config_; }

  SeaweedNode* seaweed_node(int e) { return seaweed_[static_cast<size_t>(e)].get(); }
  overlay::PastryNode* pastry_node(int e) { return overlay_->node(static_cast<EndsystemIndex>(e)); }
  DataProvider* data() { return data_.get(); }

  // Schedules every up/down transition of `trace` within [sim.Now(), until)
  // as simulation events, and hourly online-population sampling.
  void DriveFromTrace(const AvailabilityTrace& trace, SimTime until);

  // Manual lifecycle control (tests, examples).
  void BringUp(int e) { overlay_->BringUp(static_cast<EndsystemIndex>(e)); }
  void BringDown(int e) { overlay_->BringDown(static_cast<EndsystemIndex>(e)); }
  // Brings up all endsystems at staggered times within `window`.
  void BringUpAll(SimDuration window = 10 * kSecond);

  // Injects a query from endsystem `e` (must be up).
  Result<NodeId> InjectQuery(int e, const std::string& sql,
                             QueryObserver observer,
                             SimDuration ttl = 48 * kHour,
                             const std::string& id_salt = "");

  int CountUp() const;
  int CountJoined() const { return overlay_->CountJoined(); }

  // Online endsystem-seconds accumulated during `hour` (for normalizing
  // bandwidth to bytes/sec/online-endsystem as the paper reports).
  double OnlineSecondsInHour(int64_t hour) const;
  // Mean bytes/sec per online endsystem over [h0, h1], tx side, for one
  // traffic category (or all categories with cat < 0).
  double MeanTxPerOnline(int64_t h0, int64_t h1, int cat = -1) const;

  // Publishes the simulation-engine and memory-footprint gauges:
  // sim.events.{scheduled,executed,cancelled} and
  // mem.{overlay.routing,meta.store,net.inflight,sim.event_queue}_bytes.
  // Called hourly during DriveFromTrace runs and callable from benches
  // before snapshotting.
  void PublishStatsGauges();

 private:
  void Construct(std::shared_ptr<DataProvider> data);
  std::unique_ptr<TransportStack> BuildTransportStack();
  // Turns fault_plan.crashes into BringDown/BringUp simulation events with
  // the same online-population accounting as DriveFromTrace.
  void ScheduleCrashEpochs();

  ClusterConfig config_;
  Simulator sim_;
  // Declared before meter_/network_: both publish into it at construction.
  obs::Observability obs_;
  Topology topology_;
  BandwidthMeter meter_;
  Network network_;
  std::unique_ptr<TransportStack> stack_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::shared_ptr<DataProvider> data_;
  SeaweedMetrics seaweed_metrics_{&obs_.metrics};
  std::vector<std::unique_ptr<SeaweedNode>> seaweed_;
  std::vector<NodeId> ids_;
  // Online endsystem-seconds per hour (piecewise integration).
  std::vector<double> online_seconds_by_hour_;
  SimTime last_population_change_ = 0;
  int current_up_ = 0;
  // Sampled at population changes (churn cadence, not per event).
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* online_gauge_ = nullptr;

  void AccumulateOnline(SimTime until_now);
};

}  // namespace seaweed
