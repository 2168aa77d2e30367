// FaultInjectingTransport: applies a FaultPlan to every message.
//
// Decorates any Transport with deterministic, seeded fault injection:
// messages are dropped during loss bursts, silently discarded across active
// partitions, and held back by delay/reorder windows before reaching the
// inner transport. Drops at this layer still charge the sender's transmit
// bandwidth (the datagram left the host; see network.h) via
// BandwidthMeter::RecordTxDropped, so the obs byte cross-checks stay exact.
//
// Partitions — but deliberately not probabilistic bursts — also sever
// Linked(), which the overlay heartbeat fast path consults; a partition
// therefore drives failure detection exactly like a real link cut, while a
// lossy-but-connected link keeps flapping heartbeats through.
//
// Randomness is counter-hashed per (sender, sequence): each message seeds a
// local Rng from MixSeed(plan seed ^ salt, from, seq) rather than drawing
// from one shared generator, so one sender's fault decisions do not depend
// on how many messages other senders sent before it.
#pragma once

#include <string>

#include "sim/fault_plan.h"
#include "sim/transport.h"

namespace seaweed {

class FaultInjectingTransport : public TransportDecorator {
 public:
  // `plan` must already be Resolve()d if it contains partitions. The rng
  // stream is derived from the plan seed xor `salt` (pass the cluster seed
  // so distinct clusters sharing one plan draw independent streams).
  // `counter_prefix` names the obs counters ("fault." in simulation;
  // the live path passes "net.fault." so obs_report can tell injected
  // datagram faults apart from simulated ones).
  FaultInjectingTransport(Transport* inner, FaultPlan plan, uint64_t salt = 0,
                          const std::string& counter_prefix = "fault.");

  bool Send(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
            WireMessagePtr msg) override;

  bool Linked(EndsystemIndex from, EndsystemIndex to) const override;

  const FaultPlan& plan() const { return plan_; }

  // Messages eaten by this layer (bursts + partitions).
  uint64_t injected_drops() const {
    return burst_drops_metric_->value() + partition_drops_metric_->value();
  }
  // Messages forwarded late because of a delay/reorder window.
  uint64_t injected_delays() const { return delayed_metric_->value(); }

 private:
  void ChargeDrop(EndsystemIndex from, SimTime now, const WireMessage& msg);

  FaultPlan plan_;
  uint64_t stream_seed_;
  // Per-sender message sequence.
  std::vector<uint32_t> tx_seq_;
  obs::Counter* burst_drops_metric_;
  obs::Counter* partition_drops_metric_;
  obs::Counter* delayed_metric_;
};

}  // namespace seaweed
