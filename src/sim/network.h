// Message-level simulated network: the in-memory Transport backend.
//
// Delivers typed messages between endsystems with topology-derived latency,
// optional uniform loss, and per-endsystem up/down state. Sends to or from a
// down endsystem are dropped (the sender still pays transmit bandwidth for
// sends it initiates, matching a real lossy datagram network). Messages are
// passed by pointer — the wire codec is exercised separately by
// SerializingTransport — but every charged byte count comes from the
// message's encoder via WireMessage::WireBytes(). With SetEncodeInFlight,
// in-flight messages are instead held as encoded bytes (flat storage, PR 3
// codec) and decoded at delivery, trading CPU for queue memory at scale.
//
// Loss draws use counter-hash seeds per (sender, sequence).
#pragma once

#include <vector>

#include "common/rng.h"
#include "sim/transport.h"

namespace seaweed {

class Network : public Transport {
 public:
  // `obs` is the observability domain the whole stack above this network
  // records into (nullptr -> process-wide scratch domain).
  Network(Simulator* sim, const Topology* topology, BandwidthMeter* meter,
          double loss_rate, uint64_t seed, obs::Observability* obs = nullptr);

  void SetDeliveryHandler(EndsystemIndex e, DeliveryHandler handler) override;
  void SetUniformDeliveryHandler(UniformDeliveryHandler handler) override;

  void SetUp(EndsystemIndex e, bool up) override;
  bool IsUp(EndsystemIndex e) const override { return up_[e] != 0; }

  bool Send(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
            WireMessagePtr msg) override;

  void SetDropHandler(DropHandler handler,
                      SimDuration drop_notice_delay) override {
    drop_handler_ = std::move(handler);
    drop_notice_delay_ = drop_notice_delay;
  }

  // Stores in-flight messages as encoded bytes instead of live objects.
  void SetEncodeInFlight(bool on) { encode_in_flight_ = on; }
  // Bytes currently held for encoded in-flight messages.
  uint64_t inflight_bytes() const { return inflight_bytes_; }

  // Read the obs counters, which count every Network in the same domain.
  uint64_t messages_sent() const override {
    return msgs_sent_metric_->value();
  }
  uint64_t messages_delivered() const override {
    return msgs_delivered_metric_->value();
  }
  uint64_t messages_lost() const override {
    return msgs_lost_metric_->value();
  }

  const Topology& topology() const override { return *topology_; }
  Scheduler* scheduler() const override { return sim_; }
  BandwidthMeter* meter() const override { return meter_; }
  obs::Observability* obs() const override { return obs_; }

 private:
  void Deliver(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
               uint32_t wire_bytes, WireMessagePtr msg,
               std::vector<uint8_t> encoded);
  void Dispatch(EndsystemIndex from, EndsystemIndex to, WireMessagePtr msg);
  static WireMessagePtr DecodeInFlight(const std::vector<uint8_t>& encoded);

  Simulator* sim_;
  const Topology* topology_;
  BandwidthMeter* meter_;
  obs::Observability* obs_;
  obs::Counter* msgs_sent_metric_;
  obs::Counter* msgs_delivered_metric_;
  obs::Counter* msgs_lost_metric_;
  double loss_rate_;
  uint64_t loss_seed_;
  std::vector<uint32_t> tx_seq_;  // per-sender send sequence
  std::vector<DeliveryHandler> handlers_;  // sized lazily; usually empty
  UniformDeliveryHandler uniform_handler_;
  DropHandler drop_handler_;
  SimDuration drop_notice_delay_ = kSecond;
  std::vector<uint8_t> up_;
  bool encode_in_flight_ = false;
  uint64_t inflight_bytes_ = 0;
};

}  // namespace seaweed
