#include "sim/network.h"

#include "common/logging.h"

namespace seaweed {

Network::Network(Simulator* sim, const Topology* topology,
                 BandwidthMeter* meter, double loss_rate, uint64_t seed,
                 obs::Observability* obs)
    : sim_(sim),
      topology_(topology),
      meter_(meter),
      obs_(obs != nullptr ? obs : obs::FallbackObservability()),
      loss_rate_(loss_rate),
      loss_seed_(seed),
      tx_seq_(static_cast<size_t>(topology->num_endsystems()), 0),
      up_(static_cast<size_t>(topology->num_endsystems()), 0) {
  msgs_sent_metric_ = obs_->metrics.GetCounter("sim.msgs_sent");
  msgs_delivered_metric_ = obs_->metrics.GetCounter("sim.msgs_delivered");
  msgs_lost_metric_ = obs_->metrics.GetCounter("sim.msgs_lost");
}

void Network::SetDeliveryHandler(EndsystemIndex e, DeliveryHandler handler) {
  if (handlers_.size() <= e) handlers_.resize(static_cast<size_t>(e) + 1);
  handlers_[e] = std::move(handler);
}

void Network::SetUniformDeliveryHandler(UniformDeliveryHandler handler) {
  uniform_handler_ = std::move(handler);
}

void Network::SetUp(EndsystemIndex e, bool up) { up_[e] = up ? 1 : 0; }

WireMessagePtr Network::DecodeInFlight(const std::vector<uint8_t>& encoded) {
  Reader r(encoded);
  Result<WireMessagePtr> decoded = DecodeWireMessage(r);
  SEAWEED_CHECK_MSG(decoded.ok(),
                    "in-flight decode failed: " + decoded.status().ToString());
  return std::move(decoded).value();
}

void Network::Dispatch(EndsystemIndex from, EndsystemIndex to,
                       WireMessagePtr msg) {
  if (uniform_handler_) {
    uniform_handler_(from, to, std::move(msg));
    return;
  }
  if (to < handlers_.size() && handlers_[to]) {
    handlers_[to](from, std::move(msg));
  }
}

void Network::Deliver(EndsystemIndex from, EndsystemIndex to,
                      TrafficCategory cat, uint32_t wire_bytes,
                      WireMessagePtr msg, std::vector<uint8_t> encoded) {
  if (encode_in_flight_) {
    inflight_bytes_ -= encoded.capacity();
  }
  if (!up_[to]) {
    msgs_lost_metric_->Add();
    if (drop_handler_ && up_[from]) {
      // Per-hop failure detection: the sender's retransmission timeout
      // fires and it learns the next hop is dead.
      if (msg == nullptr) msg = DecodeInFlight(encoded);
      sim_->After(drop_notice_delay_,
                  [this, from, to, msg = std::move(msg)]() mutable {
                    if (up_[from] && drop_handler_) {
                      drop_handler_(from, to, std::move(msg));
                    }
                  });
    }
    return;
  }
  meter_->RecordRx(to, cat, sim_->Now(), wire_bytes);
  msgs_delivered_metric_->Add();
  if (msg == nullptr) msg = DecodeInFlight(encoded);
  Dispatch(from, to, std::move(msg));
}

bool Network::Send(EndsystemIndex from, EndsystemIndex to,
                   TrafficCategory cat, WireMessagePtr msg) {
  SEAWEED_CHECK_MSG(msg != nullptr, "Network::Send requires a message");
  if (!up_[from]) return false;
  const uint32_t wire_bytes = msg->WireBytes() + kMessageHeaderBytes;
  meter_->RecordTx(from, cat, sim_->Now(), wire_bytes);
  msgs_sent_metric_->Add();

  if (loss_rate_ > 0) {
    // Counter-hash loss draw: deterministic per (sender, sequence), not per
    // global draw order.
    Rng msg_rng(MixSeed(loss_seed_, from, tx_seq_[from]++));
    if (msg_rng.Bernoulli(loss_rate_)) {
      msgs_lost_metric_->Add();
      return true;  // sent, but the network ate it
    }
  }

  const SimDuration delay = topology_->Delay(from, to);
  if (encode_in_flight_) {
    Writer w;
    msg->Encode(w);
    std::vector<uint8_t> encoded = w.bytes();
    inflight_bytes_ += encoded.capacity();
    sim_->After(delay, [this, from, to, cat, wire_bytes,
                        encoded = std::move(encoded)]() mutable {
      Deliver(from, to, cat, wire_bytes, nullptr, std::move(encoded));
    });
  } else {
    sim_->After(delay, [this, from, to, cat, wire_bytes,
                        msg = std::move(msg)]() mutable {
      Deliver(from, to, cat, wire_bytes, std::move(msg), {});
    });
  }
  return true;
}

}  // namespace seaweed
