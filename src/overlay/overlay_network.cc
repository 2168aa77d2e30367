#include "overlay/overlay_network.h"

#include "common/logging.h"

namespace seaweed::overlay {

OverlayNetwork::OverlayNetwork(Scheduler* sim, Transport* network,
                               const PastryConfig& config, uint64_t seed)
    : sim_(sim), network_(network), config_(config), boot_seed_(seed) {
  obs::MetricsRegistry* reg = &network_->obs()->metrics;
  metrics_.heartbeats = reg->GetCounter("overlay.heartbeats");
  metrics_.joins = reg->GetCounter("overlay.joins");
  metrics_.leafset_repairs = reg->GetCounter("overlay.leafset_repairs");
  metrics_.global_stabilize_probes =
      reg->GetCounter("overlay.global_stabilize_probes");
  metrics_.hop_limit_drops = reg->GetCounter("overlay.hop_limit_drops");
  metrics_.routed_delivered = reg->GetCounter("overlay.routed_delivered");
  metrics_.route_hops = reg->GetHistogram("overlay.route_hops");
}

void OverlayNetwork::CreateNodes(const std::vector<NodeId>& ids) {
  SEAWEED_CHECK_MSG(nodes_.empty(), "CreateNodes called twice");
  SEAWEED_CHECK(static_cast<int>(ids.size()) ==
                network_->topology().num_endsystems());
  // Per-hop failure detection: a sender whose packet hit a dead node learns
  // about it after a retransmission timeout and can repair + re-route.
  network_->SetDropHandler(
      [this](EndsystemIndex from, EndsystemIndex to, WireMessagePtr payload) {
        auto pkt = WireMessageCast<Packet>(payload);
        nodes_[from]->OnSendFailed(nodes_[to]->handle(), pkt);
      },
      /*drop_notice_delay=*/kSecond);
  // One shared delivery closure for the whole overlay instead of a
  // per-endsystem lambda: O(1) handler storage at a million endsystems.
  network_->SetUniformDeliveryHandler(
      [this](EndsystemIndex from, EndsystemIndex to, WireMessagePtr payload) {
        OnDelivery(to, from, std::move(payload));
      });
  nodes_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    NodeHandle h{ids[i], static_cast<EndsystemIndex>(i)};
    nodes_.push_back(std::make_unique<PastryNode>(this, h, config_));
  }
  joined_pos_.assign(ids.size(), kNotJoined);
  boot_seq_.assign(ids.size(), 0);
}

void OverlayNetwork::BringUp(EndsystemIndex e) {
  PastryNode* n = nodes_[e].get();
  if (n->up()) return;
  network_->SetUp(e, true);
  n->Start(PickBootstrap(e));
}

void OverlayNetwork::BringDown(EndsystemIndex e) {
  PastryNode* n = nodes_[e].get();
  if (!n->up()) return;
  n->Stop();
  network_->SetUp(e, false);
}

void OverlayNetwork::SendPacket(EndsystemIndex from, EndsystemIndex to,
                                const std::shared_ptr<Packet>& pkt) {
  network_->Send(from, to, pkt->category, pkt);
}

void OverlayNetwork::FastHeartbeat(const NodeHandle& from,
                                   const NodeHandle& to) {
  // Minimal heartbeat: kind + src handle.
  constexpr uint32_t kHeartbeatBytes =
      1 + kNodeHandleBytes + kMessageHeaderBytes;
  metrics_.heartbeats->Add();
  if (!network_->IsLocal(to.address)) {
    // The receiver's node object lives in another process: no fast path.
    // Send a real heartbeat datagram (Send charges the meter itself).
    auto pkt = std::make_shared<Packet>();
    pkt->kind = Packet::Kind::kHeartbeat;
    pkt->src = from;
    pkt->category = TrafficCategory::kPastry;
    network_->Send(from.address, to.address, TrafficCategory::kPastry, pkt);
    return;
  }
  network_->meter()->RecordTx(from.address, TrafficCategory::kPastry,
                              sim_->Now(), kHeartbeatBytes);
  // Linked (not IsUp): an injected partition must starve heartbeats exactly
  // like a real link cut, so failure detection fires on both sides.
  if (network_->Linked(from.address, to.address)) {
    network_->meter()->RecordRx(to.address, TrafficCategory::kPastry,
                                sim_->Now(), kHeartbeatBytes);
    nodes_[to.address]->NoteHeartbeat(from);
  }
}

std::optional<NodeHandle> OverlayNetwork::PickBootstrap(
    EndsystemIndex joiner) {
  // A real deployment would use a configured contact list; the simulator
  // picks a random member of the dense joined list (excluding the joiner).
  // The draw is counter-hashed per (joiner, attempt).
  const size_t n = joined_list_.size();
  if (n == 0) {
    // Live mode: no locally-hosted member is joined yet, so fall back to
    // the configured contact list. The draw is counter-hashed per (joiner,
    // attempt) so join retries rotate across contacts instead of wedging on
    // one that is dead (a crashed shard during a warm re-join).
    std::vector<const NodeHandle*> contacts;
    for (const NodeHandle& c : static_bootstraps_) {
      if (c.address != joiner) contacts.push_back(&c);
    }
    if (contacts.empty()) return std::nullopt;
    if (contacts.size() == 1) return *contacts[0];
    Rng draw(MixSeed(boot_seed_, joiner, boot_seq_[joiner]++));
    return *contacts[static_cast<size_t>(draw.NextBelow(contacts.size()))];
  }
  if (n == 1) {
    if (joined_list_[0] == joiner) return std::nullopt;
    return nodes_[joined_list_[0]]->handle();
  }
  Rng draw(MixSeed(boot_seed_, joiner, boot_seq_[joiner]++));
  size_t idx = static_cast<size_t>(draw.NextBelow(n));
  if (joined_list_[idx] == joiner) {
    // Re-draw uniformly over the other n-1 positions.
    idx = (idx + 1 + static_cast<size_t>(draw.NextBelow(n - 1))) % n;
  }
  return nodes_[joined_list_[idx]]->handle();
}

void OverlayNetwork::OnJoinedChanged(EndsystemIndex e, bool member) {
  uint32_t pos = joined_pos_[e];
  if (member) {
    if (pos != kNotJoined) return;
    joined_pos_[e] = static_cast<uint32_t>(joined_list_.size());
    joined_list_.push_back(e);
  } else {
    if (pos == kNotJoined) return;
    EndsystemIndex last = joined_list_.back();
    joined_list_[pos] = last;
    joined_pos_[last] = pos;
    joined_list_.pop_back();
    joined_pos_[e] = kNotJoined;
  }
}

std::optional<NodeHandle> OverlayNetwork::OracleRoot(const NodeId& key) const {
  std::optional<NodeHandle> best;
  NodeId best_dist;
  for (const auto& n : nodes_) {
    if (!n->up() || !n->joined()) continue;
    NodeId d = n->id().RingDistanceTo(key);
    if (!best.has_value() || d < best_dist) {
      best = n->handle();
      best_dist = d;
    }
  }
  return best;
}

std::vector<NodeHandle> OverlayNetwork::OracleLiveNodes() const {
  std::vector<NodeHandle> out;
  for (const auto& n : nodes_) {
    if (n->up() && n->joined()) out.push_back(n->handle());
  }
  return out;
}

int OverlayNetwork::CountJoined() const {
  int n = 0;
  for (const auto& node : nodes_) {
    if (node->up() && node->joined()) ++n;
  }
  return n;
}

size_t OverlayNetwork::ApproxRoutingBytes() const {
  size_t total = 0;
  for (const auto& n : nodes_) total += n->ApproxStateBytes();
  return total;
}

void OverlayNetwork::OnDelivery(EndsystemIndex to, EndsystemIndex from,
                                WireMessagePtr payload) {
  auto pkt = WireMessageCast<Packet>(payload);
  nodes_[to]->HandlePacket(from, pkt);
}

}  // namespace seaweed::overlay
