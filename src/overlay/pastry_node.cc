#include "overlay/pastry_node.h"

#include <algorithm>

#include "common/logging.h"
#include "overlay/overlay_network.h"

namespace seaweed::overlay {

PastryNode::PastryNode(OverlayNetwork* net, NodeHandle self,
                       const PastryConfig& config)
    : net_(net),
      self_(self),
      config_(config),
      leafset_(self.id, config.l),
      routing_table_(self.id, config.b),
      rng_(self.id.lo() ^ self.id.hi()) {}

void PastryNode::Reset() {
  leafset_ = Leafset(self_.id, config_.l);
  routing_table_ = RoutingTable(self_.id, config_.b);
  last_heard_.Clear();
  // Death certificates must not survive a restart: a rejoining node that
  // still distrusts nodes it declared dead in a previous life can reject
  // its entire join leafset and splinter into an isolated island with the
  // few nodes it never obituaried.
  obituaries_.Clear();
  joined_ = false;
}

void PastryNode::UpdateMembership() {
  bool member = up_ && joined_;
  if (member == member_) return;
  member_ = member;
  net_->OnJoinedChanged(self_.address, member);
}

void PastryNode::Start(std::optional<NodeHandle> bootstrap) {
  SEAWEED_CHECK_MSG(!up_, "Start on a node that is already up");
  up_ = true;
  ++generation_;
  Reset();
  uint64_t gen = generation_;

  if (!bootstrap.has_value()) {
    // First node in the overlay: trivially joined.
    joined_ = true;
    UpdateMembership();
    net_->metrics().joins->Add();
    if (app_) app_->OnJoined();
  } else {
    Learn(*bootstrap);
    auto pkt = std::make_shared<Packet>();
    pkt->kind = Packet::Kind::kJoinRequest;
    pkt->src = self_;
    pkt->key = self_.id;
    SendPacket(*bootstrap, pkt);
    net_->simulator()->After(config_.join_retry_timeout,
                             [this, gen] { JoinTimeout(gen, 1); });
  }

  // Start periodic heartbeat/probe loops with a random phase so system-wide
  // load is spread in time.
  SimDuration phase = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(config_.heartbeat_period)));
  net_->simulator()->After(phase, [this, gen] { HeartbeatTick(gen); });
  SimDuration probe_phase = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(config_.probe_period)));
  net_->simulator()->After(probe_phase, [this, gen] { ProbeTick(gen); });
}

void PastryNode::Stop() {
  if (!up_) return;
  if (app_) app_->OnStopping();
  up_ = false;
  joined_ = false;
  UpdateMembership();
  ++generation_;
}

void PastryNode::JoinTimeout(uint64_t generation, int attempt) {
  if (generation != generation_ || !up_ || joined_) return;
  // Retry with a fresh bootstrap contact.
  auto bootstrap = net_->PickBootstrap(self_.address);
  if (bootstrap.has_value()) {
    Learn(*bootstrap);
    auto pkt = std::make_shared<Packet>();
    pkt->kind = Packet::Kind::kJoinRequest;
    pkt->src = self_;
    pkt->key = self_.id;
    SendPacket(*bootstrap, pkt);
  } else {
    // Nobody else is up: we are the whole overlay.
    joined_ = true;
    UpdateMembership();
    net_->metrics().joins->Add();
    if (app_) app_->OnJoined();
    return;
  }
  uint64_t gen = generation_;
  net_->simulator()->After(config_.join_retry_timeout, [this, gen, attempt] {
    JoinTimeout(gen, attempt + 1);
  });
}

void PastryNode::RouteApp(const NodeId& key, WireMessagePtr payload,
                          TrafficCategory category) {
  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kApp;
  pkt->src = self_;
  pkt->key = key;
  pkt->app_payload = std::move(payload);
  pkt->app_routed = true;
  pkt->category = category;
  RouteOrDeliver(pkt);
}

void PastryNode::SendApp(const NodeHandle& to, WireMessagePtr payload,
                         TrafficCategory category) {
  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kApp;
  pkt->src = self_;
  pkt->app_payload = std::move(payload);
  pkt->app_routed = false;
  pkt->category = category;
  if (to.id == self_.id) {
    DeliverLocally(pkt);
    return;
  }
  SendPacket(to, pkt);
}

void PastryNode::SendPacket(const NodeHandle& to,
                            const std::shared_ptr<Packet>& pkt) {
  net_->SendPacket(self_.address, to.address, pkt);
}

void PastryNode::Learn(const NodeHandle& node) {
  if (node.id == self_.id) return;
  // Ignore third-party mentions of nodes we recently declared dead (death
  // certificate); only direct contact (HandlePacket/NoteHeartbeat erase the
  // obituary first) can resurrect them. Without this, stale leafset gossip
  // keeps re-inserting failed nodes faster than detection evicts them.
  if (!obituaries_.empty()) {
    const SimTime* ob = obituaries_.Find(node.id);
    if (ob != nullptr) {
      if (net_->simulator()->Now() < *ob) return;
      obituaries_.Erase(node.id);
    }
  }
  bool added = leafset_.Insert(node);
  routing_table_.Insert(node);
  if (added) {
    const SimTime now = net_->simulator()->Now();
    const SimTime* heard = last_heard_.Find(node.id);
    bool direct_recent =
        heard != nullptr && now - *heard < config_.heartbeat_period;
    // Benefit of the doubt for third-party-learned members: treat them as
    // heard-from now so failure detection starts a fresh window.
    last_heard_.InsertIfAbsent(node.id, now);
    if (!direct_recent && joined_) {
      // Third-party discovery: introduce ourselves so knowledge becomes
      // mutual. Without this, two nodes that once declared each other dead
      // can re-learn each other via gossip, exchange no heartbeats (each
      // still absent from the other's view), and re-expire in lockstep
      // forever.
      auto announce = std::make_shared<Packet>();
      announce->kind = Packet::Kind::kNodeAnnounce;
      announce->src = self_;
      SendPacket(node, announce);
    }
    if (app_) app_->OnNeighborAdded(node);
  }
}

void PastryNode::RouteOrDeliver(const std::shared_ptr<Packet>& pkt) {
  if (pkt->hops >= static_cast<uint16_t>(config_.max_route_hops)) {
    net_->metrics().hop_limit_drops->Add();
    SEAWEED_LOG(kWarn) << "dropping packet: hop limit reached (key "
                       << pkt->key.ToShortString() << ")";
    return;
  }
  ++pkt->hops;

  // 1. Leafset rule: if the key is within leafset coverage, the numerically
  //    closest of {self} ∪ leafset is the root.
  if (leafset_.Covers(pkt->key)) {
    auto closer = leafset_.CloserMemberThanOwner(pkt->key);
    if (!closer.has_value()) {
      DeliverLocally(pkt);
    } else {
      SendPacket(*closer, pkt);
    }
    return;
  }
  // 2. Routing table rule: forward to an entry sharing a longer prefix.
  auto hop = routing_table_.NextHop(pkt->key);
  if (hop.has_value()) {
    SendPacket(*hop, pkt);
    return;
  }
  // 3. Rare case: any known node closer to the key than ourselves.
  auto closer_entry = routing_table_.CloserEntry(pkt->key);
  if (!closer_entry.has_value()) {
    closer_entry = leafset_.CloserMemberThanOwner(pkt->key);
  }
  if (closer_entry.has_value()) {
    SendPacket(*closer_entry, pkt);
    return;
  }
  // 4. Nobody closer known: we are the root.
  DeliverLocally(pkt);
}

void PastryNode::DeliverLocally(const std::shared_ptr<Packet>& pkt) {
  switch (pkt->kind) {
    case Packet::Kind::kJoinRequest: {
      // We are the joiner's root: hand over our leafset (and ourselves).
      auto reply = std::make_shared<Packet>();
      reply->kind = Packet::Kind::kJoinLeafset;
      reply->src = self_;
      reply->entries = leafset_.All();
      SendPacket(pkt->src, reply);
      Learn(pkt->src);
      break;
    }
    case Packet::Kind::kApp:
      if (pkt->app_routed) {
        net_->metrics().routed_delivered->Add();
        net_->metrics().route_hops->Record(pkt->hops);
      }
      if (app_) {
        app_->OnAppMessage(pkt->src, pkt->app_routed, pkt->key,
                           pkt->app_payload);
      }
      break;
    default:
      SEAWEED_LOG(kWarn) << "unexpected locally-delivered packet kind";
      break;
  }
}

void PastryNode::HandlePacket(EndsystemIndex from,
                              const std::shared_ptr<Packet>& pkt) {
  if (!up_) return;
  (void)from;
  // Opportunistically learn about the packet source. Direct contact is
  // proof of life, so any obituary is void.
  if (!obituaries_.empty()) obituaries_.Erase(pkt->src.id);
  last_heard_.Put(pkt->src.id, net_->simulator()->Now());
  Learn(pkt->src);

  switch (pkt->kind) {
    case Packet::Kind::kJoinRequest: {
      // Send the joiner the routing-table row matching our shared prefix,
      // then keep routing the request toward its id.
      int row = self_.id.CommonPrefixLength(pkt->src.id, config_.b);
      if (row < routing_table_.rows()) {
        auto rowpkt = std::make_shared<Packet>();
        rowpkt->kind = Packet::Kind::kJoinRow;
        rowpkt->src = self_;
        rowpkt->row = static_cast<uint8_t>(std::min(row, 255));
        rowpkt->entries = routing_table_.Row(row);
        SendPacket(pkt->src, rowpkt);
      }
      RouteOrDeliver(pkt);
      break;
    }
    case Packet::Kind::kJoinRow:
      for (const auto& h : pkt->entries) Learn(h);
      break;
    case Packet::Kind::kJoinLeafset: {
      for (const auto& h : pkt->entries) Learn(h);
      Learn(pkt->src);
      if (!joined_) {
        joined_ = true;
        UpdateMembership();
        net_->metrics().joins->Add();
        // Announce ourselves to everyone we now believe is a neighbor.
        auto announce = std::make_shared<Packet>();
        announce->kind = Packet::Kind::kNodeAnnounce;
        announce->src = self_;
        for (const auto& h : leafset_.All()) {
          SendPacket(h, announce);
        }
        if (app_) app_->OnJoined();
      }
      break;
    }
    case Packet::Kind::kNodeAnnounce: {
      // Learn() above already inserted the announcer; reply with our
      // leafset so the (re)joining node converges fast.
      auto reply = std::make_shared<Packet>();
      reply->kind = Packet::Kind::kLeafsetReply;
      reply->src = self_;
      reply->entries = leafset_.All();
      SendPacket(pkt->src, reply);
      break;
    }
    case Packet::Kind::kLeafsetRequest: {
      auto reply = std::make_shared<Packet>();
      reply->kind = Packet::Kind::kLeafsetReply;
      reply->src = self_;
      reply->entries = leafset_.All();
      SendPacket(pkt->src, reply);
      break;
    }
    case Packet::Kind::kLeafsetReply:
      for (const auto& h : pkt->entries) Learn(h);
      break;
    case Packet::Kind::kProbe: {
      auto reply = std::make_shared<Packet>();
      reply->kind = Packet::Kind::kProbeReply;
      reply->src = self_;
      SendPacket(pkt->src, reply);
      break;
    }
    case Packet::Kind::kProbeReply:
      // last_heard_ already updated above.
      break;
    case Packet::Kind::kApp:
      if (pkt->app_routed) {
        RouteOrDeliver(pkt);
      } else {
        DeliverLocally(pkt);
      }
      break;
    case Packet::Kind::kHeartbeat:
      // The prologue above (obituary erase + last_heard_ + Learn) is exactly
      // the receiver half of a heartbeat; nothing more to do.
      break;
  }
}

void PastryNode::OnSendFailed(const NodeHandle& dead,
                              const std::shared_ptr<Packet>& pkt) {
  if (!up_) return;
  // Direct evidence of death: purge and repair.
  routing_table_.Remove(dead.id);
  if (leafset_.Contains(dead.id)) {
    HandleNeighborFailure(dead);
  }
  // Routed traffic gets another try around the failure; direct sends are
  // the application's retry to make, so hand the payload back to it.
  bool routed = pkt->kind == Packet::Kind::kJoinRequest ||
                (pkt->kind == Packet::Kind::kApp && pkt->app_routed);
  if (routed) {
    RouteOrDeliver(pkt);
  } else if (pkt->kind == Packet::Kind::kApp && app_ != nullptr) {
    app_->OnAppSendFailed(dead, pkt->app_payload);
  }
}

void PastryNode::NoteHeartbeat(const NodeHandle& from) {
  if (!up_) return;
  if (!obituaries_.empty()) obituaries_.Erase(from.id);
  last_heard_.Put(from.id, net_->simulator()->Now());
  Learn(from);
}

void PastryNode::HeartbeatTick(uint64_t generation) {
  if (generation != generation_ || !up_) return;
  // Iterating the leafset in place is safe: FastHeartbeat updates the
  // receiver's state, never ours, and anything it sends back arrives as a
  // later event.
  leafset_.ForEachMember(
      [this](const NodeHandle& member) { net_->FastHeartbeat(self_, member); });
  CheckFailures();
  // Isolation recovery: if a churn storm evicted every leafset member we
  // are a zombie — still nominally joined but connected to nobody, with no
  // gossip path back into the ring (and we could even be handed out as a
  // bootstrap contact, seeding an island). Re-bootstrap through a fresh
  // contact.
  if (joined_ && leafset_.empty()) {
    auto bootstrap = net_->PickBootstrap(self_.address);
    if (bootstrap.has_value() && bootstrap->id != self_.id) {
      Learn(*bootstrap);
      auto pkt = std::make_shared<Packet>();
      pkt->kind = Packet::Kind::kJoinRequest;
      pkt->src = self_;
      pkt->key = self_.id;
      SendPacket(*bootstrap, pkt);
    }
  }
  // Ring stabilization: periodically pull the leafsets of our nearest
  // neighbors on each side. If some node z lies between us and our believed
  // neighbor, the neighbor's leafset names z, we learn it, and z becomes the
  // new nearest — converging the ring the same way Chord's stabilize does.
  if (++stabilize_phase_ % 3 == 0) {
    for (auto target : {leafset_.NearestCw(), leafset_.NearestCcw()}) {
      if (!target.has_value()) continue;
      auto req = std::make_shared<Packet>();
      req->kind = Packet::Kind::kLeafsetRequest;
      req->src = self_;
      SendPacket(*target, req);
    }
  }
  // Global stabilization: occasionally pull the leafset of an arbitrary
  // contact. Neighbor-only stabilization converges within one connected
  // ring but can never re-merge two rings that evicted each other during a
  // partition — both sides' state no longer names anyone on the far side.
  if (config_.global_stabilize_every > 0 && joined_ &&
      stabilize_phase_ %
              static_cast<uint64_t>(config_.global_stabilize_every) ==
          0) {
    auto contact = net_->PickBootstrap(self_.address);
    if (contact.has_value() && !leafset_.Contains(contact->id)) {
      net_->metrics().global_stabilize_probes->Add();
      // Do NOT Learn(*contact) here: the contact is unconfirmed, and during
      // a partition re-inserting an unreachable far-side node would undo
      // the eviction failure detection just made. Its kLeafsetReply (which
      // only arrives once connectivity exists) does the learning.
      auto req = std::make_shared<Packet>();
      req->kind = Packet::Kind::kLeafsetRequest;
      req->src = self_;
      SendPacket(*contact, req);
    }
  }
  uint64_t gen = generation_;
  net_->simulator()->After(config_.heartbeat_period,
                           [this, gen] { HeartbeatTick(gen); });
}

void PastryNode::CheckFailures() {
  const SimTime now = net_->simulator()->Now();
  const SimDuration window = static_cast<SimDuration>(
      static_cast<double>(config_.heartbeat_period) *
      config_.failure_timeout_multiple);
  // Collected first: a failure changes the leafset. Nothing is allocated
  // while every member is heard.
  std::vector<NodeHandle> failed;
  leafset_.ForEachMember([&](const NodeHandle& member) {
    const SimTime* it = last_heard_.Find(member.id);
    SimTime heard = it == nullptr ? 0 : *it;
    if (now - heard > window) failed.push_back(member);
  });
  for (const auto& f : failed) HandleNeighborFailure(f);
}

void PastryNode::HandleNeighborFailure(const NodeHandle& failed) {
  net_->metrics().leafset_repairs->Add();
  bool was_cw =
      self_.id.ClockwiseDistanceTo(failed.id) <=
      failed.id.ClockwiseDistanceTo(self_.id);
  // Death certificate: suppress third-party re-insertion for a while.
  const SimDuration window = static_cast<SimDuration>(
      static_cast<double>(config_.heartbeat_period) *
      config_.failure_timeout_multiple);
  obituaries_.Put(failed.id, net_->simulator()->Now() + 2 * window);
  leafset_.Remove(failed.id);
  routing_table_.Remove(failed.id);
  last_heard_.Erase(failed.id);
  if (app_) app_->OnNeighborFailed(failed);

  // Repair: ask the farthest surviving member on the depleted side for its
  // leafset, pulling coverage past our current edge.
  auto target = was_cw ? leafset_.FarthestCw() : leafset_.FarthestCcw();
  if (!target.has_value()) {
    target = was_cw ? leafset_.FarthestCcw() : leafset_.FarthestCw();
  }
  if (target.has_value()) {
    auto req = std::make_shared<Packet>();
    req->kind = Packet::Kind::kLeafsetRequest;
    req->src = self_;
    SendPacket(*target, req);
  }
}

void PastryNode::ProbeTick(uint64_t generation) {
  if (generation != generation_ || !up_) return;
  auto entry = routing_table_.RandomEntry(rng_);
  if (entry.has_value()) {
    auto probe = std::make_shared<Packet>();
    probe->kind = Packet::Kind::kProbe;
    probe->src = self_;
    SendPacket(*entry, probe);
    // If no reply arrives by the timeout, drop the entry.
    NodeHandle target = *entry;
    SimTime sent = net_->simulator()->Now();
    uint64_t gen = generation_;
    net_->simulator()->After(config_.probe_timeout, [this, gen, target, sent] {
      if (gen != generation_ || !up_) return;
      const SimTime* it = last_heard_.Find(target.id);
      if (it == nullptr || *it < sent) {
        routing_table_.Remove(target.id);
        if (leafset_.Remove(target.id)) {
          HandleNeighborFailure(target);
        }
      }
    });
  }
  uint64_t gen = generation_;
  net_->simulator()->After(config_.probe_period,
                           [this, gen] { ProbeTick(gen); });
}

size_t PastryNode::ApproxStateBytes() const {
  return routing_table_.ApproxBytes() + leafset_.ApproxBytes() +
         last_heard_.ApproxBytes() + obituaries_.ApproxBytes();
}

}  // namespace seaweed::overlay
