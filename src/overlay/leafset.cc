#include "overlay/leafset.h"

#include <algorithm>

namespace seaweed::overlay {

std::vector<NodeHandle> Leafset::All() const {
  std::vector<NodeHandle> out;
  out.reserve(cw_.size() + ccw_.size());
  ForEachMember([&out](const NodeHandle& h) { out.push_back(h); });
  return out;
}

bool Leafset::Insert(const NodeHandle& node) {
  if (node.id == owner_) return false;
  // A node may belong to BOTH sides: in a ring smaller than the leafset the
  // same neighbor is simultaneously among the l/2 closest clockwise and
  // counter-clockwise members (with two nodes, each is the other's cw AND
  // ccw neighbor). The sides are therefore maintained independently.
  // Distances from the owner are distinct per id, so a node at exactly the
  // edge distance is the edge member itself.
  bool changed = false;
  NodeId cw_dist = owner_.ClockwiseDistanceTo(node.id);
  NodeId ccw_dist = node.id.ClockwiseDistanceTo(owner_);
  const bool cw_rejects =
      static_cast<int>(cw_.size()) >= half_ && !(cw_dist < cw_edge_);
  const bool ccw_rejects =
      static_cast<int>(ccw_.size()) >= half_ && !(ccw_dist < ccw_edge_);
  if (cw_rejects && ccw_rejects) return false;
  if (!cw_rejects && !InSide(cw_, node.id)) {
    auto pos = std::lower_bound(
        cw_.begin(), cw_.end(), cw_dist,
        [this](const NodeHandle& h, const NodeId& d) {
          return owner_.ClockwiseDistanceTo(h.id) < d;
        });
    if (pos - cw_.begin() < half_) {
      cw_.insert(pos, node);
      changed = true;
    }
  }
  if (!ccw_rejects && !InSide(ccw_, node.id)) {
    auto pos = std::lower_bound(
        ccw_.begin(), ccw_.end(), ccw_dist,
        [this](const NodeHandle& h, const NodeId& d) {
          return h.id.ClockwiseDistanceTo(owner_) < d;
        });
    if (pos - ccw_.begin() < half_) {
      ccw_.insert(pos, node);
      changed = true;
    }
  }
  if (changed) {
    Trim();
    UpdateEdges();
  }
  return changed;
}

void Leafset::Trim() {
  if (static_cast<int>(cw_.size()) > half_) cw_.resize(static_cast<size_t>(half_));
  if (static_cast<int>(ccw_.size()) > half_) ccw_.resize(static_cast<size_t>(half_));
}

void Leafset::UpdateEdges() {
  cw_edge_ = cw_.empty() ? NodeId() : owner_.ClockwiseDistanceTo(cw_.back().id);
  ccw_edge_ =
      ccw_.empty() ? NodeId() : ccw_.back().id.ClockwiseDistanceTo(owner_);
}

bool Leafset::Remove(const NodeId& id) {
  auto rm = [&](std::vector<NodeHandle>& v) {
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->id == id) {
        v.erase(it);
        return true;
      }
    }
    return false;
  };
  bool in_cw = rm(cw_);
  bool in_ccw = rm(ccw_);
  if (in_cw || in_ccw) UpdateEdges();
  return in_cw || in_ccw;
}

bool Leafset::Contains(const NodeId& id) const {
  return InSide(cw_, id) || InSide(ccw_, id);
}

std::optional<NodeHandle> Leafset::CloserMemberThanOwner(
    const NodeId& key) const {
  NodeId best_dist = owner_.RingDistanceTo(key);
  std::optional<NodeHandle> best;
  auto consider = [&](const NodeHandle& h) {
    NodeId d = h.id.RingDistanceTo(key);
    if (d < best_dist) {
      best_dist = d;
      best = h;
    }
  };
  for (const auto& h : cw_) consider(h);
  for (const auto& h : ccw_) consider(h);
  return best;
}

bool Leafset::Covers(const NodeId& key) const {
  if (key == owner_) return true;
  NodeId lo = ccw_.empty() ? owner_ : ccw_.back().id;
  NodeId hi = cw_.empty() ? owner_ : cw_.back().id;
  return key.InArc(lo, hi);
}

std::optional<NodeHandle> Leafset::NearestCw() const {
  if (cw_.empty()) return std::nullopt;
  return cw_.front();
}
std::optional<NodeHandle> Leafset::NearestCcw() const {
  if (ccw_.empty()) return std::nullopt;
  return ccw_.front();
}
std::optional<NodeHandle> Leafset::FarthestCw() const {
  if (cw_.empty()) return std::nullopt;
  return cw_.back();
}
std::optional<NodeHandle> Leafset::FarthestCcw() const {
  if (ccw_.empty()) return std::nullopt;
  return ccw_.back();
}

}  // namespace seaweed::overlay
