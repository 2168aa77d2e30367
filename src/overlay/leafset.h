// Pastry leafset: the l/2 numerically closest nodes on each side of the
// ring. The leafset is the backbone of Seaweed's correctness: metadata
// replica sets are the k closest leafset members, and the dissemination
// protocol uses leafset coverage to decide range responsibility.
#pragma once

#include <optional>
#include <vector>

#include "common/node_id.h"
#include "overlay/packet.h"

namespace seaweed::overlay {

class Leafset {
 public:
  // `l` is the total leafset size (l/2 per side), typically 8.
  Leafset(const NodeId& owner, int l) : owner_(owner), half_(l / 2) {}

  const NodeId& owner() const { return owner_; }
  int half_size() const { return half_; }

  // Members clockwise of the owner, nearest first (up to l/2).
  const std::vector<NodeHandle>& cw() const { return cw_; }
  // Members counter-clockwise of the owner, nearest first (up to l/2).
  const std::vector<NodeHandle>& ccw() const { return ccw_; }

  // All members, no particular order guarantees beyond side grouping.
  std::vector<NodeHandle> All() const;
  // Calls fn(member) for each member once, in All()'s order, without
  // allocating. `fn` must not change this leafset.
  template <typename Fn>
  void ForEachMember(Fn fn) const {
    for (const NodeHandle& h : cw_) fn(h);
    for (const NodeHandle& h : ccw_) {
      if (!InSide(cw_, h.id)) fn(h);
    }
  }

  size_t size() const { return cw_.size() + ccw_.size(); }
  bool empty() const { return cw_.empty() && ccw_.empty(); }

  // Inserts a node (no-op for the owner itself or existing members).
  // Returns true if the leafset changed. A full side rejects a node no
  // closer than its edge member without reading the side.
  bool Insert(const NodeHandle& node);

  // Removes a node by id. Returns true if present.
  bool Remove(const NodeId& id);

  bool Contains(const NodeId& id) const;

  // The member numerically closest to `key`, including the owner. Returns
  // nullopt for the owner (caller delivers locally) encoded as a handle
  // whose id equals owner; callers compare ids.
  // Closest member to key among {owner} ∪ members; owner wins ties.
  // Returns the member handle or nullopt if the owner is closest.
  std::optional<NodeHandle> CloserMemberThanOwner(const NodeId& key) const;

  // True if `key` lies within the leafset's span: the arc from the farthest
  // ccw member to the farthest cw member (through the owner). An empty
  // leafset spans only the owner.
  bool Covers(const NodeId& key) const;

  // Immediate live neighbors (nearest member each side), if any.
  std::optional<NodeHandle> NearestCw() const;
  std::optional<NodeHandle> NearestCcw() const;
  // Farthest members (edge of coverage).
  std::optional<NodeHandle> FarthestCw() const;
  std::optional<NodeHandle> FarthestCcw() const;

  // Heap bytes held by the member vectors.
  size_t ApproxBytes() const {
    return (cw_.capacity() + ccw_.capacity()) * sizeof(NodeHandle);
  }

 private:
  static bool InSide(const std::vector<NodeHandle>& side, const NodeId& id) {
    for (const NodeHandle& h : side) {
      if (h.id == id) return true;
    }
    return false;
  }
  void Trim();
  // Recomputes the cached edge distances after a side changed.
  void UpdateEdges();

  NodeId owner_;
  int half_;
  // Sorted by clockwise distance from owner (nearest first).
  std::vector<NodeHandle> cw_;
  // Sorted by counter-clockwise distance from owner (nearest first).
  std::vector<NodeHandle> ccw_;
  // Distance from the owner to each side's farthest member (0 when the
  // side is empty): a full side admits only nodes strictly closer.
  NodeId cw_edge_;
  NodeId ccw_edge_;
};

}  // namespace seaweed::overlay
