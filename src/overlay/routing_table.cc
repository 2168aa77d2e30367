#include "overlay/routing_table.h"

#include <algorithm>

namespace seaweed::overlay {

RoutingTable::RoutingTable(const NodeId& owner, int b)
    : owner_(owner),
      b_(b),
      rows_(kIdBits / b),
      cols_(1 << b),
      occupied_((static_cast<size_t>(rows_ * cols_) + 63) / 64) {}

std::vector<RoutingTable::Entry>::const_iterator RoutingTable::LowerBound(
    uint16_t slot) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), slot,
      [](const Entry& e, uint16_t s) { return e.slot < s; });
}

std::optional<NodeHandle> RoutingTable::At(int row, int col) const {
  uint16_t slot = SlotOf(row, col);
  if (!Occupied(slot)) return std::nullopt;
  return LowerBound(slot)->node;
}

bool RoutingTable::Insert(const NodeHandle& node) {
  if (node.id == owner_) return false;
  int row = owner_.CommonPrefixLength(node.id, b_);
  if (row >= rows_) return false;  // same id (already excluded)
  int col = node.id.Digit(row, b_);
  uint16_t slot = SlotOf(row, col);
  if (Occupied(slot)) return false;  // keep existing entry
  entries_.insert(LowerBound(slot), Entry{slot, node});
  SetOccupied(slot, true);
  return true;
}

bool RoutingTable::Remove(const NodeId& id) {
  int row = owner_.CommonPrefixLength(id, b_);
  if (row >= rows_) return false;
  int col = id.Digit(row, b_);
  uint16_t slot = SlotOf(row, col);
  if (!Occupied(slot)) return false;
  auto it = LowerBound(slot);
  if (it->node.id != id) return false;
  entries_.erase(it);
  SetOccupied(slot, false);
  return true;
}

std::optional<NodeHandle> RoutingTable::NextHop(const NodeId& key) const {
  int row = owner_.CommonPrefixLength(key, b_);
  if (row >= rows_) return std::nullopt;  // key == owner
  int col = key.Digit(row, b_);
  return At(row, col);
}

std::optional<NodeHandle> RoutingTable::CloserEntry(const NodeId& key) const {
  int own_prefix = owner_.CommonPrefixLength(key, b_);
  NodeId own_dist = owner_.RingDistanceTo(key);
  // Entries are sorted by slot = row * cols + col, so rows >= own_prefix
  // (the only rows that can hold a prefix at least as long as the owner's)
  // form a suffix of the vector.
  for (auto it = LowerBound(SlotOf(own_prefix, 0)); it != entries_.end();
       ++it) {
    int p = it->node.id.CommonPrefixLength(key, b_);
    if (p < own_prefix) continue;
    if (it->node.id.RingDistanceTo(key) < own_dist) return it->node;
  }
  return std::nullopt;
}

std::vector<NodeHandle> RoutingTable::AllEntries() const {
  std::vector<NodeHandle> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.node);
  return out;
}

std::vector<NodeHandle> RoutingTable::EntriesInArc(const NodeId& lo,
                                                   const NodeId& hi) const {
  std::vector<NodeHandle> out;
  for (const Entry& e : entries_) {
    if (e.node.id.InArc(lo, hi)) out.push_back(e.node);
  }
  return out;
}

std::optional<NodeHandle> RoutingTable::RandomEntry(Rng& rng) const {
  if (entries_.empty()) return std::nullopt;
  return entries_[rng.NextBelow(entries_.size())].node;
}

std::vector<NodeHandle> RoutingTable::Row(int row) const {
  std::vector<NodeHandle> out;
  uint16_t first = SlotOf(row, 0);
  for (auto it = LowerBound(first);
       it != entries_.end() && it->slot < first + cols_; ++it) {
    out.push_back(it->node);
  }
  return out;
}

size_t RoutingTable::ApproxBytes() const {
  return entries_.capacity() * sizeof(Entry) +
         occupied_.capacity() * sizeof(uint64_t);
}

}  // namespace seaweed::overlay
