// Pastry routing table: rows indexed by common-prefix length, columns by the
// next digit (base 2^b). Entry (r, c) is some node whose id shares the first
// r digits with the owner and has digit c at position r.
//
// Storage is a flat vector of (slot index, handle) pairs sorted by slot, not
// a dense rows*cols grid: a populated table holds O(log N * 2^b) entries out
// of 512 slots (b=4), so the dense grid of optional<NodeHandle> wastes ~16KB
// per node — 16GB at a million endsystems. The sorted vector costs ~24 bytes
// per populated entry; lookups are binary searches over a few cache lines.
// A bitmap of occupied slots (one bit per slot: 512 bits at b = 4, 4,096 at
// b = 8) answers "is this slot empty?" before any search, so the common
// learn-path Insert of a node whose slot is already taken costs no search.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/node_id.h"
#include "common/rng.h"
#include "overlay/packet.h"

namespace seaweed::overlay {

class RoutingTable {
 public:
  RoutingTable(const NodeId& owner, int b);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // Entry at (row, col); nullopt when empty.
  std::optional<NodeHandle> At(int row, int col) const;

  // Inserts a node into its canonical slot if the slot is empty (Pastry
  // keeps the first/nearest candidate; we keep the first). Owner and
  // duplicate ids are ignored. Returns true if the table changed.
  bool Insert(const NodeHandle& node);

  // Removes a node wherever it appears. Returns true if present.
  bool Remove(const NodeId& id);

  // The routing-table next hop for `key`: the entry at
  // (CommonPrefixLength(owner, key), key.Digit(thatRow)).
  std::optional<NodeHandle> NextHop(const NodeId& key) const;

  // Any entry whose id shares a strictly longer prefix with `key` than the
  // owner does, or shares the same prefix but is numerically closer ("rare
  // case" rule of the Pastry paper).
  std::optional<NodeHandle> CloserEntry(const NodeId& key) const;

  // All populated entries.
  std::vector<NodeHandle> AllEntries() const;

  // All entries whose id lies on the clockwise arc [lo, hi] — used by the
  // Seaweed broadcast to find a contact inside a subrange in O(1) hops.
  std::vector<NodeHandle> EntriesInArc(const NodeId& lo,
                                       const NodeId& hi) const;

  // A uniformly random populated entry (for periodic liveness probing).
  std::optional<NodeHandle> RandomEntry(Rng& rng) const;

  // Contents of one row (for the join protocol).
  std::vector<NodeHandle> Row(int row) const;

  size_t num_entries() const { return entries_.size(); }

  // Heap bytes held by the table (entries and occupancy bitmap).
  size_t ApproxBytes() const;

 private:
  struct Entry {
    uint16_t slot;  // row * cols + col; sort key
    NodeHandle node;
  };

  uint16_t SlotOf(int row, int col) const {
    return static_cast<uint16_t>(row * cols_ + col);
  }
  // First entry with entry.slot >= slot.
  std::vector<Entry>::const_iterator LowerBound(uint16_t slot) const;
  bool Occupied(uint16_t slot) const {
    return (occupied_[slot >> 6] >> (slot & 63)) & 1;
  }
  void SetOccupied(uint16_t slot, bool on) {
    const uint64_t bit = uint64_t{1} << (slot & 63);
    occupied_[slot >> 6] = on ? occupied_[slot >> 6] | bit
                              : occupied_[slot >> 6] & ~bit;
  }

  NodeId owner_;
  int b_;
  int rows_;
  int cols_;
  std::vector<Entry> entries_;  // sorted by slot; only populated slots
  std::vector<uint64_t> occupied_;  // bit per slot: set iff in entries_
};

}  // namespace seaweed::overlay
