// VertexArena: an append-only NodeId -> T table, the result plane's per-query
// vertex store.
//
// A node holding a large query's root chains holds hundreds of thousands of
// vertices, so the table's layout is the result plane's memory and much of
// its time. Entries live in chunks that double in size from 2 entries up to
// 4,096 and stay at 4,096 after that, so a table of a few vertices holds
// little more than its entries and a large one wastes at most one partly
// filled chunk.
// Entries are appended in insertion order and never move or leave one by
// one: a held T& stays valid while other entries are added, and the table is
// freed whole, a chunk at a time. Lookup goes through an open-addressing
// index of (slot, 32-bit hash) pairs with linear probing at load <= 1/2: the hash
// skips most entry reads on a collision, and growing the index re-places the
// pairs without reading an entry. Nothing is ever erased, so the index needs
// no tombstones. Iteration is insertion order, which is deterministic.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/node_id.h"

namespace seaweed {

template <typename T>
class VertexArena {
 public:
  using Slot = uint32_t;
  static constexpr Slot kNone = UINT32_MAX;

  VertexArena() = default;
  VertexArena(const VertexArena&) = delete;
  VertexArena& operator=(const VertexArena&) = delete;
  ~VertexArena() {
    for (Slot s = 0; s < size_; ++s) std::destroy_at(&EntryAt(s));
    for (size_t c = 0; c < chunks_.size(); ++c) {
      std::allocator<Entry>().deallocate(chunks_[c], ChunkCapacity(c));
    }
  }

  size_t size() const { return size_; }

  // The slot holding `id`, or kNone.
  Slot Find(const NodeId& id) const {
    if (index_.empty()) return kNone;
    const size_t mask = index_.size() - 1;
    const uint32_t h = Hash(id);
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const IndexEntry& e = index_[i];
      if (e.slot == kNone) return kNone;
      if (e.hash == h && EntryAt(e.slot).id == id) return e.slot;
    }
  }

  // The slot holding `id`, appending a default T for it when absent; the
  // bool is true when the entry was appended.
  std::pair<Slot, bool> Emplace(const NodeId& id) {
    if (const Slot found = Find(id); found != kNone) return {found, false};
    SEAWEED_CHECK_MSG(size_ < kNone, "vertex arena is full");
    if (2 * (size_ + 1) > index_.size()) Grow();
    const Slot slot = static_cast<Slot>(size_);
    const auto [chunk, offset] = Locate(slot);
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::allocator<Entry>().allocate(ChunkCapacity(chunk)));
    }
    std::construct_at(chunks_[chunk] + offset, Entry{id, T{}});
    ++size_;
    Place(index_, IndexEntry{slot, Hash(id)});
    return {slot, true};
  }

  const NodeId& id(Slot slot) const { return EntryAt(slot).id; }
  T& operator[](Slot slot) { return EntryAt(slot).value; }
  const T& operator[](Slot slot) const { return EntryAt(slot).value; }

  // Heap bytes held by the table itself: chunk capacity (whole chunks,
  // allocated or not yet filled), the chunk list and the index. What a T
  // owns on the heap is not included.
  size_t ApproxBytes() const {
    size_t chunk_slots = 0;
    for (size_t c = 0; c < chunks_.size(); ++c) chunk_slots += ChunkCapacity(c);
    return chunk_slots * sizeof(Entry) + chunks_.capacity() * sizeof(Entry*) +
           index_.capacity() * sizeof(IndexEntry);
  }

 private:
  struct Entry {
    NodeId id;
    T value;
  };
  struct IndexEntry {
    Slot slot = kNone;
    uint32_t hash = 0;
  };

  // Chunk c < kLastDoubling holds kFirstChunk << c entries, so slots
  // [0, 2) are chunk 0, [2, 6) chunk 1, [6, 14) chunk 2, and so on; every
  // later chunk holds kMaxChunk.
  static constexpr size_t kFirstChunkLog2 = 1;
  static constexpr size_t kFirstChunk = size_t{1} << kFirstChunkLog2;
  static constexpr size_t kLastDoubling = 11;
  static constexpr size_t kMaxChunk = kFirstChunk << kLastDoubling;
  // Slots held by the doubling chunks together.
  static constexpr size_t kDoublingSlots = kMaxChunk - kFirstChunk;

  static size_t ChunkCapacity(size_t chunk) {
    return kFirstChunk << std::min(chunk, kLastDoubling);
  }
  static std::pair<size_t, size_t> Locate(Slot slot) {
    if (slot >= kDoublingSlots) {
      const size_t past = slot - kDoublingSlots;
      return {kLastDoubling + past / kMaxChunk, past % kMaxChunk};
    }
    const size_t biased = size_t{slot} + kFirstChunk;
    const size_t chunk =
        static_cast<size_t>(std::bit_width(biased)) - 1 - kFirstChunkLog2;
    return {chunk, biased - (kFirstChunk << chunk)};
  }
  static uint32_t Hash(const NodeId& id) {
    // Ids are uniformly distributed: NodeIdHash's fold, mixed once more.
    uint64_t x = NodeIdHash()(id);
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<uint32_t>(x >> 32);
  }

  Entry& EntryAt(Slot slot) {
    const auto [chunk, offset] = Locate(slot);
    return chunks_[chunk][offset];
  }
  const Entry& EntryAt(Slot slot) const {
    const auto [chunk, offset] = Locate(slot);
    return chunks_[chunk][offset];
  }

  // Puts `e` in the first free position from its hash on.
  static void Place(std::vector<IndexEntry>& index, IndexEntry e) {
    const size_t mask = index.size() - 1;
    size_t i = e.hash & mask;
    while (index[i].slot != kNone) i = (i + 1) & mask;
    index[i] = e;
  }

  // Doubles the index (at least 4 positions) and re-places every pair.
  void Grow() {
    std::vector<IndexEntry> next(std::max<size_t>(4, 2 * index_.size()));
    for (const IndexEntry& e : index_) {
      if (e.slot != kNone) Place(next, e);
    }
    index_ = std::move(next);
  }

  std::vector<Entry*> chunks_;
  std::vector<IndexEntry> index_;  // a power of two, at least 2 * size_
  size_t size_ = 0;
};

// A vector for arena entries whose buffers come from a pool shared by the
// whole table: each call that may grow it names the pool, so the vector is
// 16 bytes and stores no allocator. It returns nothing to the pool; an
// outgrown buffer stays there until the pool is released, so it suits
// vectors that only grow and a pool freed whole with the table. Destruction
// ends the elements' lifetimes and leaves their storage to the pool.
template <typename T>
class PoolVector {
 public:
  PoolVector() = default;
  PoolVector(const PoolVector&) = delete;
  PoolVector& operator=(const PoolVector&) = delete;
  PoolVector(PoolVector&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        capacity_(std::exchange(o.capacity_, 0)) {}
  PoolVector& operator=(PoolVector&&) = delete;
  ~PoolVector() { std::destroy_n(data_, size_); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }

  // Inserts `value` before `pos`, doubling the capacity from `pool` when
  // full; returns the inserted element.
  T* insert(std::pmr::memory_resource* pool, T* pos, T value) {
    const size_t at = static_cast<size_t>(pos - data_);
    SEAWEED_DCHECK(at <= size_);
    if (size_ == capacity_) {
      const uint32_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
      T* next = static_cast<T*>(
          pool->allocate(capacity * sizeof(T), alignof(T)));
      std::uninitialized_move_n(data_, size_, next);
      std::destroy_n(data_, size_);
      data_ = next;
      capacity_ = capacity;
    }
    std::construct_at(data_ + size_, std::move(value));
    ++size_;
    std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
    return data_ + at;
  }
  void push_back(std::pmr::memory_resource* pool, T value) {
    insert(pool, end(), std::move(value));
  }

 private:
  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
};

}  // namespace seaweed
