// Replicated per-endsystem metadata (§3.2): the data summary plus the
// availability model, and the store each endsystem keeps for the owners it
// replicates.
#pragma once

#include <vector>

#include "common/flat_map.h"
#include "common/node_id.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/query_exec.h"
#include "seaweed/availability_model.h"
#include "seaweed/id_range.h"

namespace seaweed {

struct Metadata {
  NodeId owner;
  uint64_t version = 0;
  db::DatabaseSummary summary;
  AvailabilityModel availability;
  // Selective replication (§3.2.2): per-view aggregate results computed by
  // the owner and replicated with the metadata. View queries are answered
  // entirely from these replicas — low latency and full coverage of every
  // endsystem ever seen, at the price of push-period staleness.
  std::vector<std::pair<std::string, db::AggregateResult>> views;

  const db::AggregateResult* FindView(const std::string& name) const {
    for (const auto& [n, r] : views) {
      if (n == name) return &r;
    }
    return nullptr;
  }

  // Wire form: owner + version + summary + availability + views.
  void Encode(Writer& w) const;
  static Result<Metadata> Decode(Reader& r);

  // Serialized size (h + a of Table 1 plus replicated view values),
  // derived from the encoder.
  size_t EncodedBytes() const {
    Writer w;
    Encode(w);
    return w.size();
  }
};

// Store of metadata replicas held by one endsystem, with the observed
// down-time bookkeeping (§3.2.1: "When a member y of the replica set notices
// that an endsystem x is unavailable, it records the time at which this
// occurred").
//
// Records are held encoded-at-rest: the metadata lives as its wire bytes
// (flat storage, one allocation) and is decoded on demand. A decoded
// Metadata costs hundreds of heap bytes across the summary/model/view
// containers; times ~8 replicas times a million endsystems that is tens of
// GB, while the encoded form is a few hundred contiguous bytes. The fields
// the store's own bookkeeping needs (owner, version) are cached unencoded.
class MetadataStore {
 public:
  struct Record {
    NodeId owner;
    uint64_t version = 0;
    // Wire-form Metadata (Metadata::Encode).
    std::vector<uint8_t> encoded;
    // -1 while the owner is believed up; otherwise the time this replica
    // noticed the owner go down.
    SimTime down_since = -1;
    // When this replica first acquired the record (fallback down-time for
    // owners learned via anti-entropy that we never saw alive).
    SimTime acquired_at = 0;

    // Decodes the stored metadata (CHECK-fails on corruption: the bytes
    // came from our own encoder).
    Metadata Decoded() const;
  };

  // Sets the clock used to stamp acquired_at on insert.
  void SetNow(SimTime now) { now_ = now; }

  // Inserts or updates; keeps the freshest version. A push from the owner
  // also implies the owner is up. Returns true if the store changed.
  bool Upsert(const Metadata& metadata);

  // Marks an owner as down (no-op if we hold no replica for it).
  void MarkDown(const NodeId& owner, SimTime now);
  // Marks an owner as up again.
  void MarkUp(const NodeId& owner);

  const Record* Find(const NodeId& owner) const;

  // Records whose owner id lies in `range`. With `only_down`, restricts to
  // owners currently believed down.
  std::vector<const Record*> InRange(const IdRange& range,
                                     bool only_down) const;

  // All records (anti-entropy on neighbor join).
  std::vector<const Record*> All() const;

  // Drops records whose owner is farther than the given predicate allows.
  // `keep` is called with each owner id and its record; false means evict.
  template <typename KeepFn>
  size_t EvictIf(KeepFn keep) {
    return records_.EraseIf(
        [&](const NodeId& owner, const Record& rec) { return !keep(owner, rec); });
  }

  size_t size() const { return records_.size(); }
  void Clear() { records_.Clear(); }

  // Heap bytes held by the store (record table plus encoded payloads).
  size_t ApproxBytes() const;

 private:
  FlatMap<NodeId, Record> records_;
  SimTime now_ = 0;
};

}  // namespace seaweed
