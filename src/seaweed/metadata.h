// Replicated per-endsystem metadata (§3.2): the data summary plus the
// availability model, and the store each endsystem keeps for the owners it
// replicates.
#pragma once

#include <memory>
#include <unordered_map>
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
  // counted from the encoder.
  size_t EncodedBytes() const { return CountedBytes(*this); }
};

// One owner's metadata at one version, encoded once. The owner builds it
// when the version bumps; every push of that version, every anti-entropy
// forward and every replica's store share the one immutable buffer, so a
// record is neither re-encoded nor copied on its way.
struct MetadataRecord {
  NodeId owner;
  uint64_t version = 0;
  // Wire-form Metadata (Metadata::Encode); never null in a built record.
  std::shared_ptr<const std::vector<uint8_t>> bytes;
  // Encoded length of the summary inside `bytes` (the part a calibrated
  // push charge replaces).
  uint32_t summary_bytes = 0;

  // Encodes `metadata` once.
  static MetadataRecord Make(const Metadata& metadata);
  // Validates one encoded Metadata through Metadata::Decode and keeps the
  // bytes it consumed as the record.
  static Result<MetadataRecord> Decode(Reader& r);

  // Decodes the bytes (CHECK-fails on corruption: they passed
  // Metadata::Decode or came from our own encoder).
  Metadata Decoded() const;
};

// The record buffers held by a set of stores (one process's, or one
// simulated cluster's): a reference count per (owner, version), kept as the
// stores add, replace and drop records, and the heap bytes of one buffer per
// counted version. One version has one record, whose buffer every replica in
// the process shares, so this is what the stores' buffers cost. Keyed on the
// version, not the buffer, the sum does not depend on whether a transport
// decoded each replica a copy.
class RecordCensus {
 public:
  void Add(const MetadataRecord& record);
  void Remove(const MetadataRecord& record);
  // Distinct (owner, version) pairs held, and their buffers' heap bytes.
  size_t versions() const { return counts_.size(); }
  size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  struct Key {
    NodeId owner;
    uint64_t version;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return NodeIdHash()(k.owner) ^ (k.version * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Count {
    uint32_t refs = 0;
    size_t bytes = 0;  // of the buffer the first reference brought
  };
  std::unordered_map<Key, Count, KeyHash> counts_;
  size_t buffer_bytes_ = 0;
};

// Store of metadata replicas held by one endsystem, with the observed
// down-time bookkeeping (§3.2.1: "When a member y of the replica set notices
// that an endsystem x is unavailable, it records the time at which this
// occurred").
//
// Records are held encoded-at-rest: the metadata lives as its wire bytes
// (a MetadataRecord's shared buffer) and is decoded on demand. A decoded
// Metadata costs hundreds of heap bytes across the summary/model/view
// containers; times ~8 replicas times a million endsystems that is tens of
// GB, while the encoded form is a few hundred contiguous bytes, held once
// per (owner, version) in a simulation however many replicas store it.
class MetadataStore {
 public:
  struct Record : MetadataRecord {
    // -1 while the owner is believed up; otherwise the time this replica
    // noticed the owner go down.
    SimTime down_since = -1;
    // When this replica first acquired the record (fallback down-time for
    // owners learned via anti-entropy that we never saw alive).
    SimTime acquired_at = 0;
  };

  MetadataStore() = default;
  // A store reports to its census until destroyed, so it is not copied.
  MetadataStore(const MetadataStore&) = delete;
  MetadataStore& operator=(const MetadataStore&) = delete;
  ~MetadataStore() { Clear(); }

  // Reports every record this store adds, replaces or drops to `census`,
  // which must outlive the store. Call while the store is empty.
  void AttachCensus(RecordCensus* census);

  // Sets the clock used to stamp acquired_at on insert.
  void SetNow(SimTime now) { now_ = now; }

  // Inserts or updates; keeps the freshest version. A push from the owner
  // also implies the owner is up. Returns true if the store changed. The
  // store shares `record`'s buffer; nothing is encoded.
  bool Upsert(const MetadataRecord& record);

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
    return records_.EraseIf([&](const NodeId& owner, const Record& rec) {
      if (keep(owner, rec)) return false;
      if (census_ != nullptr) census_->Remove(rec);
      return true;
    });
  }

  size_t size() const { return records_.size(); }
  void Clear();

  // Heap bytes of the record table alone (the buffers are the census's).
  size_t TableBytes() const { return records_.ApproxBytes(); }

  // The (owner, version) of each record buffer counted so far: a flat
  // open-addressing table, since a cluster-wide count visits every record
  // of every store (tens of thousands) each time gauges are published.
  class CountedRecords {
   public:
    // Holds up to `capacity` keys.
    explicit CountedRecords(size_t capacity);
    // True when the key was not yet in the set.
    bool Insert(const NodeId& owner, uint64_t version);
    size_t size() const { return size_; }

   private:
    struct Slot {
      NodeId owner;
      uint64_t version = 0;
      bool used = false;
    };
    std::vector<Slot> slots_;  // a power of two, at least twice `capacity`
    size_t size_ = 0;
  };

  // Heap bytes held by the store: its record table, plus the buffer of
  // each record whose (owner, version) is not yet in `counted` (which
  // collects them), so stores that pass the same set count a version once:
  // a full walk giving what TableBytes() plus a RecordCensus keep as they
  // go.
  size_t ApproxBytes(CountedRecords* counted) const;

 private:
  FlatMap<NodeId, Record> records_;
  RecordCensus* census_ = nullptr;
  SimTime now_ = 0;
};

}  // namespace seaweed
