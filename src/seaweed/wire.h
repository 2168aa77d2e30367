// Seaweed protocol messages, carried as application payloads over the
// Pastry overlay. Each message is a WireMessage: its encoder defines both
// the byte layout and (via WireBytes) the bandwidth-meter charge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "db/query_exec.h"
#include "overlay/packet.h"
#include "seaweed/completeness.h"
#include "seaweed/id_range.h"
#include "seaweed/metadata.h"
#include "seaweed/query.h"

namespace seaweed {

struct SeaweedMessage : WireMessage {
  static constexpr uint8_t kWireType = wire_type::kSeaweedMessage;

  enum class Kind : uint8_t {
    kMetadataPush,      // owner (or anti-entropy peer) -> replica holder
    kBroadcast,         // query dissemination: handle this namespace range
    kPredictorReport,   // child -> parent in the distribution tree
    kPredictorDeliver,  // tree root -> query origin
    kResultSubmit,      // leaf/vertex -> parent vertex primary
    kResultAck,         // vertex primary -> submitter
    kVertexReplicate,   // vertex primary -> backups
    kResultDeliver,     // root vertex -> query origin
    kQueryListRequest,  // rejoining node -> neighbor
    kQueryList,         // neighbor -> rejoining node
    kQueryCancel,       // epidemic cancellation notice
    kBroadcastBatch,    // several kBroadcast descriptors, one shared hop
  };

  Kind kind = Kind::kQueryListRequest;

  // kMetadataPush
  Metadata metadata;
  // Meter charge for the summary part, when it differs from the encoded
  // size (paper-calibrated summaries, delta-encoded pushes). Travels on the
  // wire so the charge survives decode.
  uint32_t metadata_wire_bytes = 0;

  // Query-scoped fields.
  NodeId query_id;
  std::vector<Query> queries;  // kBroadcast (1), kQueryList (n)

  // kBroadcast / kPredictorReport
  IdRange range;
  overlay::NodeHandle parent;  // whom to report predictors to

  // kBroadcastBatch: dissemination descriptors for distinct queries that
  // share a next hop, coalesced into one message. `parent` is encoded once
  // (all entries report predictors to the same sender); each entry is
  // otherwise a complete kBroadcast and is acked/retried independently.
  struct BatchEntry {
    NodeId query_id;
    IdRange range;
    Query query;
  };
  std::vector<BatchEntry> batch;

  // kPredictorReport / kPredictorDeliver
  CompletenessPredictor predictor;

  // kResultSubmit / kResultAck / kResultDeliver
  NodeId vertex_id;
  NodeId child_key;
  uint64_t version = 0;
  db::AggregateResult result;

  // kVertexReplicate: the vertex entries one fold pass changed, for one
  // backup. Each vertex lists either its full state or the changed children.
  // Results are shared: one result reachable from several entries (a chain
  // of single-child vertices) is encoded once and back-referenced after.
  struct ReplicaEntry {
    NodeId child;
    uint64_t version = 0;
    std::shared_ptr<const db::AggregateResult> result;  // never null

    bool operator==(const ReplicaEntry& o) const {
      return child == o.child && version == o.version &&
             *result == *o.result;
    }
  };
  struct VertexReplica {
    NodeId vertex_id;
    std::vector<ReplicaEntry> entries;

    bool operator==(const VertexReplica&) const = default;
  };
  std::vector<VertexReplica> replicas;

  uint8_t wire_type() const override { return kWireType; }

  // Meter charge: the encoded size, with the calibrated summary charge (if
  // set) substituted for the summary's encoded size on metadata pushes.
  uint32_t WireBytes() const override;

  static Result<WireMessagePtr> Decode(Reader& r);

 protected:
  void EncodeBody(Writer& w) const override;

 private:
  mutable uint32_t charged_bytes_ = 0;  // 0 = not yet computed
};

using SeaweedMessagePtr = std::shared_ptr<SeaweedMessage>;

}  // namespace seaweed
