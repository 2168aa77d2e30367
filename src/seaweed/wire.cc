#include "seaweed/wire.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace seaweed {

namespace {

[[maybe_unused]] const bool kSeaweedMessageRegistered = [] {
  RegisterWireDecoder(SeaweedMessage::kWireType, &SeaweedMessage::Decode);
  return true;
}();

}  // namespace

void SeaweedMessage::EncodeBody(Writer& w) const {
  w.PutU8(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kMetadataPush:
      metadata.Encode(w);
      w.PutVarint(metadata_wire_bytes);
      break;
    case Kind::kBroadcast:
      w.PutNodeId(query_id);
      range.Encode(w);
      overlay::EncodeNodeHandle(w, parent);
      w.PutVarint(queries.size());
      for (const Query& q : queries) q.Encode(w);
      break;
    case Kind::kPredictorReport: {
      w.PutNodeId(query_id);
      range.Encode(w);
      predictor.Encode(w);
      // View-snapshot runs carry an aggregate instead of (empty) predictor
      // mass; it rides along only when present.
      bool has_result = !result.states.empty() || !result.groups.empty();
      w.PutBool(has_result);
      if (has_result) result.Encode(w);
      break;
    }
    case Kind::kResultSubmit:
    case Kind::kResultDeliver:
      w.PutNodeId(query_id);
      w.PutNodeId(vertex_id);
      w.PutNodeId(child_key);
      w.PutU64(version);
      result.Encode(w);
      break;
    case Kind::kResultAck:
      w.PutNodeId(query_id);
      w.PutNodeId(vertex_id);
      w.PutNodeId(child_key);
      w.PutU64(version);
      break;
    case Kind::kVertexReplicate: {
      // Result reference per entry: 0 = the result follows inline, k > 0 =
      // the k-th result inlined earlier in this message. References key on
      // a result's bytes, so the layout depends only on the values (a
      // sender's entries may or may not share pointers: a decoded message
      // never aliases another's). A result is inlined, and taken back for a
      // reference when equal bytes were inlined before; `by_ptr` skips
      // encoding a pointer seen before.
      using Span = std::pair<size_t, size_t>;  // (offset, length) in `w`
      auto view = [&w](const Span& s) {
        return std::string_view(
            reinterpret_cast<const char*>(w.bytes().data()) + s.first,
            s.second);
      };
      auto hash = [&view](const Span& s) {
        return std::hash<std::string_view>()(view(s));
      };
      auto equal = [&view](const Span& a, const Span& b) {
        return view(a) == view(b);
      };
      std::unordered_map<Span, uint64_t, decltype(hash), decltype(equal)>
          by_bytes(0, hash, equal);
      std::unordered_map<const db::AggregateResult*, uint64_t> by_ptr;
      w.PutNodeId(query_id);
      w.PutVarint(replicas.size());
      for (const VertexReplica& v : replicas) {
        w.PutNodeId(v.vertex_id);
        w.PutVarint(v.entries.size());
        for (const ReplicaEntry& e : v.entries) {
          w.PutNodeId(e.child);
          w.PutVarint(e.version);
          auto [ptr, fresh_ptr] = by_ptr.emplace(e.result.get(), 0);
          if (!fresh_ptr) {
            w.PutVarint(ptr->second);
            continue;
          }
          const size_t ref_at = w.size();
          w.PutVarint(0);
          e.result->Encode(w);
          auto [ref, fresh] = by_bytes.emplace(
              Span{ref_at + 1, w.size() - ref_at - 1}, by_bytes.size() + 1);
          ptr->second = ref->second;
          if (!fresh) {
            w.Truncate(ref_at);
            w.PutVarint(ref->second);
          }
        }
      }
      break;
    }
    case Kind::kQueryListRequest:
      break;
    case Kind::kQueryList:
      w.PutVarint(queries.size());
      for (const Query& q : queries) q.Encode(w);
      break;
    case Kind::kQueryCancel:
      w.PutNodeId(query_id);
      break;
  }
}

Result<WireMessagePtr> SeaweedMessage::Decode(Reader& r) {
  auto msg = std::make_shared<SeaweedMessage>();
  SEAWEED_ASSIGN_OR_RETURN(uint8_t kind_raw, r.GetU8());
  // Tag 3 is retired (see Kind).
  if (kind_raw == 3 ||
      kind_raw > static_cast<uint8_t>(Kind::kQueryCancel)) {
    return Status::ParseError("bad seaweed message kind " +
                              std::to_string(kind_raw));
  }
  msg->kind = static_cast<Kind>(kind_raw);
  switch (msg->kind) {
    case Kind::kMetadataPush: {
      SEAWEED_ASSIGN_OR_RETURN(msg->metadata, Metadata::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(uint64_t mwb, r.GetVarint());
      if (mwb > UINT32_MAX) {
        return Status::ParseError("metadata wire bytes overflow uint32");
      }
      msg->metadata_wire_bytes = static_cast<uint32_t>(mwb);
      break;
    }
    case Kind::kBroadcast: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->range, IdRange::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(msg->parent, overlay::DecodeNodeHandle(r));
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining()) {
        return Status::ParseError("broadcast query count exceeds buffer");
      }
      msg->queries.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        SEAWEED_ASSIGN_OR_RETURN(Query q, Query::Decode(r));
        msg->queries.push_back(std::move(q));
      }
      break;
    }
    case Kind::kPredictorReport: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->range, IdRange::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(msg->predictor,
                               CompletenessPredictor::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(bool has_result, r.GetBool());
      if (has_result) {
        SEAWEED_ASSIGN_OR_RETURN(msg->result,
                                 db::AggregateResult::Decode(r));
      }
      break;
    }
    case Kind::kResultSubmit:
    case Kind::kResultDeliver: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->vertex_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->child_key, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->version, r.GetU64());
      SEAWEED_ASSIGN_OR_RETURN(msg->result,
                               db::AggregateResult::Decode(r));
      break;
    }
    case Kind::kResultAck: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->vertex_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->child_key, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->version, r.GetU64());
      break;
    }
    case Kind::kVertexReplicate: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(uint64_t nv, r.GetVarint());
      // Vertices are ≥17 wire bytes each (vertex id + entry count).
      if (nv > r.remaining() / 17) {
        return Status::ParseError("vertex replica count exceeds buffer");
      }
      std::vector<std::shared_ptr<const db::AggregateResult>> sent;
      msg->replicas.resize(static_cast<size_t>(nv));
      for (VertexReplica& v : msg->replicas) {
        SEAWEED_ASSIGN_OR_RETURN(v.vertex_id, r.GetNodeId());
        SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
        // Entries are ≥18 wire bytes each (child id + version + reference).
        if (n > r.remaining() / 18) {
          return Status::ParseError("vertex state count exceeds buffer");
        }
        v.entries.resize(static_cast<size_t>(n));
        for (ReplicaEntry& e : v.entries) {
          SEAWEED_ASSIGN_OR_RETURN(e.child, r.GetNodeId());
          SEAWEED_ASSIGN_OR_RETURN(e.version, r.GetVarint());
          SEAWEED_ASSIGN_OR_RETURN(uint64_t ref, r.GetVarint());
          if (ref > sent.size()) {
            return Status::ParseError("result back-reference not yet sent");
          }
          if (ref == 0) {
            SEAWEED_ASSIGN_OR_RETURN(db::AggregateResult res,
                                     db::AggregateResult::Decode(r));
            sent.push_back(
                std::make_shared<const db::AggregateResult>(std::move(res)));
            e.result = sent.back();
          } else {
            e.result = sent[static_cast<size_t>(ref - 1)];
          }
        }
      }
      break;
    }
    case Kind::kQueryListRequest:
      break;
    case Kind::kQueryList: {
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining()) {
        return Status::ParseError("query list count exceeds buffer");
      }
      msg->queries.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        SEAWEED_ASSIGN_OR_RETURN(Query q, Query::Decode(r));
        msg->queries.push_back(std::move(q));
      }
      break;
    }
    case Kind::kQueryCancel: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      break;
    }
  }
  return WireMessagePtr(std::move(msg));
}

uint32_t SeaweedMessage::WireBytes() const {
  if (charged_bytes_ == 0) {
    uint32_t n = EncodedBytes();
    if (kind == Kind::kMetadataPush && metadata_wire_bytes != 0) {
      // Charge the calibrated / delta-encoded summary size instead of the
      // encoded one; the summary is encoded inside `n`, so no underflow.
      n = n - static_cast<uint32_t>(metadata.summary.EncodedBytes()) +
          metadata_wire_bytes;
    }
    charged_bytes_ = n;
  }
  return charged_bytes_;
}

}  // namespace seaweed
