#include "seaweed/metadata.h"

#include "common/logging.h"

namespace seaweed {

void Metadata::Encode(Writer& w) const {
  w.PutNodeId(owner);
  w.PutU64(version);
  summary.Encode(w);
  availability.Encode(w);
  w.PutVarint(views.size());
  for (const auto& [name, result] : views) {
    w.PutString(name);
    result.Encode(w);
  }
}

Result<Metadata> Metadata::Decode(Reader& r) {
  Metadata m;
  SEAWEED_ASSIGN_OR_RETURN(m.owner, r.GetNodeId());
  SEAWEED_ASSIGN_OR_RETURN(m.version, r.GetU64());
  SEAWEED_ASSIGN_OR_RETURN(m.summary, db::DatabaseSummary::Decode(r));
  SEAWEED_ASSIGN_OR_RETURN(m.availability, AvailabilityModel::Decode(r));
  SEAWEED_ASSIGN_OR_RETURN(uint64_t nviews, r.GetVarint());
  if (nviews > r.remaining()) {
    return Status::ParseError("metadata view count exceeds buffer");
  }
  m.views.reserve(static_cast<size_t>(nviews));
  for (uint64_t i = 0; i < nviews; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(std::string name, r.GetString());
    SEAWEED_ASSIGN_OR_RETURN(db::AggregateResult result,
                             db::AggregateResult::Decode(r));
    m.views.emplace_back(std::move(name), std::move(result));
  }
  return m;
}

Metadata MetadataStore::Record::Decoded() const {
  Reader r(encoded);
  Result<Metadata> decoded = Metadata::Decode(r);
  SEAWEED_CHECK_MSG(decoded.ok(), "metadata record decode failed: " +
                                      decoded.status().ToString());
  return std::move(decoded).value();
}

bool MetadataStore::Upsert(const Metadata& metadata) {
  Record* rec = records_.Find(metadata.owner);
  if (rec == nullptr) {
    Writer w;
    metadata.Encode(w);
    records_.Put(metadata.owner,
                 Record{metadata.owner, metadata.version, w.bytes(),
                        /*down_since=*/-1, /*acquired_at=*/now_});
    return true;
  }
  if (metadata.version < rec->version) return false;
  Writer w;
  metadata.Encode(w);
  rec->version = metadata.version;
  rec->encoded = w.bytes();
  rec->down_since = -1;  // a push implies the owner is alive
  return true;
}

void MetadataStore::MarkDown(const NodeId& owner, SimTime now) {
  Record* rec = records_.Find(owner);
  if (rec == nullptr) return;
  if (rec->down_since < 0) rec->down_since = now;
}

void MetadataStore::MarkUp(const NodeId& owner) {
  Record* rec = records_.Find(owner);
  if (rec == nullptr) return;
  rec->down_since = -1;
}

const MetadataStore::Record* MetadataStore::Find(const NodeId& owner) const {
  return records_.Find(owner);
}

std::vector<const MetadataStore::Record*> MetadataStore::InRange(
    const IdRange& range, bool only_down) const {
  std::vector<const Record*> out;
  for (const auto& [owner, rec] : records_) {
    if (!range.Contains(owner)) continue;
    if (only_down && rec.down_since < 0) continue;
    out.push_back(&rec);
  }
  return out;
}

std::vector<const MetadataStore::Record*> MetadataStore::All() const {
  std::vector<const Record*> out;
  out.reserve(records_.size());
  for (const auto& [owner, rec] : records_) out.push_back(&rec);
  return out;
}

size_t MetadataStore::ApproxBytes() const {
  size_t total = records_.ApproxBytes();
  for (const auto& [owner, rec] : records_) total += rec.encoded.capacity();
  return total;
}

}  // namespace seaweed
