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

MetadataRecord MetadataRecord::Make(const Metadata& metadata) {
  Writer w;
  metadata.Encode(w);
  return MetadataRecord{
      metadata.owner, metadata.version,
      std::make_shared<const std::vector<uint8_t>>(w.bytes()),
      static_cast<uint32_t>(metadata.summary.EncodedBytes())};
}

Result<MetadataRecord> MetadataRecord::Decode(Reader& r) {
  const uint8_t* start = r.cursor();
  SEAWEED_ASSIGN_OR_RETURN(Metadata m, Metadata::Decode(r));
  return MetadataRecord{
      m.owner, m.version,
      std::make_shared<const std::vector<uint8_t>>(start, r.cursor()),
      static_cast<uint32_t>(m.summary.EncodedBytes())};
}

Metadata MetadataRecord::Decoded() const {
  Reader r(*bytes);
  Result<Metadata> decoded = Metadata::Decode(r);
  SEAWEED_CHECK_MSG(decoded.ok(), "metadata record decode failed: " +
                                      decoded.status().ToString());
  return std::move(decoded).value();
}

void RecordCensus::Add(const MetadataRecord& record) {
  Count& c = counts_[Key{record.owner, record.version}];
  if (c.refs++ == 0) {
    c.bytes = sizeof(*record.bytes) + record.bytes->capacity();
    buffer_bytes_ += c.bytes;
  }
}

void RecordCensus::Remove(const MetadataRecord& record) {
  auto it = counts_.find(Key{record.owner, record.version});
  SEAWEED_CHECK_MSG(it != counts_.end(), "census lost a metadata record");
  if (--it->second.refs > 0) return;
  buffer_bytes_ -= it->second.bytes;
  counts_.erase(it);
}

void MetadataStore::AttachCensus(RecordCensus* census) {
  SEAWEED_CHECK_MSG(records_.empty(), "census attached to a filled store");
  census_ = census;
}

void MetadataStore::Clear() {
  if (census_ != nullptr) {
    for (const auto& [owner, rec] : records_) census_->Remove(rec);
  }
  records_.Clear();
}

bool MetadataStore::Upsert(const MetadataRecord& record) {
  Record* rec = records_.Find(record.owner);
  if (rec == nullptr) {
    records_.Put(record.owner, Record{record, /*down_since=*/-1,
                                      /*acquired_at=*/now_});
    if (census_ != nullptr) census_->Add(record);
    return true;
  }
  if (record.version < rec->version) return false;
  if (census_ != nullptr && record.version != rec->version) {
    census_->Remove(*rec);
    census_->Add(record);
  }
  static_cast<MetadataRecord&>(*rec) = record;
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

MetadataStore::CountedRecords::CountedRecords(size_t capacity) {
  size_t n = 16;
  while (n < 2 * capacity) n *= 2;
  slots_.resize(n);
}

bool MetadataStore::CountedRecords::Insert(const NodeId& owner,
                                           uint64_t version) {
  SEAWEED_CHECK_MSG(size_ < slots_.size() / 2, "CountedRecords is full");
  const size_t mask = slots_.size() - 1;
  size_t i = (NodeIdHash()(owner) ^ (version * 0x9e3779b97f4a7c15ULL)) & mask;
  for (;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (!slot.used) {
      slot = Slot{owner, version, true};
      ++size_;
      return true;
    }
    if (slot.owner == owner && slot.version == version) return false;
  }
}

size_t MetadataStore::ApproxBytes(CountedRecords* counted) const {
  size_t total = records_.ApproxBytes();
  for (const auto& [owner, rec] : records_) {
    if (counted->Insert(owner, rec.version)) {
      total += sizeof(*rec.bytes) + rec.bytes->capacity();
    }
  }
  return total;
}

}  // namespace seaweed
