#include "seaweed/data_provider.h"

#include "common/logging.h"

namespace seaweed {

AnemoneDataProvider::AnemoneDataProvider(const anemone::AnemoneConfig& config,
                                         int num_endsystems, bool keep_tables,
                                         uint32_t wire_bytes_override)
    : config_(config),
      keep_tables_(keep_tables),
      wire_bytes_override_(wire_bytes_override),
      tables_(static_cast<size_t>(num_endsystems)),
      summaries_(static_cast<size_t>(num_endsystems)) {}

db::Database* AnemoneDataProvider::GetOrBuild(
    int endsystem, std::unique_ptr<db::Database>* tmp) {
  if (keep_tables_) {
    auto& slot = tables_[static_cast<size_t>(endsystem)];
    if (!slot) {
      slot = std::make_unique<db::Database>();
      anemone::GenerateEndsystemData(config_, endsystem, slot.get());
    }
    return slot.get();
  }
  *tmp = std::make_unique<db::Database>();
  anemone::GenerateEndsystemData(config_, endsystem, tmp->get());
  return tmp->get();
}

const db::DatabaseSummary& AnemoneDataProvider::Summary(int endsystem) {
  auto& slot = summaries_[static_cast<size_t>(endsystem)];
  if (!slot.has_value()) {
    std::unique_ptr<db::Database> tmp;
    db::Database* database = GetOrBuild(endsystem, &tmp);
    slot = database->BuildSummary();
  }
  return *slot;
}

Result<db::AggregateResult> AnemoneDataProvider::Execute(
    int endsystem, const db::SelectQuery& query) {
  std::unique_ptr<db::Database> tmp;
  db::Database* database = GetOrBuild(endsystem, &tmp);
  return database->ExecuteAggregate(query);
}

Result<db::AggregateResult> AnemoneDataProvider::ExecuteCached(
    int endsystem, const db::SelectQuery& query, db::PlanCache* cache,
    const std::string& key) {
  std::unique_ptr<db::Database> tmp;
  db::Database* database = GetOrBuild(endsystem, &tmp);
  // Regenerated tables are deterministic, so a cached plan re-validates
  // against them (same schema, same dictionary codes) and is reused.
  return database->ExecuteAggregateCached(query, cache, key);
}

Result<int64_t> AnemoneDataProvider::CountMatching(
    int endsystem, const db::SelectQuery& query) {
  std::unique_ptr<db::Database> tmp;
  db::Database* database = GetOrBuild(endsystem, &tmp);
  return database->CountMatching(query);
}

uint32_t AnemoneDataProvider::SummaryWireBytes(int endsystem) {
  if (wire_bytes_override_ > 0) return wire_bytes_override_;
  return static_cast<uint32_t>(Summary(endsystem).EncodedBytes());
}

StaticDataProvider::StaticDataProvider(
    std::vector<std::shared_ptr<db::Database>> dbs)
    : dbs_(std::move(dbs)), summaries_(dbs_.size()) {}

const db::DatabaseSummary& StaticDataProvider::Summary(int endsystem) {
  auto& slot = summaries_[static_cast<size_t>(endsystem)];
  if (!slot.has_value()) {
    slot = dbs_[static_cast<size_t>(endsystem)]->BuildSummary();
  }
  return *slot;
}

Result<db::AggregateResult> StaticDataProvider::Execute(
    int endsystem, const db::SelectQuery& query) {
  return dbs_[static_cast<size_t>(endsystem)]->ExecuteAggregate(query);
}

Result<db::AggregateResult> StaticDataProvider::ExecuteCached(
    int endsystem, const db::SelectQuery& query, db::PlanCache* cache,
    const std::string& key) {
  return dbs_[static_cast<size_t>(endsystem)]->ExecuteAggregateCached(
      query, cache, key);
}

uint32_t StaticDataProvider::SummaryWireBytes(int endsystem) {
  return static_cast<uint32_t>(Summary(endsystem).EncodedBytes());
}

void StaticDataProvider::InvalidateSummary(int endsystem) {
  summaries_[static_cast<size_t>(endsystem)].reset();
}

}  // namespace seaweed
