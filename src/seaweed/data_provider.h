// DataProvider: the local-data interface Seaweed nodes query.
//
// Two implementations:
//  * AnemoneDataProvider — synthesizes each endsystem's Anemone dataset
//    deterministically. With keep_tables=false it regenerates the table on
//    each execution and caches only the (small) summaries, keeping memory
//    O(N * summary) instead of O(N * data) for large simulations.
//  * StaticDataProvider — hand-built tables for tests and examples.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "anemone/anemone.h"
#include "common/result.h"
#include "db/database.h"

namespace seaweed {

// Vestige of the removed time-sliced execution path: no provider implements
// it and nothing calls it. It stays only because perfbench/sim_workload.cc's
// decorator overrides BeginSlicedExecution; delete both with the next change
// to the benchmark.
struct SlicedExecution {};

class DataProvider {
 public:
  virtual ~DataProvider() = default;

  // The endsystem's current data summary (histograms on indexed columns).
  virtual const db::DatabaseSummary& Summary(int endsystem) = 0;

  // Executes an aggregate query against the endsystem's data.
  virtual Result<db::AggregateResult> Execute(int endsystem,
                                              const db::SelectQuery& query) = 0;

  // Like Execute, but binds through `cache` under `key` so repeated
  // executions of the same query (incremental result refinement as
  // endsystems come online) reuse the compiled plan. The default forwards
  // to Execute; providers backed by a db::Database override it.
  virtual Result<db::AggregateResult> ExecuteCached(
      int endsystem, const db::SelectQuery& query, db::PlanCache* cache,
      const std::string& key) {
    (void)cache;
    (void)key;
    return Execute(endsystem, query);
  }

  // Always unsupported; see SlicedExecution.
  virtual Result<SlicedExecution> BeginSlicedExecution(
      int endsystem, const db::SelectQuery& query, db::PlanCache* cache,
      const std::string& key) {
    (void)endsystem;
    (void)query;
    (void)cache;
    (void)key;
    return Status::Unavailable("sliced execution removed");
  }

  // Bytes charged on the wire when this endsystem's summary is pushed. May
  // be overridden to a calibrated constant (Table 1: h = 6,473 bytes)
  // when simulations run with scaled-down tables.
  virtual uint32_t SummaryWireBytes(int endsystem) = 0;
};

class AnemoneDataProvider : public DataProvider {
 public:
  // `wire_bytes_override` of 0 charges actual serialized summary size.
  AnemoneDataProvider(const anemone::AnemoneConfig& config, int num_endsystems,
                      bool keep_tables, uint32_t wire_bytes_override = 0);

  const db::DatabaseSummary& Summary(int endsystem) override;
  Result<db::AggregateResult> Execute(int endsystem,
                                      const db::SelectQuery& query) override;
  Result<db::AggregateResult> ExecuteCached(int endsystem,
                                            const db::SelectQuery& query,
                                            db::PlanCache* cache,
                                            const std::string& key) override;
  uint32_t SummaryWireBytes(int endsystem) override;

  // Ground truth helper for experiments: exact matching row count.
  Result<int64_t> CountMatching(int endsystem, const db::SelectQuery& query);

 private:
  db::Database* GetOrBuild(int endsystem, std::unique_ptr<db::Database>* tmp);

  anemone::AnemoneConfig config_;
  bool keep_tables_;
  uint32_t wire_bytes_override_;
  std::vector<std::unique_ptr<db::Database>> tables_;      // keep_tables mode
  std::vector<std::optional<db::DatabaseSummary>> summaries_;
};

// Fixed per-endsystem databases supplied by the caller (tests, examples).
class StaticDataProvider : public DataProvider {
 public:
  explicit StaticDataProvider(std::vector<std::shared_ptr<db::Database>> dbs);

  const db::DatabaseSummary& Summary(int endsystem) override;
  Result<db::AggregateResult> Execute(int endsystem,
                                      const db::SelectQuery& query) override;
  Result<db::AggregateResult> ExecuteCached(int endsystem,
                                            const db::SelectQuery& query,
                                            db::PlanCache* cache,
                                            const std::string& key) override;
  uint32_t SummaryWireBytes(int endsystem) override;

  db::Database* database(int endsystem) { return dbs_[static_cast<size_t>(endsystem)].get(); }
  // Call after mutating an endsystem's data so summaries refresh.
  void InvalidateSummary(int endsystem);

 private:
  std::vector<std::shared_ptr<db::Database>> dbs_;
  std::vector<std::optional<db::DatabaseSummary>> summaries_;
};

}  // namespace seaweed
