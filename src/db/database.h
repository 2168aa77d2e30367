// A per-endsystem database: named tables plus summary export.
//
// This is the "local DBMS" of the paper. Each Seaweed endsystem owns one
// Database holding its Anemone tables; the Database executes local queries
// and exports the data summary (histograms on indexed columns) that gets
// replicated to the metadata replica set.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "db/estimator.h"
#include "db/histogram.h"
#include "db/query_exec.h"
#include "db/sql_parser.h"
#include "db/table.h"

namespace seaweed::db {

// Summary of one table: row count plus per-indexed-column histograms.
struct TableSummary {
  std::string table_name;
  int64_t total_rows = 0;
  std::vector<ColumnSummary> columns;

  void Encode(Writer& w) const;
  static Result<TableSummary> Decode(Reader& r);

  // Estimated rows of this table matching `query`'s predicate.
  double EstimateRows(const SelectQuery& query) const {
    RowCountEstimator est(&columns, total_rows);
    return est.EstimateRows(query.where);
  }
};

// Bytes needed to ship `current` to a replica that already holds `previous`
// as a delta encoding: per changed histogram bucket / MCV entry, position +
// new value, plus a small per-column header. Identical summaries cost a few
// bytes of version header. This implements the optimization the paper
// proposes in §3.2.2 ("sending delta-encoded histograms which could reduce
// network overhead compared to pushing the entire histogram").
size_t SummaryDeltaBytes(const struct DatabaseSummary& previous,
                         const struct DatabaseSummary& current);

// Summary of a whole endsystem database. This is the `h` bytes of Table 1.
struct DatabaseSummary {
  std::vector<TableSummary> tables;

  const TableSummary* FindTable(const std::string& name) const;

  void Encode(Writer& w) const;
  static Result<DatabaseSummary> Decode(Reader& r);
  size_t EncodedBytes() const;

  // Estimated rows matching `query`; 0 when the table is absent.
  double EstimateRows(const SelectQuery& query) const;
};

class Database {
 public:
  // Creates (and owns) a table. Fails if the name exists.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  // Parses and executes an aggregate query locally.
  Result<AggregateResult> ExecuteAggregate(const SelectQuery& query) const;
  Result<AggregateResult> ExecuteAggregateSql(
      const std::string& sql, const ParseOptions& options = {}) const;

  // Like ExecuteAggregate, but binds through `cache` under `key` so repeated
  // executions of the same query reuse the compiled plan.
  Result<AggregateResult> ExecuteAggregateCached(const SelectQuery& query,
                                                 PlanCache* cache,
                                                 const std::string& key) const;

  // Exact count of rows matching the query (ground truth / available-
  // endsystem row counts).
  Result<int64_t> CountMatching(const SelectQuery& query) const;

  // Builds the data summary over indexed columns of every table.
  DatabaseSummary BuildSummary(int max_buckets = 200, int max_mcvs = 32) const;

  // Total data bytes (the paper's per-endsystem `d`).
  size_t MemoryBytes() const;

 private:
  // std::map for deterministic iteration order in summaries.
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace seaweed::db
