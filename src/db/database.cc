#include "db/database.h"

namespace seaweed::db {

void TableSummary::Encode(Writer& w) const {
  w.PutString(table_name);
  w.PutVarint(static_cast<uint64_t>(total_rows));
  w.PutVarint(columns.size());
  for (const auto& c : columns) c.Encode(w);
}

Result<TableSummary> TableSummary::Decode(Reader& r) {
  TableSummary s;
  SEAWEED_ASSIGN_OR_RETURN(s.table_name, r.GetString());
  SEAWEED_ASSIGN_OR_RETURN(uint64_t rows, r.GetVarint());
  s.total_rows = static_cast<int64_t>(rows);
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 4096) return Status::ParseError("implausible column count");
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(ColumnSummary c, ColumnSummary::Decode(r));
    s.columns.push_back(std::move(c));
  }
  return s;
}

namespace {

// Delta cost of one numeric histogram: ~13 bytes per changed/added bucket
// (index varint + double bound + count/distinct varints).
size_t NumericDeltaBytes(const NumericHistogram& prev,
                         const NumericHistogram& cur) {
  const auto& a = prev.buckets();
  const auto& b = cur.buckets();
  size_t common = std::min(a.size(), b.size());
  size_t changed = 0;
  for (size_t i = 0; i < common; ++i) {
    if (!(a[i] == b[i])) ++changed;
  }
  changed += std::max(a.size(), b.size()) - common;
  return 4 + changed * 13;
}

size_t StringDeltaBytes(const StringHistogram& prev,
                        const StringHistogram& cur) {
  size_t bytes = 4;
  for (const auto& m : cur.mcvs()) {
    bool same = false;
    for (const auto& p : prev.mcvs()) {
      if (p == m) {
        same = true;
        break;
      }
    }
    if (!same) bytes += m.value.size() + 4;
  }
  return bytes;
}

}  // namespace

size_t SummaryDeltaBytes(const DatabaseSummary& previous,
                         const DatabaseSummary& current) {
  size_t bytes = 8;  // version header
  for (const auto& table : current.tables) {
    const TableSummary* prev_table = previous.FindTable(table.table_name);
    for (const auto& col : table.columns) {
      const ColumnSummary* prev_col = nullptr;
      if (prev_table != nullptr) {
        for (const auto& pc : prev_table->columns) {
          if (EqualsIgnoreCase(pc.column_name(), col.column_name()) &&
              pc.is_numeric() == col.is_numeric()) {
            prev_col = &pc;
            break;
          }
        }
      }
      if (prev_col == nullptr) {
        bytes += col.EncodedBytes();  // new column: ship in full
      } else if (col.is_numeric()) {
        bytes += NumericDeltaBytes(prev_col->numeric(), col.numeric());
      } else {
        bytes += StringDeltaBytes(prev_col->strings(), col.strings());
      }
    }
  }
  return bytes;
}

const TableSummary* DatabaseSummary::FindTable(const std::string& name) const {
  for (const auto& t : tables) {
    if (EqualsIgnoreCase(t.table_name, name)) return &t;
  }
  return nullptr;
}

void DatabaseSummary::Encode(Writer& w) const {
  w.PutVarint(tables.size());
  for (const auto& t : tables) t.Encode(w);
}

Result<DatabaseSummary> DatabaseSummary::Decode(Reader& r) {
  DatabaseSummary s;
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 4096) return Status::ParseError("implausible table count");
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(TableSummary t, TableSummary::Decode(r));
    s.tables.push_back(std::move(t));
  }
  return s;
}

size_t DatabaseSummary::EncodedBytes() const { return CountedBytes(*this); }

double DatabaseSummary::EstimateRows(const SelectQuery& query) const {
  const TableSummary* t = FindTable(query.table);
  return t ? t->EstimateRows(query) : 0.0;
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Table* Database::FindTable(const std::string& name) {
  for (auto& [n, t] : tables_) {
    if (EqualsIgnoreCase(n, name)) return t.get();
  }
  return nullptr;
}

const Table* Database::FindTable(const std::string& name) const {
  for (const auto& [n, t] : tables_) {
    if (EqualsIgnoreCase(n, name)) return t.get();
  }
  return nullptr;
}

Result<AggregateResult> Database::ExecuteAggregate(
    const SelectQuery& query) const {
  const Table* table = FindTable(query.table);
  if (!table) return Status::NotFound("no such table: " + query.table);
  return db::ExecuteAggregate(*table, query);
}

Result<AggregateResult> Database::ExecuteAggregateCached(
    const SelectQuery& query, PlanCache* cache, const std::string& key) const {
  const Table* table = FindTable(query.table);
  if (!table) return Status::NotFound("no such table: " + query.table);
  SEAWEED_ASSIGN_OR_RETURN(const CompiledQuery* plan,
                           cache->GetOrBind(key, *table, query));
  Result<AggregateResult> result = plan->Execute(*table);
  if (result.ok()) {
    cache->RecordExecution(table->num_rows(),
                           static_cast<uint64_t>(result->rows_matched));
  }
  return result;
}

Result<AggregateResult> Database::ExecuteAggregateSql(
    const std::string& sql, const ParseOptions& options) const {
  SEAWEED_ASSIGN_OR_RETURN(SelectQuery query, ParseSelect(sql, options));
  return ExecuteAggregate(query);
}

Result<int64_t> Database::CountMatching(const SelectQuery& query) const {
  const Table* table = FindTable(query.table);
  if (!table) return Status::NotFound("no such table: " + query.table);
  return db::CountMatching(*table, query);
}

DatabaseSummary Database::BuildSummary(int max_buckets, int max_mcvs) const {
  DatabaseSummary summary;
  for (const auto& [name, table] : tables_) {
    TableSummary ts;
    ts.table_name = name;
    ts.total_rows = static_cast<int64_t>(table->num_rows());
    for (size_t i = 0; i < table->schema().num_columns(); ++i) {
      const ColumnDef& def = table->schema().column(i);
      if (!def.indexed) continue;
      if (def.type == ColumnType::kString) {
        ts.columns.push_back(ColumnSummary::Strings(
            def.name, StringHistogram::Build(table->column(i), max_mcvs)));
      } else {
        ts.columns.push_back(ColumnSummary::Numeric(
            def.name, NumericHistogram::Build(table->column(i), max_buckets)));
      }
    }
    summary.tables.push_back(std::move(ts));
  }
  return summary;
}

size_t Database::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [name, table] : tables_) bytes += table->MemoryBytes();
  return bytes;
}

}  // namespace seaweed::db
