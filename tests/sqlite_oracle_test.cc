// Differential oracle for the local execution engine: the batch engine
// (ExecuteAggregate, CountMatching, ExecuteSelect) against SQLite, which
// shares no code with src/db. Each table is loaded row for row into both a
// db::Table and a private in-memory SQLite database. Each query is
// generated as SQL text and parsed with ParseSelect; SQLite runs the same
// WHERE text, so the oracle covers the parser as well.
//
// For every query:
//  (a) the batch result equals, bit for bit and sketches included, a
//      reference folded from the rows SQLite selects, one at a time in
//      rowid order, through AggregateFunction::InitState and AggState::Add*;
//  (b) per item and per group, count equals SQLite's COUNT; on numeric
//      items min/max equal its MIN/MAX, and sum equals its SUM on int64
//      columns (SQLite's own arithmetic);
//  (c) rows_matched and CountMatching equal SQLite's COUNT(*);
//  (d) the query binds, and its ToString() re-parses to the same answer;
//  (e) each sketch's answer, whole-table and per group, lies within its
//      function's declared error bound (AggDescriptor::error_bound) of
//      SQLite's exact answer.
// Its WHERE also runs as SELECT * through ExecuteSelect, whole and under a
// LIMIT, against SQLite's rows.
#include <sqlite3.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/aggregate.h"
#include "db/query_exec.h"
#include "db/sketch.h"
#include "db/sql_parser.h"

namespace seaweed::db {
namespace {

struct SqliteCloser {
  void operator()(sqlite3* db) const { sqlite3_close(db); }
};
struct StatementFinalizer {
  void operator()(sqlite3_stmt* stmt) const { sqlite3_finalize(stmt); }
};
using SqliteDb = std::unique_ptr<sqlite3, SqliteCloser>;
using Statement = std::unique_ptr<sqlite3_stmt, StatementFinalizer>;

// One SQLite result cell; nullopt is SQL NULL.
using Cell = std::optional<Value>;
using Row = std::vector<Cell>;
using Rows = std::vector<Row>;

Statement Prepare(sqlite3* db, const std::string& sql) {
  sqlite3_stmt* raw = nullptr;
  if (sqlite3_prepare_v2(db, sql.c_str(), -1, &raw, nullptr) != SQLITE_OK) {
    ADD_FAILURE() << "sqlite rejected '" << sql << "': " << sqlite3_errmsg(db);
  }
  return Statement(raw);
}

void Exec(sqlite3* db, const std::string& sql) {
  char* err = nullptr;
  if (sqlite3_exec(db, sql.c_str(), nullptr, nullptr, &err) != SQLITE_OK) {
    ADD_FAILURE() << "sqlite failed '" << sql << "': " << err;
    sqlite3_free(err);
  }
}

Cell ReadCell(sqlite3_stmt* stmt, int i) {
  switch (sqlite3_column_type(stmt, i)) {
    case SQLITE_INTEGER:
      return Value(static_cast<int64_t>(sqlite3_column_int64(stmt, i)));
    case SQLITE_FLOAT:
      return Value(sqlite3_column_double(stmt, i));
    case SQLITE_TEXT:
      return Value(std::string(
          reinterpret_cast<const char*>(sqlite3_column_text(stmt, i)),
          static_cast<size_t>(sqlite3_column_bytes(stmt, i))));
    default:
      return std::nullopt;
  }
}

Rows Select(sqlite3* db, const std::string& sql) {
  Rows rows;
  Statement stmt = Prepare(db, sql);
  if (stmt == nullptr) return rows;
  const int width = sqlite3_column_count(stmt.get());
  int rc;
  while ((rc = sqlite3_step(stmt.get())) == SQLITE_ROW) {
    Row& row = rows.emplace_back();
    for (int i = 0; i < width; ++i) row.push_back(ReadCell(stmt.get(), i));
  }
  EXPECT_EQ(rc, SQLITE_DONE) << sql << ": " << sqlite3_errmsg(db);
  return rows;
}

const char* SqlType(ColumnType t) {
  switch (t) {
    case ColumnType::kInt64:
      return "INTEGER";
    case ColumnType::kDouble:
      return "REAL";
    case ColumnType::kString:
      return "TEXT";
  }
  return "";
}

// A table held twice, row for row: as a db::Table, and as table "t" of a
// private in-memory SQLite database where rowid = row index + 1.
struct OracleTable {
  Table table;
  SqliteDb sqlite;
};

OracleTable Load(const Schema& schema,
                 const std::vector<std::vector<Value>>& rows) {
  OracleTable t{Table(schema), nullptr};
  sqlite3* raw = nullptr;
  EXPECT_EQ(sqlite3_open(":memory:", &raw), SQLITE_OK);
  t.sqlite.reset(raw);
  std::string create = "CREATE TABLE t (";
  std::string insert = "INSERT INTO t VALUES (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) {
      create += ", ";
      insert += ", ";
    }
    create += schema.column(i).name + " " + SqlType(schema.column(i).type);
    insert += "?";
  }
  Exec(raw, create + ")");
  Exec(raw, "BEGIN");
  Statement stmt = Prepare(raw, insert + ")");
  for (const auto& row : rows) {
    EXPECT_TRUE(t.table.AppendRow(row).ok());
    for (size_t i = 0; i < row.size(); ++i) {
      const int slot = static_cast<int>(i) + 1;
      const Value& v = row[i];
      if (v.is_int64()) {
        sqlite3_bind_int64(stmt.get(), slot, v.AsInt64());
      } else if (v.is_double()) {
        sqlite3_bind_double(stmt.get(), slot, v.AsDouble());
      } else {
        sqlite3_bind_text(stmt.get(), slot, v.AsString().data(),
                          static_cast<int>(v.AsString().size()),
                          SQLITE_TRANSIENT);
      }
    }
    EXPECT_EQ(sqlite3_step(stmt.get()), SQLITE_DONE);
    sqlite3_reset(stmt.get());
  }
  Exec(raw, "COMMIT");
  return t;
}

// Same value and same type: a projected int64 must not come back double.
bool SameValue(const Cell& cell, const Value& v) {
  return cell.has_value() && cell->type() == v.type() && *cell == v;
}

std::string Show(const Cell& cell) {
  return cell.has_value() ? cell->ToString() : "NULL";
}

// --- Random tables and queries ---

// String pool: the first 5 appear in tables, the last 2 only as predicate
// literals (a literal absent from the dictionary: = matches nothing, !=
// everything). The quote exercises '' escaping in both parsers and in
// ToString().
const char* kStrings[] = {"HTTP", "SMB", "DNS", "NFS", "RPC",
                          "GHOST", "O'HARE"};

Schema RandomSchema() {
  return Schema({
      {"app", ColumnType::kString, true},
      {"port", ColumnType::kInt64, true},
      {"load", ColumnType::kDouble, false},
      {"bytes", ColumnType::kInt64, true},
  });
}

std::vector<std::vector<Value>> RandomRows(Rng& rng) {
  // Sizes straddle the batch boundary: empty, tiny, exactly one batch,
  // and multi-batch tables all occur.
  static const uint32_t kSizes[] = {0, 1, 17, 1023, 1024, 1025, 2500};
  std::vector<std::vector<Value>> rows(kSizes[rng.NextBelow(7)]);
  for (auto& row : rows) {
    row.emplace_back(std::string(kStrings[rng.NextBelow(5)]));
    row.emplace_back(static_cast<int64_t>(rng.NextBelow(100)));
    row.emplace_back(rng.Uniform(0, 10));
    row.emplace_back(static_cast<int64_t>(rng.NextBelow(5000)));
  }
  return rows;
}

// A numeric literal with at most 6 significant digits, so that ParseSelect
// and SQLite read the same double from it.
std::string DoubleLiteral(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string StringLiteral(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += c;
  }
  return out + "'";
}

// Sometimes negated or constant-folded, which both parsers evaluate.
std::string NumericScalar(Rng& rng, std::string literal) {
  switch (rng.NextBelow(10)) {
    case 0:
      return "-" + literal;
    case 1:
      return literal + " + " + std::to_string(rng.NextBelow(10));
    case 2:
      return literal + " - " + DoubleLiteral(rng.Uniform(0, 2));
    default:
      return literal;
  }
}

std::string RandomCompare(Rng& rng) {
  static const char* kOps[] = {"=", "!=", "<>", "<", "<=", ">", ">="};
  const char* op = kOps[rng.NextBelow(7)];
  switch (rng.NextBelow(4)) {
    case 0: {  // int column, int or double literal
      std::string lit = rng.Bernoulli(0.7)
                            ? std::to_string(rng.NextBelow(100))
                            : DoubleLiteral(rng.Uniform(0, 100));
      return std::string("port ") + op + " " + NumericScalar(rng, lit);
    }
    case 1:
      return std::string("load ") + op + " " +
             NumericScalar(rng, DoubleLiteral(rng.Uniform(0, 10)));
    case 2: {  // string column: equality only (range compares are rejected)
      const char* str_op = kOps[rng.NextBelow(3)];
      return std::string("app ") + str_op + " " +
             StringLiteral(kStrings[rng.NextBelow(7)]);
    }
    default:  // second int column for multi-column conjunctions
      return std::string("bytes ") + op + " " +
             NumericScalar(rng, std::to_string(rng.NextBelow(5000)));
  }
}

std::string RandomWhere(Rng& rng, int depth) {
  if (depth > 0 && rng.Bernoulli(0.4)) {
    const std::string left = RandomWhere(rng, depth - 1);
    const std::string right = RandomWhere(rng, depth - 1);
    const std::string expr =
        left + (rng.Bernoulli(0.5) ? " AND " : " OR ") + right;
    // Bare half the time, so AND-over-OR precedence is exercised too.
    return rng.Bernoulli(0.5) ? "(" + expr + ")" : expr;
  }
  return RandomCompare(rng);
}

// One aggregate item from the parser's whole function set.
std::string RandomAggregate(Rng& rng) {
  static const char* kExact[] = {"SUM", "COUNT", "AVG", "MIN", "MAX"};
  static const char* kAny[] = {"app", "port", "load", "bytes"};
  static const char* kNumeric[] = {"port", "load", "bytes"};
  static const char* kQuantiles[] = {"0.1", "0.25", "0.5", "0.9", "0.99"};
  switch (rng.NextBelow(8)) {
    case 0:
      return "COUNT(*)";
    case 1:
    case 2:
    case 3:
    case 4: {
      const std::string func = kExact[rng.NextBelow(5)];
      const char* column =
          func == "COUNT" ? kAny[rng.NextBelow(4)] : kNumeric[rng.NextBelow(3)];
      return func + "(" + column + ")";
    }
    case 5:
      return std::string("DISTINCT_APPROX(") + kAny[rng.NextBelow(4)] + ")";
    case 6: {
      std::string item = std::string("QUANTILE(") + kNumeric[rng.NextBelow(3)];
      if (rng.Bernoulli(0.8)) {
        item += std::string(", ") + kQuantiles[rng.NextBelow(5)];
      }
      return item + ")";
    }
    default: {
      std::string item = std::string("TOPK(") + kAny[rng.NextBelow(4)];
      if (rng.Bernoulli(0.8)) {
        item += ", " + std::to_string(1 + rng.NextBelow(8));
      }
      return item + ")";
    }
  }
}

std::string RandomQuery(Rng& rng) {
  const std::string where = rng.Bernoulli(0.05) ? "" : RandomWhere(rng, 2);
  // GROUP BY: none (40%), the string column (40%: dense fast path), or an
  // int column (20%: Value-keyed path).
  const uint64_t mode = rng.NextBelow(5);
  const std::string group = mode >= 3 ? "app" : mode == 2 ? "port" : "";
  std::string items;
  if (!group.empty() && rng.Bernoulli(0.7)) items = group;
  const int n_aggs = 1 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < n_aggs; ++i) {
    if (!items.empty()) items += ", ";
    items += RandomAggregate(rng);
  }
  std::string sql = "SELECT " + items + " FROM t";
  if (!where.empty()) sql += " WHERE " + where;
  if (!group.empty()) sql += " GROUP BY " + group;
  return sql;
}

// The text between WHERE and GROUP BY in `sql`, or "" without a WHERE.
std::string WhereOf(const std::string& sql) {
  const size_t at = sql.find(" WHERE ");
  if (at == std::string::npos) return "";
  const size_t start = at + 7;
  const size_t end = sql.find(" GROUP BY ", start);
  return sql.substr(start, end == std::string::npos ? end : end - start);
}

// --- Checks ---

// The reference answer: SQLite's selected rows folded one at a time, in
// rowid order, through the aggregate functions' own state API.
AggregateResult FoldReference(const Schema& schema, const SelectQuery& q,
                              const Rows& rows) {
  const size_t arity = q.items.size();
  AggregateResult ref;
  ref.states.resize(arity);
  ref.endsystems = 1;
  for (size_t i = 0; i < arity; ++i) {
    const SelectItem& item = q.items[i];
    if (item.is_aggregate) {
      item.func->InitState(ref.states[i], item.EffectiveParam());
    }
  }
  const int group_col = q.group_by.empty() ? -1 : schema.FindColumn(q.group_by);
  for (const Row& row : rows) {
    ++ref.rows_matched;
    std::vector<AggState>* group =
        group_col < 0 ? nullptr
                      : &ref.GroupStates(*row[static_cast<size_t>(group_col)],
                                         arity);
    for (size_t i = 0; i < arity; ++i) {
      const SelectItem& item = q.items[i];
      if (!item.is_aggregate) continue;  // rendered from the group key
      const Cell* cell =
          item.column.empty()
              ? nullptr
              : &row[static_cast<size_t>(schema.FindColumn(item.column))];
      auto fold = [cell](AggState& state) {
        if (cell == nullptr) {
          state.AddCountOnly();
        } else if ((*cell)->is_string()) {
          state.AddString((*cell)->AsString());
        } else {
          state.Add(*(*cell)->ToNumeric());
        }
      };
      if (group != nullptr) {
        AggState& gs = (*group)[i];
        // A group's states start from InitState at its first row.
        if (gs.count == 0) item.func->InitState(gs, item.EffectiveParam());
        fold(gs);
      }
      fold(ref.states[i]);
    }
  }
  return ref;
}

// Check (b) for one state against SQLite's COUNT[, MIN, MAX, SUM] starting
// at row[first].
void ExpectStats(const AggState& state, const Row& row, size_t first,
                 bool numeric, bool int_column) {
  ASSERT_TRUE(row[first].has_value());
  EXPECT_EQ(state.count, row[first]->AsInt64());
  if (!numeric) return;
  if (!row[first + 1].has_value()) {  // no rows: SQLite's MIN is NULL
    EXPECT_EQ(state.min, std::numeric_limits<double>::infinity());
    EXPECT_EQ(state.max, -std::numeric_limits<double>::infinity());
    return;
  }
  EXPECT_EQ(state.min, *row[first + 1]->ToNumeric());
  EXPECT_EQ(state.max, *row[first + 2]->ToNumeric());
  if (int_column) {
    EXPECT_EQ(state.sum, static_cast<double>(row[first + 3]->AsInt64()));
  }
}

::testing::AssertionResult SameRows(const RowSet& got, const Rows& want) {
  if (got.rows.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.rows.size() << " rows, sqlite " << want.size();
  }
  for (size_t r = 0; r < want.size(); ++r) {
    if (got.rows[r].size() != want[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width";
    }
    for (size_t c = 0; c < want[r].size(); ++c) {
      if (!SameValue(want[r][c], got.rows[r][c])) {
        return ::testing::AssertionFailure()
               << "row " << r << " column " << c << ": "
               << got.rows[r][c].ToString() << ", sqlite "
               << Show(want[r][c]);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Check (e). The bounds are the ones each function declares in its
// AggDescriptor::error_bound:
//  * DISTINCT_APPROX: HyperLogLog's standard error, 1.04/sqrt(registers)
//    = 1.6%. The check allows 4 of them, plus 1 for a single hash
//    collision, which at a few distinct values is many standard errors.
//    The "<=2% typical" is no per-answer bound: over 400 random sets each
//    of 10 to 10^5 distinct values, 1-26% of the estimates missed by more;
//  * QUANTILE(col, q): rank error <= 1%, i.e. the answer's rank range in
//    the exact sorted input comes within 1% of the rows of q * rows;
//  * TOPK(col, k): each reported count under-estimates the key's exact
//    count by at most rows/capacity, and no key left out outnumbers the
//    k-th reported count by more than that.
const double kDistinctStdError =
    1.04 / std::sqrt(static_cast<double>(HllSketch::kRegisters));
constexpr double kQuantileRankError = 0.01;

// Sketch keys are doubles for numeric columns; SQLite's are int64 or
// double. Both render through the same double here.
std::string KeyOf(const Value& v) {
  if (v.is_string()) return "s:" + v.AsString();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v.ToNumeric());
  return buf;
}

// One group's exact input to a sketch item, from SQLite: the item's
// column values in ascending order, and the count of each value.
struct ExactInput {
  std::vector<double> sorted;  // numeric columns only
  std::map<std::string, int64_t> counts;
  int64_t rows = 0;
};

void CheckSketchState(const SelectItem& item, const AggState& state,
                      const ExactInput& exact) {
  if (item.func->name() == "DISTINCT_APPROX") {
    auto v = item.func->Finalize(state);
    ASSERT_TRUE(v.ok()) << v.status();
    const double got = static_cast<double>(v->AsInt64());
    const double want = static_cast<double>(exact.counts.size());
    EXPECT_LE(std::abs(got - want), 4 * kDistinctStdError * want + 1)
        << "distinct " << got << ", sqlite " << want;
  } else if (item.func->name() == "QUANTILE") {
    if (exact.rows == 0) return;  // NULL: checked by (a)
    const double q = item.EffectiveParam();
    auto v = item.func->Finalize(state, q);
    ASSERT_TRUE(v.ok()) << v.status();
    const double got = v->AsDouble();
    const double n = static_cast<double>(exact.rows);
    const auto below = static_cast<double>(
        std::lower_bound(exact.sorted.begin(), exact.sorted.end(), got) -
        exact.sorted.begin());
    const auto at_or_below = static_cast<double>(
        std::upper_bound(exact.sorted.begin(), exact.sorted.end(), got) -
        exact.sorted.begin());
    EXPECT_LE(below, q * n + kQuantileRankError * n)
        << "quantile " << q << " = " << got << " over " << n << " rows";
    EXPECT_GE(at_or_below, q * n - kQuantileRankError * n)
        << "quantile " << q << " = " << got << " over " << n << " rows";
  } else if (item.func->name() == "TOPK") {
    if (exact.rows == 0) return;
    const auto& sketch = static_cast<const TopKSketch&>(*state.sketch);
    const auto k = static_cast<size_t>(item.EffectiveParam());
    const double slack = static_cast<double>(exact.rows) /
                         static_cast<double>(sketch.capacity());
    const auto top = sketch.Top(k);
    std::set<std::string> reported;
    for (const auto& [key, count] : top) {
      const auto it = exact.counts.find(KeyOf(key));
      ASSERT_NE(it, exact.counts.end()) << "topk key " << key.ToString();
      EXPECT_LE(count, it->second) << "topk key " << key.ToString();
      EXPECT_LE(static_cast<double>(it->second - count), slack)
          << "topk key " << key.ToString();
      reported.insert(it->first);
    }
    // With fewer than k reported, every surviving key was reported.
    const double kth = top.size() < k
                           ? 0.0
                           : static_cast<double>(top.back().second);
    for (const auto& [key, count] : exact.counts) {
      if (reported.count(key) == 0) {
        EXPECT_LE(static_cast<double>(count), kth + slack)
            << "topk left out " << key << " (" << count << " rows)";
      }
    }
  } else {
    ADD_FAILURE() << "no exact check for sketch " << item.func->name();
  }
}

void CheckSketchesAgainstTruth(const OracleTable& t, const SelectQuery& q,
                               const std::string& filter,
                               const AggregateResult& batch) {
  const std::string& group = q.group_by;
  for (size_t i = 0; i < q.items.size(); ++i) {
    const SelectItem& item = q.items[i];
    if (!item.is_aggregate || !item.func->IsSketch()) continue;
    SCOPED_TRACE(item.func->name() + "(" + item.column + ")");
    const std::string cols =
        group.empty() ? item.column : group + ", " + item.column;
    ExactInput whole;
    std::map<std::string, ExactInput> per_group;
    for (const Row& row : Select(t.sqlite.get(), "SELECT " + cols +
                                                     " FROM t" + filter +
                                                     " ORDER BY " + cols)) {
      const Value& v = *row.back();
      auto add = [&v](ExactInput& in) {
        ++in.rows;
        ++in.counts[KeyOf(v)];
        if (!v.is_string()) in.sorted.push_back(*v.ToNumeric());
      };
      add(whole);
      if (!group.empty()) add(per_group[row[0]->ToString()]);
    }
    std::sort(whole.sorted.begin(), whole.sorted.end());
    CheckSketchState(item, batch.states[i], whole);
    for (const auto& [key, states] : batch.groups) {
      SCOPED_TRACE("group " + key.ToString());
      CheckSketchState(item, states[i], per_group[key.ToString()]);
    }
  }
}

void CheckQuery(const OracleTable& t, const std::string& sql) {
  SCOPED_TRACE(sql);
  sqlite3* db = t.sqlite.get();
  auto q = ParseSelect(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  // (d) Every generated query binds: no trial is skipped.
  auto batch = ExecuteAggregate(t.table, *q);
  ASSERT_TRUE(batch.ok()) << batch.status();

  const std::string where = WhereOf(sql);
  const std::string filter = where.empty() ? "" : " WHERE " + where;
  const Rows matched =
      Select(db, "SELECT * FROM t" + filter + " ORDER BY rowid");

  // (a) Bit-identical to the one-row-at-a-time fold of SQLite's rows.
  EXPECT_TRUE(*batch == FoldReference(t.table.schema(), *q, matched));

  // (b) SQLite's own COUNT/MIN/MAX/SUM, whole-table and per group.
  const std::string& group = q->group_by;
  for (size_t i = 0; i < q->items.size(); ++i) {
    const SelectItem& item = q->items[i];
    if (!item.is_aggregate) continue;
    const int col = item.column.empty()
                        ? -1
                        : t.table.schema().FindColumn(item.column);
    // COUNT(*) is checked like a string column: count only.
    const ColumnType type =
        col < 0 ? ColumnType::kString
                : t.table.schema().column(static_cast<size_t>(col)).type;
    const bool numeric = type != ColumnType::kString;
    const std::string arg = col < 0 ? "*" : item.column;
    const std::string stats =
        numeric ? "COUNT(" + arg + "), MIN(" + arg + "), MAX(" + arg +
                      "), SUM(" + arg + ")"
                : "COUNT(" + arg + ")";
    const bool int_column = type == ColumnType::kInt64;
    const Rows total = Select(db, "SELECT " + stats + " FROM t" + filter);
    ASSERT_EQ(total.size(), 1u);
    ExpectStats(batch->states[i], total[0], 0, numeric, int_column);
    if (group.empty()) continue;
    const Rows per_group =
        Select(db, "SELECT " + group + ", " + stats + " FROM t" + filter +
                       " GROUP BY " + group + " ORDER BY " + group);
    ASSERT_EQ(per_group.size(), batch->groups.size());
    for (size_t g = 0; g < per_group.size(); ++g) {
      const auto& [key, states] = batch->groups[g];
      ASSERT_TRUE(SameValue(per_group[g][0], key))
          << key.ToString() << ", sqlite " << Show(per_group[g][0]);
      ExpectStats(states[i], per_group[g], 1, numeric, int_column);
    }
  }

  // (e) Sketches against SQLite's exact answers.
  CheckSketchesAgainstTruth(t, *q, filter, *batch);

  // (c) Matched-row counts.
  const Rows count = Select(db, "SELECT COUNT(*) FROM t" + filter);
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(batch->rows_matched, count[0][0]->AsInt64());
  auto counted = CountMatching(t.table, *q);
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_EQ(*counted, count[0][0]->AsInt64());

  // ToString() is the plan-cache fingerprint: it must re-parse to the same
  // query, answer included.
  auto again = ParseSelect(q->ToString());
  ASSERT_TRUE(again.ok()) << q->ToString() << ": " << again.status();
  EXPECT_EQ(again->ToString(), q->ToString());
  auto again_result = ExecuteAggregate(t.table, *again);
  ASSERT_TRUE(again_result.ok()) << again_result.status();
  EXPECT_TRUE(*again_result == *batch) << q->ToString();

  // The projection path: SELECT * row for row, whole and under a LIMIT
  // smaller than the match count.
  auto star = ParseSelect("SELECT * FROM t" + filter);
  ASSERT_TRUE(star.ok()) << star.status();
  auto projected = ExecuteSelect(t.table, *star);
  ASSERT_TRUE(projected.ok()) << projected.status();
  EXPECT_TRUE(SameRows(*projected, matched));
  if (!matched.empty()) {
    const size_t limit = matched.size() / 2;
    auto limited = ExecuteSelect(t.table, *star, limit);
    ASSERT_TRUE(limited.ok()) << limited.status();
    EXPECT_TRUE(SameRows(*limited,
                         Select(db, "SELECT * FROM t" + filter +
                                        " ORDER BY rowid LIMIT " +
                                        std::to_string(limit))));
  }
}

class SqliteOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqliteOracle, BatchEngineMatchesSqlite) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 250; ++trial) {
    const OracleTable t = Load(RandomSchema(), RandomRows(rng));
    const std::string sql = RandomQuery(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(t.table.num_rows()) + " rows");
    CheckQuery(t, sql);
    if (HasFailure()) return;  // report the first failing trial only
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqliteOracle,
                         ::testing::Values(3, 31, 314, 3141, 31415));

// Fixed sketch queries over a larger table, where the sketches leave their
// exact small-input modes.
std::vector<std::vector<Value>> SketchRows(int n, uint64_t seed,
                                           uint64_t port_range) {
  Rng rng(seed);
  const char* apps[] = {"HTTP", "SMB", "DNS", "SMTP", "SSH", "NTP"};
  std::vector<std::vector<Value>> rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& row = rows[static_cast<size_t>(i)];
    row.emplace_back(static_cast<int64_t>(i));
    row.emplace_back(static_cast<int64_t>(rng.NextBelow(port_range)));
    row.emplace_back(static_cast<int64_t>(rng.NextBelow(100000)));
    row.emplace_back(rng.NextDouble());
    row.emplace_back(std::string(apps[rng.NextBelow(6)]));
  }
  return rows;
}

TEST(SqliteOracleTest, FixedSketchQueries) {
  const Schema schema({
      {"ts", ColumnType::kInt64, true},
      {"port", ColumnType::kInt64, true},
      {"bytes", ColumnType::kInt64, true},
      {"ratio", ColumnType::kDouble, false},
      {"app", ColumnType::kString, true},
  });
  const OracleTable t = Load(schema, SketchRows(20000, 11, 5000));
  for (const char* sql : {
           "SELECT DISTINCT_APPROX(port) FROM t",
           "SELECT DISTINCT_APPROX(app) FROM t",
           "SELECT QUANTILE(bytes, 0.9) FROM t",
           "SELECT TOPK(app, 3) FROM t",
           "SELECT TOPK(port, 5) FROM t WHERE bytes < 50000",
           "SELECT COUNT(*), DISTINCT_APPROX(port), QUANTILE(ratio, 0.5) "
           "FROM t WHERE port < 2500",
           "SELECT app, COUNT(*), DISTINCT_APPROX(port) FROM t GROUP BY app",
           "SELECT QUANTILE(bytes, 0.75), TOPK(app, 2) FROM t GROUP BY port",
       }) {
    CheckQuery(t, sql);
  }
}

}  // namespace
}  // namespace seaweed::db
