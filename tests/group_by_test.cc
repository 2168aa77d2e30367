#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/aggregate.h"
#include "db/database.h"
#include "db/query_exec.h"
#include "db/sql_parser.h"

namespace seaweed::db {
namespace {

Schema GSchema() {
  return Schema({
      {"app", ColumnType::kString, true},
      {"port", ColumnType::kInt64, true},
      {"bytes", ColumnType::kInt64, true},
  });
}

std::unique_ptr<Table> GTable(int rows, uint64_t seed = 1) {
  auto t = std::make_unique<Table>(GSchema());
  seaweed::Rng rng(seed);
  const char* apps[] = {"HTTP", "SMB", "DNS"};
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendString(apps[rng.NextBelow(3)]);
    t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(10000)));
    t->CommitRow();
  }
  return t;
}

TEST(GroupByTest, ParserAcceptsGroupBy) {
  auto q = ParseSelect("SELECT app, SUM(bytes) FROM t GROUP BY app");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->group_by, "app");
  EXPECT_TRUE(q->IsAggregateOnly());
  EXPECT_NE(q->ToString().find("GROUP BY app"), std::string::npos);
}

TEST(GroupByTest, BareColumnMustMatchGroupColumn) {
  auto q = ParseSelect("SELECT port, SUM(bytes) FROM t GROUP BY app");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsAggregateOnly());  // port is not the group column
}

TEST(GroupByTest, GroupByWithoutAggregateIsNotAggregateOnly) {
  auto q = ParseSelect("SELECT app FROM t GROUP BY app");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsAggregateOnly());
}

TEST(GroupByTest, GroupedSumsMatchManualScan) {
  auto t = GTable(900);
  auto q = ParseSelect(
      "SELECT app, COUNT(*), SUM(bytes) FROM t WHERE port < 50 GROUP BY app");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok()) << r.status();

  std::map<std::string, std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (t->column(1).Int64At(i) >= 50) continue;
    auto& [count, sum] = expected[t->column(0).StringAt(i)];
    ++count;
    sum += t->column(2).Int64At(i);
  }
  ASSERT_EQ(r->groups.size(), expected.size());
  for (const auto& [app, cs] : expected) {
    const auto* states = r->FindGroup(Value(app));
    ASSERT_NE(states, nullptr) << app;
    EXPECT_EQ((*states)[1].count, cs.first) << app;
    EXPECT_DOUBLE_EQ((*states)[2].sum, static_cast<double>(cs.second)) << app;
  }
  // Global states still cover the whole filtered set.
  int64_t total = 0;
  for (const auto& [app, cs] : expected) total += cs.first;
  EXPECT_EQ(r->rows_matched, total);
}

TEST(GroupByTest, NumericGroupKeys) {
  Table t(GSchema());
  for (int i = 0; i < 10; ++i) {
    t.column(0).AppendString("X");
    t.column(1).AppendInt64(i % 3);
    t.column(2).AppendInt64(100);
    t.CommitRow();
  }
  auto q = ParseSelect("SELECT port, COUNT(*) FROM t GROUP BY port");
  auto r = ExecuteAggregate(t, *q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), 3u);
  // Keys sorted: 0, 1, 2 with counts 4, 3, 3.
  EXPECT_EQ(r->groups[0].first, Value(int64_t{0}));
  EXPECT_EQ(r->groups[0].second[1].count, 4);
  EXPECT_EQ(r->groups[1].second[1].count, 3);
  EXPECT_EQ(r->groups[2].second[1].count, 3);
}

TEST(GroupByTest, UnknownGroupColumnFails) {
  auto t = GTable(10);
  auto q = ParseSelect("SELECT COUNT(*) FROM t GROUP BY nosuch");
  EXPECT_TRUE(ExecuteAggregate(*t, *q).status().IsNotFound());
}

TEST(GroupByTest, MergePartitionsEqualsWholeScan) {
  // The in-network aggregation invariant, grouped edition.
  auto q = ParseSelect(
      "SELECT app, COUNT(*), SUM(bytes), MIN(bytes), MAX(bytes), AVG(bytes) "
      "FROM t GROUP BY app");
  auto whole = GTable(600, 7);
  auto expected = ExecuteAggregate(*whole, *q);
  ASSERT_TRUE(expected.ok());

  AggregateResult merged;
  seaweed::Rng rng(7);
  const char* apps[] = {"HTTP", "SMB", "DNS"};
  for (int part = 0; part < 3; ++part) {
    Table t(GSchema());
    for (int i = 0; i < 200; ++i) {
      t.column(0).AppendString(apps[rng.NextBelow(3)]);
      t.column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
      t.column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(10000)));
      t.CommitRow();
    }
    auto r = ExecuteAggregate(t, *q);
    ASSERT_TRUE(r.ok());
    merged.Merge(*r);
  }
  ASSERT_EQ(merged.groups.size(), expected->groups.size());
  for (size_t g = 0; g < merged.groups.size(); ++g) {
    EXPECT_EQ(merged.groups[g].first, expected->groups[g].first);
    for (size_t i = 1; i < merged.groups[g].second.size(); ++i) {
      EXPECT_DOUBLE_EQ(merged.groups[g].second[i].sum,
                       expected->groups[g].second[i].sum);
      EXPECT_EQ(merged.groups[g].second[i].count,
                expected->groups[g].second[i].count);
      EXPECT_DOUBLE_EQ(merged.groups[g].second[i].min,
                       expected->groups[g].second[i].min);
      EXPECT_DOUBLE_EQ(merged.groups[g].second[i].max,
                       expected->groups[g].second[i].max);
    }
  }
}

TEST(GroupByTest, SerializationRoundTripWithGroups) {
  auto t = GTable(300, 9);
  auto q = ParseSelect("SELECT app, SUM(bytes) FROM t GROUP BY app");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->groups.empty());
  Writer w;
  r->Encode(w);
  Reader rd(w.bytes());
  auto back = AggregateResult::Decode(rd);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, *r);
}

TEST(GroupByTest, MergeGroupedWithEmpty) {
  auto t = GTable(100);
  auto q = ParseSelect("SELECT app, COUNT(*) FROM t GROUP BY app");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  AggregateResult empty;
  empty.states.resize(r->states.size());
  AggregateResult merged = empty;
  merged.Merge(*r);
  EXPECT_EQ(merged.groups.size(), r->groups.size());
  EXPECT_EQ(merged.rows_matched, r->rows_matched);
}

TEST(ValueTest, SerializationRoundTrip) {
  for (const Value& v : {Value(int64_t{-5}), Value(3.25), Value(std::string("hi"))}) {
    Writer w;
    v.Encode(w);
    Reader r(w.bytes());
    auto back = Value::Decode(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(back->type(), v.type());
  }
}

TEST(ValueTest, OrderingIsStrictWeak) {
  std::vector<Value> vs = {Value(int64_t{2}), Value(int64_t{1}), Value(1.5),
                           Value(std::string("b")), Value(std::string("a"))};
  std::sort(vs.begin(), vs.end());
  // Ints first (by value), then doubles, then strings.
  EXPECT_EQ(vs[0], Value(int64_t{1}));
  EXPECT_EQ(vs[1], Value(int64_t{2}));
  EXPECT_EQ(vs[2], Value(1.5));
  EXPECT_EQ(vs[3], Value(std::string("a")));
}

// --- Linear group merge ---

// A grouped result over a random subset of `universe` (sorted keys), with
// an exact state, a QUANTILE sketch and a DISTINCT_APPROX sketch per group;
// some groups carry no sketch, as groups created by a merge start out.
AggregateResult RandomGrouped(const std::vector<Value>& universe,
                              seaweed::Rng& rng) {
  const AggregateFunction* quantile = FindAggregate("QUANTILE");
  const AggregateFunction* distinct = FindAggregate("DISTINCT_APPROX");
  AggregateResult r;
  r.states.resize(3);
  quantile->InitState(r.states[1], 0.9);
  distinct->InitState(r.states[2], 0);
  const uint64_t keep = 1 + rng.NextBelow(4);  // keep ~1/keep of the keys
  for (const Value& key : universe) {
    if (rng.NextBelow(keep) != 0) continue;
    std::vector<AggState> states(3);
    if (rng.NextBelow(8) != 0) {
      quantile->InitState(states[1], 0.9);
      distinct->InitState(states[2], 0);
    }
    const int rows = static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < rows; ++i) {
      const double v = static_cast<double>(rng.NextBelow(100000)) / 8;
      for (AggState& s : states) s.Add(v);
      for (AggState& s : r.states) s.Add(v);
    }
    if (rows == 0 && rng.NextBelow(2) == 0) states[0].sum = -0.0;
    r.rows_matched += rows;
    r.groups.emplace_back(key, std::move(states));
  }
  r.endsystems = 1;
  return r;
}

// What Merge did key by key before: insert each incoming key in place.
AggregateResult PerKeyMerge(AggregateResult into, const AggregateResult& other) {
  if (into.states.empty()) {
    into.states = other.states;
  } else {
    for (size_t i = 0; i < into.states.size(); ++i) {
      into.states[i].Merge(other.states[i]);
    }
  }
  for (const auto& [key, theirs] : other.groups) {
    std::vector<AggState>& mine = into.GroupStates(key, theirs.size());
    for (size_t i = 0; i < mine.size(); ++i) mine[i].Merge(theirs[i]);
  }
  into.rows_matched += other.rows_matched;
  into.endsystems += other.endsystems;
  return into;
}

std::vector<uint8_t> Bytes(const AggregateResult& r) {
  Writer w;
  r.Encode(w);
  return w.bytes();
}

TEST(GroupByTest, LinearMergeMatchesPerKeyMerge) {
  seaweed::Rng rng(17);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<Value> universe;
    const size_t n = 1 + rng.NextBelow(300);
    for (size_t i = 0; i < n; ++i) {
      if (trial % 2 == 0) {
        universe.emplace_back(static_cast<int64_t>(i * 3));
      } else {
        universe.emplace_back("k" + std::to_string(1000 + i));
      }
    }
    // Merge a chain of results, as a vertex folds its children.
    AggregateResult merged = RandomGrouped(universe, rng);
    AggregateResult reference = merged;
    for (int step = 0; step < 4; ++step) {
      const AggregateResult next = RandomGrouped(universe, rng);
      merged.Merge(next);
      reference = PerKeyMerge(std::move(reference), next);
      ASSERT_EQ(Bytes(merged), Bytes(reference))
          << "trial " << trial << " step " << step;
    }
    // Into an empty result (a fresh merged vertex result) too.
    AggregateResult fresh;
    const AggregateResult one = RandomGrouped(universe, rng);
    fresh.Merge(one);
    ASSERT_EQ(Bytes(fresh), Bytes(PerKeyMerge(AggregateResult{}, one)));
  }
}

}  // namespace
}  // namespace seaweed::db
