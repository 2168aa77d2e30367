// Property-style tests: parameterized sweeps over randomized inputs,
// checking the structural invariants the protocols rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/node_id.h"
#include "common/serialize.h"
#include "db/aggregate.h"
#include "db/histogram.h"
#include "db/query_exec.h"
#include "db/sql_parser.h"
#include "seaweed/availability_model.h"
#include "seaweed/completeness.h"
#include "seaweed/id_range.h"
#include "seaweed/vertex_function.h"

namespace seaweed {
namespace {

// --- NodeId ring algebra over random seeds ---

class NodeIdProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NodeIdProperty, RingDistanceIsAMetricOnTheRing) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    NodeId a = NodeId::Random(rng);
    NodeId b = NodeId::Random(rng);
    NodeId c = NodeId::Random(rng);
    // Identity and symmetry.
    EXPECT_EQ(a.RingDistanceTo(a), NodeId());
    EXPECT_EQ(a.RingDistanceTo(b), b.RingDistanceTo(a));
    // Triangle inequality holds on the circle metric (mod-2^128 distances
    // never exceed half the ring, so no overflow in Add).
    NodeId ab = a.RingDistanceTo(b);
    NodeId bc = b.RingDistanceTo(c);
    NodeId ac = a.RingDistanceTo(c);
    EXPECT_LE(ac, ab.Add(bc));
  }
}

TEST_P(NodeIdProperty, CwPlusCcwDistancesSumToRing) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    NodeId a = NodeId::Random(rng);
    NodeId b = NodeId::Random(rng);
    if (a == b) continue;
    // cw(a->b) + cw(b->a) == 2^128 == 0 (mod ring).
    EXPECT_EQ(a.ClockwiseDistanceTo(b).Add(b.ClockwiseDistanceTo(a)),
              NodeId());
  }
}

TEST_P(NodeIdProperty, DigitsReassembleToId) {
  Rng rng(GetParam());
  for (int b : {1, 2, 4, 8}) {
    NodeId id = NodeId::Random(rng);
    NodeId rebuilt;
    for (int i = 0; i < kIdBits / b; ++i) {
      rebuilt = rebuilt.WithDigit(i, b, id.Digit(i, b));
    }
    EXPECT_EQ(rebuilt, id) << "base 2^" << b;
  }
}

TEST_P(NodeIdProperty, PrefixSuffixPartitionDigits) {
  Rng rng(GetParam());
  const int b = 4;
  for (int i = 0; i < 50; ++i) {
    NodeId id = NodeId::Random(rng);
    int cut = static_cast<int>(rng.NextBelow(kIdBits / b + 1));
    EXPECT_EQ(id.Prefix(cut, b).Add(id.Suffix(kIdBits / b - cut, b)), id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeIdProperty,
                         ::testing::Values(1, 7, 42, 1337, 99991));

// --- IdRange recursive splitting: the dissemination partition invariant ---

class RangeSplitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeSplitProperty, RecursiveSplitPartitionsTheRing) {
  // Repeatedly split the full ring to a random depth; the resulting leaf
  // ranges must contain every probe exactly once — the invariant that gives
  // dissemination its exactly-once coverage.
  Rng rng(GetParam());
  std::vector<IdRange> leaves;
  leaves.push_back(IdRange::Full(NodeId::Random(rng)));
  for (int round = 0; round < 6; ++round) {
    std::vector<IdRange> next;
    for (const auto& r : leaves) {
      if (r.IsEmpty()) continue;
      if (rng.Bernoulli(0.8)) {
        auto [a, b] = r.Split();
        next.push_back(a);
        next.push_back(b);
      } else {
        next.push_back(r);
      }
    }
    leaves = std::move(next);
  }
  for (int probe = 0; probe < 300; ++probe) {
    NodeId x = NodeId::Random(rng);
    int containing = 0;
    for (const auto& r : leaves) {
      if (r.Contains(x)) ++containing;
    }
    EXPECT_EQ(containing, 1) << "probe " << x.ToShortString();
  }
}

TEST_P(RangeSplitProperty, VoronoiPartitionCoversRange) {
  // Mimics the leafset-partition step of ProcessRange: splitting a range
  // among sorted member cells covers it exactly once.
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    // Random sorted members.
    std::vector<NodeId> members;
    int m = 3 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < m; ++i) members.push_back(NodeId::Random(rng));
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (members.size() < 2) continue;

    NodeId lo = NodeId::Random(rng);
    NodeId hi = NodeId::Random(rng);
    if (lo == hi) continue;
    IdRange range{lo, hi, false};

    auto parts = PartitionByClosestMember(range, members);
    for (int probe = 0; probe < 50; ++probe) {
      // Build a probe guaranteed in range: offset < span.
      NodeId span = range.Span();
      NodeId off = NodeId::Random(rng);
      while (!(off < span)) off = off.Half();
      NodeId x = lo.Add(off);
      if (!range.Contains(x)) continue;
      int covered = 0;
      size_t owner = SIZE_MAX;
      for (const auto& p : parts) {
        if (p.range.Contains(x)) {
          ++covered;
          owner = p.member_index;
        }
      }
      ASSERT_EQ(covered, 1);
      // The assigned member is (one of) the numerically closest.
      NodeId assigned_dist = x.RingDistanceTo(members[owner]);
      NodeId min_dist = NodeId::Max();
      for (const NodeId& m : members) {
        NodeId d = x.RingDistanceTo(m);
        if (d < min_dist) min_dist = d;
      }
      EXPECT_EQ(assigned_dist, min_dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSplitProperty,
                         ::testing::Values(11, 23, 47, 81, 1009));

// --- Vertex-function tree properties ---

class VertexTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(VertexTreeProperty, ChainsFromAllNodesConvergeWithBoundedDepth) {
  const int b = GetParam();
  Rng rng(321);
  NodeId q = NodeId::Random(rng);
  for (int i = 0; i < 300; ++i) {
    NodeId v = NodeId::Random(rng);
    if (v == q) continue;
    int depth = VertexDepth(q, v, b);
    EXPECT_LE(depth, kIdBits / b);
    EXPECT_GE(depth, 1);
  }
}

TEST_P(VertexTreeProperty, ChainsMergeOncePrefixesMatch) {
  // Two vertices with the same common-prefix relationship to q have parent
  // chains that merge and then stay merged (it is a tree, not a DAG).
  const int b = GetParam();
  Rng rng(99);
  NodeId q = NodeId::Random(rng);
  for (int i = 0; i < 100; ++i) {
    NodeId v1 = NodeId::Random(rng);
    NodeId v2 = NodeId::Random(rng);
    if (v1 == q || v2 == q) continue;
    // Walk both chains; once equal they must remain equal.
    NodeId a = v1, c = v2;
    bool merged = false;
    for (int step = 0; step < 2 * kIdBits / b + 2; ++step) {
      if (a == c) merged = true;
      if (merged) EXPECT_EQ(a, c);
      if (a != q) a = VertexParent(q, a, b);
      if (c != q) c = VertexParent(q, c, b);
      if (a == q && c == q) break;
    }
    EXPECT_EQ(a, q);
    EXPECT_EQ(c, q);
  }
}

INSTANTIATE_TEST_SUITE_P(DigitWidths, VertexTreeProperty,
                         ::testing::Values(1, 2, 4, 8));

// --- Histogram estimation error bounds across distributions ---

struct HistCase {
  const char* name;
  int buckets;
  double tolerance;  // relative to total rows
};

class HistogramProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HistogramProperty, RangeEstimatesWithinBucketBound) {
  auto [dist, buckets] = GetParam();
  Rng rng(static_cast<uint64_t>(dist * 1000 + buckets));
  std::vector<double> values;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    switch (dist) {
      case 0:
        values.push_back(rng.Uniform(0, 1e6));
        break;
      case 1:
        values.push_back(rng.LogNormal(8, 2));
        break;
      case 2:
        values.push_back(std::floor(rng.Exponential(50)));  // discrete-ish
        break;
      case 3:
        values.push_back(static_cast<double>(rng.Zipf(1000, 1.3)));
        break;
    }
  }
  auto h = db::NumericHistogram::BuildFromValues(values, buckets);
  std::sort(values.begin(), values.end());
  // Equi-depth guarantee: |estimate - truth| <= ~2 bucket depths for any
  // one-sided range (plus slack for duplicate-heavy distributions where
  // buckets are extended to keep equal values together).
  double depth = static_cast<double>(n) / buckets;
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    double cut = values[static_cast<size_t>(q * (n - 1))];
    double truth = 0;
    for (double v : values) {
      if (v <= cut) ++truth;
    }
    double est = h.EstimateLessOrEqual(cut);
    EXPECT_NEAR(est, truth, std::max(4 * depth, 0.01 * n))
        << "dist=" << dist << " buckets=" << buckets << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HistogramProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(16, 64, 200)));

// --- Aggregate merge: associativity/commutativity over random partitions ---

class MergeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeProperty, AnyPartitionAndOrderGivesSameAggregate) {
  Rng rng(GetParam());
  // Build a pool of per-endsystem results.
  std::vector<db::AggregateResult> parts;
  for (int e = 0; e < 20; ++e) {
    db::AggregateResult r;
    r.states.resize(2);
    r.endsystems = 1;
    int rows = 1 + static_cast<int>(rng.NextBelow(50));
    for (int i = 0; i < rows; ++i) {
      double v = rng.Uniform(-100, 100);
      r.states[0].Add(v);
      r.states[1].AddCountOnly();
    }
    r.rows_matched = rows;
    parts.push_back(std::move(r));
  }
  // Reference: left fold in order.
  db::AggregateResult ref;
  for (const auto& p : parts) ref.Merge(p);

  for (int trial = 0; trial < 10; ++trial) {
    // Random binary-tree merge over a random permutation.
    std::vector<db::AggregateResult> pool = parts;
    rng.Shuffle(pool);
    while (pool.size() > 1) {
      size_t i = static_cast<size_t>(rng.NextBelow(pool.size() - 1));
      pool[i].Merge(pool[i + 1]);
      pool.erase(pool.begin() + static_cast<long>(i) + 1);
    }
    const auto& got = pool[0];
    EXPECT_EQ(got.rows_matched, ref.rows_matched);
    EXPECT_EQ(got.endsystems, ref.endsystems);
    EXPECT_NEAR(got.states[0].sum, ref.states[0].sum,
                1e-9 * std::abs(ref.states[0].sum) + 1e-9);
    EXPECT_DOUBLE_EQ(got.states[0].min, ref.states[0].min);
    EXPECT_DOUBLE_EQ(got.states[0].max, ref.states[0].max);
    EXPECT_EQ(got.states[1].count, ref.states[1].count);
  }
}

TEST_P(MergeProperty, PredictorMergeMatchesPointwiseSum) {
  Rng rng(GetParam() ^ 0xabc);
  CompletenessPredictor merged;
  double expected_total = 0;
  std::vector<CompletenessPredictor> parts;
  for (int i = 0; i < 30; ++i) {
    CompletenessPredictor p;
    double rows = rng.Uniform(0, 500);
    p.AddRowsAt(static_cast<SimDuration>(rng.Uniform(0, 7.0 * kDay)), rows);
    expected_total += rows;
    p.AddEndsystems(1);
    merged.Merge(p);
    parts.push_back(std::move(p));
  }
  EXPECT_NEAR(merged.TotalRows(), expected_total, 1e-6);
  EXPECT_EQ(merged.endsystems(), 30);
  // Cumulative curve equals sum of per-part curves at every bucket edge.
  for (int i = 0; i < CompletenessPredictor::kBuckets; ++i) {
    SimDuration edge = CompletenessPredictor::Edge(i);
    double sum = 0;
    for (const auto& p : parts) sum += p.ExpectedRowsBy(edge);
    EXPECT_NEAR(merged.ExpectedRowsBy(edge), sum, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(5, 55, 555));

// --- Plan caching over random tables and predicate trees ---
//
// Random tables and random predicate trees over all three column types.
// The batch engine's answers themselves are checked against SQLite in
// sqlite_oracle_test.cc.

class PlanCacheProperty : public ::testing::TestWithParam<uint64_t> {};

namespace diff {

// String pool: the first 5 appear in tables, the last 2 only as predicate
// literals (dictionary-absent codes must behave identically: = matches
// nothing, != matches everything).
const char* kStrings[] = {"HTTP", "SMB", "DNS", "NFS", "RPC",
                          "GHOST", "PHANTOM"};

db::PredicatePtr RandomPredicate(Rng& rng, int depth) {
  if (depth > 0 && rng.Bernoulli(0.4)) {
    auto l = RandomPredicate(rng, depth - 1);
    auto r = RandomPredicate(rng, depth - 1);
    return rng.Bernoulli(0.5) ? db::Predicate::And(l, r)
                              : db::Predicate::Or(l, r);
  }
  if (rng.Bernoulli(0.05)) return db::Predicate::True();
  switch (rng.NextBelow(4)) {
    case 0: {  // int column, int or double literal, any op
      auto op = static_cast<db::CompareOp>(rng.NextBelow(6));
      db::Value lit = rng.Bernoulli(0.7)
                          ? db::Value(static_cast<int64_t>(rng.NextBelow(100)))
                          : db::Value(rng.Uniform(0, 100));
      return db::Predicate::Compare("port", op, std::move(lit));
    }
    case 1: {  // double column, any op
      auto op = static_cast<db::CompareOp>(rng.NextBelow(6));
      return db::Predicate::Compare("load", op, db::Value(rng.Uniform(0, 10)));
    }
    case 2: {  // string column, =/!= only (range compares are rejected)
      auto op = rng.Bernoulli(0.5) ? db::CompareOp::kEq : db::CompareOp::kNe;
      return db::Predicate::Compare(
          "app", op, db::Value(std::string(kStrings[rng.NextBelow(7)])));
    }
    default: {  // second int column for multi-column conjunctions
      auto op = static_cast<db::CompareOp>(rng.NextBelow(6));
      return db::Predicate::Compare(
          "bytes", op, db::Value(static_cast<int64_t>(rng.NextBelow(5000))));
    }
  }
}

db::SelectQuery RandomQuery(Rng& rng) {
  db::SelectQuery q;
  q.table = "t";
  q.where = RandomPredicate(rng, 2);
  // GROUP BY: none (40%), the string column (40% — dense fast path), or an
  // int column (20% — Value-keyed fallback path).
  uint64_t mode = rng.NextBelow(5);
  if (mode >= 3) q.group_by = "app";
  if (mode == 2) q.group_by = "port";
  if (!q.group_by.empty() && rng.Bernoulli(0.7)) {
    db::SelectItem group_item;
    group_item.column = q.group_by;
    q.items.push_back(std::move(group_item));
  }
  static const char* kExact[] = {"SUM", "COUNT", "AVG", "MIN", "MAX"};
  const char* numeric[] = {"port", "load", "bytes"};
  int n_aggs = 1 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < n_aggs; ++i) {
    db::SelectItem item;
    item.is_aggregate = true;
    item.func = db::FindAggregate(kExact[rng.NextBelow(5)]);
    switch (rng.NextBelow(3)) {
      case 0:
        item.func = db::FindAggregate("COUNT");
        item.column = rng.Bernoulli(0.5) ? "" : "app";  // COUNT(*)/(string)
        break;
      case 1:
        item.column = numeric[rng.NextBelow(3)];
        break;
      default:
        item.column = "bytes";
        break;
    }
    q.items.push_back(std::move(item));
  }
  return q;
}

std::unique_ptr<db::Table> RandomTable(Rng& rng) {
  db::Schema schema({
      {"app", db::ColumnType::kString, true},
      {"port", db::ColumnType::kInt64, true},
      {"load", db::ColumnType::kDouble, false},
      {"bytes", db::ColumnType::kInt64, true},
  });
  auto t = std::make_unique<db::Table>(std::move(schema));
  // Sizes straddle the batch boundary: empty, tiny, exactly one batch,
  // and multi-batch tables all occur.
  static const uint32_t kSizes[] = {0, 1, 17, 1023, 1024, 1025, 2500};
  uint32_t rows = kSizes[rng.NextBelow(7)];
  for (uint32_t i = 0; i < rows; ++i) {
    t->column(0).AppendString(kStrings[rng.NextBelow(5)]);
    t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
    t->column(2).AppendDouble(rng.Uniform(0, 10));
    t->column(3).AppendInt64(static_cast<int64_t>(rng.NextBelow(5000)));
    t->CommitRow();
  }
  return t;
}

}  // namespace diff

// Plan caching must not change results: a cached plan re-executed against a
// structurally identical (regenerated) table gives the same answer, and a
// schema change forces a clean re-bind.
TEST_P(PlanCacheProperty, CachedPlansMatchFreshBinds) {
  Rng rng(GetParam() ^ 0x5ea1ULL);
  db::PlanCache cache;
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t table_seed = rng.Next();
    Rng t1(table_seed), t2(table_seed);
    auto table = diff::RandomTable(t1);
    auto regenerated = diff::RandomTable(t2);  // deterministic twin
    db::SelectQuery query = diff::RandomQuery(rng);
    std::string key = "q" + std::to_string(trial % 7);  // force key reuse
    auto first = cache.GetOrBind(key, *table, query);
    auto fresh = db::ExecuteAggregate(*regenerated, query);
    if (!first.ok()) {
      EXPECT_FALSE(fresh.ok());
      continue;
    }
    auto cached = cache.GetOrBind(key, *regenerated, query);
    ASSERT_TRUE(cached.ok());
    auto via_cache = (*cached)->Execute(*regenerated);
    ASSERT_TRUE(via_cache.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*via_cache, *fresh);
  }
  EXPECT_GT(cache.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheProperty,
                         ::testing::Values(3, 31, 314, 3141, 31415));

// The cache keys a plan by its query's ToString() fingerprint, so that text
// must tell apart queries whose literals differ anywhere, also past a
// double's 6th significant digit.
TEST(PlanCacheTest, FingerprintKeepsEveryLiteralDigit) {
  db::Table table(db::Schema({{"load", db::ColumnType::kDouble, false}}));
  table.column(0).AppendDouble(1.00000015);
  table.CommitRow();
  auto narrow =
      db::ParseSelect("SELECT COUNT(*) FROM t WHERE load < 1.0000001");
  auto wide = db::ParseSelect("SELECT COUNT(*) FROM t WHERE load < 1.0000002");
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_NE(narrow->ToString(), wide->ToString());

  db::PlanCache cache;
  auto first = cache.GetOrBind("k", table, *narrow);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->Execute(table)->rows_matched, 0);
  auto second = cache.GetOrBind("k", table, *wide);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->Execute(table)->rows_matched, 1);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.binds(), 2u);
}

// --- Serialization fuzz: random bytes never crash, round trips are exact ---

class SerializationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzz, RandomBytesNeverCrashDeserializers) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    {
      Reader r(junk);
      (void)db::AggregateResult::Decode(r);
    }
    {
      Reader r(junk);
      (void)CompletenessPredictor::Decode(r);
    }
    {
      Reader r(junk);
      (void)db::NumericHistogram::Decode(r);
    }
    {
      Reader r(junk);
      (void)AvailabilityModel::Decode(r);
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Values(2, 22, 222));

}  // namespace
}  // namespace seaweed
