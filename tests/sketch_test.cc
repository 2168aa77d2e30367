// Tests for the mergeable-aggregate registry and the approximate sketch
// functions (DISTINCT_APPROX / QUANTILE / TOPK): accuracy against exact
// ground truth, lossless codecs, merge-order properties over random
// partitions and random tree shapes. The batch engine's sketch states are
// checked against SQLite in sqlite_oracle_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "db/aggregate.h"
#include "db/query_exec.h"
#include "db/sketch.h"
#include "db/sql_parser.h"

namespace seaweed::db {
namespace {

Schema TestSchema() {
  return Schema({
      {"ts", ColumnType::kInt64, true},
      {"port", ColumnType::kInt64, true},
      {"bytes", ColumnType::kInt64, true},
      {"ratio", ColumnType::kDouble, false},
      {"app", ColumnType::kString, true},
  });
}

std::unique_ptr<Table> MakeTable(int rows, uint64_t seed = 1,
                                 uint64_t port_range = 1000) {
  auto t = std::make_unique<Table>(TestSchema());
  seaweed::Rng rng(seed);
  const char* apps[] = {"HTTP", "SMB", "DNS", "SMTP", "SSH", "NTP"};
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(i);
    t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(port_range)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(100000)));
    t->column(3).AppendDouble(rng.NextDouble());
    t->column(4).AppendString(apps[rng.NextBelow(6)]);
    t->CommitRow();
  }
  return t;
}

// --- Registry ---

TEST(AggregateRegistryTest, ResolvesBuiltinsCaseInsensitively) {
  EXPECT_NE(FindAggregate("SUM"), nullptr);
  EXPECT_NE(FindAggregate("sum"), nullptr);
  EXPECT_EQ(FindAggregate("sum"), FindAggregate("SUM"));
  EXPECT_NE(FindAggregate("distinct_approx"), nullptr);
  EXPECT_NE(FindAggregate("Quantile"), nullptr);
  EXPECT_NE(FindAggregate("TOPK"), nullptr);
  EXPECT_EQ(FindAggregate("MEDIAN"), nullptr);
}

TEST(AggregateRegistryTest, TagsAreStableAndDispatchable) {
  auto& reg = AggregateRegistry::Global();
  EXPECT_EQ(FindAggregate("DISTINCT_APPROX")->state_tag(), kStateTagHll);
  EXPECT_EQ(FindAggregate("QUANTILE")->state_tag(), kStateTagQuantile);
  EXPECT_EQ(FindAggregate("TOPK")->state_tag(), kStateTagTopK);
  EXPECT_EQ(reg.FindByTag(kStateTagHll), FindAggregate("DISTINCT_APPROX"));
  EXPECT_EQ(reg.FindByTag(kStateTagExact), nullptr);
  for (const AggregateFunction* fn : reg.All()) {
    EXPECT_EQ(fn->exact(), fn->state_tag() == kStateTagExact) << fn->name();
  }
}

// --- Parser integration ---

TEST(SketchParserTest, ParsesSketchFunctionsWithParams) {
  auto q = ParseSelect("SELECT DISTINCT_APPROX(port) FROM t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->items[0].func, FindAggregate("DISTINCT_APPROX"));
  EXPECT_FALSE(q->items[0].has_param);

  q = ParseSelect("SELECT QUANTILE(bytes, 0.9) FROM t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->items[0].has_param);
  EXPECT_DOUBLE_EQ(q->items[0].param, 0.9);
  EXPECT_DOUBLE_EQ(q->items[0].EffectiveParam(), 0.9);

  q = ParseSelect("SELECT QUANTILE(bytes) FROM t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_DOUBLE_EQ(q->items[0].EffectiveParam(), 0.5);  // default: median

  q = ParseSelect("SELECT TOPK(app, 3) FROM t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_DOUBLE_EQ(q->items[0].param, 3);
}

TEST(SketchParserTest, ToStringRoundTripsParams) {
  for (const char* sql :
       {"SELECT QUANTILE(bytes, 0.9) FROM t",
        "SELECT TOPK(app, 3) FROM t WHERE port < 100",
        "SELECT DISTINCT_APPROX(port), COUNT(*) FROM t GROUP BY app"}) {
    auto q = ParseSelect(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto q2 = ParseSelect(q->ToString());
    ASSERT_TRUE(q2.ok()) << q->ToString();
    EXPECT_EQ(q->ToString(), q2->ToString());
  }
}

TEST(SketchParserTest, RejectsBadParams) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(bytes, 2) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT QUANTILE(bytes, 1.5) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT QUANTILE(bytes, 0) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT TOPK(app, 0) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT TOPK(app, 2.5) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT DISTINCT_APPROX(*) FROM t").ok());
}

// --- HLL accuracy ---

TEST(HllSketchTest, RelativeErrorUnderTwoPercentAt1e5Distinct) {
  HllSketch hll;
  constexpr int64_t kDistinct = 100000;
  for (int64_t i = 0; i < kDistinct; ++i) {
    hll.Update(static_cast<double>(i));
    hll.Update(static_cast<double>(i));  // duplicates must not inflate
  }
  double est = hll.Estimate();
  EXPECT_LT(std::abs(est - kDistinct) / kDistinct, 0.02) << est;
}

TEST(HllSketchTest, SmallRangeIsNearExact) {
  HllSketch hll;
  for (int64_t i = 0; i < 50; ++i) hll.Update(static_cast<double>(i));
  EXPECT_NEAR(hll.Estimate(), 50, 2);
}

TEST(HllSketchTest, StringAndNumericKeysHashIndependently) {
  HllSketch a;
  for (int i = 0; i < 1000; ++i) a.UpdateString("key-" + std::to_string(i));
  double est = a.Estimate();
  EXPECT_LT(std::abs(est - 1000) / 1000, 0.05) << est;
}

TEST(HllSketchTest, MergeIsOrderIndependent) {
  HllSketch a, b, ab, ba;
  for (int i = 0; i < 5000; ++i) a.Update(i);
  for (int i = 2500; i < 8000; ++i) b.Update(i);
  ab.Merge(a);
  ab.Merge(b);
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_TRUE(ab.Equals(ba));
  double est = ab.Estimate();
  EXPECT_LT(std::abs(est - 8000) / 8000, 0.03) << est;
}

// --- Quantile accuracy ---

double ExactRankOf(std::vector<double> sorted, double v) {
  auto it = std::upper_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

TEST(QuantileSketchTest, RankErrorUnderOnePercent) {
  seaweed::Rng rng(42);
  QuantileSketch sk;
  std::vector<double> values;
  for (int i = 0; i < 200000; ++i) {
    // Skewed distribution: exercises compaction along the tail.
    double v = std::pow(rng.NextDouble(), 3.0) * 1e6;
    values.push_back(v);
    sk.Update(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double est = sk.Query(q);
    double rank = ExactRankOf(values, est);
    EXPECT_LT(std::abs(rank - q), 0.01) << "q=" << q << " est=" << est;
  }
}

TEST(QuantileSketchTest, MergedPartitionsStayAccurate) {
  seaweed::Rng rng(7);
  std::vector<double> values;
  std::vector<std::unique_ptr<QuantileSketch>> parts;
  for (int p = 0; p < 16; ++p) {
    parts.push_back(std::make_unique<QuantileSketch>());
    for (int i = 0; i < 10000; ++i) {
      double v = rng.NextDouble() * 1000;
      values.push_back(v);
      parts.back()->Update(v);
    }
  }
  QuantileSketch merged;
  for (auto& p : parts) merged.Merge(*p);
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9}) {
    double rank = ExactRankOf(values, merged.Query(q));
    EXPECT_LT(std::abs(rank - q), 0.02) << "q=" << q;
  }
}

// --- TopK accuracy ---

TEST(TopKSketchTest, RecoversHeavyHittersExactly) {
  // Zipf-ish: key i appears (1000 >> i) times; capacity far exceeds the
  // number of distinct keys, so counts are exact.
  TopKSketch sk(TopKSketch::CapacityFor(5));
  for (int key = 0; key < 20; ++key) {
    int n = 1000 >> key;
    for (int i = 0; i < n; ++i) sk.Update(key);
  }
  auto top = sk.Top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, Value(0.0));
  EXPECT_EQ(top[0].second, 1000);
  EXPECT_EQ(top[1].first, Value(1.0));
  EXPECT_EQ(top[1].second, 500);
  EXPECT_EQ(top[2].first, Value(2.0));
  EXPECT_EQ(top[2].second, 250);
}

TEST(TopKSketchTest, CountErrorBoundedByNOverCapacity) {
  // Adversarial: many singletons drown a moderately heavy key.
  const size_t capacity = TopKSketch::CapacityFor(1);  // 64
  TopKSketch sk(capacity);
  const int64_t heavy_count = 5000;
  int64_t n = heavy_count;
  for (int64_t i = 0; i < heavy_count; ++i) sk.UpdateString("heavy");
  seaweed::Rng rng(3);
  for (int64_t i = 0; i < 50000; ++i, ++n) {
    sk.UpdateString("s" + std::to_string(rng.NextBelow(1u << 30)));
  }
  auto top = sk.Top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, Value(std::string("heavy")));
  // Misra-Gries guarantee: estimate in [true - N/capacity, true].
  EXPECT_LE(top[0].second, heavy_count);
  EXPECT_GE(top[0].second,
            heavy_count - n / static_cast<int64_t>(capacity));
}

// --- Lossless codecs ---

template <typename Sk>
void ExpectRoundTrip(const Sk& sk) {
  Writer w;
  sk.Encode(w);
  Reader r(w.bytes());
  auto decoded = Sk::Decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(sk.Equals(**decoded));
  EXPECT_EQ(r.remaining(), 0u);
  // Losslessness must be byte-exact: re-encoding the decoded state must
  // reproduce the original bytes (the serializing-transport differential
  // compares codec-on vs codec-off runs).
  Writer w2;
  (*decoded)->Encode(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(SketchCodecTest, HllRoundTripsSparseAndDense) {
  HllSketch sparse;
  for (int i = 0; i < 10; ++i) sparse.Update(i);
  ExpectRoundTrip(sparse);

  HllSketch dense;
  for (int i = 0; i < 100000; ++i) dense.Update(i);
  ExpectRoundTrip(dense);

  ExpectRoundTrip(HllSketch());  // empty
}

TEST(SketchCodecTest, QuantileRoundTripsMidCompactionBuffer) {
  QuantileSketch sk;
  seaweed::Rng rng(9);
  // 3000 inserts leaves both compacted centroids and a raw tail.
  for (int i = 0; i < 3000; ++i) sk.Update(rng.NextDouble() * 100);
  ExpectRoundTrip(sk);
  ExpectRoundTrip(QuantileSketch());
}

TEST(SketchCodecTest, TopKRoundTripsMixedKeys) {
  TopKSketch sk(TopKSketch::CapacityFor(4));
  sk.UpdateString("alpha");
  sk.UpdateString("alpha");
  sk.Update(42.0);
  sk.Update(-1.5);
  ExpectRoundTrip(sk);
}

TEST(SketchCodecTest, UnknownTagIsParseErrorNotCrash) {
  Writer w;
  w.PutU8(1);  // payload version — irrelevant, tag dispatch fails first
  Reader r(w.bytes());
  auto decoded = DecodeSketchState(99, r);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError());
}

TEST(SketchCodecTest, AggStateCarriesSketchThroughWire) {
  AggState s;
  FindAggregate("DISTINCT_APPROX")->InitState(s, 0);
  for (int i = 0; i < 500; ++i) s.Add(i);
  Writer w;
  s.Encode(w);
  Reader r(w.bytes());
  auto back = AggState::Decode(r);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(s == *back);

  AggState exact;
  exact.Add(3.5);
  Writer we;
  exact.Encode(we);
  Reader re(we.bytes());
  auto exact_back = AggState::Decode(re);
  ASSERT_TRUE(exact_back.ok());
  EXPECT_TRUE(exact == *exact_back);
  EXPECT_EQ(exact_back->sketch, nullptr);
}

// --- Engine integration ---

TEST(SketchEngineTest, SketchAnswersTrackExactGroundTruth) {
  auto t = MakeTable(50000, 13, 30000);
  auto q = ParseSelect("SELECT DISTINCT_APPROX(port), COUNT(*) FROM t");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  std::vector<int64_t> ports;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    ports.push_back(t->column(1).Int64At(i));
  }
  std::sort(ports.begin(), ports.end());
  const double exact_distinct = static_cast<double>(
      std::unique(ports.begin(), ports.end()) - ports.begin());
  auto v = q->items[0].func->Finalize(r->states[0]);
  ASSERT_TRUE(v.ok());
  const double est = static_cast<double>(v->AsInt64());
  // ~24k distinct sits in the classic-HLL bias crossover around 6*m
  // (m=4096), where error runs a little above the 1.6% standard error;
  // allow 2 sigma here. The <=2% assertion lives at 1e5 distinct
  // (HllSketchTest), past the crossover.
  EXPECT_LT(std::abs(est - exact_distinct) / exact_distinct, 0.033)
      << "est=" << est << " exact=" << exact_distinct;
}

TEST(SketchEngineTest, ExactStatesCarryNoSketchOverhead) {
  auto t = MakeTable(1000);
  auto q = ParseSelect("SELECT COUNT(*), SUM(bytes) FROM t");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->HasSketchStates());
  EXPECT_EQ(r->SketchStateBytes(), 0u);

  auto qs = ParseSelect("SELECT DISTINCT_APPROX(port) FROM t");
  auto rs = ExecuteAggregate(*t, *qs);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->HasSketchStates());
  EXPECT_GT(rs->SketchStateBytes(), 0u);
}

// --- Merge-order / tree-shape properties for every registered function ---

// Runs `sql` over ndisjoint row partitions of `t`, merges the partial
// results in a random binary tree shape, and returns the merged result.
AggregateResult MergeOverRandomTree(const Table& whole, const char* sql,
                                    int parts, seaweed::Rng& rng) {
  auto q = ParseSelect(sql);
  EXPECT_TRUE(q.ok()) << sql;
  // Partition rows round-robin into `parts` tables.
  std::vector<Table> tables;
  for (int p = 0; p < parts; ++p) tables.emplace_back(TestSchema());
  for (size_t row = 0; row < whole.num_rows(); ++row) {
    Table& t = tables[row % static_cast<size_t>(parts)];
    for (size_t c = 0; c < whole.num_columns(); ++c) {
      switch (whole.schema().column(c).type) {
        case ColumnType::kInt64:
          t.column(c).AppendInt64(whole.column(c).Int64At(row));
          break;
        case ColumnType::kDouble:
          t.column(c).AppendDouble(whole.column(c).DoubleAt(row));
          break;
        case ColumnType::kString:
          t.column(c).AppendString(whole.column(c).ValueAt(row).AsString());
          break;
      }
    }
    t.CommitRow();
  }
  std::vector<AggregateResult> partials;
  for (const Table& t : tables) {
    auto r = ExecuteAggregate(t, *q);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
    partials.push_back(std::move(*r));
  }
  // Random tree shape: repeatedly merge two random entries.
  while (partials.size() > 1) {
    size_t i = rng.NextBelow(partials.size());
    size_t j = rng.NextBelow(partials.size() - 1);
    if (j >= i) ++j;
    partials[std::min(i, j)].Merge(partials[std::max(i, j)]);
    partials.erase(partials.begin() +
                   static_cast<ptrdiff_t>(std::max(i, j)));
  }
  return std::move(partials[0]);
}

TEST(MergePropertyTest, ExactFunctionsAreShapeInvariant) {
  auto whole = MakeTable(3000, 17);
  const char* sql =
      "SELECT COUNT(*), SUM(bytes), AVG(bytes), MIN(ratio), MAX(ratio) "
      "FROM t WHERE port < 800";
  auto q = ParseSelect(sql);
  auto expected = ExecuteAggregate(*whole, *q);
  ASSERT_TRUE(expected.ok());
  seaweed::Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    int parts = 2 + static_cast<int>(rng.NextBelow(9));
    AggregateResult merged = MergeOverRandomTree(*whole, sql, parts, rng);
    EXPECT_EQ(merged.rows_matched, expected->rows_matched);
    // The exactness contract is over *finalized* answers: the quad's sum
    // field of a MIN/MAX state over a double column can differ in the last
    // bit across merge orders (FP addition is not associative), but every
    // finalized value must be bit-identical.
    for (size_t i = 0; i < q->items.size(); ++i) {
      auto got = q->items[i].func->Finalize(merged.states[i]);
      auto want = q->items[i].func->Finalize(expected->states[i]);
      ASSERT_EQ(got.ok(), want.ok());
      EXPECT_TRUE(*got == *want)
          << "trial " << trial << " item " << q->items[i].func->name();
    }
  }
}

TEST(MergePropertyTest, SketchFunctionsDeterministicGivenTreeShape) {
  auto whole = MakeTable(4000, 19, 2000);
  const char* sql =
      "SELECT DISTINCT_APPROX(port), QUANTILE(bytes, 0.9), TOPK(app, 3) "
      "FROM t";
  // Same partitioning + same merge order (same rng seed) => identical bytes.
  seaweed::Rng rng_a(31), rng_b(31);
  AggregateResult a = MergeOverRandomTree(*whole, sql, 7, rng_a);
  AggregateResult b = MergeOverRandomTree(*whole, sql, 7, rng_b);
  EXPECT_TRUE(a == b);
  Writer wa, wb;
  a.Encode(wa);
  b.Encode(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(MergePropertyTest, SketchAccuracySurvivesAnyTreeShape) {
  auto whole = MakeTable(20000, 29, 8000);
  // Exact ground truths.
  std::vector<int64_t> ports, bytes;
  for (size_t i = 0; i < whole->num_rows(); ++i) {
    ports.push_back(whole->column(1).Int64At(i));
    bytes.push_back(whole->column(2).Int64At(i));
  }
  std::sort(ports.begin(), ports.end());
  const double exact_distinct = static_cast<double>(
      std::unique(ports.begin(), ports.end()) - ports.begin());
  std::sort(bytes.begin(), bytes.end());

  const char* sql =
      "SELECT DISTINCT_APPROX(port), QUANTILE(bytes, 0.9) FROM t";
  auto q = ParseSelect(sql);
  seaweed::Rng rng(37);
  for (int trial = 0; trial < 6; ++trial) {
    int parts = 2 + static_cast<int>(rng.NextBelow(15));
    AggregateResult merged = MergeOverRandomTree(*whole, sql, parts, rng);
    auto distinct = q->items[0].func->Finalize(merged.states[0]);
    ASSERT_TRUE(distinct.ok());
    EXPECT_LT(std::abs(static_cast<double>(distinct->AsInt64()) -
                       exact_distinct) /
                  exact_distinct,
              0.02)
        << "trial " << trial << " parts " << parts;
    auto q90 = q->items[1].func->Finalize(merged.states[1], 0.9);
    ASSERT_TRUE(q90.ok());
    auto it = std::upper_bound(bytes.begin(), bytes.end(),
                               static_cast<int64_t>(q90->AsDouble()));
    double rank = static_cast<double>(it - bytes.begin()) /
                  static_cast<double>(bytes.size());
    EXPECT_LT(std::abs(rank - 0.9), 0.02)
        << "trial " << trial << " parts " << parts;
  }
}

}  // namespace
}  // namespace seaweed::db
