#include <gtest/gtest.h>

#include "seaweed/availability_model.h"
#include "seaweed/completeness.h"
#include "seaweed/id_range.h"
#include "seaweed/metadata.h"
#include "seaweed/query.h"
#include "seaweed/vertex_function.h"

namespace seaweed {
namespace {

// --- AvailabilityModel ---

TEST(AvailabilityModelTest, PeriodicClassification) {
  AvailabilityModel m;
  // Comes up at hour 8 every day: strongly periodic.
  for (int day = 0; day < 10; ++day) {
    SimTime down = day * kDay + 18 * kHour;
    SimTime up = (day + 1) * kDay + 8 * kHour + 30 * kMinute;
    m.RecordDownPeriod(down, up);
  }
  EXPECT_TRUE(m.IsPeriodic());
  EXPECT_EQ(m.observations(), 10);
  EXPECT_EQ(m.up_hour_histogram()[8], 10u);
}

TEST(AvailabilityModelTest, NonPeriodicClassification) {
  AvailabilityModel m;
  // Uniformly random up hours: not periodic.
  Rng rng(1);
  for (int i = 0; i < 48; ++i) {
    SimTime down = i * kDay;
    SimTime up = down + static_cast<SimDuration>(
                            rng.UniformInt(1, 23)) * kHour +
                 static_cast<SimDuration>(rng.UniformInt(0, 59)) * kMinute;
    m.RecordDownPeriod(down, up);
  }
  EXPECT_FALSE(m.IsPeriodic());
}

TEST(AvailabilityModelTest, TooFewObservationsNotPeriodic) {
  AvailabilityModel m;
  m.RecordDownPeriod(0, 8 * kHour);
  EXPECT_FALSE(m.IsPeriodic());
}

TEST(AvailabilityModelTest, PeriodicPredictsNextOccurrence) {
  AvailabilityModel m;
  for (int day = 0; day < 10; ++day) {
    m.RecordDownPeriod(day * kDay + 18 * kHour,
                       (day + 1) * kDay + 9 * kHour);
  }
  ASSERT_TRUE(m.IsPeriodic());
  // Machine went down at 18:00; at 20:00 the next hour-9 occurrence is
  // 13 hours away.
  SimTime now = 20 * kHour;
  SimTime down_since = 18 * kHour;
  EXPECT_LT(m.ProbUpBy(now, down_since, now + 2 * kHour), 0.2);
  EXPECT_GT(m.ProbUpBy(now, down_since, now + 14 * kHour), 0.8);
  SimTime predicted = m.PredictUpTime(now, down_since);
  EXPECT_GE(predicted, 8 * kHour + kDay);
  EXPECT_LE(predicted, 10 * kHour + kDay);
}

TEST(AvailabilityModelTest, DownDurationConditionalPrediction) {
  AvailabilityModel m;
  // Downtimes of ~2 hours, at random hours (non-periodic).
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    SimTime down = i * kDay + static_cast<SimDuration>(
                                  rng.UniformInt(0, 23)) * kHour;
    m.RecordDownPeriod(down, down + 2 * kHour + (i % 7) * kMinute);
  }
  ASSERT_FALSE(m.IsPeriodic());
  // Down for 1 hour now: should predict return within ~1-2 more hours.
  SimTime now = 100 * kDay;
  SimTime down_since = now - kHour;
  EXPECT_GT(m.ProbUpBy(now, down_since, now + 2 * kHour), 0.8);
  EXPECT_LT(m.ProbUpBy(now, down_since, now + 10 * kMinute), 0.6);
}

TEST(AvailabilityModelTest, ProbUpByMonotone) {
  AvailabilityModel m;
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    SimTime down = i * kDay;
    m.RecordDownPeriod(down, down + static_cast<SimDuration>(rng.UniformInt(
                                        1, 20)) * kHour);
  }
  SimTime now = 50 * kDay;
  SimTime down_since = now - 3 * kHour;
  double prev = 0;
  for (SimDuration d = 0; d <= 2 * kDay; d += kHour) {
    double p = m.ProbUpBy(now, down_since, now + d);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(AvailabilityModelTest, EmptyModelFallback) {
  AvailabilityModel m;
  SimTime now = kDay;
  double p1 = m.ProbUpBy(now, now - kHour, now + kHour);
  double p2 = m.ProbUpBy(now, now - kHour, now + kDay);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p2, p1);
  EXPECT_LE(p2, 1.0);
}

TEST(AvailabilityModelTest, SerializationRoundTrip) {
  AvailabilityModel m;
  for (int day = 0; day < 6; ++day) {
    m.RecordDownPeriod(day * kDay, day * kDay + (day + 1) * kHour);
  }
  Writer w;
  m.Encode(w);
  Reader r(w.bytes());
  auto back = AvailabilityModel::Decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(AvailabilityModelTest, SerializedSizeIsCompact) {
  // The paper's a = 48 bytes; ours should be the same order of magnitude.
  AvailabilityModel m;
  for (int day = 0; day < 30; ++day) {
    m.RecordDownPeriod(day * kDay, day * kDay + 14 * kHour);
  }
  EXPECT_LE(m.EncodedBytes(), 128u);
}

// --- CompletenessPredictor ---

TEST(CompletenessTest, ImmediateRowsInBucketZero) {
  CompletenessPredictor p;
  p.AddRowsAt(0, 100);
  EXPECT_DOUBLE_EQ(p.ExpectedRowsBy(0), 100.0);
  EXPECT_DOUBLE_EQ(p.TotalRows(), 100.0);
  EXPECT_DOUBLE_EQ(p.CompletenessAt(0), 1.0);
}

TEST(CompletenessTest, LaterRowsAppearAtHorizon) {
  CompletenessPredictor p;
  p.AddRowsAt(0, 80);
  p.AddRowsAt(2 * kHour, 20);
  EXPECT_DOUBLE_EQ(p.ExpectedRowsBy(0), 80.0);
  EXPECT_DOUBLE_EQ(p.ExpectedRowsBy(kHour), 80.0);
  EXPECT_DOUBLE_EQ(p.ExpectedRowsBy(4 * kHour), 100.0);
  EXPECT_NEAR(p.CompletenessAt(0), 0.8, 1e-12);
}

TEST(CompletenessTest, MergeIsBucketwiseSum) {
  CompletenessPredictor a, b;
  a.AddRowsAt(0, 10);
  a.AddRowsAt(kHour, 5);
  a.AddEndsystems(2);
  b.AddRowsAt(0, 20);
  b.AddRowsAt(kDay, 7);
  b.AddEndsystems(3);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.ExpectedRowsBy(0), 30.0);
  EXPECT_DOUBLE_EQ(a.TotalRows(), 42.0);
  EXPECT_EQ(a.endsystems(), 5);
}

TEST(CompletenessTest, MergeCommutative) {
  CompletenessPredictor a, b, ab, ba;
  a.AddRowsAt(5 * kMinute, 3);
  b.AddRowsAt(3 * kHour, 9);
  ab = a;
  ab.Merge(b);
  ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
}

TEST(CompletenessTest, AvailabilitySpreadIntegratesToTotal) {
  CompletenessPredictor p;
  // Probability ramps linearly to 1 over a day.
  p.AddRowsWithAvailability(1000, [](SimDuration edge) {
    return std::min(1.0, static_cast<double>(edge) /
                             static_cast<double>(kDay));
  });
  EXPECT_NEAR(p.TotalRows(), 1000.0, 1e-6);
  // Roughly half the mass within half a day (the cumulative reading is
  // bucket-conservative, so allow the log-bucket discretization slack).
  EXPECT_NEAR(p.ExpectedRowsBy(kDay / 2), 500.0, 150.0);
}

TEST(CompletenessTest, HorizonForCompleteness) {
  CompletenessPredictor p;
  p.AddRowsAt(0, 50);
  p.AddRowsAt(kHour, 40);
  p.AddRowsAt(kDay, 10);
  EXPECT_EQ(p.HorizonForCompleteness(0.5), 0);
  SimDuration h90 = p.HorizonForCompleteness(0.9);
  EXPECT_GE(h90, kHour);
  EXPECT_LT(h90, 2 * kHour);
  EXPECT_GE(p.HorizonForCompleteness(1.0), kDay);
}

TEST(CompletenessTest, BucketEdgesMonotoneAndLogSpaced) {
  SimDuration prev = -1;
  for (int i = 0; i < CompletenessPredictor::kBuckets; ++i) {
    SimDuration e = CompletenessPredictor::Edge(i);
    EXPECT_GT(e, prev);
    prev = e;
  }
  // Spans seconds to beyond 7 days.
  EXPECT_LE(CompletenessPredictor::Edge(1), 10 * kSecond);
  EXPECT_GT(CompletenessPredictor::MaxHorizon(), 7 * kDay);
}

TEST(CompletenessTest, BucketForRoundTripsEdges) {
  for (int i = 1; i < CompletenessPredictor::kBuckets; ++i) {
    SimDuration e = CompletenessPredictor::Edge(i);
    EXPECT_LE(CompletenessPredictor::BucketFor(e), i) << i;
    EXPECT_GE(CompletenessPredictor::BucketFor(e), i - 1) << i;
  }
}

TEST(CompletenessTest, SerializationRoundTrip) {
  CompletenessPredictor p;
  p.AddRowsAt(0, 12.5);
  p.AddRowsAt(3 * kHour, 7.25);
  p.AddEndsystems(42);
  Writer w;
  p.Encode(w);
  Reader r(w.bytes());
  auto back = CompletenessPredictor::Decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(CompletenessTest, ConstantSerializedSize) {
  CompletenessPredictor a, b;
  for (int i = 0; i < 1000; ++i) b.AddRowsAt(i * kMinute, 1);
  EXPECT_EQ(a.EncodedBytes(), b.EncodedBytes());
}

// --- IdRange ---

TEST(IdRangeTest, ContainsHalfOpen) {
  IdRange r{NodeId(0, 100), NodeId(0, 200), false};
  EXPECT_TRUE(r.Contains(NodeId(0, 100)));
  EXPECT_TRUE(r.Contains(NodeId(0, 199)));
  EXPECT_FALSE(r.Contains(NodeId(0, 200)));
  EXPECT_FALSE(r.Contains(NodeId(0, 99)));
}

TEST(IdRangeTest, FullContainsEverything) {
  IdRange r = IdRange::Full(NodeId(5, 5));
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(r.Contains(NodeId::Random(rng)));
  }
}

TEST(IdRangeTest, WrappingRange) {
  IdRange r{NodeId(~0ULL, ~0ULL - 10), NodeId(0, 10), false};
  EXPECT_TRUE(r.Contains(NodeId(~0ULL, ~0ULL - 5)));
  EXPECT_TRUE(r.Contains(NodeId(0, 0)));
  EXPECT_TRUE(r.Contains(NodeId(0, 9)));
  EXPECT_FALSE(r.Contains(NodeId(0, 10)));
  EXPECT_FALSE(r.Contains(NodeId(1, 0)));
}

TEST(IdRangeTest, SplitPartitionsExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId lo = NodeId::Random(rng);
    NodeId hi = NodeId::Random(rng);
    if (lo == hi) continue;
    IdRange r{lo, hi, false};
    auto [a, b] = r.Split();
    // The halves are disjoint and cover r: test with random probes.
    for (int p = 0; p < 20; ++p) {
      NodeId x = NodeId::Random(rng);
      bool in_r = r.Contains(x);
      bool in_a = a.Contains(x);
      bool in_b = b.Contains(x);
      EXPECT_EQ(in_r, in_a || in_b);
      EXPECT_FALSE(in_a && in_b);
    }
    // Boundary probes.
    EXPECT_EQ(a.hi, b.lo);
    EXPECT_TRUE(!r.Contains(lo) || a.Contains(lo));
  }
}

TEST(IdRangeTest, SplitFullRing) {
  IdRange full = IdRange::Full(NodeId(1, 2));
  auto [a, b] = full.Split();
  EXPECT_FALSE(a.full);
  EXPECT_FALSE(b.full);
  Rng rng(9);
  for (int p = 0; p < 50; ++p) {
    NodeId x = NodeId::Random(rng);
    EXPECT_NE(a.Contains(x), b.Contains(x));  // exactly one half
  }
}

TEST(IdRangeTest, IntersectBasicOverlap) {
  IdRange r{NodeId(0, 100), NodeId(0, 200), false};
  IdRange cell{NodeId(0, 150), NodeId(0, 300), false};
  IdRange i = r.Intersect(cell);
  EXPECT_EQ(i.lo, NodeId(0, 150));
  EXPECT_EQ(i.hi, NodeId(0, 200));
  // Cell entirely outside.
  IdRange far{NodeId(0, 500), NodeId(0, 600), false};
  EXPECT_TRUE(r.Intersect(far).IsEmpty());
  // Cell covering r entirely.
  IdRange big{NodeId(0, 50), NodeId(0, 400), false};
  IdRange whole = r.Intersect(big);
  EXPECT_EQ(whole.lo, NodeId(0, 100));
  EXPECT_EQ(whole.hi, NodeId(0, 200));
}

TEST(IdRangeTest, IntersectCellWrappingIntoRange) {
  // Cell starts before the range and ends inside it.
  IdRange r{NodeId(0, 100), NodeId(0, 200), false};
  IdRange cell{NodeId(0, 50), NodeId(0, 150), false};
  IdRange i = r.Intersect(cell);
  EXPECT_EQ(i.lo, NodeId(0, 100));
  EXPECT_EQ(i.hi, NodeId(0, 150));
}

TEST(IdRangeTest, TokenUniquePerRange) {
  IdRange a{NodeId(0, 1), NodeId(0, 2), false};
  IdRange b{NodeId(0, 1), NodeId(0, 3), false};
  IdRange fa = IdRange::Full(NodeId(0, 1));
  EXPECT_NE(a.Token(), b.Token());
  EXPECT_NE(a.Token(), fa.Token());
}

// --- Vertex function ---

TEST(VertexFunctionTest, ConvergesToQueryId) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    NodeId q = NodeId::Random(rng);
    NodeId v = NodeId::Random(rng);
    if (q == v) continue;
    int depth = VertexDepth(q, v, 4);
    EXPECT_GT(depth, 0);
    EXPECT_LE(depth, kIdBits / 4);
  }
}

TEST(VertexFunctionTest, ParentSharesLongerPrefix) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId q = NodeId::Random(rng);
    NodeId v = NodeId::Random(rng);
    if (q == v) continue;
    NodeId parent = VertexParent(q, v, 4);
    EXPECT_GT(parent.CommonPrefixLength(q, 4), v.CommonPrefixLength(q, 4));
  }
}

TEST(VertexFunctionTest, RootDepthZero) {
  NodeId q = NodeId(123, 456);
  EXPECT_EQ(VertexDepth(q, q, 4), 0);
}

TEST(VertexFunctionTest, DeterministicParent) {
  NodeId q = Sha1ToNodeId("query");
  NodeId v = Sha1ToNodeId("vertex");
  EXPECT_EQ(VertexParent(q, v, 4), VertexParent(q, v, 4));
}

TEST(VertexFunctionTest, SiblingsShareParent) {
  // Vertices differing only in low digits map to the same parent when their
  // common prefix with q has equal length.
  NodeId q = NodeId::FromHex("00000000000000000000000000000000");
  NodeId v1 = NodeId::FromHex("a0000000000000000000000000000001");
  NodeId v2 = NodeId::FromHex("a0000000000000000000000000000001");
  EXPECT_EQ(VertexParent(q, v1, 4), VertexParent(q, v2, 4));
}

// --- MetadataStore ---

MetadataRecord MakeRecord(NodeId owner, uint64_t version) {
  Metadata m;
  m.owner = owner;
  m.version = version;
  return MetadataRecord::Make(m);
}

TEST(MetadataStoreTest, UpsertKeepsFreshest) {
  MetadataStore store;
  store.SetNow(100);
  EXPECT_TRUE(store.Upsert(MakeRecord(NodeId(0, 1), 5)));
  EXPECT_FALSE(store.Upsert(MakeRecord(NodeId(0, 1), 3)));  // stale
  EXPECT_TRUE(store.Upsert(MakeRecord(NodeId(0, 1), 7)));
  EXPECT_EQ(store.Find(NodeId(0, 1))->version, 7u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MetadataStoreTest, DownUpLifecycle) {
  MetadataStore store;
  store.Upsert(MakeRecord(NodeId(0, 1), 1));
  EXPECT_EQ(store.Find(NodeId(0, 1))->down_since, -1);
  store.MarkDown(NodeId(0, 1), 500);
  EXPECT_EQ(store.Find(NodeId(0, 1))->down_since, 500);
  store.MarkDown(NodeId(0, 1), 900);  // keeps first observation
  EXPECT_EQ(store.Find(NodeId(0, 1))->down_since, 500);
  store.MarkUp(NodeId(0, 1));
  EXPECT_EQ(store.Find(NodeId(0, 1))->down_since, -1);
  // A fresh push also implies up.
  store.MarkDown(NodeId(0, 1), 1000);
  store.Upsert(MakeRecord(NodeId(0, 1), 2));
  EXPECT_EQ(store.Find(NodeId(0, 1))->down_since, -1);
}

TEST(MetadataStoreTest, InRangeFiltering) {
  MetadataStore store;
  store.Upsert(MakeRecord(NodeId(0, 100), 1));
  store.Upsert(MakeRecord(NodeId(0, 200), 1));
  store.Upsert(MakeRecord(NodeId(0, 300), 1));
  store.MarkDown(NodeId(0, 200), 42);
  IdRange r{NodeId(0, 150), NodeId(0, 350), false};
  EXPECT_EQ(store.InRange(r, false).size(), 2u);
  EXPECT_EQ(store.InRange(r, true).size(), 1u);
  EXPECT_EQ(store.InRange(r, true)[0]->owner, NodeId(0, 200));
}

TEST(MetadataStoreTest, EvictIf) {
  MetadataStore store;
  for (uint64_t i = 0; i < 10; ++i) {
    store.Upsert(MakeRecord(NodeId(0, i), 1));
  }
  size_t evicted =
      store.EvictIf([](const NodeId& owner, const MetadataStore::Record&) {
        return owner.lo() % 2 == 0;  // keep evens
      });
  EXPECT_EQ(evicted, 5u);
  EXPECT_EQ(store.size(), 5u);
}

TEST(MetadataStoreTest, SharedRecordCountedOnce) {
  // One record stored by two replicas (as one process's replica set stores
  // it) is counted once by stores that share the counted set.
  const MetadataRecord rec = MakeRecord(NodeId(0, 1), 1);
  MetadataStore a;
  MetadataStore b;
  a.Upsert(rec);
  b.Upsert(rec);
  EXPECT_EQ(a.Find(NodeId(0, 1))->bytes, b.Find(NodeId(0, 1))->bytes);
  const size_t buffer = sizeof(*rec.bytes) + rec.bytes->capacity();

  MetadataStore::CountedRecords alone(4);
  const size_t a_alone = a.ApproxBytes(&alone);
  MetadataStore::CountedRecords shared(4);
  const size_t a_shared = a.ApproxBytes(&shared);
  const size_t b_shared = b.ApproxBytes(&shared);
  EXPECT_EQ(a_shared, a_alone);
  EXPECT_EQ(b_shared, a_alone - buffer);
  EXPECT_EQ(shared.size(), 1u);

  // A replica that decoded its own copy of the version (a serializing
  // transport) adds no buffer either: the count is keyed on the version.
  Reader r(*rec.bytes);
  Result<MetadataRecord> copy = MetadataRecord::Decode(r);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_NE(copy->bytes, rec.bytes);
  MetadataStore c;
  c.Upsert(*copy);
  EXPECT_EQ(c.ApproxBytes(&shared), b_shared);

  // A newer version is a new buffer (of equal length), counted on its own.
  b.Upsert(MakeRecord(NodeId(0, 1), 2));
  MetadataStore::CountedRecords both(4);
  EXPECT_EQ(a.ApproxBytes(&both) + b.ApproxBytes(&both), 2 * a_alone);
  EXPECT_EQ(both.size(), 2u);
}

// --- Query ---

TEST(QueryTest, CreateDerivesIdAndParses) {
  overlay::NodeHandle origin{NodeId(1, 2), 7};
  auto q = Query::Create("SELECT COUNT(*) FROM Flow WHERE SrcPort=80",
                         5 * kHour, origin);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->origin.address, 7u);
  EXPECT_NE(q->query_id, NodeId());
  EXPECT_FALSE(q->ExpiredAt(5 * kHour + 47 * kHour));
  EXPECT_TRUE(q->ExpiredAt(5 * kHour + 49 * kHour));
}

TEST(QueryTest, SameSqlDifferentTimeDifferentId) {
  overlay::NodeHandle origin{NodeId(1, 2), 7};
  auto a = Query::Create("SELECT COUNT(*) FROM Flow", kHour, origin);
  auto b = Query::Create("SELECT COUNT(*) FROM Flow", 2 * kHour, origin);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->query_id, b->query_id);
}

TEST(QueryTest, RejectsNonAggregate) {
  overlay::NodeHandle origin{NodeId(1, 2), 7};
  auto q = Query::Create("SELECT ts FROM Flow", 0, origin);
  EXPECT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsInvalidArgument());
}

TEST(QueryTest, NowBindsToInjectionTime) {
  overlay::NodeHandle origin{NodeId(1, 2), 7};
  SimTime t = 1000 * kSecond;
  auto q = Query::Create("SELECT COUNT(*) FROM Flow WHERE ts >= NOW() - 100",
                         t, origin);
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q->parsed.where->ToString().find("900"), std::string::npos);
}

}  // namespace
}  // namespace seaweed
