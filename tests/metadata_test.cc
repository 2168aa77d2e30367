// One metadata record per (owner, version) (§3.2): the owner encodes its
// metadata once, on the push tick that bumps the version. Every push of that
// version — the tick's pushes to its k replicas, a push between ticks to a
// neighbor entering its replica set, an anti-entropy forward — carries the
// one buffer, and every replica stores it. The next tick builds a new one.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "overlay/overlay_network.h"
#include "overlay/packet.h"
#include "seaweed/cluster_options.h"
#include "seaweed/node.h"
#include "seaweed/wire.h"
#include "sim/network.h"
#include "trace/farsite_model.h"

namespace seaweed {
namespace {

using Buffer = std::shared_ptr<const std::vector<uint8_t>>;

// Records every kMetadataPush that carries `owner`'s record.
class PushRecorder : public TransportDecorator {
 public:
  struct Push {
    SimTime at;
    EndsystemIndex from;
    uint64_t version;
    Buffer bytes;
  };

  PushRecorder(Transport* inner, Simulator* sim)
      : TransportDecorator(inner), sim_(sim) {}

  void Watch(const NodeId& owner) { owner_ = owner; }
  const std::vector<Push>& pushes() const { return pushes_; }

  bool Send(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
            WireMessagePtr msg) override {
    if (msg->wire_type() == overlay::Packet::kWireType) {
      const auto& pkt = static_cast<const overlay::Packet&>(*msg);
      if (pkt.app_payload != nullptr &&
          pkt.app_payload->wire_type() == SeaweedMessage::kWireType) {
        const auto& m = static_cast<const SeaweedMessage&>(*pkt.app_payload);
        if (m.kind == SeaweedMessage::Kind::kMetadataPush &&
            m.metadata.owner == owner_) {
          pushes_.push_back(
              {sim_->Now(), from, m.metadata.version, m.metadata.bytes});
        }
      }
    }
    return TransportDecorator::Send(from, to, cat, std::move(msg));
  }

 private:
  Simulator* sim_;
  NodeId owner_;
  std::vector<Push> pushes_;
};

// Endsystem e holds one row.
std::shared_ptr<StaticDataProvider> OneRowEach(int n) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({{"x", db::ColumnType::kInt64, true}});
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    auto table = database->CreateTable("T", schema);
    (*table)->column(0).AppendInt64(e);
    (*table)->CommitRow();
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

// A small, loss-free overlay whose transport runs through a PushRecorder
// watching endsystem 0's record.
class MetadataTest : public ::testing::Test {
 protected:
  static constexpr int kN = 16;

  MetadataTest()
      : topology_(TopologyConfig{}, kN),
        meter_(kN, &obs_.metrics),
        network_(&sim_, &topology_, &meter_, 0.0, 3, &obs_),
        recorder_(&network_, &sim_),
        data_(OneRowEach(kN)),
        metrics_(&obs_.metrics) {
    Rng rng(23);
    for (int i = 0; i < kN; ++i) ids_.push_back(NodeId::Random(rng));
    recorder_.Watch(ids_[0]);
    overlay_ = std::make_unique<overlay::OverlayNetwork>(
        &sim_, &recorder_, overlay::PastryConfig{}, 5);
    overlay_->CreateNodes(ids_);
    for (int i = 0; i < kN; ++i) {
      nodes_.push_back(std::make_unique<SeaweedNode>(
          overlay_.get(), overlay_->node(static_cast<EndsystemIndex>(i)),
          data_.get(), config_, &metrics_));
    }
    for (int i = 0; i < kN; ++i) {
      sim_.After(i * 200 * kMillisecond, [this, i] {
        overlay_->BringUp(static_cast<EndsystemIndex>(i));
      });
    }
  }

  // Buffers of the pushes of `version`, and how many the owner sent.
  std::set<Buffer> BuffersOf(uint64_t version, int* from_owner) const {
    std::set<Buffer> out;
    *from_owner = 0;
    for (const auto& p : recorder_.pushes()) {
      if (p.version != version) continue;
      out.insert(p.bytes);
      if (p.from == 0) ++*from_owner;
    }
    return out;
  }

  SeaweedConfig config_;
  Simulator sim_;
  obs::Observability obs_;
  Topology topology_;
  BandwidthMeter meter_;
  Network network_;
  PushRecorder recorder_;
  std::shared_ptr<StaticDataProvider> data_;
  SeaweedMetrics metrics_;
  std::vector<NodeId> ids_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::vector<std::unique_ptr<SeaweedNode>> nodes_;
};

TEST_F(MetadataTest, PushesOfOneVersionShareOneRecord) {
  // The first tick runs at the owner's join; the next comes at least
  // 7/8 of a period later.
  const SimDuration first_gap =
      config_.summary_push_period - config_.summary_push_period / 8;
  sim_.RunUntil(5 * kMinute);
  ASSERT_EQ(overlay_->CountJoined(), kN);
  ASSERT_FALSE(recorder_.pushes().empty());
  const uint64_t v1 = recorder_.pushes().front().version;
  const Buffer record = recorder_.pushes().front().bytes;
  ASSERT_NE(record, nullptr);

  // A push between ticks: a neighbor entering the owner's replica set gets
  // the tick's record, not a fresh encoding.
  const auto neighbor = overlay_->node(0)->leafset().NearestCw();
  ASSERT_TRUE(neighbor.has_value());
  const size_t before = recorder_.pushes().size();
  nodes_[0]->OnNeighborAdded(*neighbor);
  ASSERT_GT(recorder_.pushes().size(), before);
  EXPECT_EQ(recorder_.pushes().back().from, 0u);
  EXPECT_EQ(recorder_.pushes().back().version, v1);
  EXPECT_EQ(recorder_.pushes().back().bytes, record);

  int from_owner = 0;
  EXPECT_EQ(BuffersOf(v1, &from_owner), std::set<Buffer>{record});
  EXPECT_GE(from_owner, 2);
  ASSERT_LT(sim_.Now(), first_gap);

  // The next tick bumps the version and builds one new record, which all
  // k of its pushes and every replica's store share.
  sim_.RunUntil(first_gap + config_.summary_push_period / 4 + kMinute);
  const uint64_t v2 = v1 + 1;
  const std::set<Buffer> next = BuffersOf(v2, &from_owner);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_NE(*next.begin(), record);
  EXPECT_EQ(from_owner, config_.metadata_replicas);
  int stored = 0;
  for (int i = 1; i < kN; ++i) {
    const MetadataStore::Record* rec =
        nodes_[static_cast<size_t>(i)]->metadata_store().Find(ids_[0]);
    if (rec == nullptr) continue;
    EXPECT_EQ(rec->version, v2);
    EXPECT_EQ(rec->bytes, *next.begin());
    ++stored;
  }
  EXPECT_EQ(stored, config_.metadata_replicas);
}

// mem.meta.store_bytes is kept as stores add, replace and evict records
// (RecordCensus); after an hour of Farsite churn, with a query in flight, it
// equals the full walk over every store that it replaced, over the
// in-memory transport and over one that decodes every replica a copy.
class MetadataCensusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MetadataCensusTest, MatchesFullWalkAfterChurn) {
  const int n = 60;
  const SimDuration duration = 2 * kHour;
  FarsiteModelConfig trace_cfg;
  trace_cfg.seed = 7;
  AvailabilityTrace trace =
      GenerateFarsiteTrace(trace_cfg, n, duration + kHour);
  ClusterOptions opts;
  opts.WithEndsystems(n).WithSeed(7).WithTransport(GetParam());
  SeaweedCluster cluster(opts.BuildOrDie());
  cluster.DriveFromTrace(trace, duration);
  cluster.sim().At(duration / 4, [&] {
    int origin = 0;
    while (!cluster.pastry_node(origin)->joined()) ++origin;
    auto qid = cluster.InjectQuery(origin, "SELECT COUNT(*) FROM Flow",
                                   QueryObserver{}, kHour);
    ASSERT_TRUE(qid.ok()) << qid.status();
  });
  cluster.sim().RunUntil(duration);

  uint64_t records = 0;
  for (int e = 0; e < n; ++e) {
    records += cluster.seaweed_node(e)->metadata_store().size();
  }
  MetadataStore::CountedRecords counted(records);
  uint64_t walked = 0;
  for (int e = 0; e < n; ++e) {
    walked += cluster.seaweed_node(e)->metadata_store().ApproxBytes(&counted);
  }
  ASSERT_GT(counted.size(), static_cast<size_t>(n) / 2);

  cluster.PublishStatsGauges();
  const obs::Gauge* gauge =
      cluster.obs().metrics.FindGauge("mem.meta.store_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(gauge->value()), walked);
  EXPECT_EQ(cluster.obs().metrics.FindGauge("mem.meta.store_records")->value(),
            static_cast<int64_t>(records));
}

INSTANTIATE_TEST_SUITE_P(Transports, MetadataCensusTest,
                         ::testing::Values("", "serializing"));

// The census follows one store through add, same-version replace, newer
// version, eviction and clear, and a second store sharing a version.
TEST(RecordCensusTest, TracksStoreChanges) {
  auto make = [](uint64_t owner, uint64_t version) {
    Metadata m;
    m.owner = NodeId(0, owner);
    m.version = version;
    return MetadataRecord::Make(m);
  };
  const MetadataRecord a1 = make(1, 1);
  const size_t buffer = sizeof(*a1.bytes) + a1.bytes->capacity();
  RecordCensus census;
  {
    MetadataStore x;
    MetadataStore y;
    x.AttachCensus(&census);
    y.AttachCensus(&census);
    x.Upsert(a1);
    y.Upsert(a1);
    x.Upsert(a1);
    EXPECT_EQ(census.versions(), 1u);
    EXPECT_EQ(census.buffer_bytes(), buffer);
    x.Upsert(make(1, 2));
    x.Upsert(make(2, 1));
    EXPECT_EQ(census.versions(), 3u);
    EXPECT_FALSE(x.Upsert(a1));  // stale: nothing changes
    EXPECT_EQ(census.versions(), 3u);
    x.EvictIf([](const NodeId& owner, const MetadataStore::Record&) {
      return owner.lo() != 2;
    });
    EXPECT_EQ(census.versions(), 2u);
    y.Clear();
    EXPECT_EQ(census.versions(), 1u);  // x's version 2 of owner 1
  }
  EXPECT_EQ(census.versions(), 0u);
  EXPECT_EQ(census.buffer_bytes(), 0u);
}

}  // namespace
}  // namespace seaweed
