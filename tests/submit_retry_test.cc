// The result plane's submit/ack/retry schedule (§3.4), pinned end to end.
//
// A child submits its versioned result to its parent vertex and waits for
// the ack. Here the parent never acks: a transport decorator drops every
// kResultAck for one chosen child and records that child's kResultSubmit
// sends. The k-th send must wait RetryBackoff(result_ack_timeout, k),
// capped at max_retry_backoff, before the next; the sender gives up after
// max_result_retries + 1 sends. A leaf resends its unchanged version; an
// interior vertex re-propagates with a fresh version each time.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "overlay/overlay_network.h"
#include "overlay/packet.h"
#include "seaweed/node.h"
#include "seaweed/vertex_function.h"
#include "seaweed/wire.h"
#include "sim/network.h"

namespace seaweed {
namespace {

constexpr SimDuration kAckTimeout = 10 * kSecond;
constexpr SimDuration kMaxBackoff = kMinute;
constexpr int kMaxRetries = 4;

// The wait after the k-th send (k from 1): base * 2^(k-1), capped.
SimDuration ExpectedWait(int k) {
  SimDuration d = kAckTimeout;
  for (int i = 1; i < k && d < kMaxBackoff; ++i) d *= 2;
  return std::min(d, kMaxBackoff);
}

// Drops every kResultAck for `child` (its parent vertex "never acks") and
// records each kResultSubmit `sender` sends on behalf of `child`.
class AckBlackhole : public TransportDecorator {
 public:
  struct Submit {
    SimTime at;
    uint64_t version;
  };

  AckBlackhole(Transport* inner, Simulator* sim)
      : TransportDecorator(inner), sim_(sim) {}

  void Target(EndsystemIndex sender, const NodeId& child) {
    sender_ = sender;
    child_ = child;
  }
  const std::vector<Submit>& sends() const { return sends_; }

  bool Send(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
            WireMessagePtr msg) override {
    if (const SeaweedMessage* m = AppMessage(*msg)) {
      if (m->kind == SeaweedMessage::Kind::kResultAck &&
          m->child_key == child_) {
        return true;  // lost on the way
      }
      if (m->kind == SeaweedMessage::Kind::kResultSubmit && from == sender_ &&
          m->child_key == child_) {
        sends_.push_back({sim_->Now(), m->version});
      }
    }
    return TransportDecorator::Send(from, to, cat, std::move(msg));
  }

 private:
  static const SeaweedMessage* AppMessage(const WireMessage& msg) {
    if (msg.wire_type() != overlay::Packet::kWireType) return nullptr;
    const auto& pkt = static_cast<const overlay::Packet&>(msg);
    if (pkt.kind != overlay::Packet::Kind::kApp ||
        pkt.app_payload == nullptr ||
        pkt.app_payload->wire_type() != SeaweedMessage::kWireType) {
      return nullptr;
    }
    return static_cast<const SeaweedMessage*>(pkt.app_payload.get());
  }

  Simulator* sim_;
  EndsystemIndex sender_ = 0;
  NodeId child_;
  std::vector<Submit> sends_;
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

// A small, fully joined, loss-free overlay whose transport runs through an
// AckBlackhole.
class SubmitRetryTest : public ::testing::Test {
 protected:
  static constexpr int kN = 16;

  SubmitRetryTest()
      : topology_(TopologyConfig{}, kN),
        meter_(kN, &obs_.metrics),
        network_(&sim_, &topology_, &meter_, 0.0, 3, &obs_),
        blackhole_(&network_, &sim_),
        data_(OneRowEach(kN)),
        metrics_(&obs_.metrics) {
    Rng rng(11);
    for (int i = 0; i < kN; ++i) ids_.push_back(NodeId::Random(rng));
    overlay_ = std::make_unique<overlay::OverlayNetwork>(
        &sim_, &blackhole_, overlay::PastryConfig{}, 5);
    overlay_->CreateNodes(ids_);
    SeaweedConfig cfg;
    cfg.result_ack_timeout = kAckTimeout;
    cfg.max_retry_backoff = kMaxBackoff;
    cfg.max_result_retries = kMaxRetries;
    // No refresh or re-propagation within the test: every send after the
    // first is the retry chain's.
    cfg.result_refresh_period = 4 * kHour;
    for (int i = 0; i < kN; ++i) {
      nodes_.push_back(std::make_unique<SeaweedNode>(
          overlay_.get(), overlay_->node(static_cast<EndsystemIndex>(i)),
          data_.get(), cfg, &metrics_));
    }
    for (int i = 0; i < kN; ++i) {
      sim_.After(i * 200 * kMillisecond, [this, i] {
        overlay_->BringUp(static_cast<EndsystemIndex>(i));
      });
    }
    sim_.RunUntil(5 * kMinute);
  }

  int b() const { return overlay_->config().b; }

  // The endsystem numerically closest to `key`: the primary of a vertex.
  int PrimaryOf(const NodeId& key) const {
    int best = 0;
    for (int i = 1; i < kN; ++i) {
      if (ids_[i].RingDistanceTo(key) < ids_[best].RingDistanceTo(key)) {
        best = i;
      }
    }
    return best;
  }

  uint64_t Counter(const char* name) {
    return obs_.metrics.GetCounter(name)->value();
  }

  NodeId Inject() {
    auto qid = nodes_[0]->InjectQuery("SELECT COUNT(*) FROM T",
                                      QueryObserver{});
    EXPECT_TRUE(qid.ok()) << qid.status();
    return qid.value_or(NodeId());
  }

  // Runs until the target's first send, then checks the whole chain: the
  // gaps, the send count, and `giveups` rising by one exactly when the
  // last send's wait expires (and never again).
  void ExpectRetryChain(const char* retries, const char* giveups) {
    const uint64_t retries_before = Counter(retries);
    const uint64_t giveups_before = Counter(giveups);
    for (int i = 0; i < 300 && blackhole_.sends().empty(); ++i) {
      sim_.RunUntil(sim_.Now() + kSecond);
    }
    ASSERT_FALSE(blackhole_.sends().empty()) << "the target never submitted";
    SimTime due = blackhole_.sends().front().at;
    for (int k = 1; k <= kMaxRetries + 1; ++k) due += ExpectedWait(k);

    sim_.RunUntil(due - 1);
    const auto& sends = blackhole_.sends();
    ASSERT_EQ(sends.size(), static_cast<size_t>(kMaxRetries + 1));
    for (size_t k = 1; k < sends.size(); ++k) {
      EXPECT_EQ(sends[k].at - sends[k - 1].at,
                ExpectedWait(static_cast<int>(k)))
          << "wait after send " << k;
    }
    EXPECT_EQ(Counter(retries) - retries_before,
              static_cast<uint64_t>(kMaxRetries));
    EXPECT_EQ(Counter(giveups), giveups_before);

    sim_.RunUntil(due);
    EXPECT_EQ(Counter(giveups), giveups_before + 1);
    sim_.RunUntil(due + 30 * kMinute);
    EXPECT_EQ(sends.size(), static_cast<size_t>(kMaxRetries + 1));
    EXPECT_EQ(Counter(giveups), giveups_before + 1);
  }

  Simulator sim_;
  obs::Observability obs_;
  Topology topology_;
  BandwidthMeter meter_;
  Network network_;
  AckBlackhole blackhole_;
  std::shared_ptr<StaticDataProvider> data_;
  SeaweedMetrics metrics_;
  std::vector<NodeId> ids_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::vector<std::unique_ptr<SeaweedNode>> nodes_;
};

TEST_F(SubmitRetryTest, LeafResendsItsVersionOnTheBackoffScheduleThenGivesUp) {
  ASSERT_EQ(overlay_->CountJoined(), kN);
  const NodeId qid = Inject();
  // A leaf whose parent vertex lives on another node submits by message.
  int leaf = -1;
  for (int i = 0; i < kN && leaf < 0; ++i) {
    if (PrimaryOf(VertexParent(qid, ids_[i], b())) != i) leaf = i;
  }
  ASSERT_GE(leaf, 0);
  blackhole_.Target(static_cast<EndsystemIndex>(leaf), ids_[leaf]);

  ExpectRetryChain("seaweed.leaf_retries", "seaweed.leaf_giveups");
  for (const auto& send : blackhole_.sends()) {
    EXPECT_EQ(send.version, blackhole_.sends().front().version);
  }
}

TEST_F(SubmitRetryTest, VertexRepropagatesAFreshVersionPerSendThenGivesUp) {
  ASSERT_EQ(overlay_->CountJoined(), kN);
  const NodeId qid = Inject();
  // A leaf's parent vertex V whose primary is neither the leaf nor the
  // primary of V's own parent: V then submits upward by message, and its
  // only child is that leaf (interior vertex ids carry a leaf's low
  // digits), so after the leaf's one submit every send of V is a retry.
  int primary = -1;
  NodeId vertex;
  for (int i = 0; i < kN && primary < 0; ++i) {
    const NodeId v = VertexParent(qid, ids_[i], b());
    if (v == qid) continue;
    const int p = PrimaryOf(v);
    if (p != i && PrimaryOf(VertexParent(qid, v, b())) != p) {
      primary = p;
      vertex = v;
    }
  }
  ASSERT_GE(primary, 0);
  blackhole_.Target(static_cast<EndsystemIndex>(primary), vertex);

  ExpectRetryChain("seaweed.vertex_retries", "seaweed.vertex_giveups");
  const auto& sends = blackhole_.sends();
  for (size_t k = 1; k < sends.size(); ++k) {
    EXPECT_EQ(sends[k].version, sends[k - 1].version + 1);
  }
}

}  // namespace
}  // namespace seaweed
