// Randomized churn scenarios for the overlay: after arbitrary kill/revive
// sequences plus a stabilization window, the ring invariants must hold and
// routing must reach the numerically closest live node.
#include <gtest/gtest.h>

#include "overlay/overlay_network.h"
#include "sim/fault_transport.h"
#include "sim/network.h"

namespace seaweed::overlay {
namespace {

struct ChurnFixture {
  explicit ChurnFixture(int n, uint64_t seed, double loss = 0.0,
                        FaultPlan plan = {})
      : topo(TopologyConfig{}, n),
        meter(n),
        net(&sim, &topo, &meter, loss, seed, &obs),
        faulty(MakeFaulty(&net, std::move(plan), n, seed)),
        overlay(&sim, faulty ? static_cast<Transport*>(faulty.get()) : &net,
                PastryConfig{}, seed),
        rng(seed * 7919) {
    Rng id_rng(seed);
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(NodeId::Random(id_rng));
    overlay.CreateNodes(ids);
    for (int i = 0; i < n; ++i) {
      EndsystemIndex e = static_cast<EndsystemIndex>(i);
      sim.At(50 * kMillisecond * i, [this, e] { overlay.BringUp(e); });
    }
    sim.RunUntil(15 * kMinute);
  }

  static std::unique_ptr<FaultInjectingTransport> MakeFaulty(Network* net,
                                                             FaultPlan plan,
                                                             int n,
                                                             uint64_t seed) {
    if (plan.empty()) return nullptr;
    EXPECT_TRUE(plan.Validate(n).ok());
    plan.Resolve(n, {});
    return std::make_unique<FaultInjectingTransport>(net, std::move(plan),
                                                     seed);
  }

  // Returns the number of live nodes whose nearest-cw pointer disagrees
  // with ground truth.
  int RingErrors() {
    auto live = overlay.OracleLiveNodes();
    if (live.size() < 2) return 0;
    std::sort(live.begin(), live.end(),
              [](const NodeHandle& a, const NodeHandle& b) {
                return a.id < b.id;
              });
    int bad = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      auto cw = overlay.node(live[i].address)->leafset().NearestCw();
      if (!cw.has_value() || cw->id != live[(i + 1) % live.size()].id) ++bad;
    }
    return bad;
  }

  Simulator sim;
  obs::Observability obs;  // own domain for the per-domain counters
  Topology topo;
  BandwidthMeter meter;
  Network net;
  std::unique_ptr<FaultInjectingTransport> faulty;
  OverlayNetwork overlay;
  Rng rng;
};

class ChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnProperty, RingHealsAfterRandomChurnBursts) {
  const int n = 40;
  ChurnFixture f(n, GetParam());
  ASSERT_EQ(f.overlay.CountJoined(), n);

  // Five bursts: kill/revive a random subset, run a while, repeat.
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 8; ++i) {
      int e = static_cast<int>(f.rng.NextBelow(n));
      if (f.overlay.node(static_cast<EndsystemIndex>(e))->up()) {
        f.overlay.BringDown(static_cast<EndsystemIndex>(e));
      } else {
        f.overlay.BringUp(static_cast<EndsystemIndex>(e));
      }
    }
    f.sim.RunUntil(f.sim.Now() + 3 * kMinute);
  }
  // Revive everyone, then allow stabilization.
  for (int e = 0; e < n; ++e) {
    if (!f.overlay.node(static_cast<EndsystemIndex>(e))->up()) {
      f.overlay.BringUp(static_cast<EndsystemIndex>(e));
    }
  }
  f.sim.RunUntil(f.sim.Now() + 15 * kMinute);

  EXPECT_EQ(f.overlay.CountJoined(), n);
  EXPECT_EQ(f.RingErrors(), 0);
}

TEST_P(ChurnProperty, RoutingCorrectAfterChurnQuiesces) {
  const int n = 32;
  ChurnFixture f(n, GetParam() ^ 0x5555);
  // Permanently remove a third of the nodes.
  std::vector<int> removed;
  while (removed.size() < n / 3) {
    int e = static_cast<int>(f.rng.NextBelow(n));
    if (f.overlay.node(static_cast<EndsystemIndex>(e))->up()) {
      f.overlay.BringDown(static_cast<EndsystemIndex>(e));
      removed.push_back(e);
    }
  }
  f.sim.RunUntil(f.sim.Now() + 10 * kMinute);

  struct ProbeApp : PastryApp {
    std::vector<NodeId> keys;
    void OnAppMessage(const NodeHandle&, bool, const NodeId& key,
                      WireMessagePtr) override {
      keys.push_back(key);
    }
  };
  std::vector<ProbeApp> apps(n);
  for (int i = 0; i < n; ++i) {
    f.overlay.node(static_cast<EndsystemIndex>(i))->set_app(&apps[i]);
  }

  int correct = 0;
  const int kProbes = 40;
  std::vector<std::pair<NodeId, NodeId>> want;
  for (int i = 0; i < kProbes; ++i) {
    NodeId key = NodeId::Random(f.rng);
    auto root = f.overlay.OracleRoot(key);
    ASSERT_TRUE(root.has_value());
    want.push_back({key, root->id});
    // Route from a random live node.
    for (;;) {
      int src = static_cast<int>(f.rng.NextBelow(n));
      auto* node = f.overlay.node(static_cast<EndsystemIndex>(src));
      if (node->up() && node->joined()) {
        node->RouteApp(key, nullptr, TrafficCategory::kDissemination);
        break;
      }
    }
  }
  f.sim.RunUntil(f.sim.Now() + kMinute);
  for (const auto& [key, root_id] : want) {
    for (int i = 0; i < n; ++i) {
      const auto* node = f.overlay.node(static_cast<EndsystemIndex>(i));
      if (!node->up() || node->id() != root_id) continue;
      for (const auto& k : apps[i].keys) {
        if (k == key) {
          ++correct;
          goto next_probe;
        }
      }
    }
  next_probe:;
  }
  EXPECT_GE(correct, kProbes - 1);
}

TEST_P(ChurnProperty, NoMessagesLeakToDeadNodes) {
  const int n = 24;
  ChurnFixture f(n, GetParam() ^ 0xaaaa);
  f.overlay.BringDown(3);
  f.overlay.BringDown(9);
  f.sim.RunUntil(f.sim.Now() + 10 * kMinute);
  // Dead nodes are evicted from every live leafset and routing table.
  NodeId dead3 = f.overlay.node(3)->id();
  NodeId dead9 = f.overlay.node(9)->id();
  for (int e = 0; e < n; ++e) {
    const auto* node = f.overlay.node(static_cast<EndsystemIndex>(e));
    if (!node->up()) continue;
    EXPECT_FALSE(node->leafset().Contains(dead3));
    EXPECT_FALSE(node->leafset().Contains(dead9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Seeded partition scenarios (FaultInjectingTransport) ---

class PartitionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProperty, RingSplitsAndRemergesAfterPartitionHeals) {
  const int n = 24;
  // Endsystems [0, 12) on side A for minutes [20, 40); both directions of
  // cross-partition traffic (heartbeats included, via Linked) are cut.
  FaultPlan plan;
  std::vector<EndsystemIndex> side_a;
  for (int e = 0; e < n / 2; ++e) side_a.push_back(static_cast<EndsystemIndex>(e));
  plan.AddPartition(20 * kMinute, 40 * kMinute, side_a);
  ChurnFixture f(n, GetParam(), /*loss=*/0.0, plan);
  ASSERT_EQ(f.overlay.CountJoined(), n);

  // Mid-partition: failure detection has evicted every far-side node from
  // every near-side leafset (and vice versa).
  f.sim.RunUntil(35 * kMinute);
  EXPECT_GT(f.faulty->injected_drops(), 0u);
  for (int e = 0; e < n; ++e) {
    const auto* node = f.overlay.node(static_cast<EndsystemIndex>(e));
    for (int o = 0; o < n; ++o) {
      bool same_side = (e < n / 2) == (o < n / 2);
      if (!same_side) {
        EXPECT_FALSE(node->leafset().Contains(f.overlay.node(
            static_cast<EndsystemIndex>(o))->id()))
            << "node " << e << " still holds cross-partition node " << o;
      }
    }
  }

  // After the heal, global stabilization probes must re-merge the two
  // rings — neighbor-only stabilization cannot rediscover the far side.
  f.sim.RunUntil(90 * kMinute);
  EXPECT_EQ(f.overlay.CountJoined(), n);
  EXPECT_EQ(f.RingErrors(), 0);
  EXPECT_GT(f.overlay.metrics().global_stabilize_probes->value(), 0u);
}

TEST_P(PartitionProperty, FractionPartitionUnderLossHeals) {
  const int n = 20;
  FaultPlan plan;
  plan.WithSeed(GetParam() * 31 + 5)
      .AddFractionPartition(18 * kMinute, 32 * kMinute, 0.4)
      .AddBurst(18 * kMinute, 32 * kMinute, 0.1);
  ChurnFixture f(n, GetParam() ^ 0x9d, /*loss=*/0.0, plan);
  ASSERT_EQ(f.overlay.CountJoined(), n);
  f.sim.RunUntil(80 * kMinute);
  EXPECT_EQ(f.overlay.CountJoined(), n);
  EXPECT_EQ(f.RingErrors(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty, ::testing::Values(1, 2, 3));

TEST(OverlayScaleTest, TwoNodeRingIsMutual) {
  ChurnFixture f(2, 77);
  ASSERT_EQ(f.overlay.CountJoined(), 2);
  auto* a = f.overlay.node(0);
  auto* b = f.overlay.node(1);
  ASSERT_TRUE(a->leafset().NearestCw().has_value());
  EXPECT_EQ(a->leafset().NearestCw()->id, b->id());
  EXPECT_EQ(b->leafset().NearestCw()->id, a->id());
}

TEST(OverlayScaleTest, SurvivorContinuesAlone) {
  ChurnFixture f(3, 78);
  f.overlay.BringDown(0);
  f.overlay.BringDown(1);
  f.sim.RunUntil(f.sim.Now() + 5 * kMinute);
  auto* survivor = f.overlay.node(2);
  EXPECT_TRUE(survivor->up());
  EXPECT_TRUE(survivor->joined());
  // Routing any key self-delivers.
  struct App : PastryApp {
    int got = 0;
    void OnAppMessage(const NodeHandle&, bool, const NodeId&,
                      WireMessagePtr) override {
      ++got;
    }
  } app;
  survivor->set_app(&app);
  Rng rng(1);
  survivor->RouteApp(NodeId::Random(rng), nullptr,
                     TrafficCategory::kDissemination);
  f.sim.RunUntil(f.sim.Now() + 10 * kSecond);
  EXPECT_EQ(app.got, 1);
}

}  // namespace
}  // namespace seaweed::overlay
