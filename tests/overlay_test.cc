#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "overlay/leafset.h"
#include "overlay/overlay_network.h"
#include "overlay/routing_table.h"
#include "sim/network.h"

namespace seaweed::overlay {
namespace {

NodeId Id(uint64_t hi, uint64_t lo = 0) { return NodeId(hi, lo); }

// --- Leafset unit tests ---

TEST(LeafsetTest, KeepsClosestPerSide) {
  NodeId owner = Id(1000);
  Leafset ls(owner, 4);  // 2 per side
  for (uint64_t d : {10, 20, 30, 40}) {
    ls.Insert({Id(1000 + d), 0});
    ls.Insert({Id(1000 - d), 0});
  }
  EXPECT_EQ(ls.cw().size(), 2u);
  EXPECT_EQ(ls.ccw().size(), 2u);
  EXPECT_EQ(ls.cw()[0].id, Id(1010));
  EXPECT_EQ(ls.cw()[1].id, Id(1020));
  EXPECT_EQ(ls.ccw()[0].id, Id(990));
  EXPECT_EQ(ls.ccw()[1].id, Id(980));
}

TEST(LeafsetTest, InsertionOrderIrrelevant) {
  NodeId owner = Id(1000);
  Leafset a(owner, 4), b(owner, 4);
  std::vector<uint64_t> ids = {1010, 1020, 1030, 990, 980, 970};
  for (uint64_t v : ids) a.Insert({Id(v), 0});
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) b.Insert({Id(*it), 0});
  EXPECT_EQ(a.cw(), b.cw());
  EXPECT_EQ(a.ccw(), b.ccw());
}

TEST(LeafsetTest, IgnoresOwnerAndDuplicates) {
  Leafset ls(Id(5), 4);
  EXPECT_FALSE(ls.Insert({Id(5), 0}));
  EXPECT_TRUE(ls.Insert({Id(6), 0}));
  EXPECT_FALSE(ls.Insert({Id(6), 0}));
  // A lone neighbor occupies both sides (it is the nearest cw AND ccw
  // member of a two-node ring), but All() reports it once.
  EXPECT_EQ(ls.All().size(), 1u);
  EXPECT_TRUE(ls.NearestCw().has_value());
  EXPECT_TRUE(ls.NearestCcw().has_value());
}

TEST(LeafsetTest, RemoveAndContains) {
  Leafset ls(Id(5), 4);
  ls.Insert({Id(6), 0});
  EXPECT_TRUE(ls.Contains(Id(6)));
  EXPECT_TRUE(ls.Remove(Id(6)));
  EXPECT_FALSE(ls.Contains(Id(6)));
  EXPECT_FALSE(ls.Remove(Id(6)));
}

TEST(LeafsetTest, CloserMemberThanOwner) {
  Leafset ls(Id(1000), 4);
  ls.Insert({Id(1100), 1});
  ls.Insert({Id(900), 2});
  // Key at 1090: member 1100 is closer than owner 1000.
  auto closer = ls.CloserMemberThanOwner(Id(1090));
  ASSERT_TRUE(closer.has_value());
  EXPECT_EQ(closer->id, Id(1100));
  // Key at 1010: owner closest.
  EXPECT_FALSE(ls.CloserMemberThanOwner(Id(1010)).has_value());
}

TEST(LeafsetTest, CoversSpansBothSides) {
  // Fill both sides so the far-side provisional entries are evicted and
  // coverage reflects true neighbors.
  Leafset ls(Id(1000), 4);
  for (uint64_t v : {1100, 1150, 900, 850}) ls.Insert({Id(v), 0});
  EXPECT_TRUE(ls.Covers(Id(1000)));
  EXPECT_TRUE(ls.Covers(Id(950)));
  EXPECT_TRUE(ls.Covers(Id(1100)));
  EXPECT_TRUE(ls.Covers(Id(1150)));
  EXPECT_FALSE(ls.Covers(Id(1200)));
  EXPECT_FALSE(ls.Covers(Id(800)));
}

TEST(LeafsetTest, WrapAroundRing) {
  NodeId owner = NodeId(~0ULL, ~0ULL - 10);
  Leafset ls(owner, 4);
  NodeHandle wrapped{Id(0, 5), 1};  // just past zero, clockwise of owner
  ls.Insert(wrapped);
  ASSERT_EQ(ls.cw().size(), 1u);
  EXPECT_EQ(ls.cw()[0].id, wrapped.id);
}

// --- Routing table unit tests ---

TEST(RoutingTableTest, InsertsIntoPrefixSlot) {
  NodeId owner = NodeId::FromHex("a0000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  NodeHandle other{NodeId::FromHex("b0000000000000000000000000000000"), 1};
  EXPECT_TRUE(rt.Insert(other));
  auto slot = rt.At(0, 0xb);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->id, other.id);
  // Same-slot second candidate is not kept.
  NodeHandle another{NodeId::FromHex("b1000000000000000000000000000000"), 2};
  EXPECT_FALSE(rt.Insert(another));
}

TEST(RoutingTableTest, NextHopSharesLongerPrefix) {
  NodeId owner = NodeId::FromHex("a0000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  NodeHandle deep{NodeId::FromHex("ab300000000000000000000000000000"), 3};
  rt.Insert(deep);
  // Key with prefix "ab..." should route via the row-1 entry.
  NodeId key = NodeId::FromHex("abcd0000000000000000000000000000");
  auto hop = rt.NextHop(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->id, deep.id);
}

TEST(RoutingTableTest, RemoveClearsSlot) {
  NodeId owner = NodeId::FromHex("a0000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  NodeHandle h{NodeId::FromHex("c0000000000000000000000000000000"), 1};
  rt.Insert(h);
  EXPECT_EQ(rt.num_entries(), 1u);
  EXPECT_TRUE(rt.Remove(h.id));
  EXPECT_EQ(rt.num_entries(), 0u);
  EXPECT_FALSE(rt.NextHop(h.id).has_value());
}

TEST(RoutingTableTest, EntriesInArc) {
  NodeId owner = Id(0);
  RoutingTable rt(owner, 4);
  rt.Insert({Id(100), 1});
  rt.Insert({Id(200), 2});
  rt.Insert({Id(300), 3});
  auto in = rt.EntriesInArc(Id(150), Id(350));
  EXPECT_EQ(in.size(), 2u);
}

// --- Full overlay (event-driven) tests ---

struct OverlayFixture {
  explicit OverlayFixture(int n, uint64_t seed = 1, double loss = 0.0)
      : topo(TopologyConfig{}, n),
        meter(n),
        net(&sim, &topo, &meter, loss, seed, &obs),
        overlay(&sim, &net, PastryConfig{}, seed) {
    Rng rng(seed);
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(NodeId::Random(rng));
    overlay.CreateNodes(ids);
  }

  void BringUpAll(SimDuration stagger = 100 * kMillisecond) {
    for (int i = 0; i < overlay.num_nodes(); ++i) {
      EndsystemIndex e = static_cast<EndsystemIndex>(i);
      sim.At(sim.Now() + stagger * i, [this, e] { overlay.BringUp(e); });
    }
  }

  Simulator sim;
  obs::Observability obs;  // own domain for the per-domain counters
  Topology topo;
  BandwidthMeter meter;
  Network net;
  OverlayNetwork overlay;
};

TEST(OverlayTest, AllNodesJoin) {
  OverlayFixture f(64);
  f.BringUpAll();
  f.sim.RunUntil(5 * kMinute);
  EXPECT_EQ(f.overlay.CountJoined(), 64);
}

TEST(OverlayTest, LeafsetsConvergeToGroundTruth) {
  OverlayFixture f(64);
  f.BringUpAll();
  f.sim.RunUntil(20 * kMinute);

  // Sort all ids; each node's immediate cw neighbor must match ground truth.
  auto live = f.overlay.OracleLiveNodes();
  std::sort(live.begin(), live.end(),
            [](const NodeHandle& a, const NodeHandle& b) { return a.id < b.id; });
  for (size_t i = 0; i < live.size(); ++i) {
    const auto* node = f.overlay.node(live[i].address);
    const auto& next = live[(i + 1) % live.size()];
    auto cw = node->leafset().NearestCw();
    ASSERT_TRUE(cw.has_value());
    EXPECT_EQ(cw->id, next.id)
        << "node " << node->id().ToShortString() << " wrong cw neighbor";
  }
}

TEST(OverlayTest, RoutingReachesNumericallyClosestNode) {
  OverlayFixture f(48);
  f.BringUpAll();
  f.sim.RunUntil(10 * kMinute);

  // Attach a probe app to every node recording deliveries.
  struct ProbeApp : PastryApp {
    NodeId self;
    std::vector<NodeId> delivered_keys;
    void OnAppMessage(const NodeHandle&, bool, const NodeId& key,
                      WireMessagePtr) override {
      delivered_keys.push_back(key);
    }
  };
  std::vector<ProbeApp> apps(48);
  for (int i = 0; i < 48; ++i) {
    apps[static_cast<size_t>(i)].self = f.overlay.node(static_cast<EndsystemIndex>(i))->id();
    f.overlay.node(static_cast<EndsystemIndex>(i))->set_app(&apps[static_cast<size_t>(i)]);
  }

  Rng rng(77);
  int correct = 0;
  const int kProbes = 100;
  std::vector<std::pair<NodeId, NodeId>> expectations;  // key -> root id
  for (int i = 0; i < kProbes; ++i) {
    NodeId key = NodeId::Random(rng);
    auto root = f.overlay.OracleRoot(key);
    ASSERT_TRUE(root.has_value());
    expectations.push_back({key, root->id});
    int src = static_cast<int>(rng.NextBelow(48));
    f.overlay.node(static_cast<EndsystemIndex>(src))
        ->RouteApp(key, nullptr, TrafficCategory::kDissemination);
  }
  f.sim.RunUntil(f.sim.Now() + kMinute);

  for (const auto& [key, root_id] : expectations) {
    for (const auto& app : apps) {
      for (const auto& k : app.delivered_keys) {
        if (k == key && app.self == root_id) {
          ++correct;
          goto next;
        }
      }
    }
  next:;
  }
  // All routed messages must land on the numerically closest node.
  EXPECT_GE(correct, kProbes - 1);
}

TEST(OverlayTest, RoutingHopCountIsLogarithmic) {
  OverlayFixture f(128);
  f.BringUpAll(20 * kMillisecond);
  f.sim.RunUntil(10 * kMinute);

  struct CountApp : PastryApp {
    uint32_t max_hops = 0;
    void OnAppMessage(const NodeHandle&, bool, const NodeId&,
                      WireMessagePtr) override {}
  };
  // Hop counts live inside packets; simplest check: routed messages arrive
  // (previous test) and the overlay converges. Here we assert routing-table
  // occupancy grows with log N: each joined node should know O(log N) rows.
  int populated = 0;
  for (int i = 0; i < f.overlay.num_nodes(); ++i) {
    populated +=
        static_cast<int>(f.overlay.node(static_cast<EndsystemIndex>(i))
                             ->routing_table()
                             .num_entries());
  }
  // 128 nodes, b=4: expect on the order of 2 rows populated, >=8 entries
  // per node on average.
  EXPECT_GT(populated / f.overlay.num_nodes(), 4);
}

TEST(OverlayTest, FailedNodeEvictedFromLeafsets) {
  OverlayFixture f(32);
  f.BringUpAll();
  f.sim.RunUntil(10 * kMinute);

  // Pick the node with id closest to some key and kill it.
  auto victim = f.overlay.OracleRoot(Id(0x1234));
  ASSERT_TRUE(victim.has_value());
  f.overlay.BringDown(victim->address);
  // Give failure detection a few heartbeat periods.
  f.sim.RunUntil(f.sim.Now() + 5 * kMinute);

  for (int i = 0; i < f.overlay.num_nodes(); ++i) {
    const auto* node = f.overlay.node(static_cast<EndsystemIndex>(i));
    if (!node->up()) continue;
    EXPECT_FALSE(node->leafset().Contains(victim->id))
        << "node " << i << " still lists the dead node";
  }
}

TEST(OverlayTest, LeafsetRepairsAfterFailure) {
  OverlayFixture f(32);
  f.BringUpAll();
  f.sim.RunUntil(10 * kMinute);

  auto live = f.overlay.OracleLiveNodes();
  std::sort(live.begin(), live.end(),
            [](const NodeHandle& a, const NodeHandle& b) { return a.id < b.id; });
  // Kill node at position 5; its neighbors should stitch together.
  NodeHandle dead = live[5];
  NodeHandle left = live[4];
  NodeHandle right = live[6];
  f.overlay.BringDown(dead.address);
  f.sim.RunUntil(f.sim.Now() + 5 * kMinute);

  auto cw = f.overlay.node(left.address)->leafset().NearestCw();
  ASSERT_TRUE(cw.has_value());
  EXPECT_EQ(cw->id, right.id);
  auto ccw = f.overlay.node(right.address)->leafset().NearestCcw();
  ASSERT_TRUE(ccw.has_value());
  EXPECT_EQ(ccw->id, left.id);
}

TEST(OverlayTest, RejoinAfterFailure) {
  OverlayFixture f(24);
  f.BringUpAll();
  f.sim.RunUntil(10 * kMinute);
  f.overlay.BringDown(3);
  f.sim.RunUntil(f.sim.Now() + 3 * kMinute);
  EXPECT_EQ(f.overlay.CountJoined(), 23);
  f.overlay.BringUp(3);
  f.sim.RunUntil(f.sim.Now() + 2 * kMinute);
  EXPECT_EQ(f.overlay.CountJoined(), 24);
  EXPECT_TRUE(f.overlay.node(3)->joined());
  EXPECT_GT(f.overlay.node(3)->leafset().size(), 0u);
}

TEST(OverlayTest, SurvivesMessageLoss) {
  OverlayFixture f(32, /*seed=*/3, /*loss=*/0.05);
  f.BringUpAll();
  f.sim.RunUntil(15 * kMinute);
  // With 5% loss and join retries, everyone still joins.
  EXPECT_EQ(f.overlay.CountJoined(), 32);
}

TEST(OverlayTest, HeartbeatsAreCharged) {
  OverlayFixture f(16);
  f.BringUpAll();
  f.sim.RunUntil(30 * kMinute);
  EXPECT_GT(f.overlay.heartbeats_sent(), 0u);
  EXPECT_GT(f.meter.CategoryTxBytes(TrafficCategory::kPastry), 0u);
}

TEST(OverlayTest, SingleNodeOverlayWorks) {
  OverlayFixture f(1);
  f.overlay.BringUp(0);
  f.sim.RunUntil(kMinute);
  EXPECT_TRUE(f.overlay.node(0)->joined());
  // Routing any key delivers locally.
  struct SelfApp : PastryApp {
    int delivered = 0;
    void OnAppMessage(const NodeHandle&, bool, const NodeId&,
                      WireMessagePtr) override {
      ++delivered;
    }
  } app;
  f.overlay.node(0)->set_app(&app);
  f.overlay.node(0)->RouteApp(Id(42), nullptr,
                              TrafficCategory::kDissemination);
  f.sim.RunUntil(f.sim.Now() + kSecond);
  EXPECT_EQ(app.delivered, 1);
}

// --- Learn-path fast rejects against brute-force references ---

// Candidates sharing a random-length prefix with `owner`, so that many of
// them compete for the same routing-table slot.
std::vector<NodeHandle> PrefixSharingPool(const NodeId& owner, int b,
                                          size_t n, Rng& rng) {
  const int digits = kIdBits / b;
  std::vector<NodeHandle> pool;
  for (size_t i = 0; i < n; ++i) {
    NodeId id = NodeId::Random(rng);
    const int keep = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(std::min(digits, 6))));
    for (int d = 0; d < keep; ++d) id = id.WithDigit(d, b, owner.Digit(d, b));
    pool.push_back({id, static_cast<EndsystemIndex>(i)});
  }
  return pool;
}

TEST(RoutingTableTest, OccupancyBitmapAgreesWithReferenceForEveryB) {
  for (int b : {1, 2, 4, 8}) {
    Rng rng(static_cast<uint64_t>(100 + b));
    const NodeId owner = NodeId::Random(rng);
    const std::vector<NodeHandle> pool = PrefixSharingPool(owner, b, 400, rng);
    RoutingTable rt(owner, b);
    // The reference: slot -> the first node inserted there.
    std::map<std::pair<int, int>, NodeHandle> ref;
    auto slot_of = [&](const NodeId& id) {
      const int row = owner.CommonPrefixLength(id, b);
      return std::make_pair(row, id.Digit(row, b));
    };
    for (int op = 0; op < 4000; ++op) {
      const NodeHandle& h = pool[rng.NextBelow(pool.size())];
      const auto slot = slot_of(h.id);
      if (rng.NextBelow(3) != 0) {
        const bool want = ref.emplace(slot, h).second;
        ASSERT_EQ(rt.Insert(h), want) << "b=" << b << " op=" << op;
      } else {
        auto it = ref.find(slot);
        const bool want = it != ref.end() && it->second.id == h.id;
        if (want) ref.erase(it);
        ASSERT_EQ(rt.Remove(h.id), want) << "b=" << b << " op=" << op;
      }
      ASSERT_EQ(rt.num_entries(), ref.size());
      const auto probe = slot_of(pool[rng.NextBelow(pool.size())].id);
      auto it = ref.find(probe);
      auto at = rt.At(probe.first, probe.second);
      ASSERT_EQ(at.has_value(), it != ref.end());
      if (at.has_value()) {
        ASSERT_EQ(at->id, it->second.id);
      }
    }
    std::vector<NodeId> want;
    for (const auto& [slot, h] : ref) want.push_back(h.id);
    std::vector<NodeId> got;
    for (const NodeHandle& h : rt.AllEntries()) got.push_back(h.id);
    EXPECT_EQ(got, want) << "b=" << b;
    for (int row = 0; row < rt.rows(); ++row) {
      for (int col = 0; col < rt.cols(); ++col) {
        auto it = ref.find({row, col});
        EXPECT_EQ(rt.At(row, col).has_value(), it != ref.end());
      }
    }
  }
}

// The leafset insert without the cached edges: scan each side for the
// node, then insert at its distance rank if that is within the side.
class ScanLeafset {
 public:
  ScanLeafset(const NodeId& owner, int l) : owner_(owner), half_(l / 2) {}
  const std::vector<NodeHandle>& cw() const { return cw_; }
  const std::vector<NodeHandle>& ccw() const { return ccw_; }

  bool Insert(const NodeHandle& node) {
    if (node.id == owner_) return false;
    const bool a = InsertSide(cw_, node, [&](const NodeId& id) {
      return owner_.ClockwiseDistanceTo(id);
    });
    const bool c = InsertSide(ccw_, node, [&](const NodeId& id) {
      return id.ClockwiseDistanceTo(owner_);
    });
    return a || c;
  }
  bool Remove(const NodeId& id) {
    bool removed = false;
    for (auto* side : {&cw_, &ccw_}) {
      auto it = std::find_if(side->begin(), side->end(),
                             [&](const NodeHandle& h) { return h.id == id; });
      if (it != side->end()) {
        side->erase(it);
        removed = true;
      }
    }
    return removed;
  }

 private:
  template <typename Dist>
  bool InsertSide(std::vector<NodeHandle>& side, const NodeHandle& node,
                  Dist dist) {
    for (const auto& h : side) {
      if (h.id == node.id) return false;
    }
    auto pos = std::lower_bound(
        side.begin(), side.end(), dist(node.id),
        [&](const NodeHandle& h, const NodeId& d) { return dist(h.id) < d; });
    if (pos - side.begin() >= half_) return false;
    side.insert(pos, node);
    if (static_cast<int>(side.size()) > half_) side.pop_back();
    return true;
  }

  NodeId owner_;
  int half_;
  std::vector<NodeHandle> cw_;
  std::vector<NodeHandle> ccw_;
};

TEST(LeafsetTest, InsertAgreesWithScanInsert) {
  // Pools from 3 nodes (every member on both sides of a tiny ring) to 200,
  // leafsets of 2 to 16.
  for (size_t pool_size : {3, 6, 12, 200}) {
    for (int l : {2, 8, 16}) {
      Rng rng(pool_size * 31 + static_cast<uint64_t>(l));
      const NodeId owner = NodeId::Random(rng);
      std::vector<NodeHandle> pool;
      for (size_t i = 0; i < pool_size; ++i) {
        pool.push_back({NodeId::Random(rng), static_cast<EndsystemIndex>(i)});
      }
      Leafset ls(owner, l);
      ScanLeafset ref(owner, l);
      for (int op = 0; op < 3000; ++op) {
        const NodeHandle& h = pool[rng.NextBelow(pool.size())];
        if (rng.NextBelow(4) != 0) {
          ASSERT_EQ(ls.Insert(h), ref.Insert(h)) << op;
        } else {
          ASSERT_EQ(ls.Remove(h.id), ref.Remove(h.id)) << op;
        }
        ASSERT_EQ(ls.cw(), ref.cw()) << op;
        ASSERT_EQ(ls.ccw(), ref.ccw()) << op;
      }
      // ForEachMember visits All()'s members in All()'s order.
      std::vector<NodeHandle> visited;
      ls.ForEachMember([&](const NodeHandle& h) { visited.push_back(h); });
      EXPECT_EQ(visited, ls.All());
    }
  }
}

}  // namespace
}  // namespace seaweed::overlay
