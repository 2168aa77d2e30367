// The result plane's vertex store (VertexArena) and the fold pass's
// replication through it: one replica per vertex per backup per pass, its
// entries in update order, and a full sync before deltas for a backup the
// vertex has not synced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <vector>

#include "common/rng.h"
#include "overlay/overlay_network.h"
#include "overlay/packet.h"
#include "seaweed/node.h"
#include "seaweed/query.h"
#include "seaweed/vertex_arena.h"
#include "seaweed/wire.h"
#include "sim/network.h"

namespace seaweed {
namespace {

// --- VertexArena ---

using Arena = VertexArena<uint64_t>;

std::vector<NodeId> RandomIds(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> ids;
  for (size_t i = 0; i < n; ++i) ids.push_back(NodeId::Random(rng));
  return ids;
}

TEST(VertexArenaTest, FindAndEmplaceAcrossGrowths) {
  const std::vector<NodeId> ids = RandomIds(20000, 1);
  Arena arena;
  EXPECT_EQ(arena.Find(ids[0]), Arena::kNone);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto [slot, fresh] = arena.Emplace(ids[i]);
    ASSERT_TRUE(fresh);
    ASSERT_EQ(slot, i);
    arena[slot] = i * 7;
    ASSERT_EQ(arena.Find(ids[i]), slot);
    // Earlier entries survive every growth of the index and the chunks.
    if ((i & (i + 1)) == 0 || i % 4096 == 0) {
      for (size_t j = 0; j <= i; ++j) ASSERT_EQ(arena.Find(ids[j]), j);
    }
  }
  EXPECT_EQ(arena.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto [slot, fresh] = arena.Emplace(ids[i]);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(slot, i);
    EXPECT_EQ(arena[slot], i * 7);
  }
  EXPECT_EQ(arena.size(), ids.size());
  for (const NodeId& absent : RandomIds(1000, 2)) {
    EXPECT_EQ(arena.Find(absent), Arena::kNone);
  }
}

TEST(VertexArenaTest, ReferenceSurvivesGrowth) {
  const std::vector<NodeId> ids = RandomIds(10000, 3);
  VertexArena<std::vector<int>> arena;
  std::vector<int>& first = arena[arena.Emplace(ids[0]).first];
  first = {1, 2, 3};
  const std::vector<int>* address = &first;
  for (size_t i = 1; i < ids.size(); ++i) {
    arena[arena.Emplace(ids[i]).first].push_back(static_cast<int>(i));
  }
  EXPECT_EQ(&arena[arena.Find(ids[0])], address);
  EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
}

TEST(VertexArenaTest, IteratesInInsertionOrder) {
  const std::vector<NodeId> ids = RandomIds(5000, 4);
  Arena arena;
  for (const NodeId& id : ids) arena.Emplace(id);
  arena.Emplace(ids[17]);  // re-emplacing appends nothing
  ASSERT_EQ(arena.size(), ids.size());
  for (Arena::Slot s = 0; s < arena.size(); ++s) {
    EXPECT_EQ(arena.id(s), ids[s]);
  }
}

// PoolVector against std::vector: inserts anywhere, growth from the pool,
// a move that leaves the source empty, and destruction that releases every
// element (here, its share of a shared result) but not the pool's storage.
TEST(PoolVectorTest, MatchesVectorAndReleasesElements) {
  std::pmr::monotonic_buffer_resource pool(64);
  auto shared = std::make_shared<int>(7);
  std::vector<std::pair<int, std::shared_ptr<int>>> reference;
  {
    PoolVector<std::pair<int, std::shared_ptr<int>>> v;
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
      const size_t at = static_cast<size_t>(rng.NextBelow(v.size() + 1));
      auto* got = v.insert(&pool, v.begin() + at, {i, shared});
      reference.insert(reference.begin() + static_cast<ptrdiff_t>(at),
                       {i, shared});
      EXPECT_EQ(got, v.begin() + at);
      EXPECT_EQ(got->first, i);
      ASSERT_EQ(v.size(), reference.size());
      EXPECT_GE(v.capacity(), v.size());
      EXPECT_EQ(std::bit_ceil(v.capacity()), v.capacity());
    }
    v.push_back(&pool, {99, shared});
    reference.push_back({99, shared});
    EXPECT_TRUE(std::equal(v.begin(), v.end(), reference.begin(),
                           reference.end()));
    EXPECT_EQ(v.front().first, reference.front().first);

    PoolVector<std::pair<int, std::shared_ptr<int>>> moved(std::move(v));
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(moved.size(), reference.size());
    EXPECT_EQ(shared.use_count(), 1 + 2 * static_cast<long>(reference.size()));
  }
  EXPECT_EQ(shared.use_count(), 1 + static_cast<long>(reference.size()));
}

TEST(VertexArenaTest, FootprintCountsChunksAndIndex) {
  // Layout of one entry for T = uint64_t.
  struct Entry {
    NodeId id;
    uint64_t value;
  };
  constexpr size_t kIndexEntry = 8;
  Arena arena;
  EXPECT_EQ(arena.ApproxBytes(), 0u);
  const std::vector<NodeId> ids = RandomIds(20000, 5);
  size_t chunk_slots = 0;
  size_t chunks = 0;
  for (size_t n = 1; n <= ids.size(); ++n) {
    arena.Emplace(ids[n - 1]);
    // Chunks of 2, 4, ..., 4096 entries, then 4096 each.
    while (chunk_slots < n) {
      chunk_slots += size_t{2} << std::min<size_t>(chunks, 11);
      ++chunks;
    }
    size_t index = 4;
    while (index < 2 * n) index *= 2;
    const size_t exact = chunk_slots * sizeof(Entry) + index * kIndexEntry;
    // Plus the chunk list, whose capacity is the vector's to choose.
    ASSERT_GE(arena.ApproxBytes(), exact + chunks * sizeof(void*)) << n;
    ASSERT_LE(arena.ApproxBytes(), exact + 2 * chunks * sizeof(void*)) << n;
  }
  // Large tables waste at most one chunk.
  EXPECT_LT(chunk_slots, ids.size() + 4096);
}

// --- Fold-pass replication ---

// Records every kVertexReplicate sent.
class ReplicateRecorder : public TransportDecorator {
 public:
  struct Sent {
    SimTime at;
    EndsystemIndex from;
    EndsystemIndex to;
    std::shared_ptr<const SeaweedMessage> msg;
  };

  ReplicateRecorder(Transport* inner, Simulator* sim)
      : TransportDecorator(inner), sim_(sim) {}

  const std::vector<Sent>& sent() const { return sent_; }

  bool Send(EndsystemIndex from, EndsystemIndex to, TrafficCategory cat,
            WireMessagePtr msg) override {
    if (msg->wire_type() == overlay::Packet::kWireType) {
      const auto& pkt = static_cast<const overlay::Packet&>(*msg);
      if (pkt.app_payload != nullptr &&
          pkt.app_payload->wire_type() == SeaweedMessage::kWireType) {
        auto m = std::static_pointer_cast<const SeaweedMessage>(
            pkt.app_payload);
        if (m->kind == SeaweedMessage::Kind::kVertexReplicate) {
          sent_.push_back({sim_->Now(), from, to, std::move(m)});
        }
      }
    }
    return TransportDecorator::Send(from, to, cat, std::move(msg));
  }

 private:
  Simulator* sim_;
  std::vector<Sent> sent_;
};

// Endsystem e holds one row, except `tableless`, which holds no table, so
// its execution fails and it contributes nothing.
std::shared_ptr<StaticDataProvider> OneRowEach(int n, int tableless) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({{"x", db::ColumnType::kInt64, true}});
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    if (e == tableless) {
      dbs.push_back(std::move(database));
      continue;
    }
    auto table = database->CreateTable("T", schema);
    (*table)->column(0).AppendInt64(e);
    (*table)->CommitRow();
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

// The id `delta` (signed) away from `id` on the ring.
NodeId Offset(const NodeId& id, int64_t delta) {
  return delta >= 0 ? id.Add(NodeId(0, static_cast<uint64_t>(delta)))
                    : id.Sub(NodeId(0, static_cast<uint64_t>(-delta)));
}

// The root vertex of a query lives on the endsystem closest to the query
// id, kRoot; the depth-31 vertices (the query id with its last digit
// replaced) lie within 16 of it, so kRoot holds them all, and each fold pass
// there that re-propagates several of them updates the root several times.
// kLate, the second closest endsystem, joins after the first results: it
// then becomes one of the root vertex's m backups, and the root's next
// update, in kRoot's refresh pass, syncs it in full and then sends it that
// pass's later deltas. kLate holds no table, so its own (failed) execution
// updates nothing first.
class FoldPassReplicationTest : public ::testing::Test {
 protected:
  static constexpr int kN = 16;
  static constexpr int kOrigin = 0;
  static constexpr int kRoot = 1;
  static constexpr int kLate = 2;
  static constexpr const char* kSql = "SELECT COUNT(*), SUM(x) FROM T";
  static constexpr const char* kSalt = "fold-pass";

  FoldPassReplicationTest()
      : topology_(TopologyConfig{}, kN),
        meter_(kN, &obs_.metrics),
        network_(&sim_, &topology_, &meter_, 0.0, 3, &obs_),
        recorder_(&network_, &sim_),
        data_(OneRowEach(kN, kLate)),
        metrics_(&obs_.metrics) {
    auto query = Query::Create(kSql, 0, overlay::NodeHandle{}, 48 * kHour,
                               kSalt);
    EXPECT_TRUE(query.ok()) << query.status();
    qid_ = query->query_id;
    Rng rng(29);
    for (int i = 0; i < kN; ++i) ids_.push_back(NodeId::Random(rng));
    ids_[kRoot] = Offset(qid_, int64_t{1} << 40);
    ids_[kLate] = Offset(qid_, -(int64_t{1} << 41));
    overlay_ = std::make_unique<overlay::OverlayNetwork>(
        &sim_, &recorder_, overlay::PastryConfig{}, 5);
    overlay_->CreateNodes(ids_);
    for (int i = 0; i < kN; ++i) {
      nodes_.push_back(std::make_unique<SeaweedNode>(
          overlay_.get(), overlay_->node(static_cast<EndsystemIndex>(i)),
          data_.get(), config_, &metrics_));
    }
  }

  // The root vertex's replica in `sent`'s message: how many it holds, and
  // the first.
  const SeaweedMessage::VertexReplica* RootReplica(const ReplicateRecorder::Sent& s,
                                                   int* count) const {
    const SeaweedMessage::VertexReplica* found = nullptr;
    *count = 0;
    for (const auto& replica : s.msg->replicas) {
      if (replica.vertex_id != qid_) continue;
      if (found == nullptr) found = &replica;
      ++*count;
    }
    return found;
  }

  SeaweedConfig config_;
  Simulator sim_;
  obs::Observability obs_;
  Topology topology_;
  BandwidthMeter meter_;
  Network network_;
  ReplicateRecorder recorder_;
  std::shared_ptr<StaticDataProvider> data_;
  SeaweedMetrics metrics_;
  NodeId qid_;
  std::vector<NodeId> ids_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::vector<std::unique_ptr<SeaweedNode>> nodes_;
};

TEST_F(FoldPassReplicationTest, OneReplicaPerPassAndFullSyncBeforeDeltas) {
  for (int i = 0; i < kN; ++i) {
    if (i == kLate) continue;
    sim_.After(i * 200 * kMillisecond, [this, i] {
      overlay_->BringUp(static_cast<EndsystemIndex>(i));
    });
  }
  sim_.RunUntil(3 * kMinute);
  ASSERT_EQ(overlay_->CountJoined(), kN - 1);
  auto injected =
      nodes_[kOrigin]->InjectQuery(kSql, QueryObserver{}, 48 * kHour, kSalt);
  ASSERT_TRUE(injected.ok()) << injected.status();
  ASSERT_EQ(*injected, qid_);
  sim_.RunUntil(6 * kMinute);
  const size_t before_late = recorder_.sent().size();
  overlay_->BringUp(static_cast<EndsystemIndex>(kLate));
  // Past the root primary's first refresh (one result_refresh_period after
  // it learned the query), whose pass re-propagates every vertex it holds.
  sim_.RunUntil(3 * kMinute + config_.result_refresh_period + 2 * kMinute);
  ASSERT_TRUE(overlay_->node(kLate)->joined());

  // Every message carries each vertex once, whatever updated it how often.
  for (const auto& s : recorder_.sent()) {
    std::set<NodeId> vertices;
    for (const auto& replica : s.msg->replicas) {
      EXPECT_TRUE(vertices.insert(replica.vertex_id).second)
          << "vertex replicated twice in one message";
    }
  }

  // The root's backups before kLate joined, and what each holds.
  std::map<EndsystemIndex, std::map<NodeId, uint64_t>> held;
  for (size_t i = 0; i < before_late; ++i) {
    const auto& s = recorder_.sent()[i];
    int count = 0;
    const auto* root = RootReplica(s, &count);
    if (s.from != kRoot || root == nullptr) continue;
    for (const auto& e : root->entries) held[s.to][e.child] = e.version;
  }
  ASSERT_GE(held.size(), 2u);
  ASSERT_EQ(held.count(kLate), 0u);

  // The first root update that reaches kLate, and the same pass's message
  // to an earlier backup.
  bool checked_full_sync = false;
  bool checked_multi_update = false;
  for (size_t i = before_late; i < recorder_.sent().size(); ++i) {
    const auto& s = recorder_.sent()[i];
    int count = 0;
    const auto* root = RootReplica(s, &count);
    if (s.from != kRoot || root == nullptr) continue;
    EXPECT_EQ(count, 1);
    if (s.to != kLate && held.count(s.to) > 0) {
      // A synced backup gets deltas only, in update order: the pass folds
      // the root's children (all at depth 31) in id order.
      const auto& entries = root->entries;
      for (size_t k = 1; k < entries.size(); ++k) {
        EXPECT_LT(entries[k - 1].child, entries[k].child);
      }
      checked_multi_update |= entries.size() >= 2;
    }
    if (s.to != kLate || checked_full_sync) continue;
    checked_full_sync = true;
    // The same pass's message to a backup that was synced before.
    const ReplicateRecorder::Sent* peer = nullptr;
    for (const auto& t : recorder_.sent()) {
      int c = 0;
      if (t.at == s.at && t.from == kRoot && t.to != kLate &&
          held.count(t.to) > 0 && RootReplica(t, &c) != nullptr) {
        peer = &t;
        break;
      }
    }
    ASSERT_NE(peer, nullptr);
    int c = 0;
    const auto& deltas = RootReplica(*peer, &c)->entries;
    ASSERT_GE(deltas.size(), 2u);
    // Everything the peer held before, updated by the pass's first delta.
    std::map<NodeId, uint64_t> state;
    for (const auto& t : recorder_.sent()) {
      int cc = 0;
      const auto* r = RootReplica(t, &cc);
      if (t.at >= s.at || t.from != kRoot || t.to != peer->to || r == nullptr) {
        continue;
      }
      for (const auto& e : r->entries) state[e.child] = e.version;
    }
    state[deltas[0].child] = deltas[0].version;
    const auto& entries = root->entries;
    ASSERT_EQ(entries.size(), state.size() + deltas.size() - 1);
    size_t k = 0;
    for (const auto& [child, version] : state) {
      EXPECT_EQ(entries[k].child, child) << k;
      EXPECT_EQ(entries[k].version, version) << k;
      ++k;
    }
    for (size_t d = 1; d < deltas.size(); ++d, ++k) {
      EXPECT_EQ(entries[k].child, deltas[d].child) << k;
      EXPECT_EQ(entries[k].version, deltas[d].version) << k;
    }
  }
  EXPECT_TRUE(checked_full_sync);
  EXPECT_TRUE(checked_multi_update);
  EXPECT_GT(nodes_[kRoot]->vertex_footprint().vertices, 0u);
}

}  // namespace
}  // namespace seaweed
