// Live deployment path tests: EventLoop timers, ShardMap parsing,
// SocketTransport datagram exchange and its hostility to malformed input,
// the canonical result formatter, and an in-process seaweedd (LiveCluster +
// QueryService) driven through real TCP — including the malformed-JSON fuzz
// cases the control port must shrug off.
//
// Unlike the simulation tests these run on wall time, so every wait is a
// bounded pump loop, sized generously for CI but exiting as soon as the
// condition holds.
#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "db/sql_parser.h"
#include "net/event_loop.h"
#include "net/live_cluster.h"
#include "net/query_service.h"
#include "net/result_format.h"
#include "net/shard_map.h"
#include "net/socket_transport.h"
#include "obs/export.h"
#include "obs/jsonl_reader.h"
#include "overlay/packet.h"
#include "seaweed/wire.h"

namespace seaweed::net {
namespace {

using overlay::NodeHandle;
using overlay::Packet;

// Pumps `loop` until `done` returns true or ~`max_ms` of wall time passed.
template <typename Pred>
bool PumpUntil(EventLoop& loop, Pred done, int max_ms = 5000) {
  const SimTime give_up = loop.Now() + max_ms * kMillisecond;
  while (!done() && loop.Now() < give_up) {
    loop.RunOnce(10 * kMillisecond);
  }
  return done();
}

// Open file descriptors in this process, via /proc/self/fd. The in-process
// daemon's sockets count too, which is the point: leak checks see both ends.
int CountOpenFds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

TEST(EventLoopTest, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.After(2 * kMillisecond, [&] { fired.push_back(2); });
  loop.After(0, [&] { fired.push_back(0); });
  loop.After(1 * kMillisecond, [&] { fired.push_back(1); });
  ASSERT_TRUE(PumpUntil(loop, [&] { return fired.size() == 3; }));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.After(kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  bool other = false;
  loop.After(2 * kMillisecond, [&] { other = true; });
  ASSERT_TRUE(PumpUntil(loop, [&] { return other; }));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelledBackoffTimersStayDeadAcrossReconnectCycles) {
  // The client failover path arms a backoff timer per reconnect attempt and
  // disarms it when the connection lands. Cycle that pattern with dispatch
  // interleaved: a cancelled id must never fire, double-cancel is a no-op,
  // and ids from long-dead cycles never alias a live timer.
  EventLoop loop;
  int fired = 0;
  std::vector<EventId> dead;
  for (int cycle = 0; cycle < 16; ++cycle) {
    EventId backoff = loop.After(kMillisecond, [&] { ++fired; });
    ASSERT_TRUE(loop.Cancel(backoff)) << cycle;
    EXPECT_FALSE(loop.Cancel(backoff)) << cycle;  // already disarmed
    dead.push_back(backoff);
    loop.RunOnce(0);  // let the loop turn over between "reconnects"
  }
  // One live timer among the corpses still fires...
  bool live = false;
  EventId keep = loop.After(2 * kMillisecond, [&] { live = true; });
  for (EventId id : dead) EXPECT_FALSE(loop.Cancel(id));
  ASSERT_TRUE(PumpUntil(loop, [&] { return live; }));
  EXPECT_EQ(fired, 0);
  // ...and cancelling it after the fact reports "too late", not success.
  EXPECT_FALSE(loop.Cancel(keep));
}

TEST(EventLoopTest, NowIsMonotonic) {
  EventLoop loop;
  SimTime a = loop.Now();
  loop.RunOnce(kMillisecond);
  SimTime b = loop.Now();
  EXPECT_GE(b, a);
}

TEST(EventLoopTest, EpochAnchorsNow) {
  // An epoch 1 hour in the past makes Now() start near +1 hour.
  EventLoop anchored(0);
  // Not directly comparable to wall time from here; assert the relative
  // form instead: a loop anchored "now" starts near zero.
  EXPECT_LT(anchored.Now(), kMinute);
}

TEST(ShardMapTest, ParsesPeerConfig) {
  auto map = ParseShardMap(
      R"({"endsystems": 12, "shards": [
            {"host": "127.0.0.1", "udp_port": 9401, "control_port": 9501},
            {"host": "127.0.0.1", "udp_port": 9402, "control_port": 9502},
            {"host": "127.0.0.1", "udp_port": 9403, "control_port": 9503}]})",
      1);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->num_endsystems, 12);
  EXPECT_EQ(map->num_shards(), 3);
  EXPECT_EQ(map->ShardOf(7), 1);
  EXPECT_TRUE(map->IsLocal(4));
  EXPECT_FALSE(map->IsLocal(3));
  EXPECT_EQ(map->LocalEndsystems(),
            (std::vector<EndsystemIndex>{1, 4, 7, 10}));
  EXPECT_EQ(map->PeerOf(5).udp_port, 9403);
}

TEST(ShardMapTest, RejectsBadConfigs) {
  EXPECT_FALSE(ParseShardMap("{", 0).ok());
  EXPECT_FALSE(ParseShardMap("{\"shards\": []}", 0).ok());  // no endsystems
  const std::string one_shard =
      R"({"endsystems": 4, "shards": [
            {"host": "127.0.0.1", "udp_port": 1, "control_port": 2}]})";
  EXPECT_TRUE(ParseShardMap(one_shard, 0).ok());
  EXPECT_FALSE(ParseShardMap(one_shard, 1).ok());   // self out of range
  EXPECT_FALSE(ParseShardMap(one_shard, -1).ok());
  EXPECT_FALSE(ParseShardMap(
      R"({"endsystems": 1, "shards": [
            {"host": "127.0.0.1", "udp_port": 1, "control_port": 2},
            {"host": "127.0.0.1", "udp_port": 3, "control_port": 4}]})",
      0).ok());  // fewer endsystems than shards
  EXPECT_FALSE(ParseShardMap(
      R"({"endsystems": 4, "shards": [{"host": "", "udp_port": 0}]})", 0)
      .ok());  // empty host / zero port
}

// Two transports, two shards, one process: datagrams go over real UDP.
class SocketPairTest : public ::testing::Test {
 protected:
  SocketPairTest()
      : topology_({}, 2),
        meter_(2, nullptr),
        a_(&loop_, MakeLoopbackShardMap(2, 2, 0, 19410), &topology_, &meter_,
           nullptr),
        b_(&loop_, MakeLoopbackShardMap(2, 2, 1, 19410), &topology_, &meter_,
           nullptr) {
    a_.SetUp(0, true);
    b_.SetUp(1, true);
  }

  // One raw datagram into b_'s socket, bypassing SocketTransport::Send.
  void SendRaw(const void* data, size_t len) {
    int fd = socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(19411);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              static_cast<ssize_t>(len));
    close(fd);
  }

  std::vector<uint8_t> ValidFrame(uint32_t from = 0, uint32_t to = 1,
                                  uint8_t cat = 0) {
    Packet pkt;
    pkt.kind = Packet::Kind::kHeartbeat;
    pkt.src = NodeHandle{NodeId(1, 2), 0};
    Writer w;
    w.PutU32(SocketTransport::kFrameMagic);
    w.PutU32(from);
    w.PutU32(to);
    w.PutU8(cat);
    pkt.Encode(w);
    return w.bytes();
  }

  EventLoop loop_;
  Topology topology_;
  BandwidthMeter meter_;
  SocketTransport a_;
  SocketTransport b_;
};

TEST_F(SocketPairTest, DeliversAcrossRealSockets) {
  int delivered = 0;
  EndsystemIndex got_from = 99;
  b_.SetDeliveryHandler(1, [&](EndsystemIndex from, WireMessagePtr msg) {
    ++delivered;
    got_from = from;
    auto* pkt = dynamic_cast<Packet*>(msg.get());
    ASSERT_NE(pkt, nullptr);
    EXPECT_EQ(pkt->kind, Packet::Kind::kHeartbeat);
  });

  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kHeartbeat;
  pkt->src = NodeHandle{NodeId(1, 2), 0};
  EXPECT_TRUE(a_.Send(0, 1, TrafficCategory::kPastry, pkt));

  ASSERT_TRUE(PumpUntil(loop_, [&] { return delivered == 1; }));
  EXPECT_EQ(got_from, 0u);
  EXPECT_GE(a_.messages_sent(), 1u);
  EXPECT_GE(b_.datagrams_rx(), 1u);
  EXPECT_EQ(b_.decode_rejects(), 0u);
}

TEST_F(SocketPairTest, LocalSendsSkipTheWireButKeepTheCodec) {
  // Shard 0 also owns endsystem 0; a self-shard send must arrive without
  // touching the socket, as a decoded copy (not the sender's object).
  int delivered = 0;
  a_.SetDeliveryHandler(0, [&](EndsystemIndex, WireMessagePtr msg) {
    ++delivered;
    EXPECT_NE(msg, nullptr);
  });
  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kHeartbeat;
  pkt->src = NodeHandle{NodeId(3, 4), 0};
  const uint64_t wire_datagrams_before = a_.messages_sent();
  EXPECT_TRUE(a_.Send(0, 0, TrafficCategory::kPastry, pkt));
  ASSERT_TRUE(PumpUntil(loop_, [&] { return delivered == 1; }));
  EXPECT_EQ(a_.messages_sent(), wire_datagrams_before + 1);
}

TEST_F(SocketPairTest, RejectsMalformedDatagramsWithoutCrashing) {
  int delivered = 0;
  b_.SetDeliveryHandler(1,
                        [&](EndsystemIndex, WireMessagePtr) { ++delivered; });

  const std::vector<uint8_t> valid = ValidFrame();
  uint64_t expected_rejects = 0;

  // Truncated header.
  SendRaw(valid.data(), 3);
  ++expected_rejects;
  // Bad magic.
  std::vector<uint8_t> bad_magic = valid;
  bad_magic[0] ^= 0xff;
  SendRaw(bad_magic.data(), bad_magic.size());
  ++expected_rejects;
  // Header only, body missing.
  SendRaw(valid.data(), SocketTransport::kFrameHeaderBytes);
  ++expected_rejects;
  // Garbage body after a valid header.
  std::vector<uint8_t> garbage(valid.begin(),
                               valid.begin() + SocketTransport::kFrameHeaderBytes);
  for (int i = 0; i < 64; ++i) garbage.push_back(0xa5);
  SendRaw(garbage.data(), garbage.size());
  ++expected_rejects;
  // Trailing junk after a valid message.
  std::vector<uint8_t> trailing = valid;
  trailing.push_back(0x00);
  SendRaw(trailing.data(), trailing.size());
  ++expected_rejects;
  // Out-of-range endsystem indices and category.
  SendRaw(ValidFrame(7, 1).data(), valid.size());
  ++expected_rejects;
  SendRaw(ValidFrame(0, 7).data(), valid.size());
  ++expected_rejects;
  SendRaw(ValidFrame(0, 1, 99).data(), valid.size());
  ++expected_rejects;
  // Foreign shard: endsystem 0 is not hosted by b_.
  SendRaw(ValidFrame(1, 0).data(), valid.size());
  ++expected_rejects;
  // A large garbage blast (oversized relative to any sane message).
  std::vector<uint8_t> blast(32 * 1024, 0x5a);
  SendRaw(blast.data(), blast.size());
  ++expected_rejects;

  ASSERT_TRUE(PumpUntil(
      loop_, [&] { return b_.decode_rejects() >= expected_rejects; }));
  EXPECT_EQ(b_.decode_rejects(), expected_rejects);
  EXPECT_EQ(delivered, 0);

  // The transport still works after all that.
  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kHeartbeat;
  pkt->src = NodeHandle{NodeId(1, 2), 0};
  EXPECT_TRUE(a_.Send(0, 1, TrafficCategory::kPastry, pkt));
  ASSERT_TRUE(PumpUntil(loop_, [&] { return delivered == 1; }));
}

TEST_F(SocketPairTest, FragmentsOversizedResultAndReassembles) {
  // Regression for the PR 8 failure: a GROUP BY result with thousands of
  // groups encodes past the datagram ceiling and used to be silently
  // dropped (net.oversize_drops). It must now round-trip over the real
  // socket via fragmentation, byte-exact.
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kResultDeliver;
  msg->query_id = NodeId(0xabc, 0xdef);
  msg->vertex_id = NodeId(1, 2);
  msg->version = 7;
  db::AggregateResult& agg = msg->result;
  constexpr int kGroups = 10000;
  for (int g = 0; g < kGroups; ++g) {
    auto& states = agg.GroupStates(db::Value(static_cast<int64_t>(g)), 2);
    states[0].Add(g);
    states[1].Add(g * 1000);
  }
  agg.rows_matched = kGroups;
  agg.endsystems = 1;
  {
    Writer probe;
    msg->Encode(probe);
    ASSERT_GT(probe.size(), SocketTransport::kMaxDatagramBytes)
        << "test message must exceed the datagram cap to exercise "
           "fragmentation";
  }

  // Counters live in the process-global fallback registry and accumulate
  // across tests in this binary; compare deltas, not absolutes.
  const uint64_t rejects_before = b_.decode_rejects();
  int delivered = 0;
  b_.SetDeliveryHandler(1, [&](EndsystemIndex from, WireMessagePtr m) {
    ++delivered;
    EXPECT_EQ(from, 0u);
    auto* sm = dynamic_cast<SeaweedMessage*>(m.get());
    ASSERT_NE(sm, nullptr);
    EXPECT_EQ(sm->kind, SeaweedMessage::Kind::kResultDeliver);
    EXPECT_EQ(sm->query_id, NodeId(0xabc, 0xdef));
    ASSERT_EQ(sm->result.groups.size(), static_cast<size_t>(kGroups));
    EXPECT_EQ(sm->result.rows_matched, kGroups);
    // Spot-check a group survived the stitch intact.
    const auto* states = sm->result.FindGroup(db::Value(int64_t{4321}));
    ASSERT_NE(states, nullptr);
    EXPECT_EQ((*states)[1].sum, 4321.0 * 1000);
  });

  EXPECT_TRUE(a_.Send(0, 1, TrafficCategory::kResult, msg));
  ASSERT_TRUE(PumpUntil(loop_, [&] { return delivered == 1; }));
  EXPECT_GE(a_.tx_fragmented(), 1u);
  EXPECT_EQ(a_.messages_lost(), 0u);
  EXPECT_EQ(b_.decode_rejects(), rejects_before);
  EXPECT_EQ(b_.pending_reassemblies(), 0u);
}

TEST_F(SocketPairTest, MalformedFragmentsAreRejectedAndSweptNotFatal) {
  int delivered = 0;
  b_.SetDeliveryHandler(1,
                        [&](EndsystemIndex, WireMessagePtr) { ++delivered; });

  auto frag = [&](uint32_t from, uint32_t to, uint8_t cat, uint32_t msg_id,
                  uint16_t index, uint16_t count, size_t payload) {
    Writer w;
    w.PutU32(SocketTransport::kFragMagic);
    w.PutU32(from);
    w.PutU32(to);
    w.PutU8(cat);
    w.PutU32(msg_id);
    w.PutU16(index);
    w.PutU16(count);
    for (size_t i = 0; i < payload; ++i) w.PutU8(0x5a);
    return w.bytes();
  };

  // Counters accumulate across tests in this binary (shared fallback
  // registry): measure the delta from here.
  const uint64_t rejects_before = b_.decode_rejects();
  uint64_t expected_rejects = 0;
  // Truncated fragment header.
  auto ok_frag = frag(0, 1, 0, 1, 0, 2, 16);
  SendRaw(ok_frag.data(), SocketTransport::kFragHeaderBytes - 3);
  ++expected_rejects;
  // Empty payload, index >= count, count < 2, absurd count, foreign shard,
  // out-of-range endsystem/category.
  for (const auto& bad :
       {frag(0, 1, 0, 2, 0, 2, 0), frag(0, 1, 0, 3, 2, 2, 8),
        frag(0, 1, 0, 4, 0, 1, 8), frag(0, 1, 0, 5, 0, 65535, 8),
        frag(1, 0, 0, 6, 0, 2, 8), frag(7, 1, 0, 7, 0, 2, 8),
        frag(0, 1, 99, 8, 0, 2, 8)}) {
    SendRaw(bad.data(), bad.size());
    ++expected_rejects;
  }
  ASSERT_TRUE(PumpUntil(loop_, [&] {
    return b_.decode_rejects() - rejects_before >= expected_rejects;
  }));
  EXPECT_EQ(b_.decode_rejects() - rejects_before, expected_rejects);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b_.pending_reassemblies(), 0u);

  // A partial reassembly (1 of 2 fragments, garbage body) parks in the
  // buffer, then the sweep reclaims it instead of leaking.
  auto partial = frag(0, 1, 0, 42, 0, 2, 64);
  SendRaw(partial.data(), partial.size());
  ASSERT_TRUE(
      PumpUntil(loop_, [&] { return b_.pending_reassemblies() == 1; }));
  ASSERT_TRUE(PumpUntil(
      loop_, [&] { return b_.pending_reassemblies() == 0; },
      /*max_ms=*/static_cast<int>(3 * SocketTransport::kReassemblyTimeout /
                                  kMillisecond)));

  // The transport still works after all that.
  auto pkt = std::make_shared<Packet>();
  pkt->kind = Packet::Kind::kHeartbeat;
  pkt->src = NodeHandle{NodeId(1, 2), 0};
  EXPECT_TRUE(a_.Send(0, 1, TrafficCategory::kPastry, pkt));
  ASSERT_TRUE(PumpUntil(loop_, [&] { return delivered == 1; }));
}

TEST(ResultFormatTest, UngroupedGolden) {
  auto q = db::ParseSelect("SELECT COUNT(*), SUM(Bytes), AVG(Bytes) FROM Flow");
  ASSERT_TRUE(q.ok());
  db::AggregateResult r;
  r.states.resize(3);
  for (auto& s : r.states) {
    s.Add(10);
    s.Add(32);
  }
  r.rows_matched = 2;
  r.endsystems = 5;
  EXPECT_EQ(FormatAggregateLine(*q, r),
            "FINAL rows=2 endsystems=5 COUNT=2 SUM(Bytes)=42 AVG(Bytes)=21");
}

TEST(ResultFormatTest, EmptyAggregatesAreNull) {
  auto q = db::ParseSelect("SELECT MIN(Bytes), COUNT(*) FROM Flow");
  ASSERT_TRUE(q.ok());
  db::AggregateResult r;
  r.states.resize(2);
  EXPECT_EQ(FormatAggregateLine(*q, r),
            "FINAL rows=0 endsystems=0 MIN(Bytes)=NULL COUNT=0");
}

TEST(ResultFormatTest, GroupedGoldenSortedByKey) {
  auto q = db::ParseSelect("SELECT App, COUNT(*) FROM Flow GROUP BY App");
  ASSERT_TRUE(q.ok());
  db::AggregateResult r;
  r.states.resize(2);
  // Insert out of order; formatting must come out key-sorted.
  r.GroupStates(db::Value(std::string("SMB")), 2)[1].AddCountOnly();
  auto& http = r.GroupStates(db::Value(std::string("HTTP")), 2);
  http[1].AddCountOnly();
  http[1].AddCountOnly();
  r.rows_matched = 3;
  r.endsystems = 1;
  EXPECT_EQ(FormatAggregateLine(*q, r),
            "FINAL rows=3 endsystems=1 groups=2 {App=HTTP COUNT=2} "
            "{App=SMB COUNT=1}");
}

TEST(ResultFormatTest, PredictorLineIsMonotoneFriendly) {
  CompletenessPredictor p;
  p.AddRowsAt(0, 10);
  p.AddRowsAt(kHour, 30);
  p.AddEndsystems(4);
  const std::string line = FormatPredictorLine(p);
  EXPECT_NE(line.find("PREDICTOR rows=40"), std::string::npos) << line;
  EXPECT_NE(line.find("endsystems=4"), std::string::npos) << line;
}

// The control protocol escapes with the obs exporter's escaper.
TEST(JsonEscapeTest, EscapesControlCharactersAndQuotes) {
  std::string out;
  obs::AppendJsonEscaped(&out, "a\"b\\c\nd");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");
  out.clear();
  obs::AppendJsonEscaped(&out, std::string(1, '\x01'));
  EXPECT_EQ(out, "\\u0001");
}

// In-process seaweedd: a 1-shard LiveCluster + QueryService, driven over
// real TCP from this thread while the loop runs on another.
class QueryServiceTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kBasePort = 19430;

  void StartDaemon() {
    LiveConfig config;
    config.seed = 11;
    // Compress protocol timing: this runs on wall clock.
    config.pastry.heartbeat_period = kSecond;
    config.pastry.join_retry_timeout = 500 * kMillisecond;
    config.seaweed.exec_delay = 20 * kMillisecond;
    config.seaweed.child_timeout = kSecond;
    config.seaweed.result_ack_timeout = 500 * kMillisecond;
    config.seaweed.result_deliver_debounce = 50 * kMillisecond;
    config.bringup_stagger = 50 * kMillisecond;
    loop_ = std::make_unique<EventLoop>();
    cluster_ = std::make_unique<LiveCluster>(
        loop_.get(), MakeLoopbackShardMap(3, 1, 0, kBasePort), config);
    service_ = std::make_unique<QueryService>(cluster_.get(),
                                              kBasePort + 100);
    cluster_->BringUpLocal();
    loop_thread_ = std::thread([this] { loop_->Run(); });
  }

  void TearDown() override {
    if (loop_thread_.joinable()) {
      loop_->Stop();
      loop_thread_.join();
    }
    if (client_fd_ >= 0) close(client_fd_);
    // Members die with the fixture, on this thread, after the loop halted.
  }

  void Connect() {
    client_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(client_fd_, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(kBasePort + 100);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(client_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);
  }

  void SendLine(const std::string& line) {
    std::string full = line + "\n";
    ASSERT_EQ(send(client_fd_, full.data(), full.size(), 0),
              static_cast<ssize_t>(full.size()));
  }

  std::string RecvLine() {
    while (true) {
      size_t nl = rxbuf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = rxbuf_.substr(0, nl);
        rxbuf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = recv(client_fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      rxbuf_.append(chunk, static_cast<size_t>(n));
    }
  }

  obs::Json Request(const std::string& line) {
    SendLine(line);
    auto parsed = obs::ParseJson(RecvLine());
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? std::move(*parsed) : obs::Json{};
  }

  bool IsOk(const obs::Json& resp) {
    const obs::Json* ok = resp.Find("ok");
    return ok != nullptr && ok->b;
  }

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<LiveCluster> cluster_;
  std::unique_ptr<QueryService> service_;
  std::thread loop_thread_;
  int client_fd_ = -1;
  std::string rxbuf_;
};

TEST_F(QueryServiceTest, SurvivesMalformedInputAndAnswersQueries) {
  StartDaemon();
  Connect();

  // --- Fuzz the control protocol: every bad line gets ok:false, the
  // daemon never dies. ---
  const char* bad_lines[] = {
      "this is not json",
      "{\"no_op\": 1}",
      "{\"op\": 42}",
      "{\"op\": \"frobnicate\"}",
      "{\"op\": \"submit\"}",                        // missing sql
      "{\"op\": \"submit\", \"sql\": \"NOT SQL\"}",  // parse error
      "{\"op\": \"status\"}",                        // missing query_id
      "{\"op\": \"status\", \"query_id\": \"zz\"}",  // unknown id
      "{\"op\": \"cancel\", \"query_id\": \"00\"}",
      "{\"op\": \"stream\", \"query_id\": \"--\"}",
      "{nested: {broken",
  };
  for (const char* line : bad_lines) {
    const obs::Json resp = Request(line);
    EXPECT_FALSE(IsOk(resp)) << line;
    EXPECT_NE(resp.Find("error"), nullptr) << line;
  }

  // --- stats still works and reports the abuse. ---
  obs::Json stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_EQ(stats.Find("endsystems")->AsInt(), 3);
  const obs::Json* counters = stats.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->Find("server.bad_requests")->AsInt(),
            static_cast<int64_t>(std::size(bad_lines)));

  // --- Wait for the shard to finish joining, then run a real query
  // end to end over the socket. ---
  for (int i = 0; i < 400; ++i) {
    stats = Request("{\"op\":\"stats\"}");
    if (stats.Find("joined")->AsInt() == 3) break;
    usleep(50 * 1000);
  }
  ASSERT_EQ(stats.Find("joined")->AsInt(), 3) << "shard did not join";

  obs::Json submitted = Request(
      "{\"op\":\"submit\",\"sql\":\"SELECT COUNT(*), SUM(Bytes) FROM Flow\"}");
  ASSERT_TRUE(IsOk(submitted));
  const std::string qid = submitted.Find("query_id")->AsString();
  ASSERT_FALSE(qid.empty());
  ASSERT_TRUE(IsOk(Request(
      "{\"op\":\"stream\",\"query_id\":\"" + qid + "\"}")));

  // Events arrive until the aggregate covers all 3 endsystems.
  std::string final_line;
  timeval tv{30, 0};
  setsockopt(client_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  for (int i = 0; i < 200; ++i) {
    std::string line = RecvLine();
    ASSERT_FALSE(line.empty()) << "stream closed or timed out";
    auto ev = obs::ParseJson(line);
    ASSERT_TRUE(ev.ok()) << line;
    const obs::Json* kind = ev->Find("event");
    if (kind == nullptr || kind->AsString() != "result") continue;
    const obs::Json* complete = ev->Find("complete");
    if (complete != nullptr && complete->b) {
      final_line = ev->Find("final")->AsString();
      break;
    }
  }
  ASSERT_FALSE(final_line.empty()) << "query never completed";
  EXPECT_EQ(final_line.substr(0, 6), "FINAL ");
  EXPECT_NE(final_line.find("endsystems=3"), std::string::npos) << final_line;

  // status agrees with the stream.
  obs::Json status =
      Request("{\"op\":\"status\",\"query_id\":\"" + qid + "\"}");
  ASSERT_TRUE(IsOk(status));
  EXPECT_TRUE(status.Find("complete")->b);
  EXPECT_EQ(status.Find("final")->AsString(), final_line);

  // net.* counters flowed through the shared registry.
  stats = Request("{\"op\":\"stats\"}");
  const obs::Json* c = stats.Find("counters");
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->Find("net.datagrams_tx"), nullptr);
  EXPECT_GE(c->Find("server.queries_submitted")->AsInt(), 1);
}

TEST_F(QueryServiceTest, ProtocolVersionGate) {
  StartDaemon();
  Connect();

  // Matching version: accepted, and every response echoes the server's
  // protocol version.
  obs::Json resp = Request("{\"v\":1,\"op\":\"stats\"}");
  EXPECT_TRUE(IsOk(resp));
  ASSERT_NE(resp.Find("v"), nullptr);
  EXPECT_EQ(resp.Find("v")->AsInt(), kProtocolVersion);

  // Missing version: accepted as v1 so pre-versioning clients keep working.
  EXPECT_TRUE(IsOk(Request("{\"op\":\"stats\"}")));

  // Mismatched version: refused through the distinct mismatch shape, and
  // the gate answers before the op is even looked at — a v99 client must
  // not have its gibberish interpreted under v1 rules.
  resp = Request("{\"v\":99,\"op\":\"frobnicate\"}");
  EXPECT_FALSE(IsOk(resp));
  ASSERT_NE(resp.Find("mismatch"), nullptr);
  EXPECT_TRUE(resp.Find("mismatch")->b);
  EXPECT_EQ(resp.Find("server_v")->AsInt(), kProtocolVersion);

  // Mismatches get their own counter on top of server.bad_requests.
  obs::Json stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_GE(
      stats.Find("counters")->Find("server.protocol_mismatches")->AsInt(), 1);
  EXPECT_GE(stats.Find("counters")->Find("server.bad_requests")->AsInt(), 1);
}

TEST_F(QueryServiceTest, MidStreamDisconnectDropsSubscriptionCleanly) {
  StartDaemon();
  Connect();

  // Wait for the shard to finish joining so the query actually runs.
  obs::Json stats;
  for (int i = 0; i < 400; ++i) {
    stats = Request("{\"op\":\"stats\"}");
    if (stats.Find("joined")->AsInt() == 3) break;
    usleep(50 * 1000);
  }
  ASSERT_EQ(stats.Find("joined")->AsInt(), 3) << "shard did not join";

  obs::Json submitted = Request(
      "{\"op\":\"submit\",\"sql\":\"SELECT COUNT(*), SUM(Bytes) FROM Flow\"}");
  ASSERT_TRUE(IsOk(submitted));
  const std::string qid = submitted.Find("query_id")->AsString();
  const std::string stream_op =
      "{\"op\":\"stream\",\"query_id\":\"" + qid + "\"}";
  ASSERT_TRUE(IsOk(Request(stream_op)));

  // Sever the streaming connection abruptly, mid-subscription.
  close(client_fd_);
  client_fd_ = -1;
  rxbuf_.clear();

  // A fresh connection sees the disconnect counted and the daemon healthy.
  Connect();
  int64_t disconnected = 0;
  for (int i = 0; i < 250; ++i) {
    stats = Request("{\"op\":\"stats\"}");
    disconnected = stats.Find("counters")
                       ->Find("server.clients_disconnected")
                       ->AsInt();
    if (disconnected >= 1) break;
    usleep(20 * 1000);
  }
  EXPECT_GE(disconnected, 1);

  // Re-streaming the same query from the new connection is idempotent:
  // replay-on-subscribe still lands the final result here, even though the
  // original subscriber vanished mid-flight.
  ASSERT_TRUE(IsOk(Request(stream_op)));
  timeval tv{30, 0};
  setsockopt(client_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool complete = false;
  for (int i = 0; i < 200 && !complete; ++i) {
    std::string line = RecvLine();
    ASSERT_FALSE(line.empty()) << "stream closed or timed out";
    auto ev = obs::ParseJson(line);
    ASSERT_TRUE(ev.ok()) << line;
    const obs::Json* kind = ev->Find("event");
    if (kind == nullptr || kind->AsString() != "result") continue;
    const obs::Json* c = ev->Find("complete");
    complete = c != nullptr && c->b;
  }
  EXPECT_TRUE(complete) << "resubscribed stream never saw the final result";

  // Fd hygiene: repeated subscribe-then-vanish cycles must return the
  // process (the daemon lives in here, so both socket ends count) to the
  // same open-fd count. Baseline and end state each hold one live client
  // connection, so the counts are directly comparable.
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);
  const int64_t target = disconnected + 6;  // 5 cycle closes + final close
  for (int cycle = 0; cycle < 5; ++cycle) {
    close(client_fd_);
    client_fd_ = -1;
    rxbuf_.clear();
    Connect();
    ASSERT_TRUE(IsOk(Request(stream_op)));
  }
  // Swap to a clean observation connection (no subscription) so stats
  // replies can't interleave with replayed stream events.
  close(client_fd_);
  client_fd_ = -1;
  rxbuf_.clear();
  Connect();
  int64_t final_disconnected = 0;
  for (int i = 0; i < 250; ++i) {
    stats = Request("{\"op\":\"stats\"}");
    final_disconnected = stats.Find("counters")
                             ->Find("server.clients_disconnected")
                             ->AsInt();
    if (final_disconnected >= target) break;
    usleep(20 * 1000);
  }
  EXPECT_GE(final_disconnected, target);
  const int fds_after = CountOpenFds();
  EXPECT_LE(fds_after, fds_before + 1)
      << "fd leak across mid-stream disconnect cycles";
}

TEST_F(QueryServiceTest, DropClientsSeversEveryConnectionAndReconnectWorks) {
  StartDaemon();
  Connect();

  // A second, independent control connection, proven live before the drop.
  int fd2 = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(kBasePort + 100);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string ping = "{\"op\":\"stats\"}\n";
  ASSERT_EQ(send(fd2, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  timeval tv{10, 0};
  setsockopt(fd2, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char probe;
  ASSERT_GT(recv(fd2, &probe, 1, 0), 0);

  obs::Json resp = Request("{\"op\":\"drop_clients\"}");
  ASSERT_TRUE(IsOk(resp));
  EXPECT_GE(resp.Find("dropped")->AsInt(), 2);

  // Both connections — the requester included — are severed shortly after
  // the ack.
  setsockopt(client_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_EQ(RecvLine(), "") << "requester was not dropped";
  ssize_t n;
  char buf[4096];
  while ((n = recv(fd2, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << "second client was not dropped";
  close(fd2);

  // Reconnecting works and the drops were counted.
  close(client_fd_);
  client_fd_ = -1;
  rxbuf_.clear();
  Connect();
  obs::Json stats = Request("{\"op\":\"stats\"}");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_GE(
      stats.Find("counters")->Find("server.clients_disconnected")->AsInt(), 2);
}

}  // namespace
}  // namespace seaweed::net
