// Wire codec tests: every message kind must round-trip losslessly through
// Encode/Decode, reject corrupt or truncated input with a Status (never a
// crash), and report meter charges derived from the encoder. The golden
// size table pins the byte layout — a change there is a wire-format break.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/wire.h"
#include "overlay/packet.h"
#include "seaweed/wire.h"

namespace seaweed {
namespace {

using overlay::NodeHandle;
using overlay::Packet;

std::vector<uint8_t> EncodeToBytes(const WireMessage& msg) {
  Writer w;
  msg.Encode(w);
  return w.bytes();
}

// Decodes `bytes` expecting success and full consumption.
WireMessagePtr DecodeAll(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  auto decoded = DecodeWireMessage(r);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return nullptr;
  EXPECT_TRUE(r.AtEnd()) << r.remaining() << " trailing bytes";
  return std::move(decoded).value();
}

// encode -> decode -> encode must be the identity on bytes.
void ExpectFixpoint(const WireMessage& msg) {
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  WireMessagePtr copy = DecodeAll(bytes);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
  EXPECT_EQ(copy->WireBytes(), msg.WireBytes());
}

// Every strict prefix of a valid encoding must fail to decode with a Status
// (exercised under ASan/UBSan via scripts/check.sh).
void ExpectTruncationSafe(const WireMessage& msg) {
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Reader r(bytes.data(), len);
    auto decoded = DecodeWireMessage(r);
    EXPECT_FALSE(decoded.ok()) << "decode succeeded at prefix " << len << "/"
                               << bytes.size();
  }
}

Query TestQuery(const std::string& sql = "SELECT COUNT(*) FROM Flow") {
  auto q = Query::Create(sql, 3 * kHour, NodeHandle{NodeId(7, 7), 3});
  EXPECT_TRUE(q.ok());
  return std::move(q).value();
}

db::AggregateResult TestResult() {
  db::AggregateResult r;
  r.states.resize(2);
  r.states[0].sum = 12.5;
  r.states[0].count = 4;
  r.GroupStates(db::Value(int64_t{80}), 1)[0].count = 9;
  r.rows_matched = 13;
  r.endsystems = 2;
  return r;
}

Metadata TestMetadata() {
  Metadata m;
  m.owner = NodeId(3, 4);
  m.version = 17;
  db::TableSummary t;
  t.table_name = "Flow";
  t.total_rows = 1000;
  m.summary.tables.push_back(t);
  m.availability.RecordDownPeriod(kHour, 5 * kHour);
  m.views.emplace_back("v_flows", TestResult());
  return m;
}

// --- Golden wire sizes -----------------------------------------------------
//
// Encoded size of each message kind with default-constructed content. These
// pin the wire layout: an unintentional diff here is a format break; an
// intentional one must update DESIGN.md §5c.

TEST(GoldenWireSizeTest, PaddingMessage) {
  PaddingMessage p(100);
  EXPECT_EQ(p.EncodedBytes(), 2u);   // tag + 1-byte varint
  EXPECT_EQ(p.WireBytes(), 100u);    // declared charge, not encoded size
}

TEST(GoldenWireSizeTest, PacketDefault) {
  Packet pkt;
  EXPECT_EQ(pkt.EncodedBytes(), 45u);
}

TEST(GoldenWireSizeTest, PacketPerEntry) {
  Packet pkt;
  pkt.entries.resize(8);
  EXPECT_EQ(pkt.EncodedBytes(), 45u + 8 * overlay::kNodeHandleBytes);
}

TEST(GoldenWireSizeTest, SeaweedMessageDefaults) {
  struct GoldenRow {
    SeaweedMessage::Kind kind;
    uint32_t encoded_bytes;
  };
  const GoldenRow kGolden[] = {
      {SeaweedMessage::Kind::kMetadataPush, 74},
      {SeaweedMessage::Kind::kBroadcast, 72},
      {SeaweedMessage::Kind::kPredictorReport, 380},
      {SeaweedMessage::Kind::kResultSubmit, 76},
      {SeaweedMessage::Kind::kResultAck, 58},
      {SeaweedMessage::Kind::kVertexReplicate, 19},
      {SeaweedMessage::Kind::kResultDeliver, 76},
      {SeaweedMessage::Kind::kQueryListRequest, 2},
      {SeaweedMessage::Kind::kQueryList, 3},
      {SeaweedMessage::Kind::kQueryCancel, 18},
  };
  for (const auto& row : kGolden) {
    SeaweedMessage msg;
    msg.kind = row.kind;
    EXPECT_EQ(msg.EncodedBytes(), row.encoded_bytes)
        << "kind " << static_cast<int>(row.kind);
  }
}

// --- Packet round trips ----------------------------------------------------

TEST(PacketCodecTest, ControlKindsRoundTrip) {
  for (auto kind :
       {Packet::Kind::kJoinRequest, Packet::Kind::kJoinRow,
        Packet::Kind::kJoinLeafset, Packet::Kind::kNodeAnnounce,
        Packet::Kind::kLeafsetRequest, Packet::Kind::kLeafsetReply,
        Packet::Kind::kProbe, Packet::Kind::kProbeReply,
        Packet::Kind::kHeartbeat}) {
    Packet pkt;
    pkt.kind = kind;
    pkt.src = NodeHandle{NodeId(1, 2), 5};
    pkt.key = NodeId(3, 4);
    pkt.row = 2;
    pkt.hops = 7;
    pkt.entries.push_back(NodeHandle{NodeId(9, 9), 1});
    pkt.entries.push_back(NodeHandle{NodeId(8, 8), 2});

    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    auto copy = WireMessageCast<Packet>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->kind, kind);
    EXPECT_EQ(copy->src, pkt.src);
    EXPECT_EQ(copy->key, pkt.key);
    EXPECT_EQ(copy->row, pkt.row);
    EXPECT_EQ(copy->hops, pkt.hops);
    EXPECT_EQ(copy->entries, pkt.entries);
    EXPECT_EQ(copy->app_payload, nullptr);
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

TEST(PacketCodecTest, AppPacketWithNestedPayloadRoundTrips) {
  auto inner = std::make_shared<SeaweedMessage>();
  inner->kind = SeaweedMessage::Kind::kQueryCancel;
  inner->query_id = NodeId(5, 6);

  Packet pkt;
  pkt.kind = Packet::Kind::kApp;
  pkt.src = NodeHandle{NodeId(1, 1), 2};
  pkt.key = NodeId(2, 2);
  pkt.app_payload = inner;
  pkt.app_routed = true;
  pkt.category = TrafficCategory::kDissemination;

  std::vector<uint8_t> bytes = EncodeToBytes(pkt);
  auto copy = WireMessageCast<Packet>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(copy->app_routed);
  EXPECT_EQ(copy->category, TrafficCategory::kDissemination);
  ASSERT_NE(copy->app_payload, nullptr);
  auto inner_copy = WireMessageCast<SeaweedMessage>(copy->app_payload);
  EXPECT_EQ(inner_copy->kind, SeaweedMessage::Kind::kQueryCancel);
  EXPECT_EQ(inner_copy->query_id, inner->query_id);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(PacketCodecTest, WireBytesSubstitutesPayloadCharge) {
  Packet bare;
  uint32_t base = bare.EncodedBytes();

  // A padding payload encodes tiny but charges 1000: the packet charge must
  // reflect the declared payload size, framed inside the packet bytes.
  Packet pkt;
  pkt.app_payload = std::make_shared<PaddingMessage>(1000);
  EXPECT_EQ(pkt.WireBytes(), base - 1 /*empty payload tag*/ + 1000);
}

// --- SeaweedMessage round trips --------------------------------------------

TEST(SeaweedCodecTest, MetadataPushRoundTrips) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kMetadataPush;
  msg.metadata = TestMetadata();
  msg.metadata_wire_bytes = 6473;

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->metadata.owner, msg.metadata.owner);
  EXPECT_EQ(copy->metadata.version, msg.metadata.version);
  EXPECT_EQ(copy->metadata.availability, msg.metadata.availability);
  ASSERT_EQ(copy->metadata.views.size(), 1u);
  EXPECT_EQ(copy->metadata.views[0].first, "v_flows");
  EXPECT_EQ(copy->metadata.views[0].second, msg.metadata.views[0].second);
  EXPECT_EQ(copy->metadata_wire_bytes, 6473u);
  // The calibrated charge survives the round trip.
  EXPECT_EQ(copy->WireBytes(), msg.WireBytes());
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, MetadataPushChargesCalibratedSummarySize) {
  SeaweedMessage plain;
  plain.kind = SeaweedMessage::Kind::kMetadataPush;
  plain.metadata = TestMetadata();
  uint32_t encoded = plain.EncodedBytes();
  uint32_t summary_encoded =
      static_cast<uint32_t>(plain.metadata.summary.EncodedBytes());

  SeaweedMessage calibrated;
  calibrated.kind = SeaweedMessage::Kind::kMetadataPush;
  calibrated.metadata = TestMetadata();
  calibrated.metadata_wire_bytes = 6473;
  // varint(6473) is 2 bytes; varint(0) is 1 — encoded sizes differ by 1.
  EXPECT_EQ(calibrated.WireBytes(),
            encoded + 1 - summary_encoded + 6473);
}

TEST(SeaweedCodecTest, BroadcastRoundTripsQueries) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kBroadcast;
  msg.query_id = NodeId(11, 12);
  msg.range = IdRange{NodeId(1, 0), NodeId(2, 0), false};
  msg.parent = NodeHandle{NodeId(4, 4), 9};
  msg.queries.push_back(TestQuery());

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->query_id, msg.query_id);
  EXPECT_EQ(copy->range, msg.range);
  EXPECT_EQ(copy->parent, msg.parent);
  ASSERT_EQ(copy->queries.size(), 1u);
  const Query& q = copy->queries[0];
  EXPECT_EQ(q.sql, msg.queries[0].sql);
  EXPECT_EQ(q.query_id, msg.queries[0].query_id);
  EXPECT_EQ(q.injected_at, msg.queries[0].injected_at);
  EXPECT_EQ(q.ttl, msg.queries[0].ttl);
  EXPECT_EQ(q.origin, msg.queries[0].origin);
  // Decode re-parses the SQL: the plan must be usable again.
  EXPECT_TRUE(q.parsed.IsAggregateOnly());
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, ContinuousAndViewQueriesRoundTrip) {
  Query cont = TestQuery();
  cont.continuous = true;
  cont.reexec_period = 5 * kMinute;

  Query view;  // view snapshots travel without SQL
  view.query_id = NodeId(42, 42);
  view.origin = NodeHandle{NodeId(1, 2), 3};
  view.view_name = "v_flows";

  for (const Query* q : {&cont, &view}) {
    SeaweedMessage msg;
    msg.kind = SeaweedMessage::Kind::kBroadcast;
    msg.queries.push_back(*q);
    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    ASSERT_EQ(copy->queries.size(), 1u);
    EXPECT_EQ(copy->queries[0].continuous, q->continuous);
    EXPECT_EQ(copy->queries[0].reexec_period, q->reexec_period);
    EXPECT_EQ(copy->queries[0].view_name, q->view_name);
    EXPECT_EQ(copy->queries[0].IsViewSnapshot(), q->IsViewSnapshot());
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

TEST(SeaweedCodecTest, PredictorKindsRoundTrip) {
  // The tree root reports to the origin with this kind too.
  const auto kind = SeaweedMessage::Kind::kPredictorReport;
  SeaweedMessage msg;
  msg.kind = kind;
  msg.query_id = NodeId(1, 2);
  msg.range = IdRange::Full(NodeId(1, 2));
  msg.predictor.AddRowsAt(10 * kMinute, 42.5);

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->predictor, msg.predictor);
  EXPECT_EQ(copy->range, msg.range);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);

  // View-snapshot variant: an aggregate rides along.
  SeaweedMessage with_result;
  with_result.kind = kind;
  with_result.query_id = NodeId(1, 2);
  with_result.result = TestResult();
  std::vector<uint8_t> bytes2 = EncodeToBytes(with_result);
  auto copy2 = WireMessageCast<SeaweedMessage>(DecodeAll(bytes2));
  ASSERT_NE(copy2, nullptr);
  EXPECT_EQ(copy2->result, with_result.result);
  EXPECT_EQ(EncodeToBytes(*copy2), bytes2);
}

TEST(SeaweedCodecTest, ResultPlaneKindsRoundTrip) {
  for (auto kind : {SeaweedMessage::Kind::kResultSubmit,
                    SeaweedMessage::Kind::kResultAck,
                    SeaweedMessage::Kind::kResultDeliver}) {
    SeaweedMessage msg;
    msg.kind = kind;
    msg.query_id = NodeId(1, 1);
    msg.vertex_id = NodeId(2, 2);
    msg.child_key = NodeId(3, 3);
    msg.version = 12;
    msg.result = TestResult();

    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->query_id, msg.query_id);
    EXPECT_EQ(copy->vertex_id, msg.vertex_id);
    EXPECT_EQ(copy->child_key, msg.child_key);
    EXPECT_EQ(copy->version, msg.version);
    if (kind != SeaweedMessage::Kind::kResultAck) {
      EXPECT_EQ(copy->result, msg.result);
    }
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

using ResultPtr = std::shared_ptr<const db::AggregateResult>;

ResultPtr Shared(db::AggregateResult r) {
  return std::make_shared<const db::AggregateResult>(std::move(r));
}

TEST(SeaweedCodecTest, VertexReplicateRoundTrips) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.query_id = NodeId(1, 1);
  msg.replicas.push_back({NodeId(2, 2),
                          {{NodeId(3, 3), 4, Shared(TestResult())},
                           {NodeId(5, 5), 6, Shared(db::AggregateResult{})}}});

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->query_id, msg.query_id);
  EXPECT_EQ(copy->replicas, msg.replicas);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, VertexReplicateSendsSharedResultOnce) {
  // A fold pass up a chain of single-child vertices: every level holds the
  // same result pointer, which goes on the wire once.
  const ResultPtr chain = Shared(TestResult());
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.query_id = NodeId(1, 1);
  for (uint64_t level = 0; level < 5; ++level) {
    msg.replicas.push_back({NodeId(2, level), {{NodeId(3, level), 7, chain}}});
  }
  msg.replicas.back().entries.push_back(
      {NodeId(4, 4), 9, Shared(TestResult())});

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->replicas, msg.replicas);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
  // Decoded back-references share one result, as the sender's did; an
  // equal result under another pointer is sent as a back-reference too.
  for (const auto& v : copy->replicas) {
    EXPECT_EQ(v.entries[0].result, copy->replicas[0].entries[0].result);
  }
  EXPECT_EQ(copy->replicas.back().entries[1].result,
            copy->replicas[0].entries[0].result);
  // So the bytes depend on the values alone: a backup's entries alias the
  // primary's results under an in-memory transport and are distinct
  // objects after a decode, and a full sync from it encodes the same.
  SeaweedMessage aliased = msg;
  aliased.replicas.back().entries[1].result = chain;
  EXPECT_EQ(EncodeToBytes(aliased), bytes);

  SeaweedMessage one;
  one.kind = SeaweedMessage::Kind::kVertexReplicate;
  one.replicas.push_back({NodeId(2, 0), {{NodeId(3, 0), 7, chain}}});
  // Each level after the first costs its vertex id, entry count, child id,
  // version and a one-byte reference, not another result, and the extra
  // entry its child id, version and reference.
  EXPECT_EQ(msg.EncodedBytes(),
            one.EncodedBytes() + 4 * (16 + 1 + 16 + 1 + 1) + 16 + 1 + 1);
}

// Exact states round-trip bit for bit through the compact layout, whatever
// mix of defaults, integers and raw doubles they hold.
TEST(SeaweedCodecTest, AggStateCompactEncodingIsLossless) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double k2p53 = 9007199254740992.0;
  const double kValues[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
      k2p53 - 1,
      k2p53 + 1,  // rounds to 2^53, still integral
      k2p53 + 2,
      -(k2p53 + 2),
      9223372036854775807.0,   // INT64_MAX rounds to 2^63: out of range
      -9223372036854775808.0,  // INT64_MIN: in range
      0.5,
      -12.25,
      1e300,
      std::numeric_limits<double>::denorm_min(),
      3.0,
      -1.0,
  };
  const int64_t kCounts[] = {0, 1, -1, std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::min()};
  auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(v));
    return b;
  };
  for (double sum : kValues) {
    for (double edge : kValues) {
      for (int64_t count : kCounts) {
        db::AggState s;
        s.sum = sum;
        s.count = count;
        s.min = edge;
        s.max = -edge;
        Writer w;
        s.Encode(w);
        Reader r(w.bytes());
        auto back = db::AggState::Decode(r);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        EXPECT_TRUE(r.AtEnd());
        EXPECT_EQ(bits(back->sum), bits(sum));
        EXPECT_EQ(bits(back->min), bits(edge));
        EXPECT_EQ(bits(back->max), bits(-edge));
        EXPECT_EQ(back->count, count);
        Writer again;
        back->Encode(again);
        EXPECT_EQ(again.bytes(), w.bytes());
      }
    }
  }
  // Defaults cost the tag, flag and count bytes only; small integers a
  // varint each, non-integral values 8 raw bytes.
  db::AggregateResult one_empty;
  one_empty.states.resize(1);
  EXPECT_EQ(one_empty.EncodedBytes() - db::AggregateResult{}.EncodedBytes(),
            3u);
  db::AggState ints;
  ints.Add(5);
  ints.Add(7);
  Writer w;
  ints.Encode(w);
  EXPECT_EQ(w.size(), 3u + 3u);
  db::AggState frac;
  frac.Add(0.5);
  Writer wf;
  frac.Encode(wf);
  EXPECT_EQ(wf.size(), 3u + 3 * 8u);
}

TEST(SeaweedCodecTest, AggStateRejectsBadFlags) {
  for (uint8_t flags : {uint8_t{0x40}, uint8_t{0x80}, uint8_t{0x02}}) {
    std::vector<uint8_t> bytes = {0x00, flags, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
    Reader r(bytes);
    auto decoded = db::AggState::Decode(r);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsParseError()) << int{flags};
  }
}

TEST(SeaweedCodecTest, QueryListKindsRoundTrip) {
  SeaweedMessage req;
  req.kind = SeaweedMessage::Kind::kQueryListRequest;
  ExpectFixpoint(req);

  SeaweedMessage list;
  list.kind = SeaweedMessage::Kind::kQueryList;
  list.queries.push_back(TestQuery());
  list.queries.push_back(TestQuery("SELECT SUM(bytes) FROM Flow"));
  std::vector<uint8_t> bytes = EncodeToBytes(list);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  ASSERT_EQ(copy->queries.size(), 2u);
  EXPECT_EQ(copy->queries[1].sql, "SELECT SUM(bytes) FROM Flow");
  EXPECT_EQ(EncodeToBytes(*copy), bytes);

  SeaweedMessage cancel;
  cancel.kind = SeaweedMessage::Kind::kQueryCancel;
  cancel.query_id = NodeId(9, 9);
  ExpectFixpoint(cancel);
}

// --- Corrupt and truncated input -------------------------------------------

TEST(CorruptInputTest, TruncationNeverCrashes) {
  // Exhaustive prefix truncation of a representative of every layout,
  // including a nested app payload (run under ASan/UBSan via check.sh).
  Packet pkt;
  pkt.kind = Packet::Kind::kApp;
  pkt.entries.resize(3);
  auto inner = std::make_shared<SeaweedMessage>();
  inner->kind = SeaweedMessage::Kind::kBroadcast;
  inner->queries.push_back(TestQuery());
  pkt.app_payload = inner;
  ExpectTruncationSafe(pkt);

  SeaweedMessage push;
  push.kind = SeaweedMessage::Kind::kMetadataPush;
  push.metadata = TestMetadata();
  ExpectTruncationSafe(push);

  SeaweedMessage rep;
  rep.kind = SeaweedMessage::Kind::kVertexReplicate;
  const auto shared = std::make_shared<const db::AggregateResult>(TestResult());
  rep.replicas.push_back({NodeId(1, 1), {{NodeId(1, 2), 2, shared}}});
  rep.replicas.push_back({NodeId(1, 3), {{NodeId(1, 1), 3, shared}}});
  ExpectTruncationSafe(rep);

  SeaweedMessage pred;
  pred.kind = SeaweedMessage::Kind::kPredictorReport;
  pred.result = TestResult();
  ExpectTruncationSafe(pred);
}

TEST(CorruptInputTest, BadTagsAndEnumsRejected) {
  {
    std::vector<uint8_t> bytes = {0x00};  // reserved transport tag
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    std::vector<uint8_t> bytes = {0xEE};  // unregistered transport tag
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    Packet pkt;
    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    bytes[1] = 0x77;  // packet kind out of range
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  // Seaweed kinds out of range or retired: 3 was the tree root's predictor
  // delivery and 11 a batched broadcast once; neither decodes.
  for (uint8_t bad_kind : {uint8_t{3}, uint8_t{11}, uint8_t{0x7F}}) {
    SeaweedMessage msg;
    msg.kind = SeaweedMessage::Kind::kQueryCancel;
    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    bytes[1] = bad_kind;
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok()) << int{bad_kind};
  }
  {
    // Absurd entry count must be rejected before allocation.
    Packet pkt;
    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    bytes[bytes.size() - 2] = 0xFF;  // entry-count varint, unterminated
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
}

// Hand-built kVertexReplicate bodies: each must decode to a ParseError.
TEST(CorruptInputTest, VertexReplicateBadCountsAndReferences) {
  auto replicate = [](uint64_t vertices, uint64_t entries, uint64_t ref) {
    Writer w;
    w.PutU8(SeaweedMessage::kWireType);
    w.PutU8(static_cast<uint8_t>(SeaweedMessage::Kind::kVertexReplicate));
    w.PutNodeId(NodeId(1, 1));  // query id
    w.PutVarint(vertices);
    w.PutNodeId(NodeId(2, 2));  // vertex id
    w.PutVarint(entries);
    w.PutNodeId(NodeId(3, 3));  // child
    w.PutVarint(5);             // version
    w.PutVarint(ref);
    db::AggregateResult{}.Encode(w);
    return w.TakeBytes();
  };
  auto expect_parse_error = [](const std::vector<uint8_t>& bytes,
                               const char* what) {
    Reader r(bytes);
    auto decoded = DecodeWireMessage(r);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_TRUE(decoded.status().IsParseError())
        << what << ": " << decoded.status().ToString();
  };
  // Sanity: the well-formed body decodes.
  {
    std::vector<uint8_t> ok = replicate(1, 1, 0);
    Reader r(ok);
    ASSERT_TRUE(DecodeWireMessage(r).ok());
  }
  expect_parse_error(replicate(1, 1, 1), "reference to a result not yet sent");
  expect_parse_error(replicate(1, 1, 1000), "reference far past the end");
  expect_parse_error(replicate(1u << 20, 1, 0), "vertex count");
  expect_parse_error(replicate(std::numeric_limits<uint64_t>::max(), 1, 0),
                     "max vertex count");
  expect_parse_error(replicate(1, 1u << 20, 0), "entry count");
  expect_parse_error(replicate(1, std::numeric_limits<uint64_t>::max(), 0),
                     "max entry count");
}

TEST(CorruptInputTest, TrailingGarbageDetectable) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kQueryCancel;
  msg.query_id = NodeId(1, 2);
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  bytes.push_back(0xAB);
  Reader r(bytes);
  auto decoded = DecodeWireMessage(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(r.AtEnd());  // transports CHECK AtEnd to catch this
}

// --- Varint and double properties ------------------------------------------

TEST(VarintPropertyTest, EdgeValuesRoundTrip) {
  const uint64_t kEdges[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kEdges) {
    Writer w;
    w.PutVarint(v);
    Reader r(w.bytes());
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintPropertyTest, RandomValuesRoundTrip) {
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    // Bias toward boundary-straddling magnitudes.
    uint64_t v = rng.Next() >> (rng.NextBelow(64));
    Writer w;
    w.PutVarint(v);
    Reader r(w.bytes());
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(DoublePropertyTest, SpecialValuesPreserveBits) {
  const double kSpecials[] = {0.0,
                              -0.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max()};
  for (double v : kSpecials) {
    Writer w;
    w.PutDouble(v);
    Reader r(w.bytes());
    auto back = r.GetDouble();
    ASSERT_TRUE(back.ok());
    uint64_t in_bits, out_bits;
    std::memcpy(&in_bits, &v, sizeof(v));
    std::memcpy(&out_bits, &*back, sizeof(double));
    EXPECT_EQ(in_bits, out_bits);
  }
}

TEST(DoublePropertyTest, NaNResultSurvivesMessageFixpoint) {
  // NaN != NaN, so fixpoint is asserted on bytes, not values.
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kResultSubmit;
  msg.result.states.resize(1);
  msg.result.states[0].sum = std::numeric_limits<double>::quiet_NaN();
  msg.result.states[0].min = -std::numeric_limits<double>::infinity();
  msg.result.states[0].max = -0.0;
  ExpectFixpoint(msg);
}

// --- Randomized encode -> decode -> encode fixpoint ------------------------

NodeId RandomId(Rng& rng) { return NodeId(rng.Next(), rng.Next()); }

NodeHandle RandomHandle(Rng& rng) {
  return NodeHandle{RandomId(rng), static_cast<EndsystemIndex>(
                                       rng.NextBelow(1000))};
}

db::AggregateResult RandomResult(Rng& rng) {
  db::AggregateResult r;
  r.states.resize(rng.NextBelow(3));
  for (auto& s : r.states) {
    s.sum = static_cast<double>(rng.Next()) / 3.0;
    s.count = static_cast<int64_t>(rng.NextBelow(1000));
  }
  for (uint64_t g = rng.NextBelow(4); g > 0; --g) {
    r.GroupStates(db::Value(static_cast<int64_t>(rng.NextBelow(100))),
                  r.states.empty() ? 1 : r.states.size());
  }
  r.rows_matched = static_cast<int64_t>(rng.NextBelow(100000));
  r.endsystems = static_cast<int64_t>(rng.NextBelow(500));
  return r;
}

Query RandomQuery(Rng& rng) {
  const char* kSql[] = {
      "SELECT COUNT(*) FROM Flow",
      "SELECT SUM(bytes) FROM Flow WHERE port = 80",
      "SELECT COUNT(*), SUM(bytes) FROM Flow",
  };
  auto q = Query::Create(kSql[rng.NextBelow(3)],
                         static_cast<SimTime>(rng.NextBelow(1000)) * kSecond,
                         RandomHandle(rng));
  EXPECT_TRUE(q.ok());
  Query out = std::move(q).value();
  if (rng.NextBelow(2) == 0) {
    out.continuous = true;
    out.reexec_period = static_cast<SimDuration>(rng.NextBelow(100)) * kSecond;
  }
  return out;
}

TEST(RandomizedFixpointTest, AllSeaweedKinds) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    SeaweedMessage msg;
    // The ten live kinds: tags 0-10 but the retired 3.
    const uint64_t tag = rng.NextBelow(10);
    msg.kind = static_cast<SeaweedMessage::Kind>(tag < 3 ? tag : tag + 1);
    msg.query_id = RandomId(rng);
    msg.vertex_id = RandomId(rng);
    msg.child_key = RandomId(rng);
    msg.version = rng.Next();
    msg.range = IdRange{RandomId(rng), RandomId(rng), rng.NextBelow(4) == 0};
    msg.parent = RandomHandle(rng);
    msg.result = RandomResult(rng);
    msg.metadata.owner = RandomId(rng);
    msg.metadata.version = rng.Next();
    if (msg.kind == SeaweedMessage::Kind::kMetadataPush &&
        rng.NextBelow(2) == 0) {
      msg.metadata_wire_bytes = static_cast<uint32_t>(rng.NextBelow(10000));
    }
    for (uint64_t n = rng.NextBelow(3); n > 0; --n) {
      msg.queries.push_back(RandomQuery(rng));
    }
    // Multi-vertex replicates drawing from a small pool of results, so
    // results repeat across entries and vertices (back-references).
    std::vector<std::shared_ptr<const db::AggregateResult>> pool;
    for (uint64_t n = rng.NextBelow(3) + 1; n > 0; --n) {
      pool.push_back(
          std::make_shared<const db::AggregateResult>(RandomResult(rng)));
    }
    for (uint64_t v = rng.NextBelow(4); v > 0; --v) {
      SeaweedMessage::VertexReplica replica{RandomId(rng), {}};
      for (uint64_t n = rng.NextBelow(4); n > 0; --n) {
        replica.entries.push_back(
            {RandomId(rng), rng.Next(), pool[rng.NextBelow(pool.size())]});
      }
      msg.replicas.push_back(std::move(replica));
    }
    for (uint64_t n = rng.NextBelow(10); n > 0; --n) {
      msg.predictor.AddRowsAt(
          static_cast<SimTime>(rng.NextBelow(100)) * kMinute,
          static_cast<double>(rng.NextBelow(1000)));
    }
    ExpectFixpoint(msg);
  }
}

TEST(RandomizedFixpointTest, AllPacketKinds) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    Packet pkt;
    pkt.kind = static_cast<Packet::Kind>(rng.NextBelow(10));
    pkt.src = RandomHandle(rng);
    pkt.key = RandomId(rng);
    pkt.row = static_cast<uint8_t>(rng.NextBelow(40));
    pkt.hops = static_cast<uint16_t>(rng.NextBelow(64));
    pkt.category = static_cast<TrafficCategory>(
        rng.NextBelow(static_cast<uint64_t>(kNumTrafficCategories)));
    for (uint64_t n = rng.NextBelow(6); n > 0; --n) {
      pkt.entries.push_back(RandomHandle(rng));
    }
    if (pkt.kind == Packet::Kind::kApp) {
      pkt.app_routed = rng.NextBelow(2) == 0;
      if (rng.NextBelow(3) != 0) {
        auto inner = std::make_shared<SeaweedMessage>();
        inner->kind = SeaweedMessage::Kind::kResultAck;
        inner->query_id = RandomId(rng);
        inner->child_key = RandomId(rng);
        inner->version = rng.Next();
        pkt.app_payload = inner;
      }
    }
    ExpectFixpoint(pkt);
  }
}

}  // namespace
}  // namespace seaweed
