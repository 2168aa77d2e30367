// ParseTransportSpec: accepted forms and, mostly, the error paths — a bad
// --transport flag must come back as a helpful InvalidArgument listing the
// known layers, never as a crash deeper in cluster construction.
#include <gtest/gtest.h>

#include "sim/transport_stack.h"

namespace seaweed {
namespace {

TEST(TransportSpecTest, EmptySpecMeansNoLayers) {
  auto layers = ParseTransportSpec("");
  ASSERT_TRUE(layers.ok());
  EXPECT_TRUE(layers->empty());
}

TEST(TransportSpecTest, SingleLayers) {
  for (const char* spec : {"serializing", "faulty", "udp"}) {
    auto layers = ParseTransportSpec(spec);
    ASSERT_TRUE(layers.ok()) << spec;
    ASSERT_EQ(layers->size(), 1u) << spec;
    EXPECT_EQ((*layers)[0].kind, spec);
    EXPECT_TRUE((*layers)[0].arg.empty());
  }
}

TEST(TransportSpecTest, CompositionOutermostFirst) {
  auto layers = ParseTransportSpec("serializing,faulty:plan.json");
  ASSERT_TRUE(layers.ok());
  ASSERT_EQ(layers->size(), 2u);
  EXPECT_EQ((*layers)[0].kind, "serializing");
  EXPECT_EQ((*layers)[1].kind, "faulty");
  EXPECT_EQ((*layers)[1].arg, "plan.json");
}

TEST(TransportSpecTest, UdpTakesAnArg) {
  auto layers = ParseTransportSpec("udp:peers.json");
  ASSERT_TRUE(layers.ok());
  ASSERT_EQ(layers->size(), 1u);
  EXPECT_EQ((*layers)[0].kind, "udp");
  EXPECT_EQ((*layers)[0].arg, "peers.json");
}

TEST(TransportSpecTest, UnknownLayerListsKnownOnes) {
  auto layers = ParseTransportSpec("tcp");
  ASSERT_FALSE(layers.ok());
  EXPECT_EQ(layers.status().code(), StatusCode::kInvalidArgument);
  // The message must name the offender and enumerate what would have
  // worked (simctl prints it verbatim).
  EXPECT_NE(layers.status().message().find("tcp"), std::string::npos);
  EXPECT_NE(layers.status().message().find(KnownTransportLayers()),
            std::string::npos);

  // "batching" named the removed dissemination batching; it is now as
  // unknown as "tcp", with or without its old flush-delay argument.
  for (const char* spec : {"batching", "batching:50"}) {
    auto removed = ParseTransportSpec(spec);
    ASSERT_FALSE(removed.ok()) << spec;
    EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(removed.status().message().find(
                  "unknown transport layer \"batching\""),
              std::string::npos)
        << spec;
  }
}

TEST(TransportSpecTest, KnownLayersStringMentionsEveryKind) {
  const std::string known = KnownTransportLayers();
  for (const char* kind : {"serializing", "faulty", "udp"}) {
    EXPECT_NE(known.find(kind), std::string::npos) << kind;
  }
}

TEST(TransportSpecTest, EmptyLayerIsRejected) {
  for (const char* spec : {",", "serializing,", ",faulty", "serializing,,faulty"}) {
    auto layers = ParseTransportSpec(spec);
    EXPECT_FALSE(layers.ok()) << spec;
    EXPECT_EQ(layers.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(TransportSpecTest, SerializingRejectsArgument) {
  auto layers = ParseTransportSpec("serializing:x");
  ASSERT_FALSE(layers.ok());
  EXPECT_NE(layers.status().message().find("serializing"), std::string::npos);
}

TEST(TransportSpecTest, DecoratorsComposeOverUdp) {
  // "udp" replaces the network, so decorators may stack ON it: faulty (and
  // serializing) over the real sockets is the live-chaos configuration.
  auto layers = ParseTransportSpec("serializing,faulty:plan.json,udp");
  ASSERT_TRUE(layers.ok());
  ASSERT_EQ(layers->size(), 3u);
  EXPECT_EQ((*layers)[0].kind, "serializing");
  EXPECT_EQ((*layers)[1].kind, "faulty");
  EXPECT_EQ((*layers)[1].arg, "plan.json");
  EXPECT_EQ((*layers)[2].kind, "udp");

  for (const char* spec :
       {"serializing,udp", "faulty:plan.json,udp", "serializing,faulty,udp"}) {
    auto ok = ParseTransportSpec(spec);
    EXPECT_TRUE(ok.ok()) << spec;
  }
}

TEST(TransportSpecTest, UdpMustBeTheInnermostLayer) {
  // Nothing can sit UNDER the real network, and there is only one of it.
  // These used to be rejected under the stricter udp-must-be-only-layer
  // rule and must still be rejected now.
  for (const char* spec :
       {"udp,faulty", "udp,serializing", "udp,udp",
        "serializing,udp,faulty", "udp:peers.json,serializing"}) {
    auto layers = ParseTransportSpec(spec);
    ASSERT_FALSE(layers.ok()) << spec;
    EXPECT_EQ(layers.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(layers.status().message().find("udp"), std::string::npos)
        << spec;
    EXPECT_NE(layers.status().message().find("innermost"), std::string::npos)
        << spec;
  }
}

}  // namespace
}  // namespace seaweed
