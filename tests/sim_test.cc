#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "sim/bandwidth_meter.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/serializing_transport.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace seaweed {
namespace {

TEST(EventQueueTest, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(10, [&] { order.push_back(2); });
  q.Schedule(5, [&] { order.push_back(0); });
  while (!q.empty()) {
    auto [t, fn] = q.Pop();
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // double cancel
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Cancel(early);
  EXPECT_EQ(q.PeekTime(), 2);
}

// Regression: cancelling an id that already fired must be a no-op. The old
// tombstone-count implementation decremented the live count anyway, making
// empty() report true while a live event was still queued.
TEST(EventQueueTest, CancelAfterFireDoesNotCorruptSize) {
  EventQueue q;
  EventId fired = q.Schedule(1, [] {});
  q.Pop().second();
  bool ran = false;
  q.Schedule(2, [&] { ran = true; });
  EXPECT_FALSE(q.Cancel(fired));  // already fired: clean no-op
  ASSERT_FALSE(q.empty());        // the old bug reported empty here
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.PeekTime(), 2);
  q.Pop().second();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

// Cancelling a never-issued id must not disturb accounting either.
TEST(EventQueueTest, CancelBogusIdIsNoop) {
  EventQueue q;
  q.Schedule(5, [] {});
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.PeekTime(), 5);
}

// PeekTime on a const reference (compile-time check that it is genuinely
// read-only) and after cancelling every event.
TEST(EventQueueTest, PeekTimeConstAndEmptyAfterCancelAll) {
  EventQueue q;
  EventId a = q.Schedule(3, [] {});
  EventId b = q.Schedule(7, [] {});
  const EventQueue& cq = q;
  EXPECT_EQ(cq.PeekTime(), 3);
  q.Cancel(a);
  EXPECT_EQ(cq.PeekTime(), 7);
  q.Cancel(b);
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.PeekTime(), kSimTimeMax);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.At(100, [&] { seen.push_back(sim.Now()); });
  sim.At(50, [&] { seen.push_back(sim.Now()); });
  sim.RunUntil(200);
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.Now(), 200);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool late = false;
  sim.At(100, [&] { late = true; });
  sim.RunUntil(99);
  EXPECT_FALSE(late);
  sim.RunUntil(100);
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.After(10, chain);
  };
  sim.After(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorTest, StepExecutesBoundedEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.At(i, [&] { ++count; });
  }
  EXPECT_EQ(sim.Step(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.At(10, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_FALSE(ran);
}

class TopologyTest : public ::testing::Test {
 protected:
  TopologyConfig cfg_;
};

TEST_F(TopologyTest, RouterCountMatchesConfig) {
  Topology topo(cfg_, 100);
  int expected = cfg_.num_core_routers +
                 cfg_.num_core_routers * cfg_.regions_per_core +
                 cfg_.num_core_routers * cfg_.regions_per_core *
                     cfg_.branches_per_region;
  EXPECT_EQ(topo.num_routers(), expected);
  EXPECT_EQ(topo.num_endsystems(), 100);
}

TEST_F(TopologyTest, DelayIsSymmetricAndPositive) {
  Topology topo(cfg_, 50);
  for (EndsystemIndex a = 0; a < 50; ++a) {
    for (EndsystemIndex b = 0; b < 50; b += 7) {
      EXPECT_EQ(topo.Delay(a, b), topo.Delay(b, a));
      EXPECT_GT(topo.Delay(a, b), 0);
    }
  }
}

TEST_F(TopologyTest, SameRouterPairsAreClose) {
  Topology topo(cfg_, 200);
  // Two endsystems on the same router: delay = 2 LAN hops.
  for (EndsystemIndex a = 0; a < 200; ++a) {
    for (EndsystemIndex b = a + 1; b < 200; ++b) {
      if (topo.RouterOf(a) == topo.RouterOf(b)) {
        EXPECT_EQ(topo.Delay(a, b), 2 * cfg_.lan_link_delay);
        return;
      }
    }
  }
}

TEST_F(TopologyTest, RouterRttSatisfiesTriangleInequality) {
  Topology topo(cfg_, 1);
  int n = topo.num_routers();
  // Spot check: shortest paths can't be beaten via an intermediate.
  for (int a = 0; a < n; a += 37) {
    for (int b = 0; b < n; b += 41) {
      for (int c = 0; c < n; c += 43) {
        EXPECT_LE(topo.RouterRtt(a, b),
                  topo.RouterRtt(a, c) + topo.RouterRtt(c, b));
      }
    }
  }
}

TEST_F(TopologyTest, DeterministicForSameSeed) {
  Topology t1(cfg_, 20), t2(cfg_, 20);
  for (EndsystemIndex a = 0; a < 20; ++a) {
    EXPECT_EQ(t1.RouterOf(a), t2.RouterOf(a));
    for (EndsystemIndex b = 0; b < 20; ++b) {
      EXPECT_EQ(t1.Delay(a, b), t2.Delay(a, b));
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(TopologyConfig{}, 10),
        meter_(10),
        net_(&sim_, &topo_, &meter_, 0.0, 1, &obs_) {
    for (EndsystemIndex e = 0; e < 10; ++e) net_.SetUp(e, true);
  }
  Simulator sim_;
  // Own domain: the message counters are per domain, and the fallback one
  // counts every Network built without a domain in this process.
  obs::Observability obs_;
  Topology topo_;
  BandwidthMeter meter_;
  Network net_;
};

TEST_F(NetworkTest, DeliversWithTopologyDelay) {
  bool delivered = false;
  SimTime at = -1;
  net_.SetDeliveryHandler(1, [&](EndsystemIndex from, WireMessagePtr payload) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(WireMessageCast<PaddingMessage>(payload)->WireBytes(), 42u);
    delivered = true;
    at = sim_.Now();
  });
  net_.Send(0, 1, TrafficCategory::kPastry, std::make_shared<PaddingMessage>(42));
  sim_.RunToCompletion();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, topo_.Delay(0, 1));
}

TEST_F(NetworkTest, ChargesTxAndRxWithHeader) {
  net_.SetDeliveryHandler(1, [](EndsystemIndex, WireMessagePtr) {});
  net_.Send(0, 1, TrafficCategory::kMetadata,
            std::make_shared<PaddingMessage>(100));
  sim_.RunToCompletion();
  EXPECT_EQ(meter_.total_tx_bytes(), 100 + kMessageHeaderBytes);
  EXPECT_EQ(meter_.total_rx_bytes(), 100 + kMessageHeaderBytes);
  EXPECT_EQ(meter_.CategoryTxBytes(TrafficCategory::kMetadata),
            100 + kMessageHeaderBytes);
}

TEST_F(NetworkTest, DownSenderCannotSend) {
  net_.SetUp(0, false);
  EXPECT_FALSE(net_.Send(0, 1, TrafficCategory::kPastry,
                         std::make_shared<PaddingMessage>(10)));
  EXPECT_EQ(meter_.total_tx_bytes(), 0u);
}

TEST_F(NetworkTest, DownReceiverDropsInFlight) {
  bool delivered = false;
  net_.SetDeliveryHandler(
      1, [&](EndsystemIndex, WireMessagePtr) { delivered = true; });
  net_.Send(0, 1, TrafficCategory::kPastry,
            std::make_shared<PaddingMessage>(10));
  net_.SetUp(1, false);  // goes down before delivery
  sim_.RunToCompletion();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.messages_lost(), 1u);
  // Sender still paid for the transmission.
  EXPECT_GT(meter_.total_tx_bytes(), 0u);
  EXPECT_EQ(meter_.total_rx_bytes(), 0u);
}

TEST(NetworkLossTest, UniformLossDropsApproximately) {
  Simulator sim;
  Topology topo(TopologyConfig{}, 2);
  BandwidthMeter meter(2);
  Network net(&sim, &topo, &meter, 0.2, 99);
  net.SetUp(0, true);
  net.SetUp(1, true);
  int delivered = 0;
  net.SetDeliveryHandler(
      1, [&](EndsystemIndex, WireMessagePtr) { ++delivered; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    net.Send(0, 1, TrafficCategory::kPastry,
             std::make_shared<PaddingMessage>(10));
  }
  sim.RunToCompletion();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.8, 0.03);
}

TEST(SerializingTransportTest, RoundTripsAndDelivers) {
  Simulator sim;
  Topology topo(TopologyConfig{}, 2);
  BandwidthMeter meter(2);
  Network net(&sim, &topo, &meter, 0.0, 7);
  SerializingTransport xport(&net);
  xport.SetUp(0, true);
  xport.SetUp(1, true);
  uint32_t got = 0;
  xport.SetDeliveryHandler(1, [&](EndsystemIndex, WireMessagePtr payload) {
    // The delivered object is a decoded copy, not the sent pointer.
    got = WireMessageCast<PaddingMessage>(payload)->WireBytes();
  });
  auto sent = std::make_shared<PaddingMessage>(321);
  xport.Send(0, 1, TrafficCategory::kPastry, sent);
  sim.RunToCompletion();
  EXPECT_EQ(got, 321u);
  EXPECT_EQ(xport.messages_roundtripped(), 1u);
  EXPECT_GT(xport.bytes_roundtripped(), 0u);
  // Meter charge matches the in-memory transport exactly.
  EXPECT_EQ(meter.total_tx_bytes(), 321 + kMessageHeaderBytes);
}

TEST(BandwidthMeterTest, HourBucketing) {
  BandwidthMeter meter(2);
  meter.RecordTx(0, TrafficCategory::kPastry, 10 * kMinute, 1000);
  meter.RecordTx(0, TrafficCategory::kPastry, 90 * kMinute, 500);
  meter.RecordTx(1, TrafficCategory::kResult, 30 * kMinute, 200);
  EXPECT_EQ(meter.TxInHour(0, 0), 1000u);
  EXPECT_EQ(meter.TxInHour(0, 1), 500u);
  EXPECT_EQ(meter.TxInHour(1, 0), 200u);
  EXPECT_EQ(meter.TxInHour(1, 5), 0u);
  EXPECT_EQ(meter.CategoryTxBytes(TrafficCategory::kPastry), 1500u);
  EXPECT_EQ(meter.CategoryTimeline(TrafficCategory::kPastry)[0], 1000u);
}

TEST(BandwidthMeterTest, HourlyRatesPerEndsystem) {
  BandwidthMeter meter(2);
  meter.RecordTx(0, TrafficCategory::kPastry, 0, 3600);
  auto rates = meter.HourlyTxRates(0, 0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);  // 3600 bytes over an hour = 1 B/s
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

// The hour-major matrices answer exactly what per-endsystem counts would:
// across hour boundaries, over an hour nobody sent in, for sends just before
// t=0 (hour 0) and for dropped sends.
TEST(BandwidthMeterTest, HourMajorCountsMatchPerEndsystemReference) {
  const int n = 7;
  BandwidthMeter meter(n);
  std::map<std::pair<uint32_t, int64_t>, uint64_t> tx, rx;
  Rng rng(11);
  int64_t max_hour = -1;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t e = static_cast<uint32_t>(rng.NextBelow(n));
    // Hours 0-5 except 3, and now and then a send just before t=0.
    int64_t hour = static_cast<int64_t>(rng.NextBelow(6));
    if (hour == 3) hour = 4;
    SimTime t = hour * kHour;
    t += static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(kHour)));
    if (i % 500 == 0) t = -static_cast<SimTime>(rng.NextBelow(kSecond)) - 1;
    const uint32_t bytes = static_cast<uint32_t>(rng.NextBelow(1500)) + 1;
    const int64_t bucket = std::max<int64_t>(t / kHour, 0);
    max_hour = std::max(max_hour, t / kHour);
    switch (i % 3) {
      case 0:
        meter.RecordTx(e, TrafficCategory::kPastry, t, bytes);
        tx[{e, bucket}] += bytes;
        break;
      case 1:
        meter.RecordRx(e, TrafficCategory::kResult, t, bytes);
        rx[{e, bucket}] += bytes;
        break;
      default:
        meter.RecordTxDropped(e, t, bytes);
        tx[{e, bucket}] += bytes;
        break;
    }
  }
  auto at = [](const auto& m, uint32_t e, int64_t h) -> uint64_t {
    auto it = m.find({e, h});
    return it == m.end() ? 0 : it->second;
  };
  EXPECT_EQ(meter.MaxHour(), max_hour);
  for (uint32_t e = 0; e < static_cast<uint32_t>(n); ++e) {
    for (int64_t h = -1; h <= 7; ++h) {
      EXPECT_EQ(meter.TxInHour(e, h), at(tx, e, h)) << e << "@" << h;
      EXPECT_EQ(meter.RxInHour(e, h), at(rx, e, h)) << e << "@" << h;
    }
  }
  const std::vector<double> tx_rates = meter.HourlyTxRates(1, 6);
  const std::vector<double> rx_rates = meter.HourlyRxRates(1, 6);
  ASSERT_EQ(tx_rates.size(), static_cast<size_t>(n) * 6);
  ASSERT_EQ(rx_rates.size(), tx_rates.size());
  size_t i = 0;
  for (uint32_t e = 0; e < static_cast<uint32_t>(n); ++e) {
    for (int64_t h = 1; h <= 6; ++h, ++i) {
      EXPECT_DOUBLE_EQ(tx_rates[i], static_cast<double>(at(tx, e, h)) / 3600);
      EXPECT_DOUBLE_EQ(rx_rates[i], static_cast<double>(at(rx, e, h)) / 3600);
    }
  }
}

TEST(PercentileTest, BasicPercentiles) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_NEAR(Percentile(v, 50), 5.5, 1e-9);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

}  // namespace
}  // namespace seaweed
