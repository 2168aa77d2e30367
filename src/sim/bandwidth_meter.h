// Bandwidth accounting for the packet-level experiments.
//
// Every message send/receive is charged to a traffic category so the bench
// harness can reproduce the paper's component breakdown (Fig 9a: MSPastry
// overhead vs Seaweed maintenance vs query overhead) and the per-endsystem
// per-hour load CDFs (Fig 9b, 9c, 10b).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "obs/metrics.h"

namespace seaweed {

enum class TrafficCategory : uint8_t {
  kPastry = 0,         // overlay liveness: leafset heartbeats, join, repair
  kMetadata = 1,       // Seaweed maintenance: summary + availability pushes
  kDissemination = 2,  // query broadcast down the distribution tree
  kPredictor = 3,      // completeness predictor aggregation
  kResult = 4,         // incremental result aggregation
  // Nothing charges this since dissemination batching was removed; it stays
  // until perfbench/sim_workload.cc stops reading it.
  kBatched = 5,
};
inline constexpr int kNumTrafficCategories = 6;

const char* TrafficCategoryName(TrafficCategory c);

// Byte accounting is stored in obs instruments ("bw.tx.<category>" hourly
// timeseries plus "bw.tx.total_bytes"/"bw.rx.total_bytes" counters) so the
// paper-figure breakdowns and the observability export share one snapshot
// path. Pass the cluster's registry to publish there; with no registry the
// meter owns a private one and behaves exactly as before. The per-endsystem
// per-hour matrices stay local: they are O(N * hours) sample grids, not
// named metrics.
class BandwidthMeter {
 public:
  explicit BandwidthMeter(int num_endsystems,
                          obs::MetricsRegistry* registry = nullptr);

  // Charges `bytes` transmitted by `from` and (on delivery) received by `to`.
  void RecordTx(uint32_t endsystem, TrafficCategory cat, SimTime t,
                uint32_t bytes);
  void RecordRx(uint32_t endsystem, TrafficCategory cat, SimTime t,
                uint32_t bytes);

  // Charges `bytes` transmitted by `endsystem` for a message a fault
  // decorator discarded before the wire. The sender still pays (the datagram
  // left the host, matching network.h's semantics): the per-endsystem tx
  // matrix and "bw.tx.total_bytes" grow exactly as for RecordTx, but the
  // bytes land in the dedicated "bw.tx.dropped" timeseries instead of a
  // category series, so obs_report's tx-sum cross-check stays byte-exact.
  void RecordTxDropped(uint32_t endsystem, SimTime t, uint32_t bytes);

  // --- Totals ---
  uint64_t total_tx_bytes() const { return total_tx_->value(); }
  uint64_t total_rx_bytes() const { return total_rx_->value(); }
  uint64_t CategoryTxBytes(TrafficCategory cat) const {
    return tx_series_[static_cast<int>(cat)]->total();
  }

  // --- Timelines (per hour, system-wide, per category, tx bytes) ---
  // hour -> bytes transmitted in that hour by all endsystems in `cat`.
  const std::vector<uint64_t>& CategoryTimeline(TrafficCategory cat) const {
    return tx_series_[static_cast<int>(cat)]->buckets();
  }

  // The registry byte accounting is published to (owned or external).
  const obs::MetricsRegistry& registry() const { return *registry_; }

  // --- Per-endsystem per-hour samples ---
  // Bytes transmitted (resp. received) by endsystem e during hour h;
  // 0 if never recorded.
  uint64_t TxInHour(uint32_t endsystem, int64_t hour) const;
  uint64_t RxInHour(uint32_t endsystem, int64_t hour) const;
  int64_t MaxHour() const { return max_hour_; }
  int num_endsystems() const { return num_endsystems_; }

  // Flattened per-endsystem-per-hour average tx bandwidth samples in
  // bytes/second over hours [first_hour, last_hour], one sample per
  // (endsystem, hour) pair — the distribution plotted in Fig 9(b).
  std::vector<double> HourlyTxRates(int64_t first_hour,
                                    int64_t last_hour) const;
  std::vector<double> HourlyRxRates(int64_t first_hour,
                                    int64_t last_hour) const;

 private:
  // Hour-major byte counts: rows[h][e] is endsystem e's count in hour h,
  // one num_endsystems row per hour, so a run's sends within an hour touch
  // one row.
  using HourRows = std::vector<std::vector<uint32_t>>;

  void Bump(HourRows& rows, uint32_t endsystem, int64_t hour,
            uint32_t bytes);
  static uint64_t CountIn(const HourRows& rows, uint32_t endsystem,
                          int64_t hour);
  std::vector<double> HourlyRates(const HourRows& rows, int64_t first_hour,
                                  int64_t last_hour) const;

  int num_endsystems_;
  HourRows tx_by_hour_;  // on send
  HourRows rx_by_hour_;  // on delivery
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  std::array<obs::Timeseries*, kNumTrafficCategories> tx_series_;
  std::array<obs::Timeseries*, kNumTrafficCategories> rx_series_;
  obs::Timeseries* tx_dropped_series_;
  obs::Counter* total_tx_;
  obs::Counter* total_rx_;
  int64_t max_hour_ = -1;
};

// Percentile of a sample vector (p in [0,100]); sorts a copy.
double Percentile(std::vector<double> samples, double p);

}  // namespace seaweed
