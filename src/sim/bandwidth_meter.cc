#include "sim/bandwidth_meter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace seaweed {

const char* TrafficCategoryName(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kPastry:
      return "pastry";
    case TrafficCategory::kMetadata:
      return "metadata";
    case TrafficCategory::kDissemination:
      return "dissemination";
    case TrafficCategory::kPredictor:
      return "predictor";
    case TrafficCategory::kResult:
      return "result";
    case TrafficCategory::kBatched:
      return "batched";
  }
  return "?";
}

BandwidthMeter::BandwidthMeter(int num_endsystems,
                               obs::MetricsRegistry* registry)
    : num_endsystems_(num_endsystems) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    std::string name = TrafficCategoryName(static_cast<TrafficCategory>(c));
    tx_series_[c] = registry->GetTimeseries("bw.tx." + name, kHour);
    rx_series_[c] = registry->GetTimeseries("bw.rx." + name, kHour);
  }
  tx_dropped_series_ = registry->GetTimeseries("bw.tx.dropped", kHour);
  total_tx_ = registry->GetCounter("bw.tx.total_bytes");
  total_rx_ = registry->GetCounter("bw.rx.total_bytes");
}

void BandwidthMeter::Bump(HourRows& rows, uint32_t endsystem, int64_t hour,
                          uint32_t bytes) {
  SEAWEED_DCHECK(endsystem < static_cast<uint32_t>(num_endsystems_));
  max_hour_ = std::max(max_hour_, hour);
  if (hour < 0) hour = 0;
  if (static_cast<size_t>(hour) >= rows.size()) {
    rows.resize(static_cast<size_t>(hour) + 1);
  }
  std::vector<uint32_t>& row = rows[static_cast<size_t>(hour)];
  if (row.empty()) row.resize(static_cast<size_t>(num_endsystems_), 0);
  row[endsystem] += bytes;
}

uint64_t BandwidthMeter::CountIn(const HourRows& rows, uint32_t endsystem,
                                 int64_t hour) {
  if (hour < 0 || static_cast<size_t>(hour) >= rows.size()) return 0;
  const std::vector<uint32_t>& row = rows[static_cast<size_t>(hour)];
  return row.empty() ? 0 : row[endsystem];
}

void BandwidthMeter::RecordTx(uint32_t endsystem, TrafficCategory cat,
                              SimTime t, uint32_t bytes) {
  Bump(tx_by_hour_, endsystem, t / kHour, bytes);
  total_tx_->Add(bytes);
  tx_series_[static_cast<int>(cat)]->Record(t, bytes);
}

void BandwidthMeter::RecordRx(uint32_t endsystem, TrafficCategory cat,
                              SimTime t, uint32_t bytes) {
  Bump(rx_by_hour_, endsystem, t / kHour, bytes);
  total_rx_->Add(bytes);
  rx_series_[static_cast<int>(cat)]->Record(t, bytes);
}

void BandwidthMeter::RecordTxDropped(uint32_t endsystem, SimTime t,
                                     uint32_t bytes) {
  Bump(tx_by_hour_, endsystem, t / kHour, bytes);
  total_tx_->Add(bytes);
  tx_dropped_series_->Record(t, bytes);
}

uint64_t BandwidthMeter::TxInHour(uint32_t endsystem, int64_t hour) const {
  return CountIn(tx_by_hour_, endsystem, hour);
}

uint64_t BandwidthMeter::RxInHour(uint32_t endsystem, int64_t hour) const {
  return CountIn(rx_by_hour_, endsystem, hour);
}

std::vector<double> BandwidthMeter::HourlyRates(const HourRows& rows,
                                                int64_t first_hour,
                                                int64_t last_hour) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(num_endsystems_) *
              static_cast<size_t>(last_hour - first_hour + 1));
  for (uint32_t e = 0; e < static_cast<uint32_t>(num_endsystems_); ++e) {
    for (int64_t h = first_hour; h <= last_hour; ++h) {
      out.push_back(static_cast<double>(CountIn(rows, e, h)) / 3600.0);
    }
  }
  return out;
}

std::vector<double> BandwidthMeter::HourlyTxRates(int64_t first_hour,
                                                  int64_t last_hour) const {
  return HourlyRates(tx_by_hour_, first_hour, last_hour);
}

std::vector<double> BandwidthMeter::HourlyRxRates(int64_t first_hour,
                                                  int64_t last_hour) const {
  return HourlyRates(rx_by_hour_, first_hour, last_hour);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace seaweed
