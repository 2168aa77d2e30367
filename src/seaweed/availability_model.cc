#include "seaweed/availability_model.h"

#include <algorithm>
#include <cmath>

namespace seaweed {

namespace {

// Fallback half-life when the model has no usable mass: the probability of
// having come back approaches 1 with this half-life.
constexpr SimDuration kFallbackHalfLife = 4 * kHour;

double FallbackProbUpBy(SimDuration elapsed, SimDuration delta) {
  // The longer a machine has already been down, the slower we expect it to
  // return (heavy-tail intuition): half-life grows with elapsed downtime.
  double half_life = static_cast<double>(
      std::max<SimDuration>(kFallbackHalfLife, elapsed));
  return 1.0 - std::exp2(-static_cast<double>(delta) / half_life);
}

}  // namespace

int AvailabilityModel::DownBucket(SimDuration d) {
  if (d < kMinDownDuration) return 0;
  int bucket = static_cast<int>(
      std::log2(static_cast<double>(d) /
                static_cast<double>(kMinDownDuration))) + 0;
  return std::min(bucket, kDownBuckets - 1);
}

void AvailabilityModel::RecordDownPeriod(SimTime down_at, SimTime up_at) {
  if (up_at <= down_at) return;
  SimDuration d = up_at - down_at;
  ++down_hist_[static_cast<size_t>(DownBucket(d))];
  ++up_hour_hist_[static_cast<size_t>(HourOfDay(up_at))];
  ++observations_;
}

bool AvailabilityModel::IsPeriodic() const {
  if (observations_ < 4) return false;
  uint32_t peak = 0;
  uint64_t total = 0;
  for (uint32_t c : up_hour_hist_) {
    peak = std::max(peak, c);
    total += c;
  }
  if (total == 0) return false;
  double mean = static_cast<double>(total) / 24.0;
  if (static_cast<double>(peak) / mean <= kPeriodicPeakToMean) return false;
  // Small-sample significance guard: with few observations a uniform hour
  // distribution routinely shows peak/mean > 2 by chance (Poisson noise).
  // Require the peak to also clear a ~3-sigma Poisson band above the mean.
  return static_cast<double>(peak) > mean + 3.0 * std::sqrt(mean) + 1.0;
}

double AvailabilityModel::DownDurationProbUpBy(SimDuration elapsed,
                                               SimDuration by_delta) const {
  if (by_delta <= 0) return 0.0;
  // Mass with duration > t, interpolating uniformly within buckets.
  auto survivor = [this](SimDuration t) {
    double s = 0;
    for (int i = 0; i < kDownBuckets; ++i) {
      if (down_hist_[static_cast<size_t>(i)] == 0) continue;
      double lo = static_cast<double>(kMinDownDuration) * std::exp2(i);
      double hi = lo * 2.0;
      double c = static_cast<double>(down_hist_[static_cast<size_t>(i)]);
      double td = static_cast<double>(t);
      if (td <= (i == 0 ? 0.0 : lo)) {
        s += c;
      } else if (td < hi) {
        double blo = (i == 0) ? 0.0 : lo;
        s += c * (hi - td) / (hi - blo);
      }
    }
    return s;
  };
  double s_now = survivor(elapsed);
  if (s_now <= 0) {
    // Down longer than anything we have observed.
    return FallbackProbUpBy(elapsed, by_delta);
  }
  double s_by = survivor(elapsed + by_delta);
  return std::clamp((s_now - s_by) / s_now, 0.0, 1.0);
}

double AvailabilityModel::PeriodicProbUpBy(SimTime now, SimTime by) const {
  if (by <= now) return 0.0;
  if (by - now >= kDay) return 1.0;  // a full cycle has passed
  uint64_t total = 0;
  for (uint32_t c : up_hour_hist_) total += c;
  if (total == 0) return FallbackProbUpBy(0, by - now);
  // Sum the mass of hours whose next occurrence falls within (now, by].
  double mass = 0;
  for (int h = 0; h < 24; ++h) {
    if (up_hour_hist_[static_cast<size_t>(h)] == 0) continue;
    // Next time the wall clock reaches hour h (use the middle of the hour).
    SimTime day_start = DayIndex(now) * kDay;
    SimTime occurrence = day_start + h * kHour + kHour / 2;
    if (occurrence <= now) occurrence += kDay;
    if (occurrence <= by) {
      mass += static_cast<double>(up_hour_hist_[static_cast<size_t>(h)]);
    }
  }
  return mass / static_cast<double>(total);
}

double AvailabilityModel::ProbUpBy(SimTime now, SimTime down_since,
                                   SimTime by) const {
  if (by <= now) return 0.0;
  if (observations_ == 0) {
    return FallbackProbUpBy(now - down_since, by - now);
  }
  if (IsPeriodic()) {
    return PeriodicProbUpBy(now, by);
  }
  return DownDurationProbUpBy(now - down_since, by - now);
}

SimTime AvailabilityModel::PredictUpTime(SimTime now, SimTime down_since) const {
  // Binary search the smallest t with ProbUpBy >= 0.5.
  SimDuration lo = 0, hi = kMaxPredictionHorizon;
  if (ProbUpBy(now, down_since, now + hi) < 0.5) return now + hi;
  while (hi - lo > kMinute) {
    SimDuration mid = lo + (hi - lo) / 2;
    if (ProbUpBy(now, down_since, now + mid) >= 0.5) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return now + hi;
}

void AvailabilityModel::Encode(Writer& w) const {
  for (uint32_t c : down_hist_) w.PutVarint(c);
  for (uint32_t c : up_hour_hist_) w.PutVarint(c);
  w.PutVarint(static_cast<uint64_t>(observations_));
}

Result<AvailabilityModel> AvailabilityModel::Decode(Reader& r) {
  AvailabilityModel m;
  for (auto& c : m.down_hist_) {
    SEAWEED_ASSIGN_OR_RETURN(uint64_t v, r.GetVarint());
    c = static_cast<uint32_t>(v);
  }
  for (auto& c : m.up_hour_hist_) {
    SEAWEED_ASSIGN_OR_RETURN(uint64_t v, r.GetVarint());
    c = static_cast<uint32_t>(v);
  }
  SEAWEED_ASSIGN_OR_RETURN(uint64_t obs, r.GetVarint());
  m.observations_ = static_cast<int64_t>(obs);
  return m;
}

size_t AvailabilityModel::EncodedBytes() const { return CountedBytes(*this); }

}  // namespace seaweed
