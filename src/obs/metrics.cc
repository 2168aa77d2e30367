#include "obs/metrics.h"

#include <cmath>

namespace seaweed::obs {

uint64_t Histogram::ApproxQuantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest-rank: the smallest bucket whose cumulative count covers
  // ceil(q * count) samples, so e.g. p99 of 5 samples is the 5th.
  uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (target == 0) target = 1;
  const uint64_t hi = max();
  uint64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cum += buckets_[b];
    if (cum >= target) {
      uint64_t ub = BucketUpperBound(b);
      return ub < hi ? ub : hi;
    }
  }
  return hi;
}

namespace {
template <typename T, typename... Args>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>* m,
               const std::string& name, Args&&... args) {
  auto it = m->find(name);
  if (it == m->end()) {
    it = m->emplace(name, std::make_unique<T>(std::forward<Args>(args)...))
             .first;
  }
  return it->second.get();
}

template <typename T>
const T* FindIn(const std::map<std::string, std::unique_ptr<T>>& m,
                const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? nullptr : it->second.get();
}
}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(&counters_, name);
}
Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(&gauges_, name);
}
Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(&histograms_, name);
}
Timeseries* MetricsRegistry::GetTimeseries(const std::string& name,
                                           SimDuration bucket_width) {
  return GetOrCreate(&timeseries_, name, bucket_width);
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  return FindIn(counters_, name);
}
const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  return FindIn(gauges_, name);
}
const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  return FindIn(histograms_, name);
}
const Timeseries* MetricsRegistry::FindTimeseries(
    const std::string& name) const {
  return FindIn(timeseries_, name);
}

}  // namespace seaweed::obs
