// Metrics registry: named counters, gauges, log-bucketed histograms, and
// simulated-time timeseries.
//
// Recording goes through pre-resolved handles: a component asks the registry
// for an instrument once (by name, at construction/wiring time) and keeps the
// returned raw pointer. The hot path is then a single add on a cache-resident
// word — no string lookup, no hashing, no allocation. Handles stay valid for
// the registry's lifetime (instruments are heap-held behind the name map).
//
// Thread model: every instrument is a plain integer owned by the one thread
// that runs the Simulator (or seaweedd's EventLoop). Nothing records from a
// second thread, so there is no synchronization on the hot path.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_types.h"

namespace seaweed::obs {

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time level (queue depths, population counts).
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void Add(int64_t d) { Set(value_ + d); }
  int64_t value() const { return value_; }
  // Largest value ever held (initially 0).
  int64_t max() const { return max_; }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

// Log2-bucketed histogram over non-negative integer samples. Bucket i counts
// samples of bit width i: bucket 0 holds v == 0, bucket i holds
// 2^(i-1) <= v < 2^i. Quantiles are therefore approximate (within a factor of
// two), which is enough for latency/row-count distributions at ~zero cost.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  static int BucketOf(uint64_t v) { return std::bit_width(v); }
  // Inclusive upper bound of bucket b's value range.
  static uint64_t BucketUpperBound(int b) {
    return b >= 64 ? ~0ULL : (1ULL << b) - 1;
  }

  void Record(uint64_t v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[BucketOf(v)];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const {
    const uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0;
  }
  // Upper bound of the first bucket whose cumulative count reaches q*count.
  uint64_t ApproxQuantile(double q) const;
  const std::array<uint64_t, kNumBuckets>& buckets() const { return buckets_; }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

// Accumulates values into fixed-width simulated-time buckets. The default
// width is one hour, matching the paper's per-hour bandwidth accounting;
// bucket i covers [i*width, (i+1)*width).
class Timeseries {
 public:
  explicit Timeseries(SimDuration bucket_width = kHour)
      : bucket_width_(bucket_width > 0 ? bucket_width : kHour) {}

  void Record(SimTime t, uint64_t v) {
    size_t b = BucketIndex(t);
    if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
    buckets_[b] += v;
    total_ += v;
  }

  size_t BucketIndex(SimTime t) const {
    return t > 0 ? static_cast<size_t>(t / bucket_width_) : 0;
  }

  uint64_t total() const { return total_; }
  SimDuration bucket_width() const { return bucket_width_; }
  // Buckets [0, last-recorded]; trailing empty buckets are not materialized.
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t ValueAt(size_t bucket) const {
    return bucket < buckets_.size() ? buckets_[bucket] : 0;
  }

 private:
  SimDuration bucket_width_;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

// Name -> instrument map. Get* registers on first use and returns the same
// pointer thereafter; names are namespaced by convention ("sim.msgs_sent",
// "bw.tx.pastry", ...). Separate namespaces per instrument kind.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  // bucket_width applies only on first registration.
  Timeseries* GetTimeseries(const std::string& name,
                            SimDuration bucket_width = kHour);

  // Lookup without registering; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  const Timeseries* FindTimeseries(const std::string& name) const;

  // Snapshot views, sorted by name (std::map iteration order).
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::unique_ptr<Timeseries>>& timeseries()
      const {
    return timeseries_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Timeseries>> timeseries_;
};

}  // namespace seaweed::obs
