// Completeness predictors (§2.1, §3.3).
//
// A completeness predictor is a cumulative histogram of expected row count
// over time, with time on a log scale "to accommodate wide variations in
// availability ranging from seconds to days". Bucket 0 holds rows available
// immediately (endsystems that are up now); later buckets hold expected rows
// from endsystems predicted to come up within each log-spaced horizon.
//
// Predictors are fixed-size so that aggregation up the distribution tree
// keeps messages O(1): Merge() is a bucket-wise sum.
#pragma once

#include <array>
#include <cstdint>

#include "common/result.h"
#include "common/serialize.h"
#include "common/time_types.h"

namespace seaweed {

class CompletenessPredictor {
 public:
  // Bucket i > 0 covers horizons (Edge(i-1), Edge(i)] where
  // Edge(i) = kMinHorizon * kGrowth^(i-1); bucket 0 is "now".
  static constexpr int kBuckets = 40;
  static constexpr SimDuration kMinHorizon = 10 * kSecond;
  static constexpr double kGrowth = 1.45;  // edges span ~10 s .. >7 days

  // Horizon edge of bucket i (i in [0, kBuckets)); Edge(0) == 0.
  static SimDuration Edge(int i);
  // Bucket index whose horizon covers delta (clamped to the last bucket).
  static int BucketFor(SimDuration delta);

  CompletenessPredictor() = default;

  // Adds `rows` expected to be available `delta` after the query injection
  // time (0 = immediately).
  void AddRowsAt(SimDuration delta, double rows);

  // Spreads a row estimate over an availability distribution: for each
  // bucket edge t, the cumulative contribution is rows * prob_up_by(t).
  // `prob_up_by` must be monotone in its argument.
  template <typename ProbFn>
  void AddRowsWithAvailability(double rows, ProbFn prob_up_by) {
    double prev = 0;
    for (int i = 0; i < kBuckets; ++i) {
      double p = (i == kBuckets - 1) ? 1.0 : prob_up_by(Edge(i));
      if (p < prev) p = prev;
      buckets_[static_cast<size_t>(i)] += rows * (p - prev);
      prev = p;
    }
  }

  // Number of endsystems whose contribution is included.
  void AddEndsystems(int64_t n) { endsystems_ += n; }
  int64_t endsystems() const { return endsystems_; }

  // Bucket-wise sum (aggregation in the distribution tree).
  void Merge(const CompletenessPredictor& other);

  // Expected rows available within `delta` of injection (cumulative).
  double ExpectedRowsBy(SimDuration delta) const;
  // Total expected rows (the predictor's estimate of the full result size).
  double TotalRows() const;
  // Predicted completeness in [0,1] at `delta`.
  double CompletenessAt(SimDuration delta) const;
  // Smallest horizon at which predicted completeness reaches `target`;
  // returns kMaxHorizon when never reached.
  SimDuration HorizonForCompleteness(double target) const;

  static SimDuration MaxHorizon() { return Edge(kBuckets - 1); }

  void Encode(Writer& w) const;
  static Result<CompletenessPredictor> Decode(Reader& r);
  size_t EncodedBytes() const;

  bool operator==(const CompletenessPredictor&) const = default;

 private:
  std::array<double, kBuckets> buckets_{};
  int64_t endsystems_ = 0;
};

}  // namespace seaweed
