#include "seaweed/completeness.h"

#include <cmath>

namespace seaweed {

SimDuration CompletenessPredictor::Edge(int i) {
  if (i <= 0) return 0;
  double edge = static_cast<double>(kMinHorizon) * std::pow(kGrowth, i - 1);
  return static_cast<SimDuration>(edge);
}

int CompletenessPredictor::BucketFor(SimDuration delta) {
  if (delta <= 0) return 0;
  if (delta <= kMinHorizon) return 1;
  // The small epsilon keeps exact bucket edges in their own bucket despite
  // floating-point rounding in the log.
  int i = 1 + static_cast<int>(std::ceil(
                  std::log(static_cast<double>(delta) /
                           static_cast<double>(kMinHorizon)) /
                      std::log(kGrowth) -
                  1e-9));
  if (i >= kBuckets) return kBuckets - 1;
  return i;
}

void CompletenessPredictor::AddRowsAt(SimDuration delta, double rows) {
  buckets_[static_cast<size_t>(BucketFor(delta))] += rows;
}

void CompletenessPredictor::Merge(const CompletenessPredictor& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  endsystems_ += other.endsystems_;
}

double CompletenessPredictor::ExpectedRowsBy(SimDuration delta) const {
  double cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (Edge(i) > delta && i > 0) break;
    cum += buckets_[static_cast<size_t>(i)];
  }
  return cum;
}

double CompletenessPredictor::TotalRows() const {
  double total = 0;
  for (double b : buckets_) total += b;
  return total;
}

double CompletenessPredictor::CompletenessAt(SimDuration delta) const {
  double total = TotalRows();
  if (total <= 0) return 1.0;
  return ExpectedRowsBy(delta) / total;
}

SimDuration CompletenessPredictor::HorizonForCompleteness(double target) const {
  double total = TotalRows();
  if (total <= 0) return 0;
  double cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[static_cast<size_t>(i)];
    if (cum / total >= target) return Edge(i);
  }
  return MaxHorizon();
}

void CompletenessPredictor::Encode(Writer& w) const {
  for (double b : buckets_) w.PutDouble(b);
  w.PutI64(endsystems_);
}

Result<CompletenessPredictor> CompletenessPredictor::Decode(Reader& r) {
  CompletenessPredictor p;
  for (auto& b : p.buckets_) {
    SEAWEED_ASSIGN_OR_RETURN(b, r.GetDouble());
  }
  SEAWEED_ASSIGN_OR_RETURN(p.endsystems_, r.GetI64());
  return p;
}

size_t CompletenessPredictor::EncodedBytes() const {
  Writer w;
  Encode(w);
  return w.size();
}

}  // namespace seaweed
