#include "db/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace seaweed::db {

namespace {

// splitmix64 finalizer: a cheap, well-mixed 64-bit hash for fixed-width
// inputs. Deterministic across platforms (pure integer arithmetic).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return Mix64(bits);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

constexpr uint8_t kSketchPayloadVersion = 1;

Status CheckVersion(Reader& r) {
  SEAWEED_ASSIGN_OR_RETURN(uint8_t v, r.GetU8());
  if (v != kSketchPayloadVersion) {
    return Status::ParseError("unsupported sketch payload version " +
                              std::to_string(v));
  }
  return Status::OK();
}

}  // namespace

size_t SketchState::EncodedBytes() const { return CountedBytes(*this); }

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

void HllSketch::AddHash(uint64_t h) {
  const size_t idx = static_cast<size_t>(h >> (64 - kPrecision));
  // Rank of the first set bit in the remaining 52 bits (1-based); an
  // all-zero remainder gets the maximum rank.
  const uint64_t rest = h << kPrecision;
  const uint8_t rank = static_cast<uint8_t>(
      rest == 0 ? (64 - kPrecision + 1) : std::countl_zero(rest) + 1);
  if (rank > regs_[idx]) regs_[idx] = rank;
}

void HllSketch::Update(double v) { AddHash(HashDouble(v)); }

void HllSketch::UpdateString(const std::string& s) { AddHash(HashString(s)); }

void HllSketch::Merge(const SketchState& other) {
  const auto& o = static_cast<const HllSketch&>(other);
  for (size_t i = 0; i < kRegisters; ++i) {
    regs_[i] = std::max(regs_[i], o.regs_[i]);
  }
}

std::unique_ptr<SketchState> HllSketch::Clone() const {
  return std::make_unique<HllSketch>(*this);
}

bool HllSketch::Equals(const SketchState& other) const {
  return regs_ == static_cast<const HllSketch&>(other).regs_;
}

double HllSketch::Estimate() const {
  const double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);  // alpha_m for m >= 128
  double inv_sum = 0;
  size_t zeros = 0;
  for (uint8_t r : regs_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / inv_sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear counting handles the small-cardinality range better.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void HllSketch::Encode(Writer& w) const {
  w.PutU8(kSketchPayloadVersion);
  // Dense registers cost kRegisters bytes; a sparse (delta-index, value)
  // list wins while few registers are set. Pick the smaller form.
  size_t nonzero = 0;
  for (uint8_t r : regs_) nonzero += (r != 0);
  if (nonzero * 3 < kRegisters) {
    w.PutU8(1);  // sparse
    w.PutVarint(nonzero);
    size_t prev = 0;
    for (size_t i = 0; i < kRegisters; ++i) {
      if (regs_[i] == 0) continue;
      w.PutVarint(i - prev);
      w.PutU8(regs_[i]);
      prev = i;
    }
  } else {
    w.PutU8(0);  // dense
    w.PutBytes(regs_.data(), kRegisters);
  }
}

Result<std::unique_ptr<SketchState>> HllSketch::Decode(Reader& r) {
  SEAWEED_RETURN_NOT_OK(CheckVersion(r));
  auto out = std::make_unique<HllSketch>();
  SEAWEED_ASSIGN_OR_RETURN(uint8_t mode, r.GetU8());
  if (mode == 0) {
    for (size_t i = 0; i < kRegisters; ++i) {
      SEAWEED_ASSIGN_OR_RETURN(out->regs_[i], r.GetU8());
    }
  } else if (mode == 1) {
    SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
    if (n > kRegisters) return Status::ParseError("implausible HLL entries");
    size_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
      SEAWEED_ASSIGN_OR_RETURN(uint64_t delta, r.GetVarint());
      idx += delta;
      if (idx >= kRegisters) return Status::ParseError("HLL index overflow");
      SEAWEED_ASSIGN_OR_RETURN(out->regs_[idx], r.GetU8());
    }
  } else {
    return Status::ParseError("unknown HLL encoding mode");
  }
  return {std::move(out)};
}

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

void QuantileSketch::Update(double v) {
  pts_.emplace_back(v, 1.0);
  CompactIfNeeded();
}

void QuantileSketch::UpdateString(const std::string&) {
  SEAWEED_CHECK_MSG(false, "QUANTILE over a string column");
}

void QuantileSketch::Merge(const SketchState& other) {
  const auto& o = static_cast<const QuantileSketch&>(other);
  pts_.insert(pts_.end(), o.pts_.begin(), o.pts_.end());
  CompactIfNeeded();
}

void QuantileSketch::CompactIfNeeded() {
  if (pts_.size() < 2 * kMaxCentroids) return;
  std::sort(pts_.begin(), pts_.end());
  const size_t k = kMaxCentroids;
  double total = 0;
  for (const auto& [v, w] : pts_) total += w;
  std::vector<std::pair<double, double>> out;
  out.reserve(k);
  size_t group = 0;
  double cum = 0, acc_vw = 0, acc_w = 0;
  for (const auto& [v, w] : pts_) {
    acc_vw += v * w;
    acc_w += w;
    cum += w;
    // Flush when the cumulative weight reaches this group's boundary
    // (equal-weight chunks keep per-compaction rank error ~ 1/k).
    if (cum >= total * static_cast<double>(group + 1) / static_cast<double>(k)) {
      out.emplace_back(acc_vw / acc_w, acc_w);
      acc_vw = acc_w = 0;
      ++group;
    }
  }
  if (acc_w > 0) out.emplace_back(acc_vw / acc_w, acc_w);
  pts_ = std::move(out);
}

std::unique_ptr<SketchState> QuantileSketch::Clone() const {
  return std::make_unique<QuantileSketch>(*this);
}

bool QuantileSketch::Equals(const SketchState& other) const {
  return pts_ == static_cast<const QuantileSketch&>(other).pts_;
}

double QuantileSketch::total_weight() const {
  double total = 0;
  for (const auto& [v, w] : pts_) total += w;
  return total;
}

double QuantileSketch::Query(double q) const {
  if (pts_.empty()) return 0;
  std::vector<std::pair<double, double>> sorted = pts_;
  std::sort(sorted.begin(), sorted.end());
  double total = 0;
  for (const auto& [v, w] : sorted) total += w;
  const double target = q * total;
  double cum = 0;
  for (const auto& [v, w] : sorted) {
    cum += w;
    if (cum >= target) return v;
  }
  return sorted.back().first;
}

void QuantileSketch::Encode(Writer& w) const {
  // Verbatim buffer dump: Decode(Encode(s)) must reproduce the state
  // exactly (the codec-on/off differentials depend on it), so no
  // compaction happens here.
  w.PutU8(kSketchPayloadVersion);
  w.PutVarint(pts_.size());
  for (const auto& [v, wt] : pts_) {
    w.PutDouble(v);
    w.PutDouble(wt);
  }
}

Result<std::unique_ptr<SketchState>> QuantileSketch::Decode(Reader& r) {
  SEAWEED_RETURN_NOT_OK(CheckVersion(r));
  auto out = std::make_unique<QuantileSketch>();
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 2 * kMaxCentroids) {
    return Status::ParseError("implausible quantile centroid count");
  }
  out->pts_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(double v, r.GetDouble());
    SEAWEED_ASSIGN_OR_RETURN(double wt, r.GetDouble());
    out->pts_.emplace_back(v, wt);
  }
  return {std::move(out)};
}

// ---------------------------------------------------------------------------
// Top-k (Misra-Gries)
// ---------------------------------------------------------------------------

size_t TopKSketch::CapacityFor(int64_t k) {
  return std::max<size_t>(64, static_cast<size_t>(k) * 8);
}

namespace {

// Total order over top-k keys that tolerates mixed numeric/string entries
// (reachable only via malformed payloads — one select item always feeds a
// single column type): numerics sort before strings. Within one type class
// this is exactly Value::operator<, so well-formed sketches are unaffected.
bool KeyLess(const Value& a, const Value& b) {
  if (a.is_string() != b.is_string()) return !a.is_string();
  return a.Compare(b) < 0;
}

bool KeyEq(const Value& a, const Value& b) {
  if (a.is_string() != b.is_string()) return false;
  return a.Compare(b) == 0;
}

}  // namespace

void TopKSketch::Add(const Value& key, int64_t weight) {
  auto it = std::lower_bound(
      counts_.begin(), counts_.end(), key,
      [](const auto& entry, const Value& k) { return KeyLess(entry.first, k); });
  if (it != counts_.end() && KeyEq(it->first, key)) {
    it->second += weight;
    return;
  }
  counts_.insert(it, {key, weight});
  TrimToCapacity();
}

void TopKSketch::TrimToCapacity() {
  if (counts_.size() <= capacity_) return;
  // Misra-Gries decrement: subtract the (capacity+1)-th largest count from
  // everyone and drop the non-positive. Counts stay within N/capacity of
  // the truth, and the summary stays mergeable.
  std::vector<int64_t> by_count;
  by_count.reserve(counts_.size());
  for (const auto& [k, c] : counts_) by_count.push_back(c);
  std::nth_element(by_count.begin(), by_count.begin() + static_cast<long>(capacity_),
                   by_count.end(), std::greater<int64_t>());
  const int64_t cut = by_count[capacity_];
  std::vector<std::pair<Value, int64_t>> kept;
  kept.reserve(capacity_);
  for (auto& [k, c] : counts_) {
    if (c > cut) kept.emplace_back(std::move(k), c - cut);
  }
  counts_ = std::move(kept);
}

void TopKSketch::Update(double v) { Add(Value(v), 1); }

void TopKSketch::UpdateString(const std::string& s) { Add(Value(s), 1); }

void TopKSketch::Merge(const SketchState& other) {
  const auto& o = static_cast<const TopKSketch&>(other);
  // Pointwise sum over the key union, then one trim; inserting via Add
  // would trim mid-merge and lose more than necessary.
  for (const auto& [k, c] : o.counts_) {
    auto it = std::lower_bound(
        counts_.begin(), counts_.end(), k,
        [](const auto& entry, const Value& key) { return KeyLess(entry.first, key); });
    if (it != counts_.end() && KeyEq(it->first, k)) {
      it->second += c;
    } else {
      counts_.insert(it, {k, c});
    }
  }
  TrimToCapacity();
}

std::unique_ptr<SketchState> TopKSketch::Clone() const {
  return std::make_unique<TopKSketch>(*this);
}

bool TopKSketch::Equals(const SketchState& other) const {
  const auto& o = static_cast<const TopKSketch&>(other);
  if (capacity_ != o.capacity_ || counts_.size() != o.counts_.size()) {
    return false;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (!KeyEq(counts_[i].first, o.counts_[i].first) ||
        counts_[i].second != o.counts_[i].second) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<Value, int64_t>> TopKSketch::Top(size_t k) const {
  std::vector<std::pair<Value, int64_t>> out = counts_;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return KeyLess(a.first, b.first);
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void TopKSketch::Encode(Writer& w) const {
  w.PutU8(kSketchPayloadVersion);
  w.PutVarint(capacity_);
  w.PutVarint(counts_.size());
  for (const auto& [k, c] : counts_) {
    k.Encode(w);
    w.PutVarint(static_cast<uint64_t>(c));
  }
}

Result<std::unique_ptr<SketchState>> TopKSketch::Decode(Reader& r) {
  SEAWEED_RETURN_NOT_OK(CheckVersion(r));
  SEAWEED_ASSIGN_OR_RETURN(uint64_t capacity, r.GetVarint());
  if (capacity == 0 || capacity > (size_t{1} << 16)) {
    return Status::ParseError("implausible top-k capacity");
  }
  auto out = std::make_unique<TopKSketch>(static_cast<size_t>(capacity));
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > capacity) return Status::ParseError("top-k entries exceed capacity");
  out->counts_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(Value k, Value::Decode(r));
    SEAWEED_ASSIGN_OR_RETURN(uint64_t c, r.GetVarint());
    out->counts_.emplace_back(std::move(k), static_cast<int64_t>(c));
  }
  // Keys must arrive sorted (the canonical encode order); reject rather
  // than silently re-sort so corrupted payloads are visible.
  for (size_t i = 1; i < out->counts_.size(); ++i) {
    if (!KeyLess(out->counts_[i - 1].first, out->counts_[i].first)) {
      return Status::ParseError("top-k keys out of order");
    }
  }
  return {std::move(out)};
}

// ---------------------------------------------------------------------------
// Tag dispatch
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SketchState>> DecodeSketchState(uint8_t tag,
                                                       Reader& r) {
  switch (tag) {
    case kStateTagHll:
      return HllSketch::Decode(r);
    case kStateTagQuantile:
      return QuantileSketch::Decode(r);
    case kStateTagTopK:
      return TopKSketch::Decode(r);
    default:
      return Status::ParseError("unknown aggregate state tag " +
                                std::to_string(tag));
  }
}

}  // namespace seaweed::db
