#include "db/histogram.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"

namespace seaweed::db {

NumericHistogram NumericHistogram::Build(const Column& column,
                                         int max_buckets) {
  std::vector<double> values;
  values.reserve(column.size());
  if (column.type() == ColumnType::kInt64) {
    for (int64_t v : column.ints()) values.push_back(static_cast<double>(v));
  } else if (column.type() == ColumnType::kDouble) {
    values = column.doubles();
  } else {
    SEAWEED_CHECK_MSG(false, "NumericHistogram over a string column");
  }
  return BuildFromValues(std::move(values), max_buckets);
}

NumericHistogram NumericHistogram::BuildFromValues(std::vector<double> values,
                                                   int max_buckets) {
  NumericHistogram h;
  h.total_rows_ = static_cast<int64_t>(values.size());
  if (values.empty()) return h;
  std::sort(values.begin(), values.end());
  h.min_value_ = values.front();

  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t target_depth =
      std::max<int64_t>(1, (n + max_buckets - 1) / max_buckets);

  size_t i = 0;
  while (i < values.size()) {
    size_t end = std::min(values.size(), i + static_cast<size_t>(target_depth));
    // Extend the bucket so equal values never straddle a boundary — required
    // for EstimateEqual to be meaningful.
    while (end < values.size() && values[end] == values[end - 1]) ++end;
    Bucket b;
    b.upper_bound = values[end - 1];
    b.row_count = static_cast<int64_t>(end - i);
    b.distinct = 1;
    for (size_t j = i + 1; j < end; ++j) {
      if (values[j] != values[j - 1]) ++b.distinct;
    }
    h.buckets_.push_back(b);
    i = end;
  }
  return h;
}

double NumericHistogram::EstimateLessOrEqual(double v) const {
  if (buckets_.empty()) return 0;
  if (v < min_value_) return 0;
  double cum = 0;
  double prev_ub = min_value_;
  for (const Bucket& b : buckets_) {
    if (v >= b.upper_bound) {
      cum += static_cast<double>(b.row_count);
      prev_ub = b.upper_bound;
      continue;
    }
    // v falls inside this bucket: linear interpolation over (prev_ub, ub].
    double width = b.upper_bound - prev_ub;
    double frac = width > 0 ? (v - prev_ub) / width : 1.0;
    frac = std::clamp(frac, 0.0, 1.0);
    cum += frac * static_cast<double>(b.row_count);
    return cum;
  }
  return cum;
}

double NumericHistogram::EstimateLess(double v) const {
  return std::max(0.0, EstimateLessOrEqual(v) - EstimateEqual(v));
}

double NumericHistogram::EstimateEqual(double v) const {
  if (buckets_.empty()) return 0;
  if (v < min_value_) return 0;
  double prev_ub = min_value_;
  for (const Bucket& b : buckets_) {
    bool in_bucket =
        (v <= b.upper_bound) && (v > prev_ub || (&b == &buckets_.front() &&
                                                 v >= min_value_));
    if (in_bucket) {
      return static_cast<double>(b.row_count) /
             static_cast<double>(std::max<int64_t>(1, b.distinct));
    }
    prev_ub = b.upper_bound;
  }
  return 0;
}

double NumericHistogram::EstimateRange(std::optional<double> lo,
                                       bool lo_inclusive,
                                       std::optional<double> hi,
                                       bool hi_inclusive) const {
  double upper = hi.has_value()
                     ? (hi_inclusive ? EstimateLessOrEqual(*hi)
                                     : EstimateLess(*hi))
                     : static_cast<double>(total_rows_);
  double lower = lo.has_value()
                     ? (lo_inclusive ? EstimateLess(*lo)
                                     : EstimateLessOrEqual(*lo))
                     : 0.0;
  return std::max(0.0, upper - lower);
}

void NumericHistogram::Encode(Writer& w) const {
  w.PutDouble(min_value_);
  w.PutVarint(static_cast<uint64_t>(total_rows_));
  w.PutVarint(buckets_.size());
  for (const Bucket& b : buckets_) {
    w.PutDouble(b.upper_bound);
    w.PutVarint(static_cast<uint64_t>(b.row_count));
    w.PutVarint(static_cast<uint64_t>(b.distinct));
  }
}

Result<NumericHistogram> NumericHistogram::Decode(Reader& r) {
  NumericHistogram h;
  SEAWEED_ASSIGN_OR_RETURN(h.min_value_, r.GetDouble());
  SEAWEED_ASSIGN_OR_RETURN(uint64_t total, r.GetVarint());
  h.total_rows_ = static_cast<int64_t>(total);
  SEAWEED_ASSIGN_OR_RETURN(uint64_t nb, r.GetVarint());
  if (nb > 100000) return Status::ParseError("implausible bucket count");
  h.buckets_.reserve(nb);
  for (uint64_t i = 0; i < nb; ++i) {
    Bucket b;
    SEAWEED_ASSIGN_OR_RETURN(b.upper_bound, r.GetDouble());
    SEAWEED_ASSIGN_OR_RETURN(uint64_t rc, r.GetVarint());
    SEAWEED_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
    b.row_count = static_cast<int64_t>(rc);
    b.distinct = static_cast<int64_t>(d);
    h.buckets_.push_back(b);
  }
  return h;
}

size_t NumericHistogram::EncodedBytes() const { return CountedBytes(*this); }

StringHistogram StringHistogram::Build(const Column& column, int max_mcvs) {
  SEAWEED_CHECK(column.type() == ColumnType::kString);
  StringHistogram h;
  h.total_rows_ = static_cast<int64_t>(column.size());
  // Count occurrences per dictionary code.
  std::vector<int64_t> counts(column.dict_size(), 0);
  for (uint32_t code : column.codes()) ++counts[code];
  std::vector<uint32_t> order(counts.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return column.DictEntry(a) < column.DictEntry(b);
  });
  size_t keep = std::min(order.size(), static_cast<size_t>(max_mcvs));
  for (size_t i = 0; i < keep; ++i) {
    if (counts[order[i]] == 0) break;
    h.mcvs_.push_back({column.DictEntry(order[i]), counts[order[i]]});
  }
  for (size_t i = keep; i < order.size(); ++i) {
    if (counts[order[i]] == 0) continue;
    h.other_count_ += counts[order[i]];
    ++h.other_distinct_;
  }
  return h;
}

double StringHistogram::EstimateEqual(const std::string& s) const {
  for (const Mcv& m : mcvs_) {
    if (m.value == s) return static_cast<double>(m.count);
  }
  if (other_distinct_ == 0) return 0;
  return static_cast<double>(other_count_) /
         static_cast<double>(other_distinct_);
}

void StringHistogram::Encode(Writer& w) const {
  w.PutVarint(static_cast<uint64_t>(total_rows_));
  w.PutVarint(mcvs_.size());
  for (const Mcv& m : mcvs_) {
    w.PutString(m.value);
    w.PutVarint(static_cast<uint64_t>(m.count));
  }
  w.PutVarint(static_cast<uint64_t>(other_count_));
  w.PutVarint(static_cast<uint64_t>(other_distinct_));
}

Result<StringHistogram> StringHistogram::Decode(Reader& r) {
  StringHistogram h;
  SEAWEED_ASSIGN_OR_RETURN(uint64_t total, r.GetVarint());
  h.total_rows_ = static_cast<int64_t>(total);
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 100000) return Status::ParseError("implausible MCV count");
  for (uint64_t i = 0; i < n; ++i) {
    Mcv m;
    SEAWEED_ASSIGN_OR_RETURN(m.value, r.GetString());
    SEAWEED_ASSIGN_OR_RETURN(uint64_t c, r.GetVarint());
    m.count = static_cast<int64_t>(c);
    h.mcvs_.push_back(std::move(m));
  }
  SEAWEED_ASSIGN_OR_RETURN(uint64_t oc, r.GetVarint());
  SEAWEED_ASSIGN_OR_RETURN(uint64_t od, r.GetVarint());
  h.other_count_ = static_cast<int64_t>(oc);
  h.other_distinct_ = static_cast<int64_t>(od);
  return h;
}

size_t StringHistogram::EncodedBytes() const { return CountedBytes(*this); }

ColumnSummary ColumnSummary::Numeric(std::string column, NumericHistogram h) {
  ColumnSummary s;
  s.column_ = std::move(column);
  s.numeric_ = std::move(h);
  return s;
}

ColumnSummary ColumnSummary::Strings(std::string column, StringHistogram h) {
  ColumnSummary s;
  s.column_ = std::move(column);
  s.strings_ = std::move(h);
  return s;
}

void ColumnSummary::Encode(Writer& w) const {
  w.PutString(column_);
  w.PutU8(is_numeric() ? 0 : 1);
  if (is_numeric()) {
    numeric_->Encode(w);
  } else {
    strings_->Encode(w);
  }
}

Result<ColumnSummary> ColumnSummary::Decode(Reader& r) {
  ColumnSummary s;
  SEAWEED_ASSIGN_OR_RETURN(s.column_, r.GetString());
  SEAWEED_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind == 0) {
    SEAWEED_ASSIGN_OR_RETURN(NumericHistogram h,
                             NumericHistogram::Decode(r));
    s.numeric_ = std::move(h);
  } else {
    SEAWEED_ASSIGN_OR_RETURN(StringHistogram h,
                             StringHistogram::Decode(r));
    s.strings_ = std::move(h);
  }
  return s;
}

size_t ColumnSummary::EncodedBytes() const { return CountedBytes(*this); }

}  // namespace seaweed::db
