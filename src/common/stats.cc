#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace unify {

void SampleStats::Add(double v) {
  values_.push_back(v);
  sorted_valid_ = false;
}

void SampleStats::AddAll(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
  sorted_valid_ = false;
}

double SampleStats::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double SampleStats::Mean() const {
  UNIFY_CHECK(!values_.empty());
  return sum() / static_cast<double>(values_.size());
}

double SampleStats::Min() const {
  UNIFY_CHECK(!values_.empty());
  return *std::min_element(values_.begin(), values_.end());
}

double SampleStats::Max() const {
  UNIFY_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

double SampleStats::StdDev() const {
  if (values_.size() < 2) return 0.0;
  double m = Mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

void SampleStats::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleStats::Quantile(double q) const {
  UNIFY_CHECK(!values_.empty());
  EnsureSorted();
  if (q <= 0) return sorted_.front();
  if (q >= 1) return sorted_.back();
  double pos = q * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

int Histogram::KeyOf(double magnitude) {
  // A double's top 16 bits below the sign are its biased exponent and the
  // top 4 mantissa bits: exactly the power of two and the linear 1/16th
  // within it, in the same order as the magnitude.
  static_assert(kSubBuckets == 16, "the key reads 4 mantissa bits");
  return static_cast<int>(std::bit_cast<uint64_t>(magnitude) >> 48);
}

double Histogram::Midpoint(int key) {
  const double lo = std::bit_cast<double>(static_cast<uint64_t>(key) << 48);
  const double hi =
      std::bit_cast<double>(static_cast<uint64_t>(key + 1) << 48);
  return lo + (hi - lo) / 2;
}

void Histogram::Bins::Cover(int key) {
  if (counts.empty()) {
    lo = key;
    counts.assign(1, 0);
  } else if (key < lo) {
    counts.insert(counts.begin(), static_cast<size_t>(lo - key), 0);
    lo = key;
  } else if (key >= lo + static_cast<int>(counts.size())) {
    counts.resize(static_cast<size_t>(key - lo) + 1, 0);
  }
}

void Histogram::Bins::Add(int key) {
  Cover(key);
  ++counts[static_cast<size_t>(key - lo)];
}

void Histogram::Bins::Merge(const Bins& other) {
  if (other.counts.empty()) return;
  Cover(other.lo);
  Cover(other.lo + static_cast<int>(other.counts.size()) - 1);
  const size_t offset = static_cast<size_t>(other.lo - lo);
  for (size_t i = 0; i < other.counts.size(); ++i) {
    counts[offset + i] += other.counts[i];
  }
}

void Histogram::Add(double v) {
  if (!std::isfinite(v)) return;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v > 0) {
    positive_.Add(KeyOf(v));
  } else if (v < 0) {
    negative_.Add(KeyOf(-v));
  } else {
    ++zeros_;
  }
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zeros_ += other.zeros_;
  positive_.Merge(other.positive_);
  negative_.Merge(other.negative_);
}

double Histogram::Mean() const {
  UNIFY_CHECK(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

double Histogram::Min() const {
  UNIFY_CHECK(count_ > 0);
  return min_;
}

double Histogram::Max() const {
  UNIFY_CHECK(count_ > 0);
  return max_;
}

double Histogram::Quantile(double q) const {
  UNIFY_CHECK(count_ > 0);
  const double n = static_cast<double>(count_);
  const uint64_t rank = static_cast<uint64_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  if (rank == 1) return min_;
  if (rank == count_) return max_;
  // Walk the buckets in value order: negatives from the largest magnitude
  // down, then zero, then positives up.
  uint64_t seen = 0;
  for (size_t i = negative_.counts.size(); i-- > 0;) {
    seen += negative_.counts[i];
    if (seen >= rank) {
      return std::clamp(-Midpoint(negative_.lo + static_cast<int>(i)), min_,
                        max_);
    }
  }
  seen += zeros_;
  if (seen >= rank) return 0.0;
  for (size_t i = 0; i < positive_.counts.size(); ++i) {
    seen += positive_.counts[i];
    if (seen >= rank) {
      return std::clamp(Midpoint(positive_.lo + static_cast<int>(i)), min_,
                        max_);
    }
  }
  return max_;
}

double QError(double estimate, double ground_truth) {
  double e = std::max(estimate, 1.0);
  double t = std::max(ground_truth, 1.0);
  return std::max(e / t, t / e);
}

}  // namespace unify
