#ifndef UNIFY_COMMON_STATS_H_
#define UNIFY_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unify {

/// Accumulates a sample of doubles and reports summary statistics.
/// Quantiles use linear interpolation between order statistics (the same
/// convention as numpy's default), so results are stable and exact for the
/// sample sizes used in the experiments.
class SampleStats {
 public:
  SampleStats() = default;

  /// Adds one observation.
  void Add(double v);

  /// Adds many observations.
  void AddAll(const std::vector<double>& vs);

  size_t count() const { return values_.size(); }
  double sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Population standard deviation. Returns 0 for fewer than 2 samples.
  double StdDev() const;
  /// Quantile q in [0, 1]; q=0.5 is the median. Requires count() > 0.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// The raw values, in insertion order.
  const std::vector<double>& values() const { return values_; }

 private:
  /// Sorts lazily before quantile queries.
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// A mergeable, bounded-memory distribution accumulator (the histogram
/// type behind MetricsRegistry): log-linear buckets in the style of
/// HdrHistogram. Each power of two is split into kSubBuckets linear
/// sub-buckets, so a bucket's width is at most 1/16 of its lower bound.
///
/// - count/sum/mean/min/max are exact for the whole observation stream.
/// - Quantile(q) finds the bucket holding the nearest-rank order statistic
///   (rank ceil(q * count), at least 1) and returns the bucket's midpoint
///   clamped to [Min(), Max()]; ranks 1 and count() return Min()/Max()
///   exactly. The result is within kRelativeError (1/32) relative of that
///   order statistic for every normal double (|v| >= 2.2e-308).
/// - Negative values are bucketed by magnitude on their own side of zero,
///   so the bound holds for them too; zero has an exact bucket.
/// - NaN and +-inf are dropped: they change neither count nor sum, which
///   would otherwise read nan/inf for the rest of the process's life.
///
/// Memory is one counter per bucket between the smallest and largest
/// magnitude seen on each side of zero (16 per power of two), independent
/// of the observation count. Merge() adds another histogram bucket by
/// bucket: merging two histograms equals feeding one both streams.
class Histogram {
 public:
  /// Linear sub-buckets per power of two.
  static constexpr int kSubBuckets = 16;
  /// Quantile error bound, relative to the nearest-rank order statistic.
  static constexpr double kRelativeError = 1.0 / (2 * kSubBuckets);

  /// Adds one observation (dropped when not finite).
  void Add(double v);

  /// Adds every observation of `other`.
  void Merge(const Histogram& other);

  /// Observations added (non-finite ones excluded).
  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Quantile q in [0, 1] (see the class comment). Requires count() > 0.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// Buckets allocated: the histogram's memory is O(buckets()), however
  /// many observations it holds.
  size_t buckets() const {
    return positive_.counts.size() + negative_.counts.size();
  }

 private:
  /// One side of zero: counts of buckets [lo, lo + counts.size()), keyed
  /// by magnitude (larger key = larger magnitude).
  struct Bins {
    int lo = 0;
    std::vector<uint64_t> counts;

    /// Widens the range to include `key`.
    void Cover(int key);
    void Add(int key);
    void Merge(const Bins& other);
  };

  /// Bucket key of a positive finite magnitude.
  static int KeyOf(double magnitude);
  /// Midpoint of bucket `key`'s magnitude range.
  static double Midpoint(int key);

  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  uint64_t zeros_ = 0;
  Bins positive_;
  Bins negative_;
};

/// The q-error metric used for cardinality estimation quality (Section
/// VII-A): max(est/truth, truth/est). Both inputs are clamped below by 1 so
/// zero estimates/truths yield finite errors, matching common practice
/// (Leis et al.).
double QError(double estimate, double ground_truth);

}  // namespace unify

#endif  // UNIFY_COMMON_STATS_H_
