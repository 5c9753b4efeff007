#include "core/physical/numeric_stats.h"

#include <algorithm>

#include "core/operators/physical_common.h"
#include "nlq/ast.h"

namespace unify::core {

void NumericStats::Build(const corpus::Corpus& corpus) {
  columns_.clear();
  histograms_.clear();
  total_ = corpus.size();
  for (const auto& attr : nlq::KnownAttributes()) {
    AttributeColumn& column = columns_[attr];
    column.reserve(corpus.size());
    std::vector<double> values;
    values.reserve(corpus.size());
    for (const auto& doc : corpus.docs()) {
      column.push_back(internal::RegexExtractValue(doc, attr));
      if (column.back().has_value()) values.push_back(*column.back());
    }
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());

    Histogram hist;
    hist.n = values.size();
    hist.min = values.front();
    hist.max = values.back();
    int buckets = std::min<int>(kBuckets, static_cast<int>(values.size()));
    double per = static_cast<double>(values.size()) / buckets;
    for (int b = 1; b <= buckets; ++b) {
      size_t end = std::min(values.size() - 1,
                            static_cast<size_t>(b * per) - 1);
      hist.upper_bounds.push_back(values[end]);
      // counts[b] holds the CUMULATIVE number of values up to and
      // including bucket b's upper bound.
      hist.counts.push_back(static_cast<double>(end + 1));
    }
    histograms_[attr] = std::move(hist);
  }
}

double NumericStats::Histogram::CumulativeAtMost(double x) const {
  if (n == 0) return 0;
  if (x < min) return 0;
  if (x >= max) return static_cast<double>(n);
  // Find the first bucket whose upper bound reaches x.
  size_t b = std::lower_bound(upper_bounds.begin(), upper_bounds.end(), x) -
             upper_bounds.begin();
  double below = b == 0 ? 0 : counts[b - 1];
  double lo = b == 0 ? min : upper_bounds[b - 1];
  double hi = upper_bounds[b];
  double in_bucket = counts[b] - below;
  if (hi <= lo) return counts[b];
  // Linear interpolation within the bucket.
  return below + in_bucket * (x - lo) / (hi - lo);
}

double NumericStats::EstimateCardinality(const OpArgs& args) const {
  auto attr_it = args.find("attribute");
  if (attr_it == args.end()) return -1;
  auto hist_it = histograms_.find(attr_it->second);
  if (hist_it == histograms_.end()) return -1;
  const Histogram& hist = hist_it->second;

  using Cmp = internal::NumericComparison::Cmp;
  const auto comparison = internal::NumericComparison::Parse(args);
  double value = static_cast<double>(comparison.value);
  double value2 = static_cast<double>(comparison.value2);
  double n = static_cast<double>(hist.n);
  switch (comparison.cmp) {
    case Cmp::kGt:
      return n - hist.CumulativeAtMost(value);
    case Cmp::kGe:
      return n - hist.CumulativeAtMost(value - 1);
    case Cmp::kLt:
      return hist.CumulativeAtMost(value - 1);
    case Cmp::kLe:
      return hist.CumulativeAtMost(value);
    case Cmp::kEq:
      return std::max(0.0, hist.CumulativeAtMost(value) -
                               hist.CumulativeAtMost(value - 1));
    case Cmp::kBetween:
      return std::max(0.0, hist.CumulativeAtMost(value2) -
                               hist.CumulativeAtMost(value - 1));
    case Cmp::kUnknown:
      break;
  }
  return -1;
}

const AttributeColumn* NumericStats::Column(const std::string& attr) const {
  auto it = columns_.find(attr);
  return it == columns_.end() ? nullptr : &it->second;
}

size_t NumericStats::ValueCount(const std::string& attr) const {
  auto it = histograms_.find(attr);
  return it == histograms_.end() ? 0 : it->second.n;
}

}  // namespace unify::core
