#ifndef UNIFY_CORE_PHYSICAL_NUMERIC_STATS_H_
#define UNIFY_CORE_PHYSICAL_NUMERIC_STATS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/operators/physical.h"
#include "corpus/corpus.h"

namespace unify::core {

/// One attribute's surface-extracted value per document, indexed by
/// document id; nullopt where the text carries no value.
using AttributeColumn = std::vector<std::optional<double>>;

/// The numeric attributes that pre-programmed extraction can pull out of
/// document text: their per-document values and equi-depth histograms.
///
/// The paper notes that classical histograms are infeasible for *semantic*
/// predicates over unstructured data (Section VI-B) — but once an
/// attribute is surface-extractable ("It has been viewed 523 times."), the
/// familiar machinery applies. Built once during preprocessing, the
/// histograms give numeric filter selectivities without any sampling at
/// planning time, and the columns let the pre-programmed operators
/// (ExactFilter, PreAggregate, RegexExtract, NumericSort/TopK, HashJoin on
/// an attribute) read a value instead of re-scanning the prose per query.
class NumericStats {
 public:
  /// Number of equi-depth buckets per attribute.
  static constexpr int kBuckets = 64;

  NumericStats() = default;

  /// Extracts every known attribute from every document (pre-programmed,
  /// no LLM), keeps the values as one column per attribute and builds the
  /// histograms.
  void Build(const corpus::Corpus& corpus);

  /// The values Build extracted for `attr`: entry i is exactly
  /// internal::RegexExtractValue(document i, attr). nullptr when `attr` is
  /// not an nlq::KnownAttributes() entry or Build was not called.
  const AttributeColumn* Column(const std::string& attr) const;

  /// Estimated number of documents satisfying the numeric condition in
  /// `args` (attribute/cmp/value[/value2]). Returns < 0 when the attribute
  /// is unknown or Build was not called.
  double EstimateCardinality(const OpArgs& args) const;

  /// True once Build has run over a non-empty corpus.
  bool ready() const { return total_ > 0; }

  /// Number of values collected for `attr` (diagnostics).
  size_t ValueCount(const std::string& attr) const;

 private:
  struct Histogram {
    /// Ascending bucket upper bounds; each bucket holds ~equal counts.
    std::vector<double> upper_bounds;
    std::vector<double> counts;
    double min = 0;
    double max = 0;
    size_t n = 0;

    /// Estimated count of values <= x.
    double CumulativeAtMost(double x) const;
  };

  std::map<std::string, AttributeColumn> columns_;
  std::map<std::string, Histogram> histograms_;
  size_t total_ = 0;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_NUMERIC_STATS_H_
