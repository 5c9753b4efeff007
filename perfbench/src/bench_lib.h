#ifndef UNIFY_PERFBENCH_BENCH_LIB_H_
#define UNIFY_PERFBENCH_BENCH_LIB_H_

// Helpers of the repository benchmark: percentiles with a tail-size rule,
// self time of a span over its (possibly overlapping, cross-thread)
// children, the seeded tenant/query draws, and a minimal Chrome
// trace-event writer. Unit-tested in bench_lib_test.cc.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace unify::perfbench {

/// Samples a percentile must leave strictly above it before it is
/// reported (choosing-metrics rule: "the highest percentile that has at
/// least ten samples beyond it").
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `values` at quantile `q` in [0, 1]: the
/// smallest sample with at least ceil(q * n) samples at or below it.
/// Returns nullopt when fewer than `min_beyond` samples lie beyond that
/// rank (so p99 needs n >= 1000 at the default rule) or `values` is
/// empty.
std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond = kMinTailSamples);

/// Samples strictly beyond the nearest rank of quantile `q` out of `n`.
size_t SamplesBeyond(size_t n, double q);

/// A closed wall-clock interval in nanoseconds on one steady clock.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
  int64_t length() const { return end > start ? end - start : 0; }
};

/// Length of the union of `parts`, each clipped to `within`.
int64_t CoveredLength(const Interval& within, std::vector<Interval> parts);

/// Self time of a span: its length minus the part of it covered by the
/// union of its children. Children may overlap one another, nest, run on
/// other threads, or stick out of the span; only the covered part of the
/// span's own interval is subtracted.
inline int64_t SelfTime(const Interval& span,
                        const std::vector<Interval>& children) {
  return span.length() - CoveredLength(span, children);
}

/// One request drawn for the skewed multi-tenant workload: which query of
/// the pool, which tenant sends it, and its priority class (0 = batch,
/// 1 = normal, 2 = interactive).
struct TenantDraw {
  size_t query = 0;
  int tenant = 0;
  int priority = 1;
};

/// The skewed tenant mix over a pool of `num_templates` x `instances`
/// queries, where query i is instance i / num_templates of template
/// i % num_templates. Tenants are Zipf-weighted (tenant 0 is the
/// heaviest). Each tenant draws a template by Zipf rank, starting at its
/// own offset (tenant t's rank 0 is template t * num_templates /
/// num_tenants), so tenants have different hot templates, and then one of
/// that template's instances uniformly, so no single query carries the
/// head of the distribution. Priority classes are uniform and independent
/// of the tenant.
class TenantMix {
 public:
  TenantMix(size_t num_templates, size_t instances, int num_tenants,
            double skew)
      : num_templates_(num_templates),
        instances_(instances),
        num_tenants_(num_tenants),
        skew_(skew) {}
  TenantDraw Draw(Rng& rng) const;

 private:
  size_t num_templates_;
  size_t instances_;
  int num_tenants_;
  double skew_;
};

/// One complete event of a Chrome trace-event file ("ph": "X").
struct ChromeEvent {
  std::string name;
  std::string cat;
  int64_t start_ns = 0;  ///< on the writer's steady clock
  int64_t dur_ns = 0;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// `s` as a JSON string literal (quoted and escaped).
std::string JsonString(const std::string& s);

/// Renders `events` as a Chrome trace-event JSON object (timestamps in
/// microseconds relative to `origin_ns`).
std::string ToChromeTraceJson(const std::vector<ChromeEvent>& events,
                              int64_t origin_ns);

}  // namespace unify::perfbench

#endif  // UNIFY_PERFBENCH_BENCH_LIB_H_
