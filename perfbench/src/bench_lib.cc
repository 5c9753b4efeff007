#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/trace.h"

namespace unify::perfbench {

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(n));
  const size_t at_or_below = std::max<size_t>(1, static_cast<size_t>(rank));
  return n - std::min(n, at_or_below);
}

std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_beyond) {
  if (values.empty() || SamplesBeyond(values.size(), q) < min_beyond) {
    return std::nullopt;
  }
  const size_t rank = values.size() - SamplesBeyond(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

int64_t CoveredLength(const Interval& within, std::vector<Interval> parts) {
  for (auto& p : parts) {
    p.start = std::max(p.start, within.start);
    p.end = std::min(p.end, within.end);
  }
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [](const Interval& p) { return p.end <= p.start; }),
              parts.end());
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& p : parts) {
    if (open && p.start <= run_end) {
      run_end = std::max(run_end, p.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = p.start;
    run_end = p.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

TenantDraw TenantMix::Draw(Rng& rng) const {
  TenantDraw d;
  d.tenant = static_cast<int>(
      rng.Zipf(static_cast<uint64_t>(num_tenants_), skew_));
  const size_t rank = static_cast<size_t>(rng.Zipf(num_templates_, skew_));
  const size_t offset = static_cast<size_t>(d.tenant) * num_templates_ /
                        static_cast<size_t>(num_tenants_);
  const size_t tpl = (rank + offset) % num_templates_;
  const size_t instance = static_cast<size_t>(rng.NextUint64(instances_));
  d.query = instance * num_templates_ + tpl;
  d.priority = static_cast<int>(rng.NextUint64(3));
  return d;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

std::string ToChromeTraceJson(const std::vector<ChromeEvent>& events,
                              int64_t origin_ns) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < events.size(); ++i) {
    const ChromeEvent& e = events[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":" + JsonString(e.name) + ",\"cat\":" + JsonString(e.cat);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  e.tid, static_cast<double>(e.start_ns - origin_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out += buf;
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) out += ",";
        out += JsonString(e.args[a].first) + ":" + JsonString(e.args[a].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace unify::perfbench
