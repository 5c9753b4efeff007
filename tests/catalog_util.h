#ifndef UNIFY_TESTS_CATALOG_UTIL_H_
#define UNIFY_TESTS_CATALOG_UTIL_H_

// Test-only check that a metrics snapshot keeps to the telemetry catalog
// (src/common/telemetry_names.h).

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/telemetry_names.h"

namespace unify::testing {

/// Expects every series of `snapshot`, labeled ones included, to resolve
/// through telemetry::Find to a catalog row of the kind its map holds.
inline void ExpectCatalogKinds(const MetricsSnapshot& snapshot) {
  auto check = [](const auto& series_map, telemetry::Kind kind) {
    for (const auto& [series, value] : series_map) {
      const telemetry::Entry* row = telemetry::Find(series);
      if (row == nullptr) {
        ADD_FAILURE() << series << " has no catalog row";
      } else {
        EXPECT_EQ(row->kind, kind)
            << series << " is stored as one kind, cataloged as another";
      }
    }
  };
  check(snapshot.counters, telemetry::Kind::kCounter);
  check(snapshot.gauges, telemetry::Kind::kGauge);
  check(snapshot.histograms, telemetry::Kind::kHistogram);
}

}  // namespace unify::testing

#endif  // UNIFY_TESTS_CATALOG_UTIL_H_
