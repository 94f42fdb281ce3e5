// Shared helpers for the DB-level test suites.

#ifndef SSIDB_TESTS_TEST_UTIL_H_
#define SSIDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/db/db.h"
#include "src/obs/metrics.h"

namespace ssidb {

/// A fresh scratch directory, removed on destruction. Used by the disk-tier
/// suites for run directories and WALs.
struct ScratchDir {
  ScratchDir() {
    char tmpl[] = "/tmp/ssidb_test_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// Advance the stable watermark by committing a throwaway write. Needed
/// wherever a test wants a read-only commit to genuinely overlap an
/// earlier-begun transaction: a read-only commit's timestamp is the
/// watermark, so retention/edge semantics require the watermark to have
/// moved past the overlapping transaction's snapshot first.
inline void BumpWatermark(DB* db, TableId table) {
  auto bump = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(bump->Put(table, "bump", "1").ok());
  ASSERT_TRUE(bump->Commit().ok());
}

/// A counter or gauge read by registry name. Unlike the lenient
/// MetricsSnapshot lookups, a name of the wrong kind or a misspelt one
/// fails the calling test instead of passing as a zero.
inline uint64_t NamedValue(
    const std::vector<std::pair<std::string, uint64_t>>& values,
    std::string_view name) {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "metric not registered with this kind: " << name;
  return 0;
}
inline uint64_t CounterOf(const obs::MetricsSnapshot& m,
                          std::string_view name) {
  return NamedValue(m.counters, name);
}
inline uint64_t GaugeOf(const obs::MetricsSnapshot& m, std::string_view name) {
  return NamedValue(m.gauges, name);
}
/// The same, from a fresh Collect() of `db`'s registry.
inline uint64_t CounterOf(DB* db, std::string_view name) {
  return CounterOf(db->metrics()->Collect(), name);
}
inline uint64_t GaugeOf(DB* db, std::string_view name) {
  return GaugeOf(db->metrics()->Collect(), name);
}

}  // namespace ssidb

#endif  // SSIDB_TESTS_TEST_UTIL_H_
