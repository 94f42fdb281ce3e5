// The run: set-up, closed-loop clients over a measurement window, the
// correctness and serializability checks, the durable-image reopen, and
// the reduction of counters, spans and registry deltas into metrics.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for databases; removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string span_file;
  /// Tiny sizes, one set-up and reopen, a short warm-up and a short
  /// history check: for the benchmark's own tests.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable notes: check verdicts, serializability, errors.
  std::vector<std::string> notes;
};

/// One full run of one workload.
RunResult Run(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
