// Benchmark accounting: the two quantities the paper's evaluation reports
// for every figure — throughput (commits/second) and the abort breakdown by
// error class (deadlock / FCW conflict / unsafe, §6.1.1).

#ifndef SSIDB_BENCHLIB_STATS_H_
#define SSIDB_BENCHLIB_STATS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace ssidb::bench {

/// Outcome counts of one measured run at one MPL point.
struct RunResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t deadlocks = 0;         ///< S2PL (and SI writer) lock cycles.
  uint64_t update_conflicts = 0;  ///< First-committer-wins aborts.
  uint64_t unsafe = 0;            ///< SSI dangerous-structure aborts.
  uint64_t timeouts = 0;
  uint64_t app_rollbacks = 0;     ///< Intentional rollbacks (e.g. 1% NEWO).

  /// The engine's metrics registry over the measurement window: the
  /// Delta of the snapshots taken at window start and after the workers
  /// joined. Counters (ckpt.*, log.*, pool.*, tier.*, abort.*, ...) are
  /// window activity, gauges are end values, and histograms (commit.*_ns,
  /// read.*_ns, ...) hold the window's samples.
  obs::MetricsSnapshot engine;

  uint64_t TotalAborts() const {
    return deadlocks + update_conflicts + unsafe + timeouts;
  }
  double Throughput() const { return seconds > 0 ? commits / seconds : 0; }
  /// The paper's "errors / commit" y-axis (Figs 6.1(b)-6.5(b)).
  double ErrorsPerCommit() const {
    return commits > 0 ? static_cast<double>(TotalAborts()) / commits : 0;
  }

  /// Classify one transaction-attempt outcome into the counters.
  void Count(const Status& status);
};

/// Header + row formatting shared by every figure binary so EXPERIMENTS.md
/// tables can be regenerated with a diff-stable layout.
std::string ResultHeader();
std::string ResultRow(const std::string& figure, const std::string& series,
                      int mpl, const RunResult& r);

/// One measured point as a single-line JSON object (for SSIDB_BENCH_JSON
/// artifacts: one object per line, JSON Lines): the driver's own counts
/// plus the window's registry delta under "engine" (obs::ToJson layout).
std::string ResultJsonLine(const std::string& figure,
                           const std::string& series, int mpl,
                           const RunResult& r);

}  // namespace ssidb::bench

#endif  // SSIDB_BENCHLIB_STATS_H_
