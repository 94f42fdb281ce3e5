#include "src/benchlib/stats.h"

#include <cstdio>

#include "src/obs/exporter.h"

namespace ssidb::bench {

void RunResult::Count(const Status& status) {
  if (status.ok()) {
    ++commits;
    return;
  }
  switch (status.code()) {
    case Status::Code::kDeadlock:
      ++deadlocks;
      break;
    case Status::Code::kUpdateConflict:
      ++update_conflicts;
      break;
    case Status::Code::kUnsafe:
      ++unsafe;
      break;
    case Status::Code::kTimedOut:
      ++timeouts;
      break;
    default:
      ++app_rollbacks;
      break;
  }
}

std::string ResultHeader() {
  return "figure,series,mpl,commits_per_sec,deadlocks_per_commit,"
         "conflicts_per_commit,unsafe_per_commit,total_commits";
}

std::string ResultRow(const std::string& figure, const std::string& series,
                      int mpl, const RunResult& r) {
  char buf[256];
  const double c = r.commits > 0 ? static_cast<double>(r.commits) : 1.0;
  snprintf(buf, sizeof(buf), "%s,%s,%d,%.1f,%.4f,%.4f,%.4f,%llu",
           figure.c_str(), series.c_str(), mpl, r.Throughput(),
           r.deadlocks / c, r.update_conflicts / c, r.unsafe / c,
           static_cast<unsigned long long>(r.commits));
  return buf;
}

std::string ResultJsonLine(const std::string& figure,
                           const std::string& series, int mpl,
                           const RunResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "{\"figure\":\"%s\",\"series\":\"%s\",\"mpl\":%d,"
           "\"commits_per_sec\":%.1f,\"seconds\":%.3f,\"commits\":%llu,"
           "\"deadlocks\":%llu,\"update_conflicts\":%llu,\"unsafe\":%llu,"
           "\"timeouts\":%llu,\"engine\":",
           figure.c_str(), series.c_str(), mpl, r.Throughput(), r.seconds,
           static_cast<unsigned long long>(r.commits),
           static_cast<unsigned long long>(r.deadlocks),
           static_cast<unsigned long long>(r.update_conflicts),
           static_cast<unsigned long long>(r.unsafe),
           static_cast<unsigned long long>(r.timeouts));
  return std::string(buf) + obs::ToJson(r.engine) + "}";
}

}  // namespace ssidb::bench
