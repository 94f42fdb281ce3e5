// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--span-file <path>] [--tiny]
//
// Prints check verdicts on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones from the traced run. Exits 1 if a
// correctness or serializability check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--span-file <path>] [--tiny]\n"
               "workloads:");
  for (const auto& n : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = value();
      have_dir = true;
    } else if (a == "--span-file") {
      cfg.span_file = value();
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_dir || cfg.seconds <= 0 ||
      perfbench::MakeWorkload(cfg.workload, cfg.seed) == nullptr) {
    Usage();
    return 2;
  }

  const perfbench::RunResult r = perfbench::Run(cfg);
  for (const auto& n : r.notes) std::fprintf(stderr, "%s\n", n.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
