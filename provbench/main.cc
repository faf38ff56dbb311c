// provbench: one run of one named workload.
//
//   provbench --workload <rq1_iot_anchor|rq2_collab_pipeline|
//                         rq3_cluster_lineage>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics when --trace 0,
// the per-layer metrics when --trace 1. A traced run also writes its spans
// to .bench_out/trace-<workload>-<seed>.json. Scratch data lives under
// .bench_data/ and is removed before exit. Run it from the checkout root
// (run.py does, after building it).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace provbench {
namespace {

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.process_start = BenchClock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "provbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  bool (*run)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "rq1_iot_anchor") run = RunIotAnchor;
  if (options.workload == "rq2_collab_pipeline") run = RunCollabPipeline;
  if (options.workload == "rq3_cluster_lineage") run = RunClusterLineage;
  if (run == nullptr || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: provbench --workload <rq1_iot_anchor|"
                 "rq2_collab_pipeline|rq3_cluster_lineage> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  namespace fs = std::filesystem;
  options.data_dir = ".bench_data/" + options.workload + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(options.data_dir, ec);
  fs::create_directories(options.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "provbench: cannot create %s: %s\n",
                 options.data_dir.c_str(), ec.message().c_str());
    return 1;
  }
  if (options.trace) Tracer::Get().Enable();

  Report report;
  const bool ran = run(options, &report);
  fs::remove_all(options.data_dir, ec);
  if (!ran) return 1;

  if (options.trace) {
    fs::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    std::map<std::string, double> end_to_end;
    for (const auto& [name, metric] : report.end_to_end()) {
      end_to_end[name] = metric.value;
    }
    if (!WriteTrace(path, options.workload, options.seed, report.stages(),
                    end_to_end)) {
      std::fprintf(stderr, "provbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "provbench: trace written to %s\n", path.c_str());
    std::fprintf(stderr, "provbench: self time by layer (s):");
    for (const auto& [layer, seconds] : Tracer::Get().SelfSecondsByLayer()) {
      std::fprintf(stderr, " %s=%.4f", layer.c_str(), seconds);
    }
    std::fprintf(stderr, "\nprovbench: stage sums (s):");
    for (const auto& row : report.stages()) {
      std::fprintf(stderr, " %s=%.4f", row.name.c_str(), row.seconds);
    }
    std::fprintf(stderr, "\n");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  PrintMetrics(options.trace ? report.layer() : report.end_to_end());
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace provbench

int main(int argc, char** argv) { return provbench::Main(argc, argv); }
