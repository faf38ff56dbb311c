// What every workload shares: the run options, and the Report a workload
// fills with metrics, operation counts and correctness-check outcomes.

#ifndef PROVBENCH_BENCH_H_
#define PROVBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"

namespace provbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory this run owns (created empty, removed at exit).
  std::string data_dir;
  /// Taken at the top of main(): set-up time runs from here.
  BenchClock::time_point process_start;
};

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// One end-to-end metric (printed by the untraced run).
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end_[name] = Metric{value, unit};
  }
  /// One per-layer metric (printed by the traced run).
  void Layer(const std::string& name, double value, const char* unit) {
    layer_[name] = Metric{value, unit};
  }
  /// A registry-derived stage sum for the traced run's stage table.
  void Stage(const std::string& name, double seconds) {
    stages_.push_back(StageRow{name, seconds});
  }

  void Attempted(uint64_t n = 1) { attempted_ += n; }
  /// Count a failed operation; the operation is still attempted.
  void Failed(const std::string& what);
  /// Record a correctness check; a failed check makes the run incorrect.
  bool Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& end_to_end() const {
    return end_to_end_;
  }
  const std::map<std::string, Metric>& layer() const { return layer_; }
  const std::vector<StageRow>& stages() const { return stages_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  std::vector<StageRow> stages_;
};

/// Summed seconds of a registry histogram cell (the program's own stage
/// timers, read from the private registry the benchmark injected).
inline double HistogramSum(provledger::obs::Registry* registry,
                           const char* name,
                           const provledger::obs::Labels& labels = {}) {
  return registry
      ->GetHistogram(name, "", provledger::obs::LatencyBuckets(), labels)
      ->sum();
}

inline uint64_t CounterValue(provledger::obs::Registry* registry,
                             const char* name,
                             const provledger::obs::Labels& labels = {}) {
  return registry->GetCounter(name, "", labels)->value();
}

/// The three workloads. Each runs to its end, fills `report`, and returns
/// false only when it could not run at all (the run then prints nothing).
bool RunIotAnchor(const RunOptions& options, Report* report);
bool RunCollabPipeline(const RunOptions& options, Report* report);
bool RunClusterLineage(const RunOptions& options, Report* report);

}  // namespace provbench

#endif  // PROVBENCH_BENCH_H_
