// In-memory span tracer for the benchmark's traced run.
//
// A Span wraps one call the benchmark makes into a layer of the program
// (names are "<layer>.<call>", the layer being the module the call
// enters). Each span records start, end, its parent span on the same
// thread, and a request id shared by every span under one root span.
// Spans stay in memory and are written out once, when the run ends.
//
// With tracing off (the untraced run that gives the end-to-end numbers) a
// Span reads one flag and does nothing else.
//
// Thread safety: Span is used from any thread (the span stack is
// thread-local); finished spans go to one mutex-guarded list.

#ifndef PROVBENCH_TRACE_H_
#define PROVBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace provbench {

struct SpanRecord {
  std::string name;
  double start_s = 0;  // seconds since the tracer was enabled
  double end_s = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span
  uint64_t request = 0;
  double duration_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  static Tracer& Get();
  void Enable();
  bool enabled() const { return enabled_; }

  /// Finished spans, in completion order.
  std::vector<SpanRecord> Spans() const;
  /// Durations in milliseconds of every finished span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Summed duration in seconds of every finished span named `name`.
  double TotalSeconds(const std::string& name) const;

  /// Self time per layer: each span's duration minus the time its child
  /// spans cover, summed by the layer prefix of the span name.
  std::map<std::string, double> SelfSecondsByLayer() const;

  uint64_t NextId();
  void Finish(SpanRecord record);
  BenchClock::time_point origin() const { return origin_; }

 private:
  bool enabled_ = false;
  BenchClock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// One row of a workload's registry-derived stage table.
struct StageRow {
  std::string name;
  double seconds = 0;
};

/// Write spans, per-layer self time, the stage table and the traced run's
/// end-to-end figures as one JSON document to `path`.
bool WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<StageRow>& stages,
                const std::map<std::string, double>& end_to_end);

}  // namespace provbench

#endif  // PROVBENCH_TRACE_H_
