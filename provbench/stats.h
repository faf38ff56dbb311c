// Small statistics and measurement helpers shared by the workloads.

#ifndef PROVBENCH_STATS_H_
#define PROVBENCH_STATS_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace provbench {

using BenchClock = std::chrono::steady_clock;

inline double SecondsSince(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

inline double MillisSince(BenchClock::time_point t0) {
  return SecondsSince(t0) * 1e3;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// The run's best round: the lowest per-round value of a lower-is-better
/// figure, the highest of a higher-is-better one. Other work on a shared
/// host only ever slows a round down, so the best of a run's repeated
/// rounds is the one that other work disturbed least.
inline double BestRound(const std::vector<double>& per_round,
                        bool higher_is_better) {
  if (per_round.empty()) return 0;
  return higher_is_better
             ? *std::max_element(per_round.begin(), per_round.end())
             : *std::min_element(per_round.begin(), per_round.end());
}

/// Pins the calling thread to one CPU of its allowed set for its
/// lifetime: the round-th one, wrapping around, so that successive rounds
/// run on different CPUs and one CPU slowed by other work on the host
/// cannot slow every round of a run. The destructor restores the set.
class RoundPin {
 public:
  explicit RoundPin(size_t round);
  ~RoundPin();
  RoundPin(const RoundPin&) = delete;
  RoundPin& operator=(const RoundPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();
}  // namespace provbench

#endif  // PROVBENCH_STATS_H_
