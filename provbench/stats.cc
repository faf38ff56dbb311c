#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace provbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

RoundPin::RoundPin(size_t round) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int want = static_cast<int>(round % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

RoundPin::~RoundPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace provbench
