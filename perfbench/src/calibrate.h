// Host-speed reference: a fixed piece of work that uses none of the
// program's code, timed three times in every trial. A shared host runs
// everything slower at some times than at others (busy neighbours take
// caches, memory bandwidth and turbo headroom); the reference slows down
// with it, so run.py can tell a slower host from a slower program. See
// perfbench/README.md.
#ifndef PERFBENCH_SRC_CALIBRATE_H_
#define PERFBENCH_SRC_CALIBRATE_H_

#include <string>

namespace clio::perfbench {

struct HostSpeed {
  // Median wall time of one loopback request: a client thread sends 64 B
  // over TCP, a loop thread receives it and hands it to a worker thread,
  // which replies. Three thread wake-ups, like one wire request.
  double rtt_us = 0;
  // Median CPU time of one compute round: hashing and copying 256 KiB on
  // one thread.
  double cpu_us = 0;
  int rounds = 0;

  std::string ToJson() const;
};

// Runs the reference for roughly `budget_ms` milliseconds.
HostSpeed MeasureHostSpeed(int budget_ms);

}  // namespace clio::perfbench

#endif  // PERFBENCH_SRC_CALIBRATE_H_
