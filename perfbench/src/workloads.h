// One trial of a benchmark workload: set-up, the measured phase against a
// NetLogServer over loopback, answer checks, and (traced trials) the
// per-layer ledger inputs. See perfbench/README.md for the workloads.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/clio/log_service.h"
#include "src/clio/volume.h"
#include "src/obs/metrics.h"

namespace clio::perfbench {

struct TrialConfig {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_path;  // traced trials write their ledger inputs here
};

// Counts every client op and answer check, and every one that failed, was
// refused or answered wrongly.
class Checker {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  // Attempt + Fail-unless-ok in one call; returns `ok`.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> errors() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;  // the first few failures, for the log
};

// What the traced trial hands the ledger (ledger.cc) besides its spans.
struct LedgerInput {
  std::string workload;
  uint64_t seed = 0;
  double phase_s = 0;
  uint64_t phase_ops = 0;
  uint64_t phase_start_ns = 0;
  uint64_t phase_end_ns = 0;
  StatsSnapshot trial_start, phase_start, phase_end;
  SpaceAccounting space;
  uint64_t user_bytes = 0;
  bool recovered = false;
  double recover_ms = 0;
  RecoveryReport recovery;
  int64_t pinned_max = 0;
  std::vector<double> lateness_us;
  // In-process replay results (reader side).
  uint64_t replay_locates = 0;
  OpStats replay_locate_stats;
  // Micro timings of single public functions on this run's data.
  std::map<std::string, double> micro;
};

struct TrialResult {
  std::map<std::string, double> metrics;    // end-to-end, by name
  std::map<std::string, uint64_t> samples;  // sample count per metric
  double phase_s = 0;
  uint64_t ops = 0;
};

// Runs one trial and prints its record. Returns the process exit code.
int RunTrial(const TrialConfig& config);

}  // namespace clio::perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
