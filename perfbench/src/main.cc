// clio_perfbench: one trial of a repository-benchmark workload.
//
//   clio_perfbench --workload commit|ingest|history --seed N
//                  [--trace 0|1] [--trace-out FILE]
//   clio_perfbench --selfcheck
//
// Prints a FINGERPRINT line, then one "TRIAL {json}" line with the trial's
// end-to-end metrics, sample counts and answer-check tallies. perfbench/run.py
// runs trials repeatedly and aggregates them; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: clio_perfbench --workload NAME --seed N [--trace 0|1] "
               "[--trace-out FILE]\n       clio_perfbench --selfcheck\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clio::perfbench;
  TrialConfig config;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--workload" && value != nullptr) {
      config.workload = value;
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      config.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--trace" && value != nullptr) {
      config.trace = std::strcmp(value, "0") != 0;
      ++i;
    } else if (arg == "--trace-out" && value != nullptr) {
      config.trace_path = value;
      ++i;
    } else {
      return Usage();
    }
  }

  const Fingerprint fingerprint = MachineFingerprint();
  std::printf("FINGERPRINT %s\n", fingerprint.ToJson().c_str());
  std::string why_not;
  if (!fingerprint.Measurable(&why_not)) {
    std::fprintf(stderr, "refusing to measure: %s\n", why_not.c_str());
    return 3;
  }
  if (selfcheck) {
    std::string detail;
    const bool ok = DeviceSelfCheck(&detail);
    std::printf("SELFCHECK %s %s\n", ok ? "ok" : "FAILED", detail.c_str());
    return ok ? 0 : 1;
  }
  if (config.workload.empty()) {
    return Usage();
  }
  return RunTrial(config);
}
