// Shared pieces of the repository benchmark: seeded payloads, sample
// statistics, process accounting, the in-memory span recorder, the
// timing-only device decorator, the build/machine fingerprint, and the
// small JSON writer the trial records use.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/device/block_device.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"

namespace clio::perfbench {

// -- Clocks and process accounting. --

// Steady-clock nanoseconds since the first call in this process.
uint64_t NowNs();
// User + system CPU of the whole process, in seconds.
double ProcessCpuSeconds();
// Peak resident set of the process, in MB (VmHWM).
double PeakRssMb();
// Starts PeakRssMb afresh from the current resident set, where the kernel
// allows it.
void ResetPeakRss();

// -- Seeded payloads. --
//
// Every payload is a pure function of (seed, file, seq): its first 8 bytes
// carry file and seq (little endian), its size and remaining bytes are
// drawn from a generator keyed by all three. Any entry read back can be
// checked byte for byte without keeping a copy of what was written.
struct PayloadSpec {
  uint64_t seed = 0;
  uint32_t min_bytes = 16;
  uint32_t max_bytes = 256;
  bool log_uniform = false;  // sizes log-uniform instead of uniform
};

uint64_t Mix(uint64_t a, uint64_t b);
size_t PayloadSize(const PayloadSpec& spec, uint32_t file, uint32_t seq);
Bytes MakePayload(const PayloadSpec& spec, uint32_t file, uint32_t seq);
// Reads the (file, seq) stamp of a payload; false when it is too short.
bool PayloadId(std::span<const std::byte> payload, uint32_t* file,
               uint32_t* seq);
// True iff `payload` is exactly MakePayload(spec, file, seq).
bool PayloadMatches(const PayloadSpec& spec, uint32_t file, uint32_t seq,
                    std::span<const std::byte> payload);

// -- Sample statistics. --

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// -- Spans. --
//
// The benchmark's own trace: one record per call into a layer, kept in
// per-thread buffers while a traced trial runs and written out when it
// ends. `parent` is the span open on the same thread when this one began
// (0 for none); `trace` is the request it belongs to: the wire trace id
// for client and server-side spans, the replay op number for in-process
// replay spans, 0 for work no request owns (batch forces, scrub reads).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  int64_t op = -1;   // generated-op index, -1 when not tied to one
  uint64_t arg = 0;  // span-specific count (blocks in a read pass, ...)
  bool replay = false;  // recorded by the in-process replay
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  // Every span recorded so far, from every thread, in no particular order.
  // Call only when no traced work is running.
  static std::vector<Span> Collect();
  static void Clear();
  // Marks this thread as running the in-process replay (trace != 0): its
  // spans are flagged `replay`, and spans with no trace of their own (the
  // program's clio::CurrentTraceId is empty) are stamped with `trace`.
  static void SetThreadTrace(uint64_t trace);
};

// Records one span around its scope when tracing is enabled; a no-op
// otherwise. Nested ScopedSpans on one thread become parent and child.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t trace = 0, int64_t op = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_trace(uint64_t trace) { span_.trace = trace; }
  void set_arg(uint64_t arg) { span_.arg = arg; }

 private:
  bool active_ = false;
  uint64_t saved_parent_ = 0;
  Span span_;
};

// -- Timing-only device decorator. --
//
// Forwards every WormDevice virtual to `base` unchanged, ReadBlocks and
// BlockState included, and adds no latency. With tracing enabled it
// records device.burn / device.read / device.read_pass spans whose trace is
// the calling thread's clio::CurrentTraceId() (falling back to the
// replay op), so burns and reads attribute to the request that caused
// them. The base is shared so a test can keep the media across a
// crash-stop and hand it to LogService::Recover again.
class TimingDevice : public WormDevice {
 public:
  explicit TimingDevice(std::shared_ptr<WormDevice> base)
      : base_(std::move(base)) {}

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t capacity_blocks() const override {
    return base_->capacity_blocks();
  }
  Status ReadBlock(uint64_t index, std::span<std::byte> out) override;
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override;
  Result<uint64_t> AppendBlock(std::span<const std::byte> data) override;
  Status InvalidateBlock(uint64_t index) override {
    return base_->InvalidateBlock(index);
  }
  Result<uint64_t> QueryEnd() override { return base_->QueryEnd(); }
  WormBlockState BlockState(uint64_t index) const override {
    return base_->BlockState(index);
  }
  const DeviceStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  std::shared_ptr<WormDevice> base_;
};

// -- Build and machine fingerprint. --
struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  bool sha_ni = false;
  bool sse4_2 = false;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  bool asserts = false;  // NDEBUG not defined
  std::string sanitizer;  // "" when none

  // Numbers from a Debug, unoptimized, assert-enabled or sanitized build
  // are refused.
  bool Measurable(std::string* why_not) const;
  std::string ToJson() const;
};
Fingerprint MachineFingerprint();

// -- JSON helpers. --
std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

// Registry delta between two snapshots, as JSON: counters and histogram
// buckets subtracted, gauges taken from `after`.
std::string RegistryDeltaJson(const StatsSnapshot& before,
                              const StatsSnapshot& after);

}  // namespace clio::perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
