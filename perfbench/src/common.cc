#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace clio::perfbench {

uint64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: after exec, ru_maxrss never reads
  // below the resident set of the process that started this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  // Linux: writing 5 to clear_refs resets the peak resident set to the
  // current one. Where that is not allowed, the peak simply stays.
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// -- Payloads. --

namespace {

uint64_t SplitMix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t PayloadKey(const PayloadSpec& spec, uint32_t file, uint32_t seq) {
  return Mix(spec.seed, (static_cast<uint64_t>(file) << 32) | seq);
}

void PutU32(std::byte* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

uint32_t GetU32(const std::byte* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) { return SplitMix(a ^ SplitMix(b)); }

size_t PayloadSize(const PayloadSpec& spec, uint32_t file, uint32_t seq) {
  const uint64_t r = SplitMix(PayloadKey(spec, file, seq));
  if (spec.log_uniform) {
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    const double ratio = static_cast<double>(spec.max_bytes) / spec.min_bytes;
    const double size = spec.min_bytes * std::pow(ratio, u);
    return std::clamp<size_t>(static_cast<size_t>(size), spec.min_bytes,
                              spec.max_bytes);
  }
  return spec.min_bytes + r % (spec.max_bytes - spec.min_bytes + 1);
}

Bytes MakePayload(const PayloadSpec& spec, uint32_t file, uint32_t seq) {
  Bytes out(std::max<size_t>(PayloadSize(spec, file, seq), 8));
  PutU32(out.data(), file);
  PutU32(out.data() + 4, seq);
  Rng rng(Mix(PayloadKey(spec, file, seq), 0xD1B54A32D192ED03ULL));
  size_t i = 8;
  for (; i + 8 <= out.size(); i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
  return out;
}

bool PayloadId(std::span<const std::byte> payload, uint32_t* file,
               uint32_t* seq) {
  if (payload.size() < 8) {
    return false;
  }
  *file = GetU32(payload.data());
  *seq = GetU32(payload.data() + 4);
  return true;
}

bool PayloadMatches(const PayloadSpec& spec, uint32_t file, uint32_t seq,
                    std::span<const std::byte> payload) {
  const Bytes expected = MakePayload(spec, file, seq);
  return payload.size() == expected.size() &&
         std::equal(payload.begin(), payload.end(), expected.begin());
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

// -- Spans. --

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span_id{1};

struct SpanBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

SpanBuffers& Buffers() {
  static SpanBuffers* buffers = new SpanBuffers();
  return *buffers;
}

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_replay_trace = 0;

std::vector<Span>* ThreadBuffer() {
  if (t_buffer == nullptr) {
    SpanBuffers& all = Buffers();
    std::lock_guard<std::mutex> lock(all.mu);
    all.buffers.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = all.buffers.back().get();
    t_buffer->reserve(4096);
  }
  return t_buffer;
}

uint64_t DeviceTrace() {
  const uint64_t wire = CurrentTraceId();
  return wire != 0 ? wire : t_replay_trace;
}

}  // namespace

void Tracer::SetEnabled(bool on) { g_tracing.store(on); }
bool Tracer::enabled() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  SpanBuffers& all = Buffers();
  std::lock_guard<std::mutex> lock(all.mu);
  std::vector<Span> out;
  for (const auto& buffer : all.buffers) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

void Tracer::Clear() {
  SpanBuffers& all = Buffers();
  std::lock_guard<std::mutex> lock(all.mu);
  for (auto& buffer : all.buffers) {
    buffer->clear();
  }
}

void Tracer::SetThreadTrace(uint64_t trace) { t_replay_trace = trace; }

ScopedSpan::ScopedSpan(const char* name, uint64_t trace, int64_t op) {
  if (!Tracer::enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.trace = trace;
  span_.op = op;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_span;
  span_.replay = t_replay_trace != 0;
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  t_open_span = saved_parent_;
  ThreadBuffer()->push_back(span_);
}

// -- TimingDevice. --

Status TimingDevice::ReadBlock(uint64_t index, std::span<std::byte> out) {
  ScopedSpan span("device.read", Tracer::enabled() ? DeviceTrace() : 0);
  span.set_arg(1);
  return base_->ReadBlock(index, out);
}

Result<uint64_t> TimingDevice::ReadBlocks(uint64_t first, uint64_t count,
                                          std::span<std::byte> out) {
  ScopedSpan span("device.read_pass", Tracer::enabled() ? DeviceTrace() : 0);
  Result<uint64_t> read = base_->ReadBlocks(first, count, out);
  if (read.ok()) {
    span.set_arg(*read);
  }
  return read;
}

Result<uint64_t> TimingDevice::AppendBlock(std::span<const std::byte> data) {
  ScopedSpan span("device.burn", Tracer::enabled() ? DeviceTrace() : 0);
  return base_->AppendBlock(data);
}

// -- Fingerprint. --

Fingerprint MachineFingerprint() {
  Fingerprint f;
  cpu_set_t set;
  CPU_ZERO(&set);
  f.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && f.cpu_model.empty()) {
      f.cpu_model = value;
    } else if (key == "flags") {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        f.sha_ni |= flag == "sha_ni";
        f.sse4_2 |= flag == "sse4_2";
      }
      break;  // one CPU's flags are enough
    }
  }
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  f.optimized = true;
#endif
#if !defined(NDEBUG)
  f.asserts = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
  f.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  f.sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  f.sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  f.sanitizer = "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  f.sanitizer = "undefined";
#endif
#endif
  if (f.sanitizer.empty() &&
      std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
          std::string_view::npos) {
    f.sanitizer = "flags";
  }
  return f;
}

bool Fingerprint::Measurable(std::string* why_not) const {
  if (build_type == "Debug" || !optimized) {
    *why_not = "unoptimized build (" + build_type + ")";
    return false;
  }
  if (asserts) {
    *why_not = "assertions enabled (NDEBUG not defined)";
    return false;
  }
  if (!sanitizer.empty()) {
    *why_not = "sanitized build (" + sanitizer + ")";
    return false;
  }
  return true;
}

std::string Fingerprint::ToJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": " << JsonString(cpu_model)
      << ", \"sha_ni\": " << (sha_ni ? "true" : "false")
      << ", \"sse4_2\": " << (sse4_2 ? "true" : "false")
      << ", \"compiler\": " << JsonString(compiler)
      << ", \"build_type\": " << JsonString(build_type)
      << ", \"optimized\": " << (optimized ? "true" : "false")
      << ", \"asserts\": " << (asserts ? "true" : "false")
      << ", \"sanitizer\": " << JsonString(sanitizer.empty() ? "none" : sanitizer)
      << "}";
  return out.str();
}

// -- JSON. --

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string RegistryDeltaJson(const StatsSnapshot& before,
                              const StatsSnapshot& after) {
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : after.counters) {
    const uint64_t delta = value - before.counter(name);
    if (delta == 0) {
      continue;
    }
    out << (first ? "" : ", ") << JsonString(name) << ": " << delta;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : after.gauges) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << value;
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : after.histograms) {
    const HistogramSnapshot base =
        before.histogram(name).value_or(HistogramSnapshot{});
    if (hist.count == base.count) {
      continue;
    }
    out << (first ? "" : ", ") << JsonString(name)
        << ": {\"count\": " << hist.count - base.count
        << ", \"sum\": " << hist.sum - base.sum << ", \"max\": " << hist.max
        << ", \"buckets\": [";
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      out << (i == 0 ? "" : ", ") << hist.buckets[i] - base.buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace clio::perfbench
