#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include "perfbench/src/calibrate.h"
#include "perfbench/src/ledger.h"
#include "src/clio/verify.h"
#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/util/rng.h"

namespace clio::perfbench {

void Checker::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < 16) {
    errors_.push_back(what);
  }
}

bool Checker::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) {
    Fail(what);
  }
  return ok;
}

std::vector<std::string> Checker::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

namespace {

// -- Workload sizes. Fixed work per trial, so bytes stored and memory
// compare across commits. Every trial has at least 1000 samples of each
// latency, so each trial's p99 has at least 10 samples beyond it. --
constexpr int kCommitClients = 4;
constexpr uint32_t kCommitAppendsPerClient = 500;
constexpr int kIngestClients = 2;
constexpr uint64_t kIngestBytesPerClient = 16ull << 20;
constexpr uint64_t kIngestForceEveryBytes = 1ull << 20;
constexpr uint64_t kIngestVolumeBlocks = 16384;  // 16 MiB volumes: rolls twice
constexpr uint32_t kHistoryFiles = 64;
// History's measured phase is the writer's 4 s schedule: 1000 forced appends
// at 250/s, open loop. Readers 0 and 1 locate and reader 2 tail-scans, each
// closed loop with a think time after every op, until the writer is done.
// Without think time the readers keep the service lock shared almost all the
// time and the writer starves (see README.md).
constexpr int kHistoryReaders = 3;
constexpr uint32_t kHistoryReaderOps = 20000;  // bound on ops generated
constexpr uint64_t kHistoryLocateThinkUs = 1000;
constexpr uint64_t kHistoryScanThinkUs = 20000;
constexpr uint32_t kHistoryScanEntries = 256;
constexpr uint32_t kHistoryWriterAppends = 1000;
constexpr uint64_t kHistoryWriterPeriodNs = 4'000'000;
constexpr uint32_t kVerifyLocates = 1000;
constexpr uint32_t kReadBatch = 256;  // read-back batches
// Tail scans fetch their 256 entries in BatchedReader's default batch size,
// so one scan does not hold the service lock for all 256 at once.
constexpr uint32_t kScanBatch = 32;
// How long each timing of the host-speed reference runs (calibrate.h).
constexpr int kHostSpeedMs = 200;

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::string FilePath(const char* prefix, uint32_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%s%02u", prefix, i);
  return buf;
}

// Runs `call` as one wire request inside a client.call span carrying the
// request's trace id.
template <typename F>
auto WireCall(NetLogClient* client, F&& call) {
  ScopedSpan span("client.call");
  auto result = call();
  span.set_trace(client->last_trace_id());
  return result;
}

// Measured-phase bookkeeping: wall time, process CPU and registry
// snapshots at both ends.
struct Phase {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double cpu_start = 0;
  double cpu_end = 0;
  StatsSnapshot at_start;
  StatsSnapshot at_end;

  void Begin() {
    at_start = ObsRegistry().Snapshot();
    cpu_start = ProcessCpuSeconds();
    start_ns = NowNs();
  }
  void End() {
    end_ns = NowNs();
    cpu_end = ProcessCpuSeconds();
    at_end = ObsRegistry().Snapshot();
  }
  double seconds() const { return Seconds(end_ns - start_ns); }
  double cpu_us() const { return (cpu_end - cpu_start) * 1e6; }
};

// Polls the cache's pinned-block gauge while a traced phase runs.
class PinnedSampler {
 public:
  explicit PinnedSampler(bool on) {
    if (on) {
      thread_ = std::thread([this] { Run(); });
    }
  }
  ~PinnedSampler() { Stop(); }
  PinnedSampler(const PinnedSampler&) = delete;
  PinnedSampler& operator=(const PinnedSampler&) = delete;

  int64_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
    return max_;
  }

 private:
  void Run() {
    Gauge* pinned = ObsRegistry().gauge("clio.cache.pinned_blocks");
    while (!stop_.load()) {
      max_ = std::max(max_, pinned->value());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::atomic<bool> stop_{false};
  int64_t max_ = 0;
  std::thread thread_;
};

// The server, its clients, and everything they run on.
struct Wire {
  std::unique_ptr<NetLogServer> server;
  std::vector<std::unique_ptr<NetLogClient>> clients;

  Status Start(LogService* service, const NetLogServerOptions& options,
               int client_count) {
    CLIO_ASSIGN_OR_RETURN(server, NetLogServer::Start(service, options));
    for (int i = 0; i < client_count; ++i) {
      CLIO_ASSIGN_OR_RETURN(auto client, NetLogClient::Connect(server->port()));
      clients.push_back(std::move(client));
    }
    return Status::Ok();
  }

  void Stop() {
    for (auto& client : clients) {
      client->Disconnect();
    }
    clients.clear();
    if (server != nullptr) {
      server->Stop();
      server.reset();
    }
  }
};

std::shared_ptr<MemoryWormDevice> NewMedia(uint64_t capacity_blocks) {
  MemoryWormOptions options;
  options.capacity_blocks = capacity_blocks;
  return std::make_shared<MemoryWormDevice>(options);
}

// Every volume of the sequence must verify clean: hash chain intact,
// entrymap bits exact, and the extent index identical to the entrymap walk.
void VerifyAllVolumes(LogService* service, Checker* checker) {
  for (size_t i = 0; i < service->volume_count(); ++i) {
    auto volume = service->VolumeForRead(i);
    if (!checker->Check(volume.ok(), "volume " + std::to_string(i) +
                                         " not readable")) {
      continue;
    }
    Status index = (*volume)->EnsureExtentIndex();
    auto report = VerifyVolume(*volume);
    std::string what = "VerifyVolume(" + std::to_string(i) + ")";
    if (!report.ok()) {
      what += ": " + report.status().ToString();
    } else if (!report->clean()) {
      what += " not clean";
    } else if (!report->index_checked) {
      what += ": extent index not cross-checked (" + index.ToString() + ")";
    }
    checker->Check(report.ok() && report->clean() && report->index_checked,
                   what);
  }
}

// Reads each log file back over the wire with batched reads and checks it
// holds exactly its acknowledged appends, once each, in order, byte for
// byte. Returns the number of entries read; `read_ns` gets the time spent
// in the reads themselves, checks excluded.
uint64_t WireReadBack(NetLogClient* client, const PayloadSpec& spec,
                      const std::vector<std::string>& paths,
                      const std::vector<std::vector<Timestamp>>& acked,
                      uint64_t* read_ns, Checker* checker) {
  uint64_t entries = 0;
  *read_ns = 0;
  for (uint32_t f = 0; f < paths.size(); ++f) {
    std::vector<RemoteEntry> got;
    bool exact = true;
    const uint64_t start = NowNs();
    auto handle = WireCall(client, [&] { return client->OpenReader(paths[f]); });
    while (handle.ok()) {
      auto batch = WireCall(
          client, [&] { return client->ReadNextBatch(*handle, kReadBatch); });
      if (!batch.ok()) {
        exact = false;
        break;
      }
      for (RemoteEntry& e : batch->entries) {
        got.push_back(std::move(e));
      }
      if (batch->at_end || batch->entries.empty()) {
        break;
      }
    }
    *read_ns += NowNs() - start;
    if (!checker->Check(handle.ok(), "read-back open " + paths[f])) {
      continue;
    }
    (void)client->CloseReader(*handle);
    entries += got.size();
    for (uint32_t k = 0; exact && k < got.size(); ++k) {
      uint32_t file = 0, seq = 0;
      exact = PayloadId(got[k].payload, &file, &seq) && file == f &&
              seq == k && k < acked[f].size() &&
              got[k].timestamp == acked[f][k] &&
              PayloadMatches(spec, file, seq, got[k].payload);
    }
    checker->Check(exact && got.size() == acked[f].size(),
                   "read-back of " + paths[f] + " is not its acked appends");
  }
  return entries;
}

// One locate over the wire: OpenReader + SeekToTime + ReadPrev. `expected`
// is the (seq, timestamp) ReadPrev must return, nullopt for "no entry".
// Returns the client-observed latency in microseconds.
double WireLocate(NetLogClient* client, const PayloadSpec& spec,
                  const std::string& path, uint32_t file, Timestamp target,
                  std::optional<std::pair<uint32_t, Timestamp>> expected,
                  int64_t op, Checker* checker) {
  const uint64_t retries = client->retries();
  uint64_t start = 0, end = 0;
  Result<uint64_t> handle = Unavailable("not opened");
  Status seek;
  Result<std::optional<RemoteEntry>> prev = std::optional<RemoteEntry>();
  {
    ScopedSpan span("client.locate", 0, op);
    start = NowNs();
    handle = WireCall(client, [&] { return client->OpenReader(path); });
    if (handle.ok()) {
      seek = WireCall(client,
                      [&] { return client->SeekToTime(*handle, target); });
      if (seek.ok()) {
        prev = WireCall(client, [&] { return client->ReadPrev(*handle); });
      }
    }
    end = NowNs();
  }
  bool ok = handle.ok() && seek.ok() && prev.ok();
  if (ok && expected.has_value()) {
    uint32_t got_file = 0, got_seq = 0;
    const std::optional<RemoteEntry>& e = *prev;
    ok = e.has_value() && PayloadId(e->payload, &got_file, &got_seq) &&
         got_file == file && got_seq == expected->first &&
         e->timestamp == expected->second &&
         PayloadMatches(spec, file, got_seq, e->payload);
  } else if (ok) {
    ok = !prev->has_value();
  }
  if (handle.ok()) {
    (void)client->CloseReader(*handle);
  }
  checker->Check(ok && client->retries() == retries,
                 "locate " + path + " @" + std::to_string(target));
  return Micros(end - start);
}

// Open-loop pacing: sleeps until op k of a schedule starting at `start_ns`
// with `period_ns` between ops is due, and returns its due time. Lateness
// (how far behind schedule the op is actually sent) goes to `lateness_us`.
uint64_t WaitUntilDue(uint64_t start_ns, uint64_t period_ns, size_t k,
                      std::vector<double>* lateness_us) {
  const uint64_t due = start_ns + k * period_ns;
  uint64_t now = NowNs();
  if (now < due) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    now = NowNs();
  }
  lateness_us->push_back(Micros(now - due));
  return due;
}

// Picks `count` acknowledged (file, seq) pairs and locates each by its
// exact timestamp over the wire.
std::vector<double> WireLocateSample(NetLogClient* client,
                                     const PayloadSpec& spec,
                                     const std::vector<std::string>& paths,
                                     const std::vector<std::vector<Timestamp>>& acked,
                                     uint64_t seed, std::vector<ReadOp>* ops,
                                     Checker* checker) {
  Rng rng(Mix(seed, 0x10CA7E));
  std::vector<double> latencies;
  for (uint32_t i = 0; i < kVerifyLocates; ++i) {
    const uint32_t file = static_cast<uint32_t>(rng.Below(paths.size()));
    if (acked[file].empty()) {
      continue;
    }
    const uint32_t seq = static_cast<uint32_t>(rng.Below(acked[file].size()));
    const Timestamp t = acked[file][seq];
    const int64_t op = 5'000'000 + i;
    latencies.push_back(WireLocate(client, spec, paths[file], file, t,
                                   std::make_pair(seq, t), op, checker));
    ops->push_back(ReadOp{file, t, 0, op});
  }
  return latencies;
}

void PutLatency(TrialResult* out, const std::string& prefix,
                const std::vector<double>& samples) {
  out->metrics[prefix + "_p50_us"] = Percentile(samples, 0.50);
  out->metrics[prefix + "_p99_us"] = Percentile(samples, 0.99);
  out->samples[prefix + "_p50_us"] = samples.size();
  out->samples[prefix + "_p99_us"] = samples.size();
}

void PutPhase(TrialResult* out, const Phase& phase, uint64_t ops) {
  out->phase_s = phase.seconds();
  out->ops = ops;
  out->metrics["cpu_us_per_op"] = ops == 0 ? 0 : phase.cpu_us() / ops;
  out->samples["cpu_us_per_op"] = ops;
}

// State every workload's trial shares.
struct Trial {
  const TrialConfig& config;
  Checker checker;
  TrialResult result;
  LedgerInput ledger;
  uint64_t trial_start_ns = 0;
  // The host-speed reference, timed before set-up, between set-up and the
  // measured phase, and after the checks (calibrate.h).
  std::vector<HostSpeed> host;

  explicit Trial(const TrialConfig& c) : config(c) {
    ledger.workload = c.workload;
    ledger.seed = c.seed;
    ledger.trial_start = ObsRegistry().Snapshot();
    trial_start_ns = NowNs();
  }

  // Ends the timed set-up and times the host just before the measured
  // phase. A traced trial records spans from here on: the measured phase,
  // the checks and the replay.
  void EndSetup() {
    result.metrics["setup_s"] = Seconds(NowNs() - trial_start_ns);
    result.samples["setup_s"] = 1;
    host.push_back(MeasureHostSpeed(kHostSpeedMs));
    Tracer::SetEnabled(config.trace);
  }

  void RecordPhase(const Phase& phase, uint64_t ops, int64_t pinned_max) {
    PutPhase(&result, phase, ops);
    ledger.phase_s = phase.seconds();
    ledger.phase_ops = ops;
    ledger.phase_start_ns = phase.start_ns;
    ledger.phase_end_ns = phase.end_ns;
    ledger.phase_start = phase.at_start;
    ledger.phase_end = phase.at_end;
    ledger.pinned_max = pinned_max;
  }

  // `earlier` is what a previous incarnation of the service burned (a
  // recovered service accounts only for its own writes).
  void RecordSpace(LogService* service, uint64_t user_bytes,
                   const SpaceAccounting& earlier = {}) {
    SpaceAccounting& s = ledger.space;
    s = service->TotalSpace();
    s.client_payload_bytes += earlier.client_payload_bytes;
    s.client_header_bytes += earlier.client_header_bytes;
    s.entrymap_bytes += earlier.entrymap_bytes;
    s.catalog_bytes += earlier.catalog_bytes;
    s.badblock_bytes += earlier.badblock_bytes;
    s.padding_bytes += earlier.padding_bytes;
    s.footer_bytes += earlier.footer_bytes;
    s.blocks_burned += earlier.blocks_burned;
    s.forced_partial_burns += earlier.forced_partial_burns;
    s.invalidated_blocks += earlier.invalidated_blocks;
    ledger.user_bytes = user_bytes;
    result.metrics["media_bytes_per_user_byte"] =
        user_bytes == 0 ? 0
                        : static_cast<double>(ledger.space.TotalBurned()) /
                              static_cast<double>(user_bytes);
    result.samples["media_bytes_per_user_byte"] = 1;
  }
};

// -- commit: forced, timestamped small appends, one log file per client. --

Status RunCommit(Trial* trial) {
  const uint64_t seed = trial->config.seed;
  const PayloadSpec spec{Mix(seed, 1), 16, 256, false};
  RealTimeSource clock;
  std::vector<std::shared_ptr<MemoryWormDevice>> media = {NewMedia(1 << 20)};
  LogServiceOptions options;
  options.sequence_id = Mix(seed, 2) | 1;
  CLIO_ASSIGN_OR_RETURN(
      auto service,
      LogService::Create(std::make_unique<TimingDevice>(media[0]), &clock,
                         options));
  Wire wire;
  CLIO_RETURN_IF_ERROR(wire.Start(service.get(), {}, kCommitClients));
  std::vector<std::string> paths;
  for (uint32_t i = 0; i < kCommitClients; ++i) {
    paths.push_back(FilePath("commit", i));
    CLIO_RETURN_IF_ERROR(wire.clients[0]->CreateLogFile(paths.back()).status());
  }
  std::vector<Bytes> payloads[kCommitClients];
  for (uint32_t i = 0; i < kCommitClients; ++i) {
    for (uint32_t j = 0; j < kCommitAppendsPerClient; ++j) {
      payloads[i].push_back(MakePayload(spec, i, j));
    }
  }
  trial->EndSetup();

  std::vector<std::vector<Timestamp>> acked(kCommitClients);
  std::vector<std::vector<double>> latency(kCommitClients);
  std::vector<uint64_t> bytes(kCommitClients, 0);
  PinnedSampler pinned(trial->config.trace);
  Phase phase;
  phase.Begin();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kCommitClients; ++i) {
    threads.emplace_back([&, i] {
      NetLogClient* client = wire.clients[i].get();
      for (uint32_t j = 0; j < kCommitAppendsPerClient; ++j) {
        const uint64_t retries = client->retries();
        ScopedSpan span("client.append", 0, i * kCommitAppendsPerClient + j);
        const uint64_t start = NowNs();
        auto ts = client->Append(paths[i], payloads[i][j], /*timestamped=*/true,
                                 /*force=*/true);
        latency[i].push_back(Micros(NowNs() - start));
        span.set_trace(client->last_trace_id());
        if (trial->checker.Check(ts.ok() && client->retries() == retries,
                                 "forced append " + paths[i])) {
          acked[i].push_back(*ts);
          bytes[i] += payloads[i][j].size();
        } else {
          return;  // later seqs would no longer match the log
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.End();
  const uint64_t ops = kCommitClients * kCommitAppendsPerClient;
  trial->RecordPhase(phase, ops, pinned.Stop());

  std::vector<double> all;
  uint64_t acked_count = 0, user_bytes = 0;
  for (uint32_t i = 0; i < kCommitClients; ++i) {
    all.insert(all.end(), latency[i].begin(), latency[i].end());
    acked_count += acked[i].size();
    user_bytes += bytes[i];
  }
  TrialResult& r = trial->result;
  PutLatency(&r, "append", all);
  r.metrics["appends_per_s"] = acked_count / phase.seconds();
  r.samples["appends_per_s"] = acked_count;
  r.metrics["user_mb_per_s"] = user_bytes / phase.seconds() / 1e6;
  r.samples["user_mb_per_s"] = acked_count;

  // Answer checks over the wire; they also give the read-side metrics.
  uint64_t scan_ns = 0;
  const uint64_t scanned = WireReadBack(wire.clients[0].get(), spec, paths,
                                        acked, &scan_ns, &trial->checker);
  r.metrics["scan_entries_per_s"] = scanned / Seconds(scan_ns);
  r.samples["scan_entries_per_s"] = scanned;
  std::vector<ReadOp> read_ops;
  PutLatency(&r, "locate",
             WireLocateSample(wire.clients[0].get(), spec, paths, acked, seed,
                              &read_ops, &trial->checker));
  wire.Stop();
  VerifyAllVolumes(service.get(), &trial->checker);
  trial->RecordSpace(service.get(), user_bytes);

  if (trial->config.trace) {
    // Replay single-threaded, forcing at the wire run's mean batch size.
    const auto batches = phase.at_end.histogram("clio.net.batch.entries");
    const auto batches0 = phase.at_start.histogram("clio.net.batch.entries");
    const uint64_t n = batches->count - (batches0 ? batches0->count : 0);
    const uint64_t sum = batches->sum - (batches0 ? batches0->sum : 0);
    const size_t force_every =
        n == 0 ? 1 : std::max<size_t>(1, (sum + n / 2) / n);
    std::vector<AppendOp> ops_list;
    for (uint32_t j = 0; j < kCommitAppendsPerClient; ++j) {
      for (uint32_t i = 0; i < kCommitClients; ++i) {
        ops_list.push_back({i, j, false,
                            static_cast<int64_t>(i * kCommitAppendsPerClient + j)});
      }
    }
    std::map<std::pair<uint32_t, uint32_t>, Timestamp> replay_ts;
    RealTimeSource replay_clock;
    CLIO_ASSIGN_OR_RETURN(
        auto replay, ReplayAppends(spec, paths, ops_list, force_every,
                                   &replay_clock, &replay_ts));
    for (ReadOp& op : read_ops) {
      auto it = std::find(acked[op.file].begin(), acked[op.file].end(),
                          op.target);
      op.target = replay_ts[{op.file, static_cast<uint32_t>(
                                          it - acked[op.file].begin())}];
    }
    for (uint32_t i = 0; i < kCommitClients; ++i) {
      read_ops.push_back({i, kTimestampMin, kCommitAppendsPerClient, -1});
    }
    CLIO_RETURN_IF_ERROR(
        ReplayReads(replay.get(), paths, read_ops, &trial->ledger));
    TimeCodec(spec, paths, ops_list, &trial->ledger);
    TimeImages(media, &trial->ledger);
  }
  return Status::Ok();
}

// -- ingest: unforced 1-16 KiB appends, a forced one every MiB, with scrub
// and telemetry on and volumes small enough to roll. --

Status RunIngest(Trial* trial) {
  const uint64_t seed = trial->config.seed;
  const PayloadSpec spec{Mix(seed, 11), 1024, 16384, true};
  RealTimeSource clock;
  std::vector<std::shared_ptr<MemoryWormDevice>> media = {
      NewMedia(kIngestVolumeBlocks)};
  std::mutex media_mu;
  LogServiceOptions options;
  options.sequence_id = Mix(seed, 12) | 1;
  CLIO_ASSIGN_OR_RETURN(
      auto service,
      LogService::Create(std::make_unique<TimingDevice>(media[0]), &clock,
                         options));
  service->set_volume_factory(
      [&](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
        auto next = NewMedia(kIngestVolumeBlocks);
        std::lock_guard<std::mutex> lock(media_mu);
        media.push_back(next);
        return std::unique_ptr<WormDevice>(
            std::make_unique<TimingDevice>(next));
      });
  NetLogServerOptions server_options;
  server_options.scrub = true;
  server_options.telemetry = true;
  Wire wire;
  CLIO_RETURN_IF_ERROR(wire.Start(service.get(), server_options, kIngestClients));
  std::vector<std::string> paths;
  std::vector<std::vector<AppendOp>> streams(kIngestClients);
  for (uint32_t i = 0; i < kIngestClients; ++i) {
    paths.push_back(FilePath("ingest", i));
    CLIO_RETURN_IF_ERROR(wire.clients[0]->CreateLogFile(paths.back()).status());
    uint64_t total = 0, since_force = 0;
    for (uint32_t j = 0; total < kIngestBytesPerClient; ++j) {
      const size_t size = PayloadSize(spec, i, j);
      total += size;
      since_force += size;
      const bool force = since_force >= kIngestForceEveryBytes ||
                         total >= kIngestBytesPerClient;
      if (force) {
        since_force = 0;
      }
      streams[i].push_back({i, j, force, static_cast<int64_t>(i) << 20 | j});
    }
  }
  trial->EndSetup();

  std::vector<std::vector<Timestamp>> acked(kIngestClients);
  std::vector<std::vector<double>> latency(kIngestClients);
  std::vector<uint64_t> bytes(kIngestClients, 0);
  PinnedSampler pinned(trial->config.trace);
  Phase phase;
  phase.Begin();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kIngestClients; ++i) {
    threads.emplace_back([&, i] {
      NetLogClient* client = wire.clients[i].get();
      for (const AppendOp& op : streams[i]) {
        const Bytes payload = MakePayload(spec, op.file, op.seq);
        const uint64_t retries = client->retries();
        ScopedSpan span("client.append", 0, op.op);
        const uint64_t start = NowNs();
        auto ts = client->Append(paths[i], payload, /*timestamped=*/true,
                                 op.force);
        const uint64_t end = NowNs();
        span.set_trace(client->last_trace_id());
        if (!op.force) {
          latency[i].push_back(Micros(end - start));
        }
        if (!trial->checker.Check(ts.ok() && client->retries() == retries,
                                  "ingest append " + paths[i])) {
          return;
        }
        acked[i].push_back(*ts);
        bytes[i] += payload.size();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.End();
  uint64_t ops = 0, user_bytes = 0;
  std::vector<double> all;
  for (uint32_t i = 0; i < kIngestClients; ++i) {
    ops += acked[i].size();
    user_bytes += bytes[i];
    all.insert(all.end(), latency[i].begin(), latency[i].end());
  }
  trial->RecordPhase(phase, ops, pinned.Stop());
  TrialResult& r = trial->result;
  PutLatency(&r, "append", all);
  r.metrics["appends_per_s"] = ops / phase.seconds();
  r.samples["appends_per_s"] = ops;
  r.metrics["user_mb_per_s"] = user_bytes / phase.seconds() / 1e6;
  r.samples["user_mb_per_s"] = ops;

  uint64_t scan_ns = 0;
  const uint64_t scanned = WireReadBack(wire.clients[0].get(), spec, paths,
                                        acked, &scan_ns, &trial->checker);
  r.metrics["scan_entries_per_s"] = scanned / Seconds(scan_ns);
  r.samples["scan_entries_per_s"] = scanned;
  std::vector<ReadOp> read_ops;
  PutLatency(&r, "locate",
             WireLocateSample(wire.clients[0].get(), spec, paths, acked, seed,
                              &read_ops, &trial->checker));
  wire.Stop();
  trial->checker.Check(service->volume_count() >= 2,
                       "ingest never rolled to a second volume");
  VerifyAllVolumes(service.get(), &trial->checker);
  trial->RecordSpace(service.get(), user_bytes);

  if (trial->config.trace) {
    std::vector<AppendOp> ops_list;
    for (size_t k = 0;; ++k) {  // interleave the client streams
      bool any = false;
      for (const auto& stream : streams) {
        if (k < stream.size()) {
          ops_list.push_back(stream[k]);
          any = true;
        }
      }
      if (!any) {
        break;
      }
    }
    std::map<std::pair<uint32_t, uint32_t>, Timestamp> replay_ts;
    RealTimeSource replay_clock;
    CLIO_ASSIGN_OR_RETURN(
        auto replay, ReplayAppends(spec, paths, ops_list, 0, &replay_clock,
                                   &replay_ts));
    for (ReadOp& op : read_ops) {
      auto it = std::find(acked[op.file].begin(), acked[op.file].end(),
                          op.target);
      op.target = replay_ts[{op.file, static_cast<uint32_t>(
                                          it - acked[op.file].begin())}];
    }
    for (uint32_t i = 0; i < kIngestClients; ++i) {
      read_ops.push_back({i, kTimestampMin,
                          static_cast<uint32_t>(streams[i].size()), -1});
    }
    CLIO_RETURN_IF_ERROR(
        ReplayReads(replay.get(), paths, read_ops, &trial->ledger));
    TimeCodec(spec, paths, ops_list, &trial->ledger);
    std::lock_guard<std::mutex> lock(media_mu);
    TimeImages(media, &trial->ledger);
  }
  return Status::Ok();
}

// -- history: a populated, recovered sequence; three readers locating and
// tail-scanning while one open-loop writer appends. --

Status RunHistory(Trial* trial) {
  const uint64_t seed = trial->config.seed;
  const PayloadSpec spec{Mix(seed, 21), 64, 1024, false};
  RealTimeSource clock;
  std::vector<std::shared_ptr<MemoryWormDevice>> media = {NewMedia(1 << 20)};
  NvramTail nvram(media[0]->block_size());
  LogServiceOptions options;
  options.sequence_id = Mix(seed, 22) | 1;
  options.nvram = &nvram;
  std::vector<std::string> paths;
  std::vector<std::vector<Timestamp>> populated(kHistoryFiles);
  std::vector<Timestamp> global;  // every populated timestamp, in order
  uint64_t user_bytes = 0;
  SpaceAccounting populated_space;
  {
    CLIO_ASSIGN_OR_RETURN(
        auto service,
        LogService::Create(std::make_unique<TimingDevice>(media[0]), &clock,
                           options));
    for (uint32_t f = 0; f < kHistoryFiles; ++f) {
      paths.push_back(FilePath("history", f));
      CLIO_RETURN_IF_ERROR(service->CreateLogFile(paths.back()).status());
    }
    const uint64_t target_blocks = 8 * options.cache_blocks;
    Rng rng(Mix(seed, 23));
    WriteOptions write;
    write.timestamped = true;
    for (uint64_t n = 0;; ++n) {
      if (n % 1024 == 0 &&
          service->TotalSpace().blocks_burned >= target_blocks) {
        break;
      }
      const uint32_t f = static_cast<uint32_t>(rng.Below(kHistoryFiles));
      const Bytes payload =
          MakePayload(spec, f, static_cast<uint32_t>(populated[f].size()));
      CLIO_ASSIGN_OR_RETURN(AppendResult appended,
                            service->Append(paths[f], payload, write));
      populated[f].push_back(appended.timestamp);
      global.push_back(appended.timestamp);
      user_bytes += payload.size();
    }
    CLIO_RETURN_IF_ERROR(service->Force());
    populated_space = service->TotalSpace();
    // Crash-stop: the service is dropped with no shutdown step; only the
    // media and the NVRAM tail survive.
  }
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<TimingDevice>(media[0]));
  const uint64_t recover_start = NowNs();
  CLIO_ASSIGN_OR_RETURN(
      auto service, LogService::Recover(std::move(devices), &clock, options,
                                        &trial->ledger.recovery));
  trial->ledger.recovered = true;
  trial->ledger.recover_ms = Micros(NowNs() - recover_start) / 1000.0;
  Wire wire;
  CLIO_RETURN_IF_ERROR(wire.Start(service.get(), {}, kHistoryReaders + 1));

  // Locate targets: 80% inside the most recent ~0.9 cache-sized window of
  // history, 20% uniform over history older than ~1.1 windows.
  const double window = 0.9 * static_cast<double>(options.cache_blocks) /
                        static_cast<double>(populated_space.blocks_burned);
  const size_t n = global.size();
  const size_t recent_from = n - static_cast<size_t>(window * n);
  const size_t older_to = n - static_cast<size_t>(window / 0.9 * 1.1 * n);
  std::vector<std::vector<ReadOp>> reader_ops(kHistoryReaders);
  for (int r = 0; r < kHistoryReaders; ++r) {
    Rng rng(Mix(seed, 100 + r));
    for (uint32_t i = 0; i < kHistoryReaderOps; ++i) {
      ReadOp op;
      op.op = static_cast<int64_t>(r) * 1'000'000 + i;
      op.file = static_cast<uint32_t>(rng.Below(kHistoryFiles));
      if (r == kHistoryReaders - 1) {
        // Tail scan from a recent point with 256 entries ahead of it.
        const uint32_t count = static_cast<uint32_t>(populated[op.file].size());
        const uint32_t hi = count > kHistoryScanEntries + 1
                                ? count - kHistoryScanEntries
                                : 1;
        const uint32_t lo = hi > 128 ? hi - 128 : 1;
        const uint32_t first = static_cast<uint32_t>(rng.Range(lo, hi));
        op.target = populated[op.file][first - 1];
        op.scan_entries = kHistoryScanEntries;
      } else if (rng.Below(5) != 0) {
        op.target = static_cast<Timestamp>(
            rng.Range(global[recent_from], global[n - 1]));
      } else {
        op.target =
            static_cast<Timestamp>(rng.Range(global[0], global[older_to]));
      }
      reader_ops[r].push_back(op);
    }
  }
  std::vector<AppendOp> writer_ops;
  {
    Rng rng(Mix(seed, 200));
    std::vector<uint32_t> next(kHistoryFiles);
    for (uint32_t f = 0; f < kHistoryFiles; ++f) {
      next[f] = static_cast<uint32_t>(populated[f].size());
    }
    for (uint32_t k = 0; k < kHistoryWriterAppends; ++k) {
      const uint32_t f = static_cast<uint32_t>(rng.Below(kHistoryFiles));
      writer_ops.push_back({f, next[f]++, true, 3'000'000 + k});
    }
  }
  trial->EndSetup();

  std::vector<std::vector<double>> locate_us(kHistoryReaders);
  std::vector<uint64_t> scan_entries(kHistoryReaders, 0);
  std::vector<uint64_t> scan_ns(kHistoryReaders, 0);
  std::vector<size_t> reader_done(kHistoryReaders, 0);
  std::atomic<bool> writer_done{false};
  std::vector<double> append_us;
  std::map<std::pair<uint32_t, uint32_t>, Timestamp> written;
  uint64_t writer_bytes = 0;
  uint64_t writer_ns = 0;
  PinnedSampler pinned(trial->config.trace);
  Phase phase;
  phase.Begin();
  std::vector<std::thread> threads;
  for (int r = 0; r < kHistoryReaders; ++r) {
    threads.emplace_back([&, r] {
      NetLogClient* client = wire.clients[r].get();
      const auto think = std::chrono::microseconds(
          r == kHistoryReaders - 1 ? kHistoryScanThinkUs
                                   : kHistoryLocateThinkUs);
      for (const ReadOp& op : reader_ops[r]) {
        if (writer_done.load()) {
          break;
        }
        if (reader_done[r]++ > 0) {
          std::this_thread::sleep_for(think);
        }
        const std::vector<Timestamp>& ts = populated[op.file];
        if (op.scan_entries == 0) {
          auto it = std::upper_bound(ts.begin(), ts.end(), op.target);
          std::optional<std::pair<uint32_t, Timestamp>> expected;
          if (it != ts.begin()) {
            expected = std::make_pair(
                static_cast<uint32_t>(it - ts.begin() - 1), *(it - 1));
          }
          locate_us[r].push_back(WireLocate(client, spec, paths[op.file],
                                            op.file, op.target, expected,
                                            op.op, &trial->checker));
          continue;
        }
        // Tail scan: the first entry after the target, then consecutive
        // entries of the file (the writer's included), byte for byte.
        const uint64_t retries = client->retries();
        const uint32_t first = static_cast<uint32_t>(
            std::upper_bound(ts.begin(), ts.end(), op.target) - ts.begin());
        bool ok = true;
        std::vector<RemoteEntry> got;
        const uint64_t start = NowNs();
        {
          ScopedSpan span("client.scan", 0, op.op);
          auto handle =
              WireCall(client, [&] { return client->OpenReader(paths[op.file]); });
          ok = handle.ok() &&
               WireCall(client, [&] {
                 return client->SeekToTime(*handle, op.target);
               }).ok();
          while (ok && got.size() < op.scan_entries) {
            auto batch = WireCall(client, [&] {
              return client->ReadNextBatch(
                  *handle, std::min<uint32_t>(kScanBatch,
                                              op.scan_entries - got.size()));
            });
            if (!batch.ok()) {
              ok = false;
              break;
            }
            for (RemoteEntry& e : batch->entries) {
              got.push_back(std::move(e));
            }
            if (batch->at_end || batch->entries.empty()) {
              break;
            }
          }
          if (handle.ok()) {
            (void)client->CloseReader(*handle);
          }
        }
        scan_ns[r] += NowNs() - start;
        scan_entries[r] += got.size();
        for (uint32_t k = 0; ok && k < got.size(); ++k) {
          uint32_t file = 0, seq = 0;
          const RemoteEntry& e = got[k];
          ok = PayloadId(e.payload, &file, &seq) && file == op.file &&
               seq == first + k &&
               (seq >= ts.size() || e.timestamp == ts[seq]) &&
               PayloadMatches(spec, file, seq, e.payload);
        }
        trial->checker.Check(ok && got.size() == op.scan_entries &&
                                 client->retries() == retries,
                             "tail scan of " + paths[op.file]);
      }
    });
  }
  threads.emplace_back([&] {
    // The open-loop writer: append k is timed from when it was due.
    NetLogClient* client = wire.clients[kHistoryReaders].get();
    const uint64_t start = phase.start_ns;
    for (size_t k = 0; k < writer_ops.size(); ++k) {
      const AppendOp& op = writer_ops[k];
      const Bytes payload = MakePayload(spec, op.file, op.seq);
      const uint64_t due = WaitUntilDue(start, kHistoryWriterPeriodNs, k,
                                        &trial->ledger.lateness_us);
      const uint64_t retries = client->retries();
      ScopedSpan span("client.append", 0, op.op);
      auto ts = client->Append(paths[op.file], payload, /*timestamped=*/true,
                               /*force=*/true);
      append_us.push_back(Micros(NowNs() - due));
      span.set_trace(client->last_trace_id());
      if (trial->checker.Check(ts.ok() && client->retries() == retries,
                               "writer append " + paths[op.file])) {
        written[{op.file, op.seq}] = *ts;
        writer_bytes += payload.size();
      }
    }
    writer_ns = NowNs() - start;
    writer_done.store(true);
  });
  for (auto& t : threads) {
    t.join();
  }
  phase.End();
  uint64_t locates = 0, scans = 0, scanned = 0, scanned_ns = 0;
  std::vector<double> all_locates;
  for (int r = 0; r < kHistoryReaders; ++r) {
    locates += locate_us[r].size();
    all_locates.insert(all_locates.end(), locate_us[r].begin(),
                       locate_us[r].end());
    scanned += scan_entries[r];
    scanned_ns += scan_ns[r];
    scans += reader_done[r] - locate_us[r].size();
    reader_ops[r].resize(reader_done[r]);  // the replay runs what ran
  }
  trial->RecordPhase(phase, locates + scans + written.size(), pinned.Stop());
  TrialResult& r = trial->result;
  PutLatency(&r, "append", append_us);
  PutLatency(&r, "locate", all_locates);
  r.metrics["appends_per_s"] = written.size() / Seconds(writer_ns);
  r.samples["appends_per_s"] = written.size();
  r.metrics["user_mb_per_s"] = writer_bytes / Seconds(writer_ns) / 1e6;
  r.samples["user_mb_per_s"] = written.size();
  r.metrics["scan_entries_per_s"] =
      scanned_ns == 0 ? 0 : scanned / Seconds(scanned_ns);
  r.samples["scan_entries_per_s"] = scanned;
  wire.Stop();

  // Every populated and every acknowledged writer entry, exactly once per
  // file, in order.
  for (uint32_t f = 0; f < kHistoryFiles; ++f) {
    auto reader = service->OpenReader(paths[f]);
    if (!trial->checker.Check(reader.ok(), "read-back open " + paths[f])) {
      continue;
    }
    bool exact = true;
    uint32_t seq = 0;
    for (;; ++seq) {
      auto next = (*reader)->Next();
      if (!next.ok()) {
        exact = false;
        break;
      }
      if (!next->has_value()) {
        break;
      }
      const Bytes payload = (*next)->CopyPayload();
      uint32_t file = 0, got = 0;
      Timestamp want = 0;
      if (seq < populated[f].size()) {
        want = populated[f][seq];
      } else if (auto it = written.find({f, seq}); it != written.end()) {
        want = it->second;
      } else {
        exact = false;
        break;
      }
      exact = exact && PayloadId(payload, &file, &got) && file == f &&
              got == seq && (*next)->timestamp == want &&
              PayloadMatches(spec, f, seq, payload);
    }
    uint32_t expected = static_cast<uint32_t>(populated[f].size());
    while (written.count({f, expected}) != 0) {
      ++expected;
    }
    trial->checker.Check(exact && seq == expected,
                         "read-back of " + paths[f] + " is not its appends");
  }
  VerifyAllVolumes(service.get(), &trial->checker);
  trial->RecordSpace(service.get(), user_bytes + writer_bytes, populated_space);

  if (trial->config.trace) {
    std::vector<ReadOp> read_ops;
    for (const auto& ops : reader_ops) {
      read_ops.insert(read_ops.end(), ops.begin(), ops.end());
    }
    CLIO_RETURN_IF_ERROR(
        ReplayReads(service.get(), paths, read_ops, &trial->ledger));
    TimeCodec(spec, paths, writer_ops, &trial->ledger);
    TimeImages(media, &trial->ledger);
  }
  return Status::Ok();
}

std::string TrialJson(const TrialConfig& config, const Checker& checker,
                      const TrialResult& result,
                      const std::vector<HostSpeed>& host,
                      const std::string& error) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(config.workload)
      << ", \"seed\": " << config.seed
      << ", \"traced\": " << (config.trace ? "true" : "false")
      << ", \"ok\": " << (error.empty() ? "true" : "false")
      << ", \"attempted\": " << checker.attempted()
      << ", \"failed\": " << checker.failed()
      << ", \"phase_s\": " << JsonNumber(result.phase_s)
      << ", \"ops\": " << result.ops
      << ", \"host\": [";
  for (size_t i = 0; i < host.size(); ++i) {
    out << (i == 0 ? "" : ", ") << host[i].ToJson();
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}, \"samples\": {";
  first = true;
  for (const auto& [name, count] : result.samples) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << count;
    first = false;
  }
  out << "}, \"errors\": [";
  std::vector<std::string> errors = checker.errors();
  if (!error.empty()) {
    errors.insert(errors.begin(), error);
  }
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(errors[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace

int RunTrial(const TrialConfig& config) {
  Status (*run)(Trial*) = nullptr;
  if (config.workload == "commit") {
    run = RunCommit;
  } else if (config.workload == "ingest") {
    run = RunIngest;
  } else if (config.workload == "history") {
    run = RunHistory;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  // run.py divides the host's speed, timed here before set-up, in
  // Trial::EndSetup and here after the checks, out of the metrics that run
  // at the host's speed.
  const HostSpeed before = MeasureHostSpeed(kHostSpeedMs);
  ResetPeakRss();  // peak_rss_mb is the program's, not the reference task's
  Trial trial(config);
  trial.host.push_back(before);
  Status status = run(&trial);
  Tracer::SetEnabled(false);
  trial.result.metrics["peak_rss_mb"] = PeakRssMb();
  trial.result.samples["peak_rss_mb"] = 1;
  trial.host.push_back(MeasureHostSpeed(kHostSpeedMs));
  if (status.ok() &&
      std::any_of(trial.host.begin(), trial.host.end(),
                  [](const HostSpeed& h) { return h.rounds == 0; })) {
    status = Unavailable("the host-speed reference task failed");
  }
  if (status.ok() && config.trace && !config.trace_path.empty()) {
    status = WriteLedger(config.trace_path, trial.ledger, Tracer::Collect());
  }
  std::printf("TRIAL %s\n",
              TrialJson(config, trial.checker, trial.result, trial.host,
                        status.ok() ? "" : status.ToString())
                  .c_str());
  std::fflush(stdout);
  return status.ok() ? 0 : 1;
}

}  // namespace clio::perfbench
