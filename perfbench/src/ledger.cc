#include "perfbench/src/ledger.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/clio/block_format.h"
#include "src/clio/chain.h"
#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"

namespace clio::perfbench {

namespace {

// Trace of replay spans: the op index, offset so it is never 0.
uint64_t ReplayTrace(int64_t op) {
  return static_cast<uint64_t>(op < 0 ? 0 : op) + 1;
}

// Median over `reps` runs of `body`, each returning elapsed nanoseconds.
template <typename F>
double MedianNs(int reps, F&& body) {
  std::vector<double> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(static_cast<double>(body()));
  }
  return Percentile(runs, 0.5);
}

volatile uint64_t g_sink = 0;  // keeps timed results observable

}  // namespace

Result<std::unique_ptr<LogService>> ReplayAppends(
    const PayloadSpec& spec, const std::vector<std::string>& paths,
    const std::vector<AppendOp>& ops, size_t force_every, TimeSource* clock,
    std::map<std::pair<uint32_t, uint32_t>, Timestamp>* timestamps) {
  LogServiceOptions options;
  options.sequence_id = Mix(spec.seed, 0x5EB1A7) | 1;
  CLIO_ASSIGN_OR_RETURN(
      auto service,
      LogService::Create(
          std::make_unique<TimingDevice>(
              std::make_shared<MemoryWormDevice>(MemoryWormOptions{})),
          clock, options));
  for (const std::string& path : paths) {
    CLIO_RETURN_IF_ERROR(service->CreateLogFile(path).status());
  }
  WriteOptions write;
  write.timestamped = true;
  size_t unforced = 0;
  for (const AppendOp& op : ops) {
    const Bytes payload = MakePayload(spec, op.file, op.seq);
    const uint64_t trace = ReplayTrace(op.op);
    Tracer::SetThreadTrace(trace);
    Result<AppendResult> appended = Internal("not run");
    {
      ScopedSpan span("service.append", trace, op.op);
      appended = service->Append(paths[op.file], payload, write);
    }
    CLIO_RETURN_IF_ERROR(appended.status());
    (*timestamps)[{op.file, op.seq}] = appended->timestamp;
    ++unforced;
    if (op.force || (force_every > 0 && unforced >= force_every)) {
      ScopedSpan span("service.force", trace, op.op);
      span.set_arg(unforced);
      CLIO_RETURN_IF_ERROR(service->Force());
      unforced = 0;
    }
  }
  Tracer::SetThreadTrace(0);
  return service;
}

Status ReplayReads(LogService* service, const std::vector<std::string>& paths,
                   const std::vector<ReadOp>& ops, LedgerInput* input) {
  for (const ReadOp& op : ops) {
    const uint64_t trace = ReplayTrace(op.op);
    Tracer::SetThreadTrace(trace);
    Result<std::unique_ptr<LogReader>> reader = Internal("not run");
    {
      ScopedSpan span("reader.open", trace, op.op);
      reader = service->OpenReader(paths[op.file]);
    }
    CLIO_RETURN_IF_ERROR(reader.status());
    OpStats stats;
    {
      ScopedSpan span("reader.seek", trace, op.op);
      if (op.target == kTimestampMin) {
        (*reader)->SeekToStart();
      } else {
        CLIO_RETURN_IF_ERROR((*reader)->SeekToTime(op.target, &stats));
      }
    }
    if (op.scan_entries == 0) {
      Result<std::optional<LogEntryRecord>> prev =
          std::optional<LogEntryRecord>();
      {
        ScopedSpan span("reader.prev", trace, op.op);
        prev = (*reader)->Prev(&stats);
      }
      CLIO_RETURN_IF_ERROR(prev.status());
      ++input->replay_locates;
      input->replay_locate_stats += stats;
      continue;
    }
    for (uint32_t k = 0; k < op.scan_entries; ++k) {
      Result<std::optional<LogEntryRecord>> next =
          std::optional<LogEntryRecord>();
      {
        ScopedSpan span("reader.next", trace, op.op);
        next = (*reader)->Next();
      }
      CLIO_RETURN_IF_ERROR(next.status());
      if (!next->has_value()) {
        break;
      }
    }
  }
  Tracer::SetThreadTrace(0);
  return Status::Ok();
}

void TimeCodec(const PayloadSpec& spec, const std::vector<std::string>& paths,
               const std::vector<AppendOp>& ops, LedgerInput* input) {
  const size_t n = std::min<size_t>(ops.size(), 2000);
  if (n == 0) {
    return;
  }
  std::vector<Bytes> payloads;
  for (size_t i = 0; i < n; ++i) {
    payloads.push_back(MakePayload(spec, ops[i].file, ops[i].seq));
  }
  std::vector<Bytes> bodies(n);
  input->micro["codec.append_encode_ns"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (size_t i = 0; i < n; ++i) {
          bodies[i] = EncodeAppendRequest(paths[ops[i].file], payloads[i],
                                          /*timestamped=*/true, ops[i].force,
                                          /*client_id=*/7, i + 1);
        }
        return NowNs() - start;
      }) /
      n;
  input->micro["codec.append_decode_ns"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (size_t i = 0; i < n; ++i) {
          auto request = DecodeAppendRequest(bodies[i]);
          g_sink = g_sink + (request.ok() ? request->payload.size() : 0);
        }
        return NowNs() - start;
      }) /
      n;
  std::vector<Bytes> headers(n);
  for (size_t i = 0; i < n; ++i) {
    FrameHeader header;
    header.op = static_cast<uint32_t>(LogOp::kAppend);
    header.request_id = i + 1;
    header.body_size = static_cast<uint32_t>(bodies[i].size());
    header.trace_id = Mix(spec.seed, i);
    headers[i] = EncodeFrameHeaderOnly(header);
  }
  input->micro["frame.header_decode_ns"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (size_t i = 0; i < n; ++i) {
          auto header = DecodeFrameHeader(headers[i]);
          g_sink = g_sink + (header.ok() ? header->body_size : 0);
        }
        return NowNs() - start;
      }) /
      n;

  // Replies as a reader receives them: 256-entry batches of these entries.
  std::vector<Bytes> batches;
  std::vector<LogEntryRecord> records;
  for (size_t i = 0; i < n; ++i) {
    LogEntryRecord record;
    record.logfile_id = static_cast<LogFileId>(kFirstClientLogId + ops[i].file);
    record.timestamp = static_cast<Timestamp>(i + 1);
    record.timestamp_exact = true;
    record.payload = payloads[i];
    records.push_back(std::move(record));
    if (records.size() == 256 || i + 1 == n) {
      batches.push_back(EncodeEntryBatch(records, /*at_end=*/false));
      records.clear();
    }
  }
  input->micro["codec.batch_decode_ns_per_entry"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (const Bytes& batch : batches) {
          auto decoded = DecodeEntryBatch(batch);
          g_sink = g_sink + (decoded.ok() ? decoded->entries.size() : 0);
        }
        return NowNs() - start;
      }) /
      n;
}

void TimeImages(const std::vector<std::shared_ptr<MemoryWormDevice>>& devices,
                LedgerInput* input) {
  constexpr size_t kMaxImages = 4096;
  std::vector<std::shared_ptr<const Bytes>> images;
  std::vector<ParsedBlock> parsed;
  for (const auto& device : devices) {
    for (uint64_t b = 1; b < device->frontier() && images.size() < kMaxImages;
         ++b) {
      auto image = std::make_shared<Bytes>(device->block_size());
      if (!device->ReadBlock(b, *image).ok()) {
        continue;
      }
      auto block = ParsedBlock::Parse(image);
      if (block.ok()) {
        images.push_back(std::move(image));
        parsed.push_back(std::move(block).value());
      }
    }
  }
  if (images.empty()) {
    return;
  }
  double kib = 0;
  for (const auto& image : images) {
    kib += static_cast<double>(image->size()) / 1024.0;
  }
  input->micro["block.parse_ns_per_kib"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (const auto& image : images) {
          auto block = ParsedBlock::Parse(image);
          g_sink = g_sink + (block.ok() ? block->entries().size() : 0);
        }
        return NowNs() - start;
      }) /
      kib;
  input->micro["chain.commit_ns_per_kib"] =
      MedianNs(5, [&] {
        const uint64_t start = NowNs();
        for (const ParsedBlock& block : parsed) {
          g_sink = g_sink + static_cast<uint64_t>(ChainBlockCommit(block)[0]);
        }
        return NowNs() - start;
      }) /
      kib;
  const double mb = kib * 1024.0 / 1e6;
  input->micro["util.sha256_mb_per_s"] =
      mb / (MedianNs(5, [&] {
              const uint64_t start = NowNs();
              for (const auto& image : images) {
                g_sink = g_sink + static_cast<uint64_t>(Sha256Of(*image)[0]);
              }
              return NowNs() - start;
            }) *
            1e-9);
  input->micro["util.crc32c_mb_per_s"] =
      mb / (MedianNs(5, [&] {
              const uint64_t start = NowNs();
              for (const auto& image : images) {
                g_sink = g_sink + Crc32c(*image);
              }
              return NowNs() - start;
            }) *
            1e-9);
}

Status WriteLedger(const std::string& path, const LedgerInput& input,
                   const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    return Internal("cannot write " + path);
  }
  const SpaceAccounting& s = input.space;
  const RecoveryReport& rec = input.recovery;
  out << "{\"workload\": " << JsonString(input.workload)
      << ", \"seed\": " << input.seed
      << ", \"fingerprint\": " << MachineFingerprint().ToJson()
      << ", \"phase_s\": " << JsonNumber(input.phase_s)
      << ", \"phase_ops\": " << input.phase_ops
      << ", \"phase_start_ns\": " << input.phase_start_ns
      << ", \"phase_end_ns\": " << input.phase_end_ns
      << ",\n\"registry_phase\": "
      << RegistryDeltaJson(input.phase_start, input.phase_end)
      << ",\n\"registry_trial\": "
      << RegistryDeltaJson(input.trial_start, input.phase_end)
      << ",\n\"space\": {\"client_payload_bytes\": " << s.client_payload_bytes
      << ", \"client_header_bytes\": " << s.client_header_bytes
      << ", \"entrymap_bytes\": " << s.entrymap_bytes
      << ", \"catalog_bytes\": " << s.catalog_bytes
      << ", \"padding_bytes\": " << s.padding_bytes
      << ", \"footer_bytes\": " << s.footer_bytes
      << ", \"blocks_burned\": " << s.blocks_burned
      << ", \"forced_partial_burns\": " << s.forced_partial_burns
      << ", \"total_burned\": " << s.TotalBurned() << "}"
      << ", \"user_bytes\": " << input.user_bytes
      << ", \"recovered\": " << (input.recovered ? "true" : "false")
      << ", \"recover_ms\": " << JsonNumber(input.recover_ms)
      << ", \"recovery\": {\"restored_checkpoint\": "
      << (rec.restored_checkpoint ? "true" : "false")
      << ", \"checkpoint_replay_blocks\": " << rec.checkpoint_replay_blocks
      << ", \"tail_scan_blocks\": " << rec.tail_scan_blocks << "}"
      << ", \"pinned_max\": " << input.pinned_max
      << ", \"replay_locates\": " << input.replay_locates
      << ", \"replay_locate_stats\": {\"blocks_read\": "
      << input.replay_locate_stats.blocks_read
      << ", \"entrymap_entries_examined\": "
      << input.replay_locate_stats.entrymap_entries_examined
      << ", \"device_reads\": " << input.replay_locate_stats.device_reads
      << "},\n\"micro\": {";
  bool first = true;
  for (const auto& [name, value] : input.micro) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "},\n\"lateness_us\": [";
  for (size_t i = 0; i < input.lateness_us.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonNumber(input.lateness_us[i]);
  }
  out << "],\n\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    out << (i == 0 ? "" : ",\n") << "[" << JsonString(sp.name) << ", "
        << sp.start_ns << ", " << sp.end_ns << ", " << sp.id << ", "
        << sp.parent << ", " << sp.trace << ", " << sp.op << ", " << sp.arg
        << ", " << (sp.replay ? 1 : 0) << "]";
  }
  out << "]}\n";
  out.close();
  return out ? Status::Ok() : Internal("short write to " + path);
}

// -- Timing-device self-check. --

namespace {

struct SelfCheckRun {
  DeviceStats stats;
  std::vector<Bytes> images;
};

Status RunSelfCheckStream(bool decorated, SelfCheckRun* run) {
  SimulatedClock clock(1'000'000, 1);
  auto owned = std::make_unique<MemoryWormDevice>(MemoryWormOptions{});
  MemoryWormDevice* media = owned.get();
  std::unique_ptr<WormDevice> device;
  if (decorated) {
    device = std::make_unique<TimingDevice>(
        std::shared_ptr<WormDevice>(std::move(owned)));
  } else {
    device = std::move(owned);
  }
  LogServiceOptions options;
  options.sequence_id = 0x5E1FC4EC;
  options.cache_blocks = 32;  // small, so reads and readahead reach the device
  CLIO_ASSIGN_OR_RETURN(auto service,
                        LogService::Create(std::move(device), &clock, options));
  const PayloadSpec spec{42, 16, 3000, false};
  constexpr uint32_t kFiles = 8;
  std::vector<std::string> paths;
  for (uint32_t f = 0; f < kFiles; ++f) {
    paths.push_back("/self" + std::to_string(f));
    CLIO_RETURN_IF_ERROR(service->CreateLogFile(paths.back()).status());
  }
  Rng rng(4242);
  std::vector<std::vector<Timestamp>> stamps(kFiles);
  for (uint32_t i = 0; i < 3000; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Below(kFiles));
    WriteOptions write;
    write.timestamped = rng.Chance(1, 2);
    write.force = i % 7 == 0;
    const uint32_t seq = static_cast<uint32_t>(stamps[f].size());
    CLIO_ASSIGN_OR_RETURN(
        AppendResult appended,
        service->Append(paths[f], MakePayload(spec, f, seq), write));
    stamps[f].push_back(appended.timestamp);
  }
  CLIO_RETURN_IF_ERROR(service->Force());
  for (uint32_t f = 0; f < kFiles; ++f) {
    CLIO_ASSIGN_OR_RETURN(auto reader, service->OpenReader(paths[f]));
    for (;;) {
      CLIO_ASSIGN_OR_RETURN(auto next, reader->Next());
      if (!next.has_value()) {
        break;
      }
    }
    for (int k = 0; k < 20 && !stamps[f].empty(); ++k) {
      CLIO_RETURN_IF_ERROR(
          reader->SeekToTime(stamps[f][rng.Below(stamps[f].size())]));
      CLIO_RETURN_IF_ERROR(reader->Prev().status());
    }
  }
  run->stats = media->stats();
  for (uint64_t b = 0; b < media->frontier(); ++b) {
    Bytes image(media->block_size());
    CLIO_RETURN_IF_ERROR(media->ReadBlock(b, image));
    run->images.push_back(std::move(image));
  }
  return Status::Ok();
}

}  // namespace

bool DeviceSelfCheck(std::string* detail) {
  SelfCheckRun bare, timed;
  Status a = RunSelfCheckStream(false, &bare);
  Tracer::SetEnabled(true);
  Status b = RunSelfCheckStream(true, &timed);
  Tracer::SetEnabled(false);
  const size_t spans = Tracer::Collect().size();
  Tracer::Clear();
  if (!a.ok() || !b.ok()) {
    *detail = "replay failed: " + a.ToString() + " / " + b.ToString();
    return false;
  }
  const DeviceStats& x = bare.stats;
  const DeviceStats& y = timed.stats;
  std::ostringstream out;
  out << "reads " << x.reads.load() << "/" << y.reads.load() << ", appends "
      << x.appends.load() << "/" << y.appends.load() << ", end_queries "
      << x.end_queries.load() << "/" << y.end_queries.load() << ", images "
      << bare.images.size() << "/" << timed.images.size() << ", spans "
      << spans;
  *detail = out.str();
  return x.reads.load() == y.reads.load() &&
         x.appends.load() == y.appends.load() &&
         x.rewrites.load() == y.rewrites.load() &&
         x.invalidations.load() == y.invalidations.load() &&
         x.end_queries.load() == y.end_queries.load() &&
         x.failed_ops.load() == y.failed_ops.load() &&
         bare.images == timed.images && spans > 0;
}

}  // namespace clio::perfbench
