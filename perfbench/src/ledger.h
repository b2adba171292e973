// The traced trial's per-layer ledger inputs: an in-process replay of the
// trial's generated op stream against a LogService on the timing device,
// timed calls into single public functions on the trial's own data, and
// the writer of the trace file perfbench/report.py turns into the
// per-layer table.
#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/clio/log_service.h"
#include "src/device/memory_worm_device.h"

namespace clio::perfbench {

// One generated append: payload (file, seq) appended to paths[file].
struct AppendOp {
  uint32_t file = 0;
  uint32_t seq = 0;
  bool force = false;
  int64_t op = -1;  // op index shared with the wire run's client span
};

// One generated read op against paths[file]. A locate seeks to `target`
// and steps back once; a scan seeks to `target` and steps forward
// `scan_entries` times.
struct ReadOp {
  uint32_t file = 0;
  Timestamp target = 0;
  uint32_t scan_entries = 0;  // 0: locate
  int64_t op = -1;
};

// Appends `ops` in order to a fresh single-threaded LogService on a
// TimingDevice over a default MemoryWormDevice, forcing after every op
// marked force and, when `force_every` > 0, after every `force_every`
// appends (the wire run's mean batch size). Records service.append /
// service.force spans. `timestamps` receives each (file, seq)'s timestamp
// for read replays.
Result<std::unique_ptr<LogService>> ReplayAppends(
    const PayloadSpec& spec, const std::vector<std::string>& paths,
    const std::vector<AppendOp>& ops, size_t force_every, TimeSource* clock,
    std::map<std::pair<uint32_t, uint32_t>, Timestamp>* timestamps);

// Runs `ops` in-process against `service` (no other thread may use it),
// recording reader.open / reader.seek / reader.prev / reader.next spans and
// summing the locates' OpStats into `input`.
Status ReplayReads(LogService* service, const std::vector<std::string>& paths,
                   const std::vector<ReadOp>& ops, LedgerInput* input);

// Timed EncodeAppendRequest / DecodeAppendRequest / DecodeFrameHeader over
// the trial's append requests, and DecodeEntryBatch over 256-entry batches
// of its entries.
void TimeCodec(const PayloadSpec& spec, const std::vector<std::string>& paths,
               const std::vector<AppendOp>& ops, LedgerInput* input);

// Timed ParsedBlock::Parse, ChainBlockCommit, Sha256Of and Crc32c over the
// images burned on `devices`.
void TimeImages(const std::vector<std::shared_ptr<MemoryWormDevice>>& devices,
                LedgerInput* input);

// Writes the ledger inputs, registry deltas and every recorded span to
// `path` as one JSON document.
Status WriteLedger(const std::string& path, const LedgerInput& input,
                   const std::vector<Span>& spans);

// Replays a seeded single-client op stream in-process twice, once on a bare
// MemoryWormDevice and once through TimingDevice (tracing on), and checks
// that DeviceStats counts and every burned image are identical. Returns
// true when they are.
bool DeviceSelfCheck(std::string* detail);

}  // namespace clio::perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
