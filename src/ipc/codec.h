// Wire codec of the log service: the request/reply bodies that travel
// inside the TCP frames of src/net/ (see src/net/frame.h), plus the
// server-side half built on them:
//
//  - ServiceDispatcher: decodes one request body, executes it against a
//    PartitionedLogService (a single volume is its one-partition form),
//    and encodes the reply as a WireMessage. One instance per client
//    session (it owns that session's reader table).
//
// The typed client stub over these bodies is NetLogClient
// (src/net/net_client.h).
//
// Reply bodies carry: u8 status code, u16-length-prefixed message string,
// then an op-specific payload.
#ifndef SRC_IPC_CODEC_H_
#define SRC_IPC_CODEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/clio/log_service.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/partition/partitioned_service.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// Wire operations.
enum class LogOp : uint32_t {
  kCreateLogFile = 1,
  kAppend = 2,
  kOpenReader = 3,
  kCloseReader = 4,
  kReadNext = 5,
  kReadPrev = 6,
  kSeekToTime = 7,
  kSeekToStart = 8,
  kSeekToEnd = 9,
  kStat = 10,
  kForce = 11,
  // Versioned snapshot of the process-wide MetricsRegistry (empty request
  // body; reply payload = EncodeStatsSnapshot). The request is counted in
  // the per-op metrics BEFORE the snapshot is taken, so a STATS reply
  // always includes itself.
  kStats = 12,
  // Batched forward read: up to `max_entries` consecutive entries of one
  // reader handle in a single round trip (request: u64 handle, u32
  // max_entries; reply payload = entry batch). Amortizes framing and
  // syscalls for tail scans; see NetLogClient::ReadNextBatch.
  kReadBatch = 13,
  // Dump of the server's flight recorder (src/obs/trace.h). Request: u64
  // min_total_us (slow-request filter; 0 = everything), u32 max_spans
  // (reply budget; 0 = server default). Reply payload = EncodeTraceDump.
  // Like kStats it never takes the service mutex, so tracing a wedged
  // server works.
  kTraceDump = 14,
  // Partition topology of the server (src/partition/). Request: string
  // path ("" = topology only). Reply payload: u32 partition_count, u8
  // has_route, u32 home partition of the path (valid when has_route = 1).
  // A single-volume server answers partition_count = 1.
  kPartitionInfo = 15,
  // Single-entry inclusion proof (DESIGN.md §15): the server proves that
  // the entry of `path` with exact timestamp `t` is committed to by the
  // volume hash chain, without the client reading the volume. Request:
  // string path, i64 timestamp. Reply payload = ChainProof::EncodeTo. The
  // client verifies with ChainProof::Verify (see
  // NetLogClient::VerifyEntry); kFailedPrecondition on unchained (v1)
  // volumes, kCorrupt when the server detects a broken chain while
  // building the proof.
  kVerifyChain = 16,
  // Health of the server against its SLO rules (src/obs/telemetry.h).
  // Request: empty. Reply payload = EncodeHealthReport: overall
  // OK/DEGRADED/UNHEALTHY, machine-readable breach reasons, and slow-
  // request exemplars (trace ids usable with kTraceDump). Like kStats it
  // never takes the service mutex, so health-checking a wedged server
  // works — that wedge is exactly what it exists to report.
  kHealth = 17,
};

// Stable lowercase metric-label name for an op ("append", "stats", ...);
// "unknown" for out-of-range values.
std::string_view LogOpName(LogOp op);

// A log entry as unmarshalled by a client stub.
struct RemoteEntry {
  LogFileId logfile_id = kNoLogFileId;
  Timestamp timestamp = 0;
  bool timestamp_exact = false;
  Bytes payload;
};

// -- Reply bodies. --
Bytes EncodeOkReplyBody(std::span<const std::byte> payload = {});
Bytes EncodeErrorReplyBody(const Status& status);
// Splits a reply body into its payload, or the error it carries.
Result<Bytes> DecodeReplyBody(std::span<const std::byte> body);

// -- Scatter-gather reply bodies (the zero-copy reply path). --
//
// A WireMessage is a reply body held as a sequence of slices: owned bytes
// (status prefix, record metadata) interleaved with borrowed views into
// block images held alive by shared_ptr and kept cache-resident by pin
// leases. The event-loop server flushes one with writev(), so borrowed
// payload bytes go from the block image straight to the socket without an
// intermediate copy. Flatten() produces the byte-identical contiguous
// form; every transport-visible encoding decision lives in the encoders
// below, never in the slicing.
struct WireSlice {
  Bytes owned;         // used when ref.image == nullptr
  PayloadSegment ref;  // borrowed view (+ pin) otherwise
  bool borrowed() const { return ref.image != nullptr; }
  std::span<const std::byte> view() const {
    return borrowed() ? ref.view() : std::span<const std::byte>(owned);
  }
};

class WireMessage {
 public:
  bool empty() const { return slices_.empty(); }
  const std::vector<WireSlice>& slices() const { return slices_; }
  size_t total_bytes() const { return total_bytes_; }
  // Bytes that will be written directly from block images (the zero-copy
  // savings; feeds clio.net.reply.zerocopy_bytes).
  size_t borrowed_bytes() const { return borrowed_bytes_; }

  void AddOwned(Bytes bytes);
  void AddBorrowed(PayloadSegment segment);

  // Contiguous form, byte-identical to what a flat encoder would have
  // produced. For tests comparing a reply against a reference encoding.
  Bytes Flatten() const;

 private:
  std::vector<WireSlice> slices_;
  size_t total_bytes_ = 0;
  size_t borrowed_bytes_ = 0;
};

// -- Log file attributes (the reply payload of kStat). --
Bytes EncodeLogFileInfo(const LogFileInfo& info);
Result<LogFileInfo> DecodeLogFileInfo(std::span<const std::byte> payload);

// -- Entry records (the reply payload of kReadNext / kReadPrev). --
Bytes EncodeEntryRecord(const std::optional<LogEntryRecord>& record);
Result<std::optional<RemoteEntry>> DecodeEntryRecord(
    std::span<const std::byte> payload);

// -- Entry batches (the reply payload of kReadBatch). --
//
// A batch may come back shorter than requested for two reasons the client
// must distinguish: the server hit the end of the log (`at_end`, no point
// asking again until more is appended), or it hit the reply byte budget
// (ask again to continue).
struct EntryBatch {
  std::vector<RemoteEntry> entries;
  bool at_end = false;
};
Bytes EncodeEntryBatch(const std::vector<LogEntryRecord>& records,
                       bool at_end);
Result<EntryBatch> DecodeEntryBatch(std::span<const std::byte> payload);

// Scatter form of EncodeOkReplyBody(EncodeEntryBatch(records, at_end)):
// record metadata accumulates in owned slices; payloads carried as
// PayloadSegments (zero-copy readers) become borrowed slices referencing
// the block images directly. Byte-identical to the flat form after
// Flatten(); records with flat payloads are inlined into the metadata
// slice unchanged.
void EncodeEntryBatchReplyTo(const std::vector<LogEntryRecord>& records,
                             bool at_end, WireMessage* out);

// -- Append requests (the request body of kAppend). --
//
// `client_id` / `request_seq` are the idempotency stamp for retried
// appends: a client that retransmits an append after a lost reply reuses
// the stamp, and a server keeping a dedup window acknowledges the
// retransmit with the original result instead of logging the entry twice.
// A zero client_id means "unstamped" (no retry dedup); NetLogClient
// always stamps, so only hand-built requests are unstamped.
struct AppendRequest {
  std::string path;
  bool timestamped = false;
  bool force = false;
  uint64_t client_id = 0;
  uint64_t request_seq = 0;
  Bytes payload;
  // Not on the wire (the frame header carries it): the dispatcher copies
  // its thread's trace context here so an append staged by another
  // session's thread (a group-commit batch leader) keeps its trace.
  uint64_t trace_id = 0;
};
Bytes EncodeAppendRequest(std::string_view path,
                          std::span<const std::byte> payload, bool timestamped,
                          bool force, uint64_t client_id = 0,
                          uint64_t request_seq = 0);
Result<AppendRequest> DecodeAppendRequest(std::span<const std::byte> body);

// "No explicit placement" sentinel in a kCreateLogFile body's trailing
// placement field (see NetLogClient::CreateLogFilePlaced).
constexpr uint32_t kNoPartitionPlacement = 0xFFFFFFFFu;

// Executes decoded requests against a PartitionedLogService and encodes
// replies. Any malformed body gets an InvalidArgument reply, never a crash.
//
// Thread safety: the dispatcher itself is confined to one session thread
// (its reader table is unsynchronized); concurrency control lives in the
// service, which takes the owning partition's lock per call — SHARED for
// reads, EXCLUSIVE for mutations (LogService::mutex()). kCloseReader
// touches only the session-local reader table; kStats reads only the
// internally synchronized metrics registry; kTraceDump only the flight
// recorder. kAppend runs through `append_fn` — the net server's dedup +
// group-commit hook — which must arrange its own locking.
class ServiceDispatcher {
 public:
  using AppendFn =
      std::function<Result<AppendResult>(const AppendRequest& request)>;
  using HealthFn = std::function<HealthReport()>;

  // `service` must outlive the dispatcher. `append_fn` executes every
  // kAppend; `health_fn` answers kHealth (the server's windowed evaluator:
  // sampler snapshots + configured rules). Both must be callable.
  ServiceDispatcher(PartitionedLogService* service, AppendFn append_fn,
                    HealthFn health_fn)
      : service_(service),
        append_fn_(std::move(append_fn)),
        health_fn_(std::move(health_fn)) {}

  // Executes one request and returns the reply body. Readers are opened
  // zero-copy, so a kReadBatch reply keeps entry payloads as borrowed
  // slices over the pinned block images; every other reply is one owned
  // slice. Flatten() gives the contiguous body.
  WireMessage Dispatch(LogOp op, std::span<const std::byte> body);

 private:
  // Every op but kReadBatch: the flat reply body.
  Bytes Execute(LogOp op, std::span<const std::byte> body);
  // The kReadBatch handler; appends the (scatter) reply to `out`.
  void ReadBatch(std::span<const std::byte> body, WireMessage* out);

  PartitionedLogService* service_;
  AppendFn append_fn_;
  HealthFn health_fn_;
  std::map<uint64_t, std::unique_ptr<PartitionedLogReader>> readers_;
  uint64_t next_handle_ = 1;
};

}  // namespace clio

#endif  // SRC_IPC_CODEC_H_
