// NetLogClient: the typed, fault-tolerant client stub of the log service.
//
// The transport is one frame per request over a loopback TCP connection
// to a NetLogServer (bodies per src/ipc/codec.h, framing per
// src/net/frame.h). Synchronous: each call writes the request frame and
// blocks for the matching reply.
//
// Fault tolerance (DESIGN.md §10):
//  - Transport failures (server gone, connection reset, I/O deadline)
//    trigger automatic reconnect with capped exponential backoff and a
//    retransmit of the same frame. Appends are stamped with
//    (client_id, request_seq) so the server's dedup window makes the
//    retransmit idempotent — an append acked while the reply was lost is
//    re-acked, not re-logged.
//  - Server replies of kUnavailable (transient storage faults) are
//    retried on the live connection, same stamp, same backoff schedule.
//  - Reader handles are virtualized: the handles this client returns are
//    client-side, each backed by a server handle plus replay state
//    (anchor seek + net cursor offset). After a reconnect the server-side
//    reader is gone; the next read re-opens it and replays the cursor —
//    deterministic because the log is append-only.
//
// Thread-safe in the trivial way — an internal mutex admits one
// outstanding call at a time — so concurrency across the wire comes from
// multiple clients, exactly the many-connections shape the server
// batches over.
#ifndef SRC_NET_NET_CLIENT_H_
#define SRC_NET_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace clio {

// Retry/backoff schedule for one logical Call(). Attempt 1 is the
// original transmission; each further attempt sleeps the current backoff
// first, then doubles it up to `max_backoff_ms`.
struct NetRetryPolicy {
  int max_attempts = 8;
  uint64_t initial_backoff_ms = 2;
  uint64_t max_backoff_ms = 250;
};

struct NetClientOptions {
  // Idempotency identity for this client's appends. 0 auto-generates a
  // process-unique nonzero id. Reusing an id across client instances
  // (e.g. a restarted process) joins the same server dedup window.
  uint64_t client_id = 0;
  NetRetryPolicy retry;
  // Socket deadline for each blocking send/recv (see
  // TcpSocket::SetIoTimeout). 0 disables; a hung server then wedges the
  // caller forever.
  uint64_t io_timeout_ms = 10'000;
};

class NetLogClient {
 public:
  static Result<std::unique_ptr<NetLogClient>> Connect(
      uint16_t port, const NetClientOptions& options = {});

  NetLogClient(const NetLogClient&) = delete;
  NetLogClient& operator=(const NetLogClient&) = delete;

  // Closes the connection for good; subsequent calls fail with
  // kUnavailable and no reconnect is attempted.
  void Disconnect();

  uint64_t client_id() const { return client_id_; }
  // Successful re-establishments of the TCP connection after a failure.
  uint64_t reconnects() const { return reconnects_.load(); }
  // Retransmissions (any attempt after the first, transport or server
  // kUnavailable).
  uint64_t retries() const { return retries_.load(); }
  // Trace id stamped on the most recently issued request. A retried
  // request keeps its id (the frame is encoded once), so this identifies
  // the logical request across retransmits — tests correlate it against a
  // server-side trace dump.
  uint64_t last_trace_id() const { return last_trace_id_.load(); }

  Result<LogFileId> CreateLogFile(std::string_view path,
                                  uint32_t permissions = 0644);
  // CreateLogFile with an explicit home partition (tests pinning placement
  // on a partitioned server; see src/partition/). The placement rides as a
  // trailing field old servers ignore; a server rejects placements outside
  // its partition range (a single volume accepts only 0).
  Result<LogFileId> CreateLogFilePlaced(std::string_view path,
                                        uint32_t permissions,
                                        uint32_t partition);
  // Partition topology (kPartitionInfo): how many partitions the server
  // runs, and — when `path` is nonempty — which one owns that log file.
  Result<PartitionInfoResult> GetPartitionInfo(std::string_view path = "");
  // Returns the server-assigned timestamp (the entry's unique id for
  // synchronous writers, §2.1).
  Result<Timestamp> Append(std::string_view path,
                           std::span<const std::byte> payload,
                           bool timestamped = false, bool force = false);

  // -- Reader API. Handles returned here are client-side and survive
  // server restarts; see header comment. --
  Result<uint64_t> OpenReader(std::string_view path);
  Status CloseReader(uint64_t handle);
  Result<std::optional<RemoteEntry>> ReadNext(uint64_t handle);
  Result<std::optional<RemoteEntry>> ReadPrev(uint64_t handle);
  // Up to `max_entries` consecutive entries in one round trip (kReadBatch).
  // Prefer iterating via BatchedReader, which refills transparently.
  Result<EntryBatch> ReadNextBatch(uint64_t handle, uint32_t max_entries);
  Status SeekToTime(uint64_t handle, Timestamp t);
  Status SeekToStart(uint64_t handle);
  Status SeekToEnd(uint64_t handle);

  Result<LogFileInfo> Stat(std::string_view path);
  Status Force();
  // Raw inclusion proof for the entry of `path` with exact timestamp `t`
  // (kVerifyChain), undecoded beyond framing. Most callers want
  // VerifyEntry below, which also checks the proof.
  Result<ChainProof> FetchChainProof(std::string_view path, Timestamp t);
  // Fetches the proof AND verifies it client-side (ChainProof::Verify):
  // recomputes the record hash, reassembles the block commit, and links to
  // the head tag — then cross-checks that the proven entry really carries
  // timestamp `t`. Returns the proven entry; kCorrupt if the proof does
  // not hold up (a tampered volume, or a server lying about the entry).
  Result<RemoteEntry> VerifyEntry(std::string_view path, Timestamp t);
  // Fetches the server's metrics snapshot (counters, gauges, latency
  // histograms) via the kStats op.
  Result<StatsSnapshot> GetStats();
  // Fetches recent spans from the server's flight recorder (kTraceDump).
  // `min_total_us` > 0 keeps only requests at least that slow end to end;
  // `max_spans` > 0 bounds the reply (newest spans win), 0 accepts the
  // server's default budget.
  Result<TraceDump> DumpTraces(uint64_t min_total_us = 0,
                               uint32_t max_spans = 0);
  // Fetches the server's SLO health report (kHealth): overall state,
  // breach reasons, and slow-request trace-id exemplars.
  Result<HealthReport> GetHealth();

 private:
  // Where a reader's cursor replay starts from after re-establishment.
  enum class Anchor { kStart, kEnd, kTime };

  struct ReaderState {
    std::string path;
    uint64_t server_handle = 0;
    uint64_t generation = 0;  // connection generation the handle lives on
    Anchor anchor = Anchor::kStart;
    Timestamp anchor_time = 0;
    // Net cursor movement since the anchor: +1 per successful Next, -1
    // per successful Prev. Replayed verbatim on re-establishment.
    int64_t offset = 0;
  };

  NetLogClient(TcpSocket socket, uint16_t port,
               const NetClientOptions& options, uint64_t client_id);

  // One logical request/reply, retried across reconnects and server
  // kUnavailable; returns the reply payload or the error status the server
  // (or the transport) produced.
  Result<Bytes> Call(LogOp op, const Bytes& body);

  // One-shot round trips on a raw server-side reader handle, under the
  // virtualized reader API.
  Result<uint64_t> OpenServerReader(std::string_view path);
  // kReadNext or kReadPrev.
  Result<std::optional<RemoteEntry>> ServerStep(LogOp op, uint64_t handle);
  Result<EntryBatch> ServerReadBatch(uint64_t handle, uint32_t max_entries);

  // Reconnects if the socket is down. Requires mu_ held.
  Status EnsureConnectedLocked();
  // One frame round trip on the current socket. Requires mu_ held. A
  // non-ok status here means the transport failed (the socket has been
  // closed); a server-side error arrives as the Result of the decoded
  // reply body instead.
  Result<Bytes> RoundTripLocked(const Bytes& frame, uint64_t request_id);

  // Re-opens `state`'s server-side reader on the current connection
  // generation and replays its cursor. Requires readers_mu_ held.
  Status ReestablishReader(ReaderState* state);
  // Runs `op` against the reader, re-establishing across reconnects.
  // Requires readers_mu_ held.
  template <typename Op>
  auto WithReader(uint64_t handle, Op op)
      -> decltype(op(std::declval<ReaderState*>()));

  const uint16_t port_;
  const NetClientOptions options_;
  const uint64_t client_id_;

  std::mutex mu_;  // one outstanding call per client
  TcpSocket socket_;
  bool closed_ = false;  // Disconnect() was called
  uint64_t next_request_id_ = 1;

  std::mutex readers_mu_;  // held across whole reader ops; ordered before mu_
  std::map<uint64_t, ReaderState> readers_;
  uint64_t next_virtual_handle_ = 1;

  std::atomic<uint64_t> generation_{1};  // bumped on every reconnect
  std::atomic<uint64_t> append_seq_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> last_trace_id_{0};
};

// Pull-style forward iterator over a reader handle, fetching kReadBatch
// batches of `batch_size` entries and draining them locally: a 10k-entry
// tail scan costs ~10k/batch_size round trips instead of 10k. Safe for
// tailing: after the server reports end-of-log, the next Next() past the
// drained buffer returns nullopt once without an extra RPC, and the call
// after that re-polls the server for newly appended entries.
class BatchedReader {
 public:
  BatchedReader(NetLogClient* client, uint64_t handle,
                uint32_t batch_size = 32)
      : client_(client), handle_(handle), batch_size_(batch_size) {}

  // The next entry, or nullopt at (the current) end of the log.
  Result<std::optional<RemoteEntry>> Next();

 private:
  NetLogClient* client_;
  uint64_t handle_;
  uint32_t batch_size_;
  std::vector<RemoteEntry> buffer_;
  size_t pos_ = 0;
  bool at_end_ = false;  // last refill hit end-of-log
};

}  // namespace clio

#endif  // SRC_NET_NET_CLIENT_H_
