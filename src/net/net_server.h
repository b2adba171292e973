// NetLogServer: the Clio log service as a multi-client TCP server.
//
// The paper's clients reach the log server through kernel IPC (§3.2);
// here they reach it over loopback TCP: many concurrent client connections
// on a localhost TCP port, each with its own session (per-connection
// reader table, idle timeout), all dispatching onto one shared
// PartitionedLogService — a single volume is served as its one-partition
// form, so there is one dispatch path. One epoll thread multiplexes every
// socket — accepts, framed partial reads, and zero-copy reply flushes —
// while a worker pool executes decoded requests; connection count does
// not cost a thread (DESIGN.md §16). Batched-read replies are scatter
// lists over cache-pinned block images flushed with sendmsg() (no payload
// memcpy). Read ops take the owning partition's LogService::mutex()
// SHARED — write-once data lets tail scans run concurrently — and
// mutations take it EXCLUSIVE (DESIGN.md §12).
//
// Appends run on one append LANE per partition: the partition's
// LogService, its own group-commit batcher (forced appends share device
// forces, src/net/batcher.h) and its own dedup index, so appends to
// different partitions batch, force, and dedup fully in parallel
// (DESIGN.md §14).
//
// Robustness: a malformed or oversized frame closes only the offending
// connection; a decodable frame with a garbage body gets an error reply
// and the connection lives on. Stop() drains gracefully — in-flight
// requests finish and are answered before their sockets close.
#ifndef SRC_NET_NET_SERVER_H_
#define SRC_NET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/ipc/codec.h"
#include "src/net/batcher.h"
#include "src/net/dedup.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/obs/telemetry.h"
#include "src/scrub/scrubber.h"

namespace clio {

class PartitionedLogService;

struct NetLogServerOptions {
  uint16_t port = 0;  // 0: kernel-chosen; read it back with port()
  // A session with no traffic for this long is closed. 0 disables.
  uint64_t idle_timeout_ms = 60'000;
  // Group-commit batching of forced appends. With batching off every
  // forced append pays its own device force (batch size 1).
  bool batching = true;
  GroupCommitOptions batch;
  // Per-frame body cap for this server (see src/net/frame.h).
  uint32_t max_frame_body = kMaxFrameBodySize;
  // Stall limit on a connection's I/O: a frame left half-sent, or a reply
  // the peer stops draining, for this long closes the connection, so a
  // hung or hostile client cannot hold server state forever. 0 disables.
  uint64_t session_io_timeout_ms = 10'000;
  // Dedup windows for stamped appends (see src/net/dedup.h), one per
  // append lane (size must equal the partition count). Dedup state is PER
  // PARTITION — a log file never changes partitions, so a retried stamp
  // always lands on the index that recorded it. Empty: the server owns
  // private indexes; a supervisor that restarts servers should pass
  // long-lived ones so retried appends whose acks were lost to a crash
  // still deduplicate after the restart.
  std::vector<AppendDedupIndex*> dedup;
  // Online scrubbing (DESIGN.md §15): one background Scrubber per append
  // lane, started with the server and stopped by Stop(). With several
  // lanes, lane i's scrub metrics mirror under ".p<i>", same as the batch
  // metrics.
  bool scrub = false;
  ScrubOptions scrub_options;
  // Self-hosted telemetry (DESIGN.md §18): a background TelemetrySampler
  // journals windowed metric deltas to the reserved system log file
  // `/.sys/telemetry` (created through the normal write path on boot, on
  // partition 0), started with the server and flushed by
  // Stop(). The journal is an ordinary log file: durable across restarts,
  // timestamp-searchable, covered by the v2 hash chain.
  bool telemetry = false;
  TelemetrySamplerOptions telemetry_options;
  // SLO rules behind the kHealth op and the slow-request exemplar ring.
  SloRules slo = SloRules::Defaults();
  // Test knob: SO_SNDBUF for accepted session sockets, in bytes. Shrinking
  // it makes the kernel's send queue fill deterministically so backpressure
  // tests can force the partial-flush (EPOLLOUT) path. 0: kernel default.
  int accept_sndbuf = 0;
};

class NetLogServer {
 public:
  // Serves one volume sequence: wraps `service` as a one-partition
  // deployment (PartitionedLogService::Borrow) and starts as below.
  // `service` must outlive the server.
  static Result<std::unique_ptr<NetLogServer>> Start(
      LogService* service, const NetLogServerOptions& options = {});

  // Binds, then starts the event loop, the workers, and one append LANE
  // per partition — the partition's LogService, its own group-commit
  // batcher (so batches never mix partitions and N covering forces run
  // concurrently), and its own dedup index. Appends route to the owning
  // lane via the service's router and contend only on that lane's lock;
  // reads and searches fan out through the service. `service` must
  // outlive the server.
  static Result<std::unique_ptr<NetLogServer>> Start(
      PartitionedLogService* service, const NetLogServerOptions& options = {});
  ~NetLogServer();

  NetLogServer(const NetLogServer&) = delete;
  NetLogServer& operator=(const NetLogServer&) = delete;

  // Graceful drain: stops accepting, lets every connection finish its
  // in-flight request (including queued batch commits) and flush its
  // reply, joins all threads. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // -- Counters (readable while the server runs). --
  uint64_t sessions_opened() const { return sessions_opened_.load(); }
  uint64_t sessions_idle_closed() const {
    return sessions_idle_closed_.load();
  }
  uint64_t frames_dispatched() const { return frames_dispatched_.load(); }
  uint64_t frames_rejected() const { return frames_rejected_.load(); }
  size_t lane_count() const { return lanes_.size(); }
  // Threads that execute requests; appends block one each in a batcher.
  size_t worker_count() const { return worker_threads_.size(); }
  // Lane 0's instances (the only lane when serving one volume).
  const GroupCommitBatcher* batcher() const { return batcher(0); }
  const AppendDedupIndex* dedup() const { return dedup(0); }
  // Per-lane access, for tests asserting lane isolation.
  const GroupCommitBatcher* batcher(size_t lane) const {
    return lanes_[lane].batcher.get();
  }
  const AppendDedupIndex* dedup(size_t lane) const {
    return lanes_[lane].dedup;
  }
  // Lane i's scrubber; null unless options.scrub was set.
  const Scrubber* scrubber(size_t lane = 0) const {
    return lanes_[lane].scrubber.get();
  }
  // The telemetry sampler; null unless options.telemetry was set.
  const TelemetrySampler* sampler() const { return sampler_.get(); }

 private:
  // One append path: a partition's service, batcher, and dedup window.
  struct AppendLane {
    LogService* service = nullptr;
    std::unique_ptr<GroupCommitBatcher> batcher;
    AppendDedupIndex* dedup = nullptr;
    std::unique_ptr<AppendDedupIndex> owned_dedup;
    std::unique_ptr<Scrubber> scrubber;
  };

  // One event-loop connection: transport state machine + this session's
  // dispatcher. Defined in net_server.cc.
  struct Conn;

  NetLogServer(PartitionedLogService* service,
               std::unique_ptr<PartitionedLogService> owned_service,
               const NetLogServerOptions& options);

  // Shared by both Starts: binds the listener, builds one lane per
  // partition (with per-lane ".p<i>" metric suffixes when there are
  // several), and starts the event loop and workers.
  static Result<std::unique_ptr<NetLogServer>> Boot(
      std::unique_ptr<NetLogServer> server);

  // -- Internals (all socket I/O on the loop thread). --
  void LoopMain();
  void WorkerMain();
  void LoopAccept();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void FlushReply(Conn* conn);
  void DrainCompletions();
  void SweepDeadlines();
  void CloseConn(Conn* conn);
  // Builds the connection's dispatcher: appends go to RouteAppend, reads
  // fan out through the service, kReadBatch replies are zero-copy.
  void SetUpDispatcher(Conn* conn);
  // Routes one decoded append from `conn`'s session to its lane.
  Result<AppendResult> RouteAppend(Conn* conn, const AppendRequest& request);
  // Records that `conn`'s session now commits through `batcher` under
  // `client_id` (null: commits nowhere), leaving the batcher it was on.
  void NoteCommit(Conn* conn, GroupCommitBatcher* batcher, uint64_t client_id);
  Result<AppendResult> ExecuteAppend(AppendLane& lane,
                                     const AppendRequest& request);
  Status ForceLane(AppendLane& lane);

  // -- Telemetry / health plane (src/obs/telemetry.h). --
  // Creates /.sys and the journal through the normal write path (no-ops
  // when they already exist, i.e. after a restart).
  Status EnsureTelemetryJournal();
  // The sampler's append closure: one encoded record to the journal.
  Status AppendTelemetry(std::span<const std::byte> record);
  // The kHealth evaluator: windowed rules over the live registry, with
  // slow-request exemplars attached.
  HealthReport EvaluateServerHealth();

  // Start(LogService*)'s one-partition wrap; null when the caller owns
  // the service.
  const std::unique_ptr<PartitionedLogService> owned_service_;
  PartitionedLogService* const service_;
  const NetLogServerOptions options_;
  TcpSocket listener_;
  uint16_t port_ = 0;
  std::vector<AppendLane> lanes_;
  std::unique_ptr<TelemetrySampler> sampler_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() already ran to completion

  // -- Connection state. conns_ is loop-thread-confined; the queues carry
  // parked connections between the loop and the workers. --
  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Conn*> work_queue_;
  std::mutex done_mu_;
  std::vector<Conn*> done_queue_;

  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_idle_closed_{0};
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> frames_rejected_{0};
};

}  // namespace clio

#endif  // SRC_NET_NET_SERVER_H_
