// Group-commit append batching.
//
// The paper's write-cost breakdown (§3.2) is dominated by the per-call
// force of the tail block; §2.3's buffering argument is that log writes
// amortize when they share block burns. This class realizes that economy
// at the service boundary: forced appends from many concurrent sessions
// queue here, and one of their own callers applies the whole batch to the
// LogService with per-entry forcing suppressed, then issues ONE Force()
// covering the batch. N concurrent committers pay ~1 device force instead
// of N, and their entries coalesce into shared block writes.
//
// A batch closes as soon as no further committer can usefully join it:
// when every active committer (a stamped client whose last batched append
// was answered within `max_hold_us`, and which has not left since) is
// queued, when every worker that could call Append() is already in the
// queue, or at the entry/byte caps. A lone committer therefore commits on
// arrival; `max_hold_us` only bounds the wait for a committer that has
// gone quiet. There is no commit thread: the caller whose arrival closes
// the batch commits it on its own thread (or the oldest waiter, once the
// hold expires), and appends arriving meanwhile queue for the next batch —
// at most one batch commits at a time. Each waiter sleeps on its own
// condition variable; only the oldest keeps the close rule, so a commit
// wakes its members and one more thread, and the rule costs O(1).
//
// Durability contract: Append() returns only after the covering batch
// force has completed, so a caller that sees success has the same
// guarantee a direct forced append gives. If the batch force fails, every
// request in the batch is failed with that status (their bytes are in the
// buffer but not known durable).
#ifndef SRC_NET_BATCHER_H_
#define SRC_NET_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/clio/log_service.h"
#include "src/ipc/codec.h"
#include "src/net/dedup.h"
#include "src/obs/metrics.h"

namespace clio {

struct GroupCommitOptions {
  // A batch commits as soon as it holds this many entries...
  size_t max_batch_entries = 64;
  // ...or this many payload bytes...
  size_t max_batch_bytes = 1 << 20;
  // ...or, at the latest, this long after the oldest queued entry could
  // first commit (its arrival, or the end of the commit it queued behind).
  // The same span is how long an answered committer counts as active,
  // i.e. worth waiting for.
  uint64_t max_hold_us = 500;
  // When nonempty (".p<i>" on lane i of a multi-partition server), this
  // batcher additionally records into suffixed mirrors of the
  // clio.net.batch.* metrics, so per-lane commit economics are separable
  // in kStats.
  std::string metric_suffix;
};

class GroupCommitBatcher {
 public:
  // `service_mu` is LogService::mutex(): held EXCLUSIVE across the batch's
  // appends and force so a commit serializes with session dispatchers
  // (shared-lock readers included). `workers` is how many threads can be
  // inside Append() at once (the server's worker pool): a queue that long
  // closes, since no further committer can arrive.
  GroupCommitBatcher(LogService* service, std::shared_mutex* service_mu,
                     const GroupCommitOptions& options, size_t workers);
  ~GroupCommitBatcher();

  GroupCommitBatcher(const GroupCommitBatcher&) = delete;
  GroupCommitBatcher& operator=(const GroupCommitBatcher&) = delete;

  // Appends arriving after Stop() fail with kUnavailable; everything
  // already queued still commits, and Stop() returns once it has.
  void Stop();

  // Dedup bookkeeping for stamped requests (client_id != 0). The batcher
  // owns the staged/durable transition because only it can tell a failed
  // stage (nothing landed; the stamp is released) from a failed covering
  // force (the entry IS in the buffer; the stamp stays staged so a retry
  // replays instead of re-logging). Call before the first Append().
  void set_dedup(AppendDedupIndex* dedup) { dedup_ = dedup; }

  // Blocking: returns once the append is applied AND the covering batch
  // force has completed. Thread-safe; called from session threads, which
  // may run the batch's commit themselves.
  Result<AppendResult> Append(const AppendRequest& request);

  // The stamped client `client_id` has stopped committing here (its
  // session closed, or sent something other than a forced append to this
  // lane): batches stop waiting for it at once instead of after a hold. A
  // later forced append makes it a committer again.
  void Leave(uint64_t client_id);

  // Commit-economics counters (entries / batches ratio = mean batch size).
  uint64_t entries_committed() const {
    return entries_committed_.load(std::memory_order_relaxed);
  }
  uint64_t batches_committed() const {
    return batches_committed_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  // The clio.net.batch.* instruments, resolved once per batcher (the
  // registry hands out stable pointers). `labeled_` holds the suffixed
  // mirrors and is skipped when metric_suffix is empty.
  struct BatchMetrics {
    Histogram* entries = nullptr;
    Histogram* dwell_us = nullptr;
    Histogram* commit_us = nullptr;
    Counter* batches = nullptr;
    Counter* appends = nullptr;
  };

  // One waiting session-side append. Stack-allocated by Append(); the
  // queue holds pointers, and `result` is the handoff slot.
  struct Pending {
    const AppendRequest* request = nullptr;
    // When the request joined the queue; dwell time (enqueue -> commit) is
    // the latency group commit adds while waiting for company.
    Clock::time_point enqueued;
    std::optional<Result<AppendResult>> result;
    // Signalled when `result` lands and when this append becomes the
    // oldest queued one, whose waiter keeps the close rule.
    std::condition_variable cv;
  };

  // A stamped client's standing in the close rule. An entry with nothing
  // queued is an ABSENT active committer: batches wait for it until it
  // queues again, leaves, or stays quiet for a hold.
  struct Committer {
    Clock::time_point last_ack;  // its last batched append was answered
    uint32_t queued = 0;         // its appends in queue_ or committing
  };

  static BatchMetrics ResolveBatchMetrics(const std::string& suffix);

  // Under mu_, with no batch committing: whether the queue should commit
  // now. If not, `*recheck` is the earliest time that alone could change
  // the answer (the hold deadline or an absent committer going quiet).
  bool ShouldClose(Clock::time_point now, Clock::time_point* recheck);
  // Under mu_: forgets absent committers quiet for a whole hold and drops
  // dead entries from the front of acks_, so that its front (if any) is
  // the absent committer that goes quiet next.
  void ExpireQuiet(Clock::time_point now);
  // Under mu_: drops an absent committer from the close rule.
  void Forget(std::unordered_map<uint64_t, Committer>::iterator it);
  // Under `lock`: takes the head of the queue, commits it with mu_
  // released, then publishes every member's result.
  void LeadBatch(std::unique_lock<std::mutex>& lock);
  // Under mu_, with no batch committing: hands the close rule to the
  // oldest waiter, or tells Stop() the queue is drained.
  void WakeFront();
  std::vector<Result<AppendResult>> CommitBatch(
      const std::vector<Pending*>& batch);

  LogService* const service_;
  std::shared_mutex* const service_mu_;
  const GroupCommitOptions options_;
  const size_t workers_;
  AppendDedupIndex* dedup_ = nullptr;
  BatchMetrics metrics_;
  std::optional<BatchMetrics> labeled_;

  std::mutex mu_;
  // Stop() waits here for the queue to drain.
  std::condition_variable drained_cv_;
  std::deque<Pending*> queue_;
  size_t queued_bytes_ = 0;
  std::unordered_map<uint64_t, Committer> committers_;  // by client_id
  // (ack time, client_id), one per committer answered with nothing else
  // queued, in ack order. An entry is dead once its committer queues
  // again, leaves or is answered later; ExpireQuiet drops those lazily.
  std::deque<std::pair<Clock::time_point, uint64_t>> acks_;
  size_t absent_ = 0;  // committers_ entries with nothing queued
  std::vector<Pending*> batch_;  // the committing batch; owned by its leader
  Clock::time_point last_publish_;  // when the last batch's results landed
  bool committing_ = false;
  bool stopping_ = false;

  std::atomic<uint64_t> entries_committed_{0};
  std::atomic<uint64_t> batches_committed_{0};
};

}  // namespace clio

#endif  // SRC_NET_BATCHER_H_
