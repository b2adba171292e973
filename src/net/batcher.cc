#include "src/net/batcher.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {

GroupCommitBatcher::BatchMetrics GroupCommitBatcher::ResolveBatchMetrics(
    const std::string& suffix) {
  BatchMetrics m;
  m.entries = ObsRegistry().histogram("clio.net.batch.entries" + suffix);
  m.dwell_us = ObsRegistry().histogram("clio.net.batch.dwell_us" + suffix);
  m.commit_us = ObsRegistry().histogram("clio.net.batch.commit_us" + suffix);
  m.batches = ObsRegistry().counter("clio.net.batch.batches" + suffix);
  m.appends = ObsRegistry().counter("clio.net.batch.appends" + suffix);
  return m;
}

GroupCommitBatcher::GroupCommitBatcher(LogService* service,
                                       std::shared_mutex* service_mu,
                                       const GroupCommitOptions& options,
                                       size_t workers)
    : service_(service),
      service_mu_(service_mu),
      options_(options),
      workers_(workers) {
  metrics_ = ResolveBatchMetrics("");
  if (!options_.metric_suffix.empty()) {
    labeled_ = ResolveBatchMetrics(options_.metric_suffix);
  }
}

GroupCommitBatcher::~GroupCommitBatcher() { Stop(); }

void GroupCommitBatcher::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  // The oldest waiter sees stopping_ and commits at once — drain beats
  // batching — and each publish hands the queue to the next, until the
  // last one wakes this wait.
  if (!committing_) {
    WakeFront();
  }
  drained_cv_.wait(lock, [this] { return queue_.empty() && !committing_; });
}

Result<AppendResult> GroupCommitBatcher::Append(const AppendRequest& request) {
  Pending pending;
  pending.request = &request;
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    return Unavailable("group-commit batcher stopped");
  }
  pending.enqueued = Clock::now();
  queue_.push_back(&pending);
  queued_bytes_ += request.payload.size();
  if (request.client_id != 0) {
    auto [it, joined] = committers_.try_emplace(request.client_id);
    if (!joined && it->second.queued == 0) {
      --absent_;  // an awaited committer is in
    }
    ++it->second.queued;
  }
  // Only an arrival or the oldest waiter evaluates the close rule: an
  // arrival can only make it true (it queues an awaited committer or grows
  // the queue), and then the arrival itself leads the batch.
  while (!pending.result.has_value()) {
    Clock::time_point recheck;
    if (!committing_ && ShouldClose(Clock::now(), &recheck)) {
      LeadBatch(lock);
    } else if (!committing_ && queue_.front() == &pending) {
      pending.cv.wait_until(lock, recheck);
    } else {
      // One batch at a time: this append rides a later one. It wakes with
      // its result, or when it becomes the oldest and takes the rule over.
      pending.cv.wait(lock);
    }
  }
  return std::move(*pending.result);
}

void GroupCommitBatcher::Leave(uint64_t client_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = committers_.find(client_id);
  if (it == committers_.end() || it->second.queued != 0) {
    return;  // not awaited: unknown, or its own append is still in flight
  }
  Forget(it);
  if (absent_ == 0 && !committing_) {
    WakeFront();  // the batch may have been waiting for just this one
  }
}

bool GroupCommitBatcher::ShouldClose(Clock::time_point now,
                                     Clock::time_point* recheck) {
  if (queue_.empty()) {
    return false;
  }
  // Workers block inside Append(), so a queue as long as the pool means
  // nobody else can arrive to join it.
  if (stopping_ || queue_.size() >= options_.max_batch_entries ||
      queue_.size() >= workers_ || queued_bytes_ >= options_.max_batch_bytes) {
    return true;
  }
  // The hold runs from when the oldest append could first commit: its
  // arrival, or the publish of the commit it queued behind. Timed from
  // arrival alone, a commit longer than the hold would close the next
  // batch at once and split the committers into two alternating cohorts
  // (DESIGN.md §9).
  const auto hold = std::chrono::microseconds(options_.max_hold_us);
  *recheck = std::max(queue_.front()->enqueued, last_publish_) + hold;
  if (now >= *recheck) {
    return true;
  }
  // Wait only for absent active committers: each is likely mid-round-trip
  // with its next append. One quiet for a whole hold has left (or stopped
  // committing) and no longer counts.
  ExpireQuiet(now);
  if (absent_ == 0) {
    return true;
  }
  *recheck = std::min(*recheck, acks_.front().first + hold);
  return false;
}

void GroupCommitBatcher::ExpireQuiet(Clock::time_point now) {
  const auto hold = std::chrono::microseconds(options_.max_hold_us);
  while (!acks_.empty()) {
    const auto [acked, client_id] = acks_.front();
    auto it = committers_.find(client_id);
    const bool live = it != committers_.end() && it->second.queued == 0 &&
                      it->second.last_ack == acked;
    if (live && acked + hold > now) {
      return;  // the next absent committer to go quiet
    }
    if (live) {
      Forget(it);
    }
    acks_.pop_front();
  }
}

void GroupCommitBatcher::Forget(
    std::unordered_map<uint64_t, Committer>::iterator it) {
  committers_.erase(it);
  --absent_;  // its acks_ entry is dead now and is dropped lazily
}

void GroupCommitBatcher::WakeFront() {
  if (!queue_.empty()) {
    queue_.front()->cv.notify_one();
  } else if (stopping_) {
    drained_cv_.notify_all();
  }
}

void GroupCommitBatcher::LeadBatch(std::unique_lock<std::mutex>& lock) {
  size_t take_bytes = 0;
  while (!queue_.empty() && batch_.size() < options_.max_batch_entries &&
         take_bytes <= options_.max_batch_bytes) {
    Pending* pending = queue_.front();
    queue_.pop_front();
    take_bytes += pending->request->payload.size();
    queued_bytes_ -= pending->request->payload.size();
    batch_.push_back(pending);
  }
  committing_ = true;
  lock.unlock();
  std::vector<Result<AppendResult>> results = CommitBatch(batch_);
  lock.lock();
  // Answered members become absent active committers, awaited by the next
  // batch for up to a hold. Waiters read `result` under mu_; once it is
  // set their Pending may go away, so nothing here touches a member after
  // publishing it.
  const Clock::time_point acked = Clock::now();
  for (size_t i = 0; i < batch_.size(); ++i) {
    const uint64_t client_id = batch_[i]->request->client_id;
    if (client_id != 0) {
      Committer& committer = committers_[client_id];
      if (--committer.queued == 0) {
        committer.last_ack = acked;
        ++absent_;
        acks_.emplace_back(acked, client_id);
      }
    }
    batch_[i]->result = std::move(results[i]);
    batch_[i]->cv.notify_one();
  }
  batch_.clear();
  last_publish_ = acked;
  committing_ = false;
  // Keeps acks_ to one hold's worth of answers even when batches close on
  // the pool or entry caps and never reach the expiry check.
  ExpireQuiet(acked);
  WakeFront();
}

std::vector<Result<AppendResult>> GroupCommitBatcher::CommitBatch(
    const std::vector<Pending*>& batch) {
  metrics_.entries->Record(batch.size());
  if (labeled_) {
    labeled_->entries->Record(batch.size());
  }
  const Clock::time_point commit_started = Clock::now();
  for (const Pending* pending : batch) {
    const uint64_t dwell = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            commit_started - pending->enqueued)
            .count());
    metrics_.dwell_us->Record(dwell);
    if (labeled_) {
      labeled_->dwell_us->Record(dwell);
    }
  }
  ScopedTimer commit_timer(metrics_.commit_us);
  ScopedTimer labeled_commit_timer(labeled_ ? labeled_->commit_us : nullptr);

  std::vector<Result<AppendResult>> results;
  results.reserve(batch.size());
  {
    std::unique_lock<std::shared_mutex> service_lock =
        service_mu_ != nullptr
            ? std::unique_lock<std::shared_mutex>(*service_mu_)
            : std::unique_lock<std::shared_mutex>();
    for (Pending* pending : batch) {
      const AppendRequest& request = *pending->request;
      // Re-establish the request's trace context on the leader's thread
      // for the duration of its staging append, so the span here and the
      // volume-writer spans underneath attach to the right trace.
      ScopedTraceContext trace_scope(request.trace_id);
      TraceSpanTimer stage_span(TraceStage::kBatchAppend);
      WriteOptions options;
      options.timestamped = request.timestamped;
      options.force = false;  // the batch force below covers this entry
      Result<AppendResult> staged =
          service_->Append(request.path, request.payload, options);
      if (dedup_ != nullptr && request.client_id != 0) {
        if (staged.ok()) {
          dedup_->CompleteStaged(request.client_id, request.request_seq,
                                 *staged);
        } else {
          dedup_->CompleteFailure(request.client_id, request.request_seq);
        }
      }
      results.push_back(std::move(staged));
    }
    // One force covers the whole batch; record its cost under every traced
    // member, since each of those requests paid (a share of) this wait.
    // The leader's thread carries its own request's trace, so clear it:
    // the volume writer's context-driven kForce span would otherwise
    // attribute the shared force to the leader a second time.
    const uint64_t force_start_us = TraceNowUs();
    Status force = [this] {
      ScopedTraceContext untraced(0);
      return service_->Force();
    }();
    const uint64_t force_dur_us = TraceNowUs() - force_start_us;
    for (const Pending* pending : batch) {
      if (pending->request->trace_id != 0) {
        FlightRecorder::Instance().Record(pending->request->trace_id,
                                          TraceStage::kForce, force_start_us,
                                          force_dur_us);
      }
    }
    if (force.ok()) {
      if (dedup_ != nullptr) {
        // Still under the service mutex: every kStaged entry was staged
        // by an earlier critical section, so this force covered it.
        dedup_->MarkAllStagedDurable();
      }
    } else {
      // Entries are appended but not known durable: a forced-append caller
      // must not be told "committed". Stamped entries stay kStaged in the
      // dedup index, so the client's retry replays the recorded ack (after
      // a fresh force) instead of logging a duplicate.
      for (auto& result : results) {
        if (result.ok()) {
          result = force;
        }
      }
    }
  }
  batches_committed_.fetch_add(1, std::memory_order_relaxed);
  entries_committed_.fetch_add(batch.size(), std::memory_order_relaxed);
  metrics_.batches->Increment();
  metrics_.appends->Increment(batch.size());
  if (labeled_) {
    labeled_->batches->Increment();
    labeled_->appends->Increment(batch.size());
  }
  return results;
}

}  // namespace clio
