#include "src/net/net_client.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// splitmix64 finalizer: spreads (client_id, request_id) into a trace id
// that is unique across clients with overwhelming probability and never 0.
uint64_t MixTraceId(uint64_t client_id, uint64_t request_id) {
  uint64_t z = client_id + 0x9E3779B97F4A7C15ull * request_id;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// Process-unique nonzero identity for auto-assigned client ids. Mixing in
// the clock keeps ids distinct across processes sharing one server.
uint64_t GenerateClientId() {
  static std::atomic<uint64_t> counter{0};
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  id ^= counter.fetch_add(1) + 1;
  return id == 0 ? 1 : id;
}

Bytes PathBody(std::string_view path) {
  Bytes body;
  // Sized up front; without it gcc 12 misreports the string copy below as
  // out of bounds (-Warray-bounds).
  body.reserve(2 + path.size());
  ByteWriter w(&body);
  w.PutString(path);
  return body;
}

Bytes HandleBody(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  return body;
}

Bytes SeekToTimeBody(uint64_t handle, Timestamp t) {
  Bytes body = HandleBody(handle);
  ByteWriter w(&body);
  w.PutI64(t);
  return body;
}

// The u16 log-file id of a kCreateLogFile reply.
Result<LogFileId> DecodeCreateReply(std::span<const std::byte> reply) {
  ByteReader r(reply);
  LogFileId id = r.GetU16();
  if (r.failed()) {
    return Corrupt("malformed create reply");
  }
  return id;
}

StatusCode CodeOf(const Status& status) { return status.code(); }
template <typename T>
StatusCode CodeOf(const Result<T>& result) {
  return result.status().code();
}

}  // namespace

NetLogClient::NetLogClient(TcpSocket socket, uint16_t port,
                           const NetClientOptions& options, uint64_t client_id)
    : port_(port), options_(options), client_id_(client_id),
      socket_(std::move(socket)) {}

Result<std::unique_ptr<NetLogClient>> NetLogClient::Connect(
    uint16_t port, const NetClientOptions& options) {
  CLIO_ASSIGN_OR_RETURN(TcpSocket socket, TcpSocket::ConnectLoopback(port));
  if (options.io_timeout_ms > 0) {
    CLIO_RETURN_IF_ERROR(socket.SetIoTimeout(options.io_timeout_ms));
  }
  uint64_t client_id =
      options.client_id != 0 ? options.client_id : GenerateClientId();
  return std::unique_ptr<NetLogClient>(
      new NetLogClient(std::move(socket), port, options, client_id));
}

void NetLogClient::Disconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  socket_.ShutdownBoth();
  socket_.Close();
}

Status NetLogClient::EnsureConnectedLocked() {
  if (closed_) {
    return Unavailable("client disconnected");
  }
  if (socket_.valid()) {
    return Status::Ok();
  }
  CLIO_ASSIGN_OR_RETURN(TcpSocket socket, TcpSocket::ConnectLoopback(port_));
  if (options_.io_timeout_ms > 0) {
    CLIO_RETURN_IF_ERROR(socket.SetIoTimeout(options_.io_timeout_ms));
  }
  socket_ = std::move(socket);
  // The old connection's server-side session (and its reader table) is
  // gone; readers notice via this generation bump and re-establish.
  generation_.fetch_add(1);
  reconnects_.fetch_add(1);
  static Counter* reconnects =
      ObsRegistry().counter("clio.net.client.reconnects");
  reconnects->Increment();
  return Status::Ok();
}

Result<Bytes> NetLogClient::RoundTripLocked(const Bytes& frame,
                                            uint64_t request_id) {
  // Any failure below poisons the connection: we can no longer know where
  // frame boundaries are, so drop the socket and let the caller's retry
  // loop reconnect.
  auto fail = [this](Status status) -> Result<Bytes> {
    socket_.Close();
    return status;
  };
  Status sent = socket_.WriteAll(frame);
  if (!sent.ok()) {
    return fail(std::move(sent));
  }
  Bytes reply_header_buf(kFrameHeaderSize);
  auto n = socket_.ReadFull(reply_header_buf);
  if (!n.ok()) {
    return fail(n.status());
  }
  if (*n != kFrameHeaderSize) {
    return fail(Unavailable("server closed the connection"));
  }
  auto reply_header = DecodeFramePrefix(reply_header_buf);
  if (!reply_header.ok()) {
    return fail(reply_header.status());
  }
  const size_t ext_size = FrameExtensionSize(reply_header->version);
  if (ext_size > 0) {
    Bytes ext_buf(ext_size);
    n = socket_.ReadFull(ext_buf);
    if (!n.ok()) {
      return fail(n.status());
    }
    if (*n != ext_size) {
      return fail(Unavailable("server closed mid-header"));
    }
    Status ext = DecodeFrameExtension(ext_buf, &reply_header.value());
    if (!ext.ok()) {
      return fail(std::move(ext));
    }
  }
  if (reply_header->request_id != request_id) {
    return fail(Corrupt("reply for a different request id"));
  }
  Bytes reply_body(reply_header->body_size);
  if (reply_header->body_size > 0) {
    n = socket_.ReadFull(reply_body);
    if (!n.ok()) {
      return fail(n.status());
    }
    if (*n != reply_header->body_size) {
      return fail(Unavailable("server closed mid-reply"));
    }
  }
  return reply_body;
}

Result<Bytes> NetLogClient::Call(LogOp op, const Bytes& body) {
  std::lock_guard<std::mutex> lock(mu_);
  static Counter* calls = ObsRegistry().counter("clio.net.client.calls");
  static Histogram* call_us =
      ObsRegistry().histogram("clio.net.client.call_us");
  calls->Increment();
  ScopedTimer timer(call_us);
  FrameHeader header;
  header.op = static_cast<uint32_t>(op);
  header.request_id = next_request_id_++;
  header.trace_id = MixTraceId(client_id_, header.request_id);
  last_trace_id_.store(header.trace_id);
  // Encoded once: a retransmitted append carries the identical
  // (client_id, request_seq) stamp — which is what makes the server-side
  // dedup work — and the identical trace id, so every attempt of one
  // logical request lands in the same server-side trace.
  const Bytes frame = EncodeFrame(header, body);
  TraceSpanTimer client_span(TraceStage::kClientCall, header.trace_id);

  uint64_t backoff_ms = options_.retry.initial_backoff_ms;
  Status last = Unavailable("no attempts made");
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_.fetch_add(1);
      static Counter* retries =
          ObsRegistry().counter("clio.net.client.retries");
      retries->Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.retry.max_backoff_ms);
    }
    Status connected = EnsureConnectedLocked();
    if (!connected.ok()) {
      if (closed_) {
        return connected;  // Disconnect() is deliberate; don't retry
      }
      last = std::move(connected);
      continue;
    }
    auto raw = RoundTripLocked(frame, header.request_id);
    if (!raw.ok()) {
      last = raw.status();
      continue;
    }
    auto reply = DecodeReplyBody(*raw);
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable) {
      return reply;  // success, or a definitive server-side error
    }
    // kUnavailable from the server proper (e.g. a transient device
    // fault): the connection is fine, the operation is worth retrying.
    last = reply.status();
  }
  return last;
}

// ---------------------------------------------------------------------------
// Typed calls

Result<LogFileId> NetLogClient::CreateLogFile(std::string_view path,
                                              uint32_t permissions) {
  Bytes body = PathBody(path);
  ByteWriter w(&body);
  w.PutU32(permissions);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kCreateLogFile, body));
  return DecodeCreateReply(reply);
}

Result<LogFileId> NetLogClient::CreateLogFilePlaced(std::string_view path,
                                                    uint32_t permissions,
                                                    uint32_t partition) {
  Bytes body = PathBody(path);
  ByteWriter w(&body);
  w.PutU32(permissions);
  w.PutU32(partition);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kCreateLogFile, body));
  return DecodeCreateReply(reply);
}

Result<PartitionInfoResult> NetLogClient::GetPartitionInfo(
    std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(Bytes reply,
                        Call(LogOp::kPartitionInfo, PathBody(path)));
  ByteReader r(reply);
  PartitionInfoResult info;
  info.partition_count = r.GetU32();
  bool has_route = r.GetU8() != 0;
  uint32_t partition = r.GetU32();
  if (r.failed()) {
    return Corrupt("malformed partition info reply");
  }
  if (has_route) {
    info.partition = partition;
  }
  return info;
}

Result<Timestamp> NetLogClient::Append(std::string_view path,
                                       std::span<const std::byte> payload,
                                       bool timestamped, bool force) {
  const uint64_t request_seq = append_seq_.fetch_add(1) + 1;
  CLIO_ASSIGN_OR_RETURN(
      Bytes reply,
      Call(LogOp::kAppend, EncodeAppendRequest(path, payload, timestamped,
                                               force, client_id_,
                                               request_seq)));
  ByteReader r(reply);
  Timestamp timestamp = r.GetI64();
  if (r.failed()) {
    return Corrupt("malformed append reply");
  }
  return timestamp;
}

Result<LogFileInfo> NetLogClient::Stat(std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kStat, PathBody(path)));
  return DecodeLogFileInfo(reply);
}

Status NetLogClient::Force() { return Call(LogOp::kForce, {}).status(); }

Result<ChainProof> NetLogClient::FetchChainProof(std::string_view path,
                                                 Timestamp t) {
  Bytes body = PathBody(path);
  ByteWriter w(&body);
  w.PutI64(t);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kVerifyChain, body));
  ByteReader r(reply);
  return ChainProof::DecodeFrom(r);
}

Result<RemoteEntry> NetLogClient::VerifyEntry(std::string_view path,
                                              Timestamp t) {
  CLIO_ASSIGN_OR_RETURN(ChainProof proof, FetchChainProof(path, t));
  CLIO_ASSIGN_OR_RETURN(ParsedEntry entry, proof.Verify());
  // The proof binds the record to the chain; this binds the record to the
  // question asked. A server pointing the proof at some OTHER (genuine)
  // entry fails here.
  if (!entry.timestamp.has_value() || *entry.timestamp != t) {
    return Corrupt("proven entry does not carry the requested timestamp");
  }
  RemoteEntry out;
  out.logfile_id = entry.logfile_id;
  out.timestamp = *entry.timestamp;
  out.timestamp_exact = true;
  out.payload.assign(entry.payload.begin(), entry.payload.end());
  return out;
}

Result<StatsSnapshot> NetLogClient::GetStats() {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kStats, {}));
  return DecodeStatsSnapshot(reply);
}

Result<HealthReport> NetLogClient::GetHealth() {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kHealth, {}));
  return DecodeHealthReport(reply);
}

Result<TraceDump> NetLogClient::DumpTraces(uint64_t min_total_us,
                                           uint32_t max_spans) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(min_total_us);
  w.PutU32(max_spans);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kTraceDump, body));
  return DecodeTraceDump(reply);
}

// ---------------------------------------------------------------------------
// Server-side reader handles

Result<uint64_t> NetLogClient::OpenServerReader(std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kOpenReader, PathBody(path)));
  ByteReader r(reply);
  uint64_t handle = r.GetU64();
  if (r.failed()) {
    return Corrupt("malformed open reader reply");
  }
  return handle;
}

Result<std::optional<RemoteEntry>> NetLogClient::ServerStep(LogOp op,
                                                            uint64_t handle) {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(op, HandleBody(handle)));
  return DecodeEntryRecord(reply);
}

Result<EntryBatch> NetLogClient::ServerReadBatch(uint64_t handle,
                                                 uint32_t max_entries) {
  Bytes body = HandleBody(handle);
  ByteWriter w(&body);
  w.PutU32(max_entries);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kReadBatch, body));
  return DecodeEntryBatch(reply);
}

// ---------------------------------------------------------------------------
// Virtualized readers

Status NetLogClient::ReestablishReader(ReaderState* state) {
  // Capture the generation first: if a reconnect happens during the
  // replay below, the captured value is already stale and WithReader's
  // loop re-establishes once more.
  uint64_t generation = generation_.load();
  CLIO_ASSIGN_OR_RETURN(uint64_t handle, OpenServerReader(state->path));
  switch (state->anchor) {
    case Anchor::kStart:
      break;  // a fresh reader starts at the beginning
    case Anchor::kEnd:
      CLIO_RETURN_IF_ERROR(
          Call(LogOp::kSeekToEnd, HandleBody(handle)).status());
      break;
    case Anchor::kTime:
      CLIO_RETURN_IF_ERROR(
          Call(LogOp::kSeekToTime, SeekToTimeBody(handle, state->anchor_time))
              .status());
      break;
  }
  // Replay the cursor. The log is append-only, so re-running the same
  // number of Next/Prev steps from the same anchor lands on the same
  // entry. Running out early (unforced tail lost in a crash) parks the
  // cursor at the surviving end.
  for (int64_t i = 0; i < state->offset; ++i) {
    CLIO_ASSIGN_OR_RETURN(auto entry, ServerStep(LogOp::kReadNext, handle));
    if (!entry.has_value()) {
      break;
    }
  }
  for (int64_t i = 0; i > state->offset; --i) {
    CLIO_ASSIGN_OR_RETURN(auto entry, ServerStep(LogOp::kReadPrev, handle));
    if (!entry.has_value()) {
      break;
    }
  }
  state->server_handle = handle;
  state->generation = generation;
  return Status::Ok();
}

template <typename Op>
auto NetLogClient::WithReader(uint64_t handle, Op op)
    -> decltype(op(std::declval<ReaderState*>())) {
  auto it = readers_.find(handle);
  if (it == readers_.end()) {
    return NotFound("no such reader handle");
  }
  ReaderState* state = &it->second;
  // A few laps: each lap either runs on a fresh handle or discovers
  // mid-op that the connection turned over and re-establishes.
  for (int lap = 0; lap < 4; ++lap) {
    if (state->generation != generation_.load()) {
      Status restored = ReestablishReader(state);
      if (!restored.ok()) {
        return restored;
      }
    }
    auto result = op(state);
    if (result.ok() || CodeOf(result) != StatusCode::kNotFound ||
        state->generation == generation_.load()) {
      return result;
    }
    // kNotFound + stale generation: the server restarted under this op
    // and the handle died with the old session. Re-establish and retry.
  }
  return Unavailable("reader could not be re-established");
}

Result<uint64_t> NetLogClient::OpenReader(std::string_view path) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  CLIO_ASSIGN_OR_RETURN(uint64_t server_handle, OpenServerReader(path));
  ReaderState state;
  state.path = std::string(path);
  state.server_handle = server_handle;
  state.generation = generation_.load();
  uint64_t handle = next_virtual_handle_++;
  readers_[handle] = std::move(state);
  return handle;
}

Status NetLogClient::CloseReader(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  auto it = readers_.find(handle);
  if (it == readers_.end()) {
    return NotFound("no such reader handle");
  }
  // Best-effort: if the connection turned over, the server-side reader
  // died with its session and there is nothing to close.
  if (it->second.generation == generation_.load()) {
    (void)Call(LogOp::kCloseReader, HandleBody(it->second.server_handle));
  }
  readers_.erase(it);
  return Status::Ok();
}

Result<std::optional<RemoteEntry>> NetLogClient::ReadNext(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    auto entry = ServerStep(LogOp::kReadNext, state->server_handle);
    if (entry.ok() && entry->has_value()) {
      ++state->offset;
    }
    return entry;
  });
}

Result<EntryBatch> NetLogClient::ReadNextBatch(uint64_t handle,
                                               uint32_t max_entries) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this, max_entries](ReaderState* state) {
    auto batch = ServerReadBatch(state->server_handle, max_entries);
    if (batch.ok()) {
      // Every delivered entry advanced the server-side cursor; replay
      // after a reconnect must advance by the same count.
      state->offset += static_cast<int64_t>(batch->entries.size());
    }
    return batch;
  });
}

Result<std::optional<RemoteEntry>> NetLogClient::ReadPrev(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    auto entry = ServerStep(LogOp::kReadPrev, state->server_handle);
    if (entry.ok() && entry->has_value()) {
      --state->offset;
    }
    return entry;
  });
}

Status NetLogClient::SeekToTime(uint64_t handle, Timestamp t) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this, t](ReaderState* state) {
    Status status =
        Call(LogOp::kSeekToTime, SeekToTimeBody(state->server_handle, t))
            .status();
    if (status.ok()) {
      state->anchor = Anchor::kTime;
      state->anchor_time = t;
      state->offset = 0;
    }
    return status;
  });
}

Status NetLogClient::SeekToStart(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    Status status =
        Call(LogOp::kSeekToStart, HandleBody(state->server_handle)).status();
    if (status.ok()) {
      state->anchor = Anchor::kStart;
      state->offset = 0;
    }
    return status;
  });
}

Status NetLogClient::SeekToEnd(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    Status status =
        Call(LogOp::kSeekToEnd, HandleBody(state->server_handle)).status();
    if (status.ok()) {
      state->anchor = Anchor::kEnd;
      state->offset = 0;
    }
    return status;
  });
}

// ---------------------------------------------------------------------------
// BatchedReader

Result<std::optional<RemoteEntry>> BatchedReader::Next() {
  if (pos_ >= buffer_.size()) {
    if (at_end_) {
      // The server already said end-of-log: report it without another
      // round trip, but re-poll on the NEXT call (a tailing reader may
      // find fresh entries then).
      at_end_ = false;
      return std::optional<RemoteEntry>(std::nullopt);
    }
    CLIO_ASSIGN_OR_RETURN(EntryBatch batch,
                          client_->ReadNextBatch(handle_, batch_size_));
    buffer_ = std::move(batch.entries);
    pos_ = 0;
    at_end_ = batch.at_end;
    if (buffer_.empty()) {
      at_end_ = false;
      return std::optional<RemoteEntry>(std::nullopt);
    }
  }
  return std::optional<RemoteEntry>(std::move(buffer_[pos_++]));
}

}  // namespace clio
