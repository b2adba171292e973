// Event-loop server tests: partial-frame state machine behaviour under
// slow and hostile clients, write backpressure on the zero-copy flush
// path, connection churn (DESIGN.md §16), and the wire contract: the
// event loop's replies are byte-identical to in-process dispatch and to
// the flat batch encoder, a single volume answers as the one-partition
// deployment it is served as,
// and every truncated request body is InvalidArgument (DESIGN.md §9).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/partition/partitioned_service.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

// True once the peer has hung up on `socket` (clean EOF or reset).
bool ConnectionDropped(TcpSocket* socket) {
  Bytes sink(1);
  auto n = socket->ReadFull(sink);
  return !n.ok() || *n == 0;
}

// Spins until `done` holds or ~5 s pass; returns the final verdict. The
// event loop sweeps deadlines and reaps connections on its own schedule,
// so tests observe its side effects with a bounded poll.
template <typename Predicate>
bool Eventually(Predicate done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

// Sends one request frame and reads back the COMPLETE raw reply — prefix,
// version extension, and body, exactly as they crossed the wire.
Result<Bytes> RawRoundTrip(TcpSocket* socket, LogOp op, uint64_t request_id,
                           std::span<const std::byte> body,
                           uint64_t trace_id = 0) {
  FrameHeader request;
  request.op = static_cast<uint32_t>(op);
  request.request_id = request_id;
  request.body_size = static_cast<uint32_t>(body.size());
  request.trace_id = trace_id;
  Bytes wire = EncodeFrame(request, body);
  CLIO_RETURN_IF_ERROR(socket->WriteAll(wire));

  Bytes reply(kFrameHeaderSize);
  CLIO_ASSIGN_OR_RETURN(size_t n, socket->ReadFull(reply));
  if (n != kFrameHeaderSize) {
    return Unavailable("server closed the connection");
  }
  CLIO_ASSIGN_OR_RETURN(FrameHeader header, DecodeFramePrefix(reply));
  const size_t ext = FrameExtensionSize(header.version);
  reply.resize(kFrameHeaderSize + ext + header.body_size);
  auto rest = std::span<std::byte>(reply).subspan(kFrameHeaderSize);
  if (!rest.empty()) {
    CLIO_ASSIGN_OR_RETURN(n, socket->ReadFull(rest));
    if (n != rest.size()) {
      return Unavailable("server closed mid-reply");
    }
  }
  return reply;
}

Bytes PathBody(std::string_view path) {
  Bytes body;
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

Bytes ReadBatchBody(uint64_t handle, uint32_t max_entries) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  w.PutU32(max_entries);
  return body;
}

class EventLoopTest : public ::testing::Test {
 protected:
  void StartServer(NetLogServerOptions options = {}) {
    fx_ = ServiceFixture::Make();
    auto server = NetLogServer::Start(fx_.service.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<NetLogClient> Client() {
    auto client = NetLogClient::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // The server must still answer a fresh, well-behaved client — the
  // postcondition of every hostile-client test.
  void ExpectServerHealthy() {
    auto client = Client();
    auto stats = client->GetStats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  ServiceFixture fx_;
  std::unique_ptr<NetLogServer> server_;
};

// ---------------------------------------------------------------------------
// Zero-copy reply path

TEST_F(EventLoopTest, BatchedReadIsServedZeroCopy) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/zc").status());
  Rng rng(0x5EED);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back(RandomPayload(&rng, 2048));
    ASSERT_OK(client->Append("/zc", payloads.back(), /*timestamped=*/false).status());
  }
  ASSERT_OK(client->Force());

  const uint64_t zerocopy_before =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/zc"));
  ASSERT_OK(client->SeekToStart(handle));
  ASSERT_OK_AND_ASSIGN(EntryBatch batch, client->ReadNextBatch(handle, 1000));
  ASSERT_EQ(batch.entries.size(), payloads.size());
  EXPECT_TRUE(batch.at_end);
  size_t payload_bytes = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(batch.entries[i].payload, payloads[i]) << "entry " << i;
    payload_bytes += payloads[i].size();
  }

  // Every payload byte of the batch reply must have been sent straight
  // from pinned block images, never copied into a reply buffer.
  const uint64_t zerocopy_after =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  EXPECT_GE(zerocopy_after - zerocopy_before, payload_bytes);
  // All flush-time pins must have been released with the reply.
  EXPECT_TRUE(Eventually([] {
    return ObsRegistry().gauge("clio.cache.pinned_blocks")->value() == 0;
  }));
}

// ---------------------------------------------------------------------------
// Hostile and slow clients

TEST_F(EventLoopTest, SlowLorisMidFrameStallIsClosed) {
  NetLogServerOptions options;
  options.session_io_timeout_ms = 200;
  options.idle_timeout_ms = 60'000;  // only the mid-frame deadline may fire
  StartServer(options);

  // Send a valid frame prefix minus its last byte, then stall forever.
  ASSERT_OK_AND_ASSIGN(TcpSocket loris,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes frame = EncodeFrame(
      FrameHeader{static_cast<uint32_t>(LogOp::kStats), 1, 0}, {});
  auto partial = std::span<const std::byte>(frame).first(frame.size() - 1);
  ASSERT_OK(loris.WriteAll(partial));

  EXPECT_TRUE(ConnectionDropped(&loris));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, IdleConnectionWithNoFrameIsClosed) {
  NetLogServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);
  ASSERT_OK_AND_ASSIGN(TcpSocket idle,
                       TcpSocket::ConnectLoopback(server_->port()));
  EXPECT_TRUE(ConnectionDropped(&idle));
  EXPECT_TRUE(Eventually([&] { return server_->sessions_idle_closed() >= 1; }));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, MidFrameDisconnectCountsRejectedFrame) {
  StartServer();
  {
    ASSERT_OK_AND_ASSIGN(TcpSocket quitter,
                         TcpSocket::ConnectLoopback(server_->port()));
    Bytes frame = EncodeFrame(
        FrameHeader{static_cast<uint32_t>(LogOp::kStats), 1, 0}, {});
    auto partial = std::span<const std::byte>(frame).first(10);
    ASSERT_OK(quitter.WriteAll(partial));
  }  // destructor closes with a frame underway: truncation, not clean EOF
  EXPECT_TRUE(Eventually([&] { return server_->frames_rejected() >= 1; }));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, GarbageHeaderClosesOnlyThatConnection) {
  StartServer();
  auto client = Client();  // healthy session, opened first
  ASSERT_OK(client->CreateLogFile("/survivor").status());

  ASSERT_OK_AND_ASSIGN(TcpSocket vandal,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes garbage(kFrameHeaderSize);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(0xA5 ^ (i * 37));
  }
  ASSERT_OK(vandal.WriteAll(garbage));
  EXPECT_TRUE(ConnectionDropped(&vandal));
  EXPECT_TRUE(Eventually([&] { return server_->frames_rejected() >= 1; }));

  // The pre-existing session rides on, unaffected.
  ASSERT_OK(client->Append("/survivor", AsBytes("still here"), true).status());
}

// ---------------------------------------------------------------------------
// Write backpressure

TEST_F(EventLoopTest, HugeBatchedReplyDrainsThroughTinySendBuffer) {
  NetLogServerOptions options;
  options.accept_sndbuf = 8 * 1024;  // force the partial-flush path
  StartServer(options);
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/big").status());
  Rng rng(0xB16);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 96; ++i) {
    payloads.push_back(RandomPayload(&rng, 8 * 1024));
    ASSERT_OK(client->Append("/big", payloads.back(), /*timestamped=*/false).status());
  }
  ASSERT_OK(client->Force());

  // Drive the read raw so the reply (~768 KiB against an 8 KiB SO_SNDBUF)
  // sits unread while the server is mid-flush: the kernel buffer fills,
  // sendmsg() short-writes, and the loop must finish over EPOLLOUT.
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK_AND_ASSIGN(
      Bytes open_reply,
      RawRoundTrip(&raw, LogOp::kOpenReader, 1, PathBody("/big")));
  ASSERT_OK_AND_ASSIGN(FrameHeader open_header, DecodeFrameHeader(open_reply));
  auto open_body = std::span<const std::byte>(open_reply)
                       .subspan(open_reply.size() - open_header.body_size);
  ASSERT_OK_AND_ASSIGN(Bytes open_payload, DecodeReplyBody(open_body));
  ByteReader handle_reader(open_payload);
  const uint64_t handle = handle_reader.GetU64();
  ASSERT_OK(
      RawRoundTrip(&raw, LogOp::kSeekToStart, 2, HandleBody(handle)).status());

  FrameHeader request;
  request.op = static_cast<uint32_t>(LogOp::kReadBatch);
  request.request_id = 3;
  Bytes body = ReadBatchBody(handle, 1000);
  request.body_size = static_cast<uint32_t>(body.size());
  Bytes wire = EncodeFrame(request, body);
  ASSERT_OK(raw.WriteAll(wire));
  // Let the server hit the kernel-buffer wall while we are not reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Bytes reply(kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply));
  ASSERT_EQ(n, kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFramePrefix(reply));
  Bytes rest(FrameExtensionSize(header.version) + header.body_size);
  ASSERT_OK_AND_ASSIGN(n, raw.ReadFull(rest));
  ASSERT_EQ(n, rest.size());

  auto reply_body = std::span<const std::byte>(rest).subspan(
      FrameExtensionSize(header.version));
  ASSERT_OK_AND_ASSIGN(Bytes payload, DecodeReplyBody(reply_body));
  ASSERT_OK_AND_ASSIGN(EntryBatch batch, DecodeEntryBatch(payload));
  ASSERT_EQ(batch.entries.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_EQ(batch.entries[i].payload, payloads[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Connection churn

TEST_F(EventLoopTest, AcceptAndTeardownChurnInRounds) {
  StartServer();
  constexpr size_t kRounds = 4;
  constexpr size_t kPerRound = 250;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<TcpSocket> sockets;
    sockets.reserve(kPerRound);
    for (size_t i = 0; i < kPerRound; ++i) {
      auto socket = TcpSocket::ConnectLoopback(server_->port());
      ASSERT_TRUE(socket.ok())
          << "round " << round << " conn " << i << ": "
          << socket.status().ToString();
      sockets.push_back(std::move(socket).value());
    }
    // Every fourth connection does a real request; the rest just churn the
    // accept/teardown path.
    for (size_t i = 0; i < sockets.size(); i += 4) {
      ASSERT_OK_AND_ASSIGN(
          Bytes reply, RawRoundTrip(&sockets[i], LogOp::kStats, i + 1, {}));
      ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(reply));
      EXPECT_EQ(header.op, static_cast<uint32_t>(LogOp::kStats));
      EXPECT_EQ(header.request_id, i + 1);
    }
    sockets.clear();  // mass teardown
  }
  EXPECT_TRUE(Eventually(
      [&] { return server_->sessions_opened() >= kRounds * kPerRound; }));
  // Mass disconnects on frame boundaries are clean closes, not rejects.
  EXPECT_EQ(server_->frames_rejected(), 0u);
  ExpectServerHealthy();
}

// Stop() with a flushed-but-unread reply still delivers the bytes: the
// drain path lets flushing connections finish before their sockets close.
TEST_F(EventLoopTest, StopDrainsInFlightRequests) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK_AND_ASSIGN(Bytes reply, RawRoundTrip(&raw, LogOp::kStats, 9, {}));
  ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(reply));
  EXPECT_EQ(header.request_id, 9u);
  server_->Stop();
  // After a graceful stop the socket reports EOF, not a reset.
  EXPECT_TRUE(ConnectionDropped(&raw));
}

// ---------------------------------------------------------------------------
// Wire contract

// The body of a reply frame as returned by RawRoundTrip.
std::span<const std::byte> ReplyBodyOf(const Bytes& reply) {
  auto header = DecodeFrameHeader(reply);
  if (!header.ok()) {
    return {};
  }
  return std::span<const std::byte>(reply).subspan(reply.size() -
                                                   header->body_size);
}

// The event loop (scatter replies, zero-copy batches, worker handoff)
// answers a raw request script with exactly the frames an in-process
// ServiceDispatcher produces for the same requests over the same volume.
// Entry reads (kReadNext, kReadPrev, kReadBatch) are checked against an
// independent reference instead: a flat (copying) reader moved in step
// with the session's cursor, encoded by the flat EncodeEntryRecord and
// EncodeEntryBatch. Any divergence is the transport's fault —
// framing, scatter encoding, or flush order.
TEST(EventLoopWireTest, RepliesMatchInProcessDispatchByteForByte) {
  ServiceFixture fx = ServiceFixture::Make();
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(fx.service.get()));
  {
    // Entries with payloads spanning several 1 KiB blocks exercise
    // multi-segment scatter replies.
    ASSERT_OK_AND_ASSIGN(auto writer, NetLogClient::Connect(server->port()));
    ASSERT_OK(writer->CreateLogFile("/ab").status());
    Rng rng(0xAB);
    for (int i = 0; i < 12; ++i) {
      ASSERT_OK(writer
                    ->Append("/ab", RandomPayload(&rng, 100 + i * 700),
                             /*timestamped=*/false)
                    .status());
    }
    ASSERT_OK(writer->Force());
  }
  ASSERT_OK_AND_ASSIGN(auto single,
                       PartitionedLogService::Borrow(fx.service.get()));
  ServiceDispatcher reference(
      single.get(),
      [&](const AppendRequest& request) {
        WriteOptions options;
        options.timestamped = request.timestamped;
        options.force = request.force;
        return single->Append(request.path, request.payload, options);
      },
      [] { return HealthReport{}; });
  ASSERT_OK_AND_ASSIGN(auto mirror, single->OpenReader("/ab"));
  auto flat_batch = [&](uint32_t max_entries) {
    std::vector<LogEntryRecord> records;
    bool at_end = false;
    while (records.size() < max_entries) {
      auto record = mirror->Next();
      EXPECT_OK(record.status());
      if (!record.ok() || !record->has_value()) {
        at_end = true;
        break;
      }
      records.push_back(std::move(**record));
    }
    return EncodeOkReplyBody(EncodeEntryBatch(records, at_end));
  };
  ASSERT_OK_AND_ASSIGN(TcpSocket socket,
                       TcpSocket::ConnectLoopback(server->port()));

  // Both sessions are fresh, so both hand out reader handle 1.
  const uint64_t kHandle = 1;
  Bytes placed_create;
  {
    ByteWriter w(&placed_create);
    w.PutString("/placed");
    w.PutU32(0644);
    w.PutU32(1);  // no such partition: an error reply
  }
  Bytes verify_missing;
  {
    ByteWriter w(&verify_missing);
    w.PutString("/ab");
    w.PutI64(42);  // no entry carries this timestamp
  }
  const std::vector<std::pair<LogOp, Bytes>> script = {
      {LogOp::kOpenReader, PathBody("/ab")},
      {LogOp::kSeekToStart, HandleBody(kHandle)},
      {LogOp::kReadBatch, ReadBatchBody(kHandle, 5)},
      {LogOp::kReadNext, HandleBody(kHandle)},
      {LogOp::kReadBatch, ReadBatchBody(kHandle, 1000)},
      {LogOp::kSeekToEnd, HandleBody(kHandle)},
      {LogOp::kReadPrev, HandleBody(kHandle)},
      {LogOp::kStat, PathBody("/ab")},
      {LogOp::kStat, PathBody("/missing")},
      {LogOp::kOpenReader, PathBody("/missing")},
      {LogOp::kReadNext, HandleBody(~0ull)},
      {LogOp::kPartitionInfo, PathBody("/ab")},
      {LogOp::kCreateLogFile, placed_create},
      {LogOp::kAppend, EncodeAppendRequest("/missing", AsBytes("x"), true,
                                           false)},
      {LogOp::kVerifyChain, verify_missing},
      {LogOp::kCloseReader, HandleBody(kHandle)},
      {LogOp::kReadNext, HandleBody(kHandle)},  // closed: an error reply
  };
  for (size_t i = 0; i < script.size(); ++i) {
    const auto& [op, body] = script[i];
    FrameHeader header;
    header.op = static_cast<uint32_t>(op);
    header.request_id = 100 + i;
    header.trace_id = 7'000 + i;
    ASSERT_OK_AND_ASSIGN(Bytes reply,
                         RawRoundTrip(&socket, op, header.request_id, body,
                                      header.trace_id));
    Bytes expected_body = reference.Dispatch(op, body).Flatten();
    if (op == LogOp::kReadBatch) {
      ByteReader r(body);
      (void)r.GetU64();
      expected_body = flat_batch(r.GetU32());
    } else if (body == HandleBody(kHandle) && mirror != nullptr) {
      // Keep the mirror on the session's cursor; single-entry reads are
      // checked against its copied record.
      if (op == LogOp::kReadNext || op == LogOp::kReadPrev) {
        auto record =
            op == LogOp::kReadNext ? mirror->Next() : mirror->Prev();
        ASSERT_OK(record.status());
        expected_body = EncodeOkReplyBody(EncodeEntryRecord(*record));
      } else if (op == LogOp::kSeekToStart) {
        mirror->SeekToStart();
      } else if (op == LogOp::kSeekToEnd) {
        mirror->SeekToEnd();
      } else if (op == LogOp::kCloseReader) {
        mirror.reset();  // later steps on the handle expect an error
      }
    }
    EXPECT_EQ(reply, EncodeFrame(header, expected_body))
        << "step " << i << " (" << LogOpName(op)
        << "): event loop diverges from the reference reply";
  }
  server->Stop();
}

// A single volume is served as a one-partition deployment and must answer
// exactly as a single-volume server always has: the topology op's edge
// cases, placement, the root's attributes, and STATS names without
// per-partition ".p0" mirrors.
TEST(SingleVolumeWireTest, EdgeRepliesKeepTheSingleVolumeContract) {
  ServiceFixture fx = ServiceFixture::Make();
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(fx.service.get()));
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(server->port()));

  ASSERT_OK_AND_ASSIGN(PartitionInfoResult topology,
                       client->GetPartitionInfo(""));
  EXPECT_EQ(topology.partition_count, 1u);
  EXPECT_FALSE(topology.partition.has_value());
  ASSERT_OK_AND_ASSIGN(PartitionInfoResult root, client->GetPartitionInfo("/"));
  EXPECT_EQ(root.partition_count, 1u);
  EXPECT_EQ(root.partition, std::optional<uint32_t>(0));
  Status missing = client->GetPartitionInfo("/missing").status();
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.message(), "no such log file: /missing");

  Status placed = client->CreateLogFilePlaced("/placed", 0644, 1).status();
  EXPECT_EQ(placed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(placed.message(), "server has no partition 1");
  ASSERT_OK_AND_ASSIGN(LogFileId id,
                       client->CreateLogFilePlaced("/placed", 0644, 0));
  EXPECT_EQ(id, kFirstClientLogId);

  ASSERT_OK_AND_ASSIGN(LogFileInfo info, client->Stat("/"));
  EXPECT_EQ(info.id, kVolumeSeqLogId);
  EXPECT_EQ(info.parent, kNoLogFileId);
  EXPECT_EQ(info.permissions, 0444u);

  ASSERT_OK(client->Append("/placed", AsBytes("p"), true, /*force=*/true)
                .status());
  ASSERT_OK_AND_ASSIGN(StatsSnapshot stats, client->GetStats());
  size_t metrics = 0;
  auto expect_unsuffixed = [&](const std::string& name) {
    ++metrics;
    EXPECT_EQ(name.find(".p0"), std::string::npos) << name;
  };
  for (const auto& [name, value] : stats.counters) {
    expect_unsuffixed(name);
  }
  for (const auto& [name, value] : stats.gauges) {
    expect_unsuffixed(name);
  }
  for (const auto& [name, value] : stats.histograms) {
    expect_unsuffixed(name);
  }
  EXPECT_GT(metrics, 0u);
  server->Stop();
}

// DESIGN.md §9: a decodable frame whose body is malformed gets an
// InvalidArgument reply and the session lives on. Every proper prefix of a
// valid body, for every op that has a body, is such a malformed body
// (kForce, kStats and kHealth take an empty body, which has no prefix).
TEST(DispatcherTotalityTest, EveryTruncatedBodyIsInvalidArgument) {
  ServiceFixture fx = ServiceFixture::Make();
  ASSERT_OK(fx.service->CreateLogFile("/t").status());
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(fx.service.get()));
  ASSERT_OK_AND_ASSIGN(TcpSocket socket,
                       TcpSocket::ConnectLoopback(server->port()));

  Bytes seek_to_time = HandleBody(1);
  {
    ByteWriter w(&seek_to_time);
    w.PutI64(5);
  }
  Bytes create;
  {
    ByteWriter w(&create);
    w.PutString("/t/new");
    w.PutU32(0644);
  }
  const size_t unplaced_size = create.size();
  Bytes create_placed = create;
  {
    ByteWriter w(&create_placed);
    w.PutU32(0);
  }
  Bytes trace_dump;
  {
    ByteWriter w(&trace_dump);
    w.PutU64(0);
    w.PutU32(16);
  }
  Bytes verify = PathBody("/t");
  {
    ByteWriter w(&verify);
    w.PutI64(1);
  }
  struct Case {
    LogOp op;
    Bytes body;
    // Prefixes shorter than this are not tested: the placement field of
    // kCreateLogFile is optional, so the unplaced body is itself valid.
    size_t first_prefix = 0;
  };
  const std::vector<Case> cases = {
      {LogOp::kCreateLogFile, create},
      {LogOp::kCreateLogFile, create_placed, unplaced_size + 1},
      {LogOp::kAppend,
       EncodeAppendRequest("/t", AsBytes("abc"), true, false, 7, 9)},
      {LogOp::kOpenReader, PathBody("/t")},
      {LogOp::kCloseReader, HandleBody(1)},
      {LogOp::kReadNext, HandleBody(1)},
      {LogOp::kReadPrev, HandleBody(1)},
      {LogOp::kSeekToTime, seek_to_time},
      {LogOp::kSeekToStart, HandleBody(1)},
      {LogOp::kSeekToEnd, HandleBody(1)},
      {LogOp::kStat, PathBody("/t")},
      {LogOp::kReadBatch, ReadBatchBody(1, 4)},
      {LogOp::kTraceDump, trace_dump},
      {LogOp::kPartitionInfo, PathBody("/t")},
      {LogOp::kVerifyChain, verify},
  };
  uint64_t request_id = 1;
  for (const Case& c : cases) {
    for (size_t len = c.first_prefix; len < c.body.size(); ++len) {
      auto prefix = std::span<const std::byte>(c.body).first(len);
      ASSERT_OK_AND_ASSIGN(Bytes reply, RawRoundTrip(&socket, c.op,
                                                     request_id++, prefix));
      Status status = DecodeReplyBody(ReplyBodyOf(reply)).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << LogOpName(c.op) << " body truncated to " << len << " of "
          << c.body.size() << " bytes: " << status.ToString();
    }
  }
  // Nothing a malformed body asked for took effect, and the session that
  // sent them all still serves.
  EXPECT_EQ(fx.service->Resolve("/t/new").status().code(),
            StatusCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(Bytes reply,
                       RawRoundTrip(&socket, LogOp::kStat, request_id,
                                    PathBody("/t")));
  EXPECT_OK(DecodeReplyBody(ReplyBodyOf(reply)).status());
  EXPECT_EQ(server->frames_rejected(), 0u);
  server->Stop();
}

}  // namespace
}  // namespace clio
