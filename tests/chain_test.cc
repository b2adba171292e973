// Hash-chain tests (DESIGN.md §15): v2 footers carry chain tags, the
// recovered head survives crashes, consistent forgeries (recomputed CRC)
// are caught by the chain walk, and single-entry inclusion proofs verify
// end to end — and reject every kind of tampering. Also the hash-once
// write path: the builder's own commit equals the parsed block's, every
// record is digested exactly once, and the burned bytes match a golden
// volume.
#include "src/clio/chain.h"

#include <gtest/gtest.h>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/obs/metrics.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::BorrowedDevice;
using testing::RandomPayload;
using testing::ServiceFixture;

// Rewrites `block` in place with one payload byte flipped and the CRC
// recomputed — a consistent forgery the per-block checksum cannot see.
// Returns false if the block has no payload byte to flip.
bool ForgePayloadByte(MemoryWormDevice* media, LogService* service,
                      uint64_t block) {
  OpStats op;
  auto parsed = service->current_volume()->GetBlock(block, &op);
  if (!parsed.ok()) {
    return false;
  }
  const ParsedEntry* victim = nullptr;
  for (const ParsedEntry& e : parsed->entries()) {
    if (!e.payload.empty()) {
      victim = &e;
      break;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  Bytes forged = parsed->image();
  size_t off = static_cast<size_t>(victim->payload.data() -
                                   parsed->image().data());
  forged[off] ^= std::byte{0x01};
  StoreU32(forged, forged.size() - 4,
           Crc32c(std::span<const std::byte>(forged.data(),
                                             forged.size() - 4)));
  media->Scribble(block, forged);
  service->cache().Erase({0, block});
  return true;
}

TEST(Chain, BurnedBlocksCarryTagsAndWalkToTheRecoveredHead) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(7);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(fx.service->Append("/a", RandomPayload(&rng, 80), forced)
                  .status());
  }
  LogVolume* volume = fx.service->current_volume();
  ASSERT_TRUE(volume->header().chained());
  uint64_t acc = volume->chain_seed();
  uint64_t blocks_walked = 0;
  for (uint64_t b = 1; b < volume->end_block(); ++b) {
    OpStats op;
    auto parsed = volume->GetBlock(b, &op);
    ASSERT_OK(parsed.status());
    ASSERT_TRUE(parsed->chain_tag().has_value());
    EXPECT_EQ(*parsed->chain_tag(), acc) << "block " << b;
    acc = AdvanceChainTag(*parsed->chain_tag(), ChainBlockCommit(*parsed));
    ++blocks_walked;
  }
  EXPECT_GT(blocks_walked, 10u);
  ASSERT_TRUE(volume->chain_head_tag().has_value());
  EXPECT_EQ(acc, *volume->chain_head_tag());
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyVolume(volume));
  EXPECT_TRUE(report.clean()) << (report.chain_mismatches.empty()
                                      ? "?"
                                      : report.chain_mismatches[0]);
}

TEST(Chain, HeadTagSurvivesCrashAndReopen) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  uint64_t head_before = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service,
        LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                           options));
    ASSERT_OK(service->CreateLogFile("/a").status());
    Rng rng(8);
    WriteOptions forced;
    forced.force = true;
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(
          service->Append("/a", RandomPayload(&rng, 90), forced).status());
    }
    ASSERT_TRUE(service->current_volume()->chain_head_tag().has_value());
    head_before = *service->current_volume()->chain_head_tag();
  }  // crash: the service dies, the media survives
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, &report));
  ASSERT_TRUE(service->current_volume()->chain_head_tag().has_value());
  EXPECT_EQ(*service->current_volume()->chain_head_tag(), head_before);
  // The O(1) recovered head must agree with the full from-seed walk.
  ASSERT_OK_AND_ASSIGN(VerifyReport verified,
                       VerifyVolume(service->current_volume()));
  EXPECT_TRUE(verified.clean()) << (verified.chain_mismatches.empty()
                                        ? "?"
                                        : verified.chain_mismatches[0]);
}

TEST(Chain, ConsistentForgeryIsCaughtByTheChainWalk) {
  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::make_unique<BorrowedDevice>(&media), &clock,
                         options));
  ASSERT_OK(service->CreateLogFile("/a").status());
  Rng rng(9);
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(
        service->Append("/a", RandomPayload(&rng, 80), forced).status());
  }
  // Forge a mid-volume block: flip a payload byte and recompute the CRC,
  // so the block still parses. Pick one with at least two valid
  // successors so a later stored tag can convict it.
  uint64_t end = service->current_volume()->end_block();
  ASSERT_GT(end, 8u);
  uint64_t victim = 0;
  for (uint64_t b = 3; b + 3 < end; ++b) {
    if (ForgePayloadByte(&media, service.get(), b)) {
      victim = b;
      break;
    }
  }
  ASSERT_GT(victim, 0u) << "no forgeable block found";
  // The forged block itself still parses — the CRC is valid again.
  OpStats op;
  ASSERT_OK(service->current_volume()->GetBlock(victim, &op).status());
  // But the chain walk sees the forged commit break a successor's tag.
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(service->current_volume()));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.blocks_corrupt, 0u);
  EXPECT_FALSE(report.chain_mismatches.empty());
}

TEST(Chain, InclusionProofVerifiesAndRoundTrips) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(10);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  Bytes proven_payload;
  for (int i = 0; i < 50; ++i) {
    Bytes payload = RandomPayload(&rng, 70);
    ASSERT_OK_AND_ASSIGN(AppendResult r,
                         fx.service->Append("/a", payload, stamped));
    if (i == 20) {
      proven_t = r.timestamp;
      proven_payload = payload;
    }
  }
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", proven_t));
  ASSERT_OK_AND_ASSIGN(ParsedEntry entry, proof.Verify());
  ASSERT_TRUE(entry.timestamp.has_value());
  EXPECT_EQ(*entry.timestamp, proven_t);
  EXPECT_EQ(Bytes(entry.payload.begin(), entry.payload.end()),
            proven_payload);
  EXPECT_GT(proof.links.size(), 0u);

  // Wire round trip preserves verifiability.
  Bytes wire;
  ByteWriter w(&wire);
  proof.EncodeTo(w);
  ByteReader r(wire);
  ASSERT_OK_AND_ASSIGN(ChainProof decoded, ChainProof::DecodeFrom(r));
  EXPECT_OK(decoded.Verify().status());
  EXPECT_EQ(decoded.head_tag, proof.head_tag);
  EXPECT_EQ(decoded.links.size(), proof.links.size());
}

TEST(Chain, TamperedProofsAreRejected) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(11);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  Timestamp proven_t = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        fx.service->Append("/a", RandomPayload(&rng, 70), stamped));
    if (i == 10) {
      proven_t = r.timestamp;
    }
  }
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", proven_t));
  ASSERT_OK(proof.Verify().status());

  {  // A doctored record byte no longer matches its listed hash.
    ChainProof p = proof;
    ASSERT_FALSE(p.record.empty());
    p.record.back() ^= std::byte{0x40};
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // A doctored record hash breaks the reassembled block commit.
    ChainProof p = proof;
    ASSERT_FALSE(p.record_hashes.empty());
    p.record_hashes.front()[0] ^= std::byte{0x01};
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // A doctored link breaks the walk to the head tag.
    ChainProof p = proof;
    if (!p.links.empty()) {
      p.links.front()[0] ^= std::byte{0x01};
      EXPECT_FALSE(p.Verify().ok());
    }
  }
  {  // A lying head tag is caught.
    ChainProof p = proof;
    p.head_tag ^= 1;
    EXPECT_FALSE(p.Verify().ok());
  }
  {  // An out-of-range entry index is rejected, not crashed on.
    ChainProof p = proof;
    p.entry_index = static_cast<uint32_t>(p.record_hashes.size());
    EXPECT_FALSE(p.Verify().ok());
  }
}

TEST(Chain, ProofDecodeSurvivesTruncationAndGarbage) {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/8192, /*degree=*/8);
  ASSERT_OK(fx.service->CreateLogFile("/a").status());
  Rng rng(12);
  WriteOptions stamped;
  stamped.timestamped = true;
  stamped.force = true;
  ASSERT_OK_AND_ASSIGN(
      AppendResult r,
      fx.service->Append("/a", RandomPayload(&rng, 70), stamped));
  ASSERT_OK_AND_ASSIGN(ChainProof proof,
                       fx.service->BuildChainProof("/a", r.timestamp));
  Bytes wire;
  ByteWriter w(&wire);
  proof.EncodeTo(w);
  // Every truncation either decodes to a garbage-but-bounded proof or
  // fails cleanly; none may crash or over-read.
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes cut(wire.begin(), wire.begin() + len);
    ByteReader reader(cut);
    auto decoded = ChainProof::DecodeFrom(reader);
    if (decoded.ok()) {
      (void)decoded->Verify();
    }
  }
  // Random corruption: decode + verify must never crash.
  for (int trial = 0; trial < 200; ++trial) {
    Bytes fuzzed = wire;
    size_t flips = 1 + rng.Below(4);
    for (size_t f = 0; f < flips; ++f) {
      fuzzed[rng.Below(fuzzed.size())] ^=
          static_cast<std::byte>(1u << rng.Below(8));
    }
    ByteReader reader(fuzzed);
    auto decoded = ChainProof::DecodeFrom(reader);
    if (decoded.ok()) {
      (void)decoded->Verify();
    }
  }
}

TEST(Chain, V1FootersStillParseUnchained) {
  // Compat: a v1 (12-byte-footer) block built without a chain tag parses,
  // reports no tag, and a v2 block round-trips its tag — the two flavours
  // coexist behind one Parse.
  BlockBuilder v1(512);
  v1.AddEntry(HeaderVersion::kTimestamped, 7,
              Bytes(20, std::byte{0x5A}), /*ts=*/42);
  auto v1_parsed = ParsedBlock::Parse(v1.Finish());
  ASSERT_OK(v1_parsed.status());
  EXPECT_FALSE(v1_parsed->chain_tag().has_value());
  ASSERT_EQ(v1_parsed->entries().size(), 1u);

  BlockBuilder v2(512, /*chain_tag=*/0xDEADBEEFCAFEF00Dull);
  v2.AddEntry(HeaderVersion::kTimestamped, 7,
              Bytes(20, std::byte{0x5A}), /*ts=*/42);
  auto v2_parsed = ParsedBlock::Parse(v2.Finish());
  ASSERT_OK(v2_parsed.status());
  ASSERT_TRUE(v2_parsed->chain_tag().has_value());
  EXPECT_EQ(*v2_parsed->chain_tag(), 0xDEADBEEFCAFEF00Dull);
}

uint64_t BytesHashed() {
  return ObsRegistry().counter("clio.chain.bytes_hashed")->value();
}

TEST(Chain, BuilderCommitEqualsParsedCommitAndHashesEachRecordOnce) {
  BlockBuilder builder(1024, /*chain_tag=*/0x1234);
  Rng rng(5);
  uint64_t builder_hashed = 0;
  uint64_t record_bytes = 0;
  const std::vector<LogFileId> extras = {9, 10};
  for (int i = 0; i < 12; ++i) {
    const HeaderVersion versions[] = {
        HeaderVersion::kTimestamped, HeaderVersion::kCompact,
        HeaderVersion::kComplete, HeaderVersion::kMulti};
    const HeaderVersion v = i == 0 ? HeaderVersion::kFragment
                                   : versions[rng.Below(4)];
    const std::span<const LogFileId> ids =
        v == HeaderVersion::kMulti ? std::span<const LogFileId>(extras)
                                   : std::span<const LogFileId>();
    const uint32_t cap = builder.PayloadCapacity(
        v, static_cast<uint32_t>(ids.size()));
    if (cap == 0) {
      break;
    }
    Bytes payload = RandomPayload(&rng, std::min<uint32_t>(cap, 40));
    builder.AddEntry(v, 5, payload, /*ts=*/100 + i, /*seq=*/i, ids);
    record_bytes += HeaderInlineSize(v, static_cast<uint32_t>(ids.size())) +
                    payload.size();
    if (i == 6) {
      builder.SetFlags(kFlagLastEntryContinues);
    }
    // Snapshot after every entry, as forced NVRAM restaging does: the
    // commit must track the parse of each snapshot, and asking again with
    // no change in between must hash nothing new.
    const uint64_t before = BytesHashed();
    const Sha256Digest commit = builder.Commit();
    EXPECT_EQ(builder.Commit(), commit);
    builder_hashed += BytesHashed() - before;
    EXPECT_EQ(builder_hashed, record_bytes)
        << "each record is digested exactly once across snapshots";
    ASSERT_OK_AND_ASSIGN(ParsedBlock parsed,
                         ParsedBlock::Parse(builder.Finish()));
    EXPECT_EQ(commit, ChainBlockCommit(parsed)) << "after entry " << i;
    EXPECT_EQ(builder.Finish(), parsed.shared_image());
  }
}

// A fixed, seeded volume mixing every header kind, sublogs, multi-
// membership, fragments and forced partial burns.
testing::ServiceFixture BuildGoldenVolume() {
  auto fx = ServiceFixture::Make(/*block_size=*/512,
                                 /*capacity_blocks=*/4096, /*degree=*/8);
  const std::vector<std::string> paths = {"/a", "/a/sub", "/b"};
  for (const std::string& path : paths) {
    EXPECT_TRUE(fx.service->CreateLogFile(path).ok());
  }
  const LogFileId b_id = fx.service->Resolve("/b").value();
  Rng rng(2024);
  for (int i = 0; i < 120; ++i) {
    const std::string& path = paths[rng.Below(paths.size())];
    WriteOptions opts;
    opts.timestamped = rng.Chance(1, 3);
    opts.force = rng.Chance(1, 5);
    if (rng.Chance(1, 6)) {
      opts.client_sequence = static_cast<uint32_t>(i);
    } else if (path != "/b" && rng.Chance(1, 6)) {
      opts.extra_memberships = {b_id};
    }
    auto appended =
        fx.service->Append(path, RandomPayload(&rng, rng.Below(1200)), opts);
    EXPECT_TRUE(appended.ok()) << appended.status().ToString();
  }
  EXPECT_TRUE(fx.service->Force().ok());
  return fx;
}

TEST(Chain, GoldenVolumeBurnsTheSameBytes) {
  // Pinned from the implementation that re-parsed every burned block on
  // scalar SHA-256/CRC32C code: the hash-once write path and the hardware
  // kernels must burn byte-identical media. The head tag covers every
  // record, count, flag and used-byte field; the CRC fingerprint covers
  // every byte of every block, padding and footers included.
  auto fx = BuildGoldenVolume();
  LogVolume* volume = fx.service->current_volume();
  Bytes crcs;
  ByteWriter w(&crcs);
  for (uint64_t b = 1; b < volume->end_block(); ++b) {
    OpStats op;
    ASSERT_OK_AND_ASSIGN(ParsedBlock parsed, volume->GetBlock(b, &op));
    w.PutU32(LoadU32(parsed.image(), parsed.image().size() - 4));
  }
  EXPECT_EQ(volume->end_block(), 156u);
  EXPECT_EQ(volume->chain_seed(), 0xcb6129ffd832056cull);
  EXPECT_EQ(volume->chain_head_tag(),
            std::optional<uint64_t>(0x9445cbba771bb503ull));
  EXPECT_EQ(Crc32c(crcs), 0x0368a890u);
  // Every header kind, sublog and multi-membership record above also
  // passes the builder-vs-parse commit check.
  testing::ExpectWriterCommitsMatchMedia(volume);
}

}  // namespace
}  // namespace clio
