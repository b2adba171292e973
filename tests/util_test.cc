// Utility-layer tests: Status/Result, byte codecs, clocks, RNG determinism,
// and the SHA-256 / CRC32C kernels (published vectors, hardware vs scalar).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/crc32c.h"
#include "src/util/hash_kernels.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/status.h"
#include "src/util/time.h"
#include "tests/test_util.h"

namespace clio {
namespace {

TEST(Status, OkIsDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = Corrupt("bad trailer in block 17");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_EQ(status.ToString(), "corrupt: bad trailer in block 17");
}

TEST(Status, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(NotWritten("x").code(), StatusCode::kNotWritten);
  EXPECT_EQ(WriteOnce("x").code(), StatusCode::kWriteOnce);
  EXPECT_EQ(Corrupt("x").code(), StatusCode::kCorrupt);
  EXPECT_EQ(Invalidated("x").code(), StatusCode::kInvalidated);
  EXPECT_EQ(NoSpace("x").code(), StatusCode::kNoSpace);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgument("not positive");
  }
  return v;
}

Result<int> Doubled(int v) {
  CLIO_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(Result, ValueAndErrorPaths) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = Doubled(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bytes, FixedWidthRoundTrip) {
  Bytes buffer(32, std::byte{0});
  StoreU16(buffer, 0, 0xBEEF);
  StoreU32(buffer, 2, 0xDEADBEEF);
  StoreU64(buffer, 6, 0x0123456789ABCDEFull);
  StoreI64(buffer, 14, -42);
  EXPECT_EQ(LoadU16(buffer, 0), 0xBEEF);
  EXPECT_EQ(LoadU32(buffer, 2), 0xDEADBEEFu);
  EXPECT_EQ(LoadU64(buffer, 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadI64(buffer, 14), -42);
}

TEST(Bytes, LittleEndianLayout) {
  Bytes buffer(4, std::byte{0});
  StoreU32(buffer, 0, 0x01020304);
  EXPECT_EQ(buffer[0], std::byte{0x04});
  EXPECT_EQ(buffer[3], std::byte{0x01});
}

TEST(Bytes, WriterReaderRoundTrip) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU8(7);
  w.PutU16(300);
  w.PutU32(70000);
  w.PutU64(1ull << 40);
  w.PutI64(-99);
  w.PutString("clio");
  ByteReader r(out);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_EQ(r.GetU16(), 300);
  EXPECT_EQ(r.GetU32(), 70000u);
  EXPECT_EQ(r.GetU64(), 1ull << 40);
  EXPECT_EQ(r.GetI64(), -99);
  EXPECT_EQ(r.GetString(), "clio");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(Bytes, ReaderFailsGracefullyOnTruncation) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(1234);
  ByteReader r(out);
  (void)r.GetU32();  // asks for more than present
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetU64(), 0u);  // stays failed, returns zeros
}

TEST(Time, NowUniqueStrictlyIncreases) {
  SimulatedClock clock(100, /*auto_tick=*/0);  // frozen clock
  Timestamp a = clock.NowUnique();
  Timestamp b = clock.NowUnique();
  Timestamp c = clock.NowUnique();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Time, FloorUniqueBumpsPastRecoveredTimestamps) {
  SimulatedClock clock(100, 0);
  clock.FloorUnique(5000);
  EXPECT_GT(clock.NowUnique(), 5000);
}

TEST(Time, SkewedClockOffsets) {
  SimulatedClock base(1000, 0);
  SkewedClock fast(&base, 250);
  SkewedClock slow(&base, -250);
  EXPECT_EQ(fast.Now(), 1250);
  EXPECT_EQ(slow.Now(), 750);
}

TEST(Time, NowUniqueIsThreadSafe) {
  SimulatedClock clock(0, 1);
  std::vector<Timestamp> seen(4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        seen[t * 1000 + i] = clock.NowUnique();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate timestamps issued";
}

TEST(Rng, DeterministicAcrossRuns) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, RangeAndChanceBehave) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.Chance(1, 2) ? 1 : 0;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

using CompressKernel = void (*)(uint32_t*, const std::byte*, size_t);

// Whole-message SHA-256 over one compression kernel, padding written out
// here independently of Sha256::Finish.
Sha256Digest DigestWith(CompressKernel kernel,
                        std::span<const std::byte> data) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t whole = data.size() / 64;
  kernel(state, data.data(), whole);
  Bytes tail(data.begin() + static_cast<ptrdiff_t>(whole * 64), data.end());
  tail.push_back(std::byte{0x80});
  while (tail.size() % 64 != 56) {
    tail.push_back(std::byte{0});
  }
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    tail.push_back(static_cast<std::byte>((bits >> (8 * i)) & 0xFF));
  }
  kernel(state, tail.data(), tail.size() / 64);
  Sha256Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::byte>((state[i / 4] >> (24 - 8 * (i % 4))) &
                                    0xFF);
  }
  return out;
}

std::string Hex(const Sha256Digest& d) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : d) {
    out += kDigits[static_cast<uint8_t>(b) >> 4];
    out += kDigits[static_cast<uint8_t>(b) & 0xF];
  }
  return out;
}

// Feeds `data` to a fresh hasher in random-sized pieces.
Sha256Digest DigestInPieces(Rng* rng, std::span<const std::byte> data) {
  Sha256 h;
  while (!data.empty()) {
    size_t n = std::min<size_t>(data.size(), rng->Below(200));
    h.Update(data.first(n));
    data = data.subspan(n);
  }
  return h.Finish();
}

uint32_t CrcInPieces(Rng* rng, std::span<const std::byte> data) {
  uint32_t crc = 0;
  while (!data.empty()) {
    size_t n = std::min<size_t>(data.size(), rng->Below(200));
    crc = Crc32cExtend(crc, data.first(n));
    data = data.subspan(n);
  }
  return crc;
}

// FIPS 180-4 example messages (NIST CSRC "SHA256.pdf" / "SHA2_Additional").
struct ShaVector {
  std::string message;
  const char* digest;
};

std::vector<ShaVector> FipsVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256, FipsKnownAnswers) {
  for (const ShaVector& v : FipsVectors()) {
    SCOPED_TRACE(v.message.size());
    EXPECT_EQ(Hex(Sha256Of(AsBytes(v.message))), v.digest);
    EXPECT_EQ(Hex(DigestWith(hash_internal::Sha256CompressScalar,
                             AsBytes(v.message))),
              v.digest);
    Rng rng(v.message.size());
    EXPECT_EQ(Hex(DigestInPieces(&rng, AsBytes(v.message))), v.digest);
  }
}

TEST(Sha256, FinishResetsForReuse) {
  Sha256 h;
  h.Update(AsBytes("garbage"));
  h.Finish();
  h.Update(AsBytes("abc"));
  EXPECT_EQ(Hex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Random inputs for the differential tests: every length 0-70 000 is
// reachable, and each input starts at a random offset 0-63 into its
// buffer so the kernels see every alignment. Boundary lengths around the
// 64-byte chunk and the 56-byte padding threshold are always included.
struct DiffInput {
  Bytes buffer;
  size_t offset;
  std::span<const std::byte> data() const {
    return std::span<const std::byte>(buffer).subspan(offset);
  }
};

std::vector<DiffInput> DiffInputs(uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> lengths = {0, 1, 7, 8, 9, 55, 56, 57, 63, 64, 65,
                                 119, 120, 127, 128, 129, 1024, 70'000};
  for (int i = 0; i < 48; ++i) {
    lengths.push_back(rng.Below(70'001));
  }
  std::vector<DiffInput> inputs;
  for (size_t len : lengths) {
    DiffInput in;
    in.offset = rng.Below(64);
    in.buffer.resize(in.offset + len);
    for (std::byte& b : in.buffer) {
      b = static_cast<std::byte>(rng.Next());
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

TEST(HashKernels, Sha256HardwareMatchesScalar) {
#if defined(__x86_64__)
  if (!hash_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; scalar kernel only";
  }
  Rng splits(11);
  for (const DiffInput& in : DiffInputs(10)) {
    SCOPED_TRACE(::testing::Message() << "len " << in.data().size()
                                      << " offset " << in.offset);
    const Sha256Digest want =
        DigestWith(hash_internal::Sha256CompressScalar, in.data());
    EXPECT_EQ(DigestWith(hash_internal::Sha256CompressShaNi, in.data()),
              want);
    EXPECT_EQ(DigestInPieces(&splits, in.data()), want);
    EXPECT_EQ(Sha256Of(in.data()), want);
  }
#else
  GTEST_SKIP() << "no hardware SHA-256 kernel on this architecture";
#endif
}

TEST(HashKernels, Crc32cHardwareMatchesScalar) {
#if defined(__x86_64__)
  if (!hash_internal::CpuHasSse42()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; scalar kernel only";
  }
  EXPECT_EQ(hash_internal::Crc32cExtendSse42(0, AsBytes("123456789")),
            0xE3069283u);
  Rng splits(21);
  for (const DiffInput& in : DiffInputs(20)) {
    SCOPED_TRACE(::testing::Message() << "len " << in.data().size()
                                      << " offset " << in.offset);
    const uint32_t want = hash_internal::Crc32cExtendScalar(0, in.data());
    EXPECT_EQ(hash_internal::Crc32cExtendSse42(0, in.data()), want);
    EXPECT_EQ(CrcInPieces(&splits, in.data()), want);
    EXPECT_EQ(Crc32c(in.data()), want);
    // A nonzero running CRC must extend identically too.
    EXPECT_EQ(hash_internal::Crc32cExtendSse42(0xDEADBEEF, in.data()),
              hash_internal::Crc32cExtendScalar(0xDEADBEEF, in.data()));
  }
#else
  GTEST_SKIP() << "no hardware CRC32C kernel on this architecture";
#endif
}

}  // namespace
}  // namespace clio
