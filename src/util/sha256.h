// SHA-256 (FIPS 180-4). Backs the volume hash chain (src/clio/chain.h):
// per-record digests, per-block commits, and the accumulated chain tag
// each burned block carries for its predecessors. Self-contained — no
// OpenSSL or platform crypto dependency — because the build must work in
// the bare toolchain image. The compression function runs on the CPU's
// SHA extensions when present and on portable scalar code otherwise
// (src/util/hash_kernels.h); both give identical digests.
#ifndef SRC_UTIL_SHA256_H_
#define SRC_UTIL_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace clio {

using Sha256Digest = std::array<std::byte, 32>;

// Incremental hasher: Update() any number of times, then Finish() once.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(std::span<const std::byte> data);
  Sha256Digest Finish();

 private:
  // Folds `blocks` whole 64-byte chunks into state_.
  void Compress(const std::byte* data, size_t blocks);

  std::array<uint32_t, 8> state_;
  std::array<std::byte, 64> buffer_;
  uint64_t total_bytes_ = 0;
  size_t buffered_ = 0;
};

// One-shot convenience.
Sha256Digest Sha256Of(std::span<const std::byte> data);

}  // namespace clio

#endif  // SRC_UTIL_SHA256_H_
