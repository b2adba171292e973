#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#include "src/util/hash_kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace clio {
namespace {

// Table-driven CRC32C, reflected form, polynomial 0x1EDC6F41.
constexpr uint32_t kPoly = 0x82F63B78;  // reversed 0x1EDC6F41

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

using Crc32cKernel = uint32_t (*)(uint32_t, std::span<const std::byte>);

Crc32cKernel ChooseKernel() {
#if defined(__x86_64__)
  if (hash_internal::CpuHasSse42()) {
    return hash_internal::Crc32cExtendSse42;
  }
#endif
  return hash_internal::Crc32cExtendScalar;
}

}  // namespace

namespace hash_internal {

uint32_t Crc32cExtendScalar(uint32_t crc, std::span<const std::byte> data) {
  crc = ~crc;
  for (std::byte b : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
bool CpuHasSse42() { return __builtin_cpu_supports("sse4.2"); }

// The SSE4.2 crc32 instruction computes the same reflected Castagnoli
// update as the table, eight bytes per instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, std::span<const std::byte> data) {
  const std::byte* p = data.data();
  size_t n = data.size();
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*p));
  }
  return ~c32;
}
#endif

}  // namespace hash_internal

uint32_t Crc32cExtend(uint32_t crc, std::span<const std::byte> data) {
  static const Crc32cKernel kernel = ChooseKernel();
  return kernel(crc, data);
}

uint32_t Crc32c(std::span<const std::byte> data) {
  return Crc32cExtend(0, data);
}

}  // namespace clio
