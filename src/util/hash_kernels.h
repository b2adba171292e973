// Internal: the SHA-256 compression and CRC32C kernels behind Sha256 and
// Crc32cExtend. The public entry points pick the fastest kernel the CPU
// supports once, at first use; everything here is callable directly so the
// differential tests can pit each hardware kernel against the scalar
// reference without going through that choice. Not part of the public API.
//
// The x86-64 kernels are compiled with per-function target attributes, so
// the build needs no -m flags and runs on any x86-64 CPU; other
// architectures compile the scalar kernels only.
#ifndef SRC_UTIL_HASH_KERNELS_H_
#define SRC_UTIL_HASH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace clio::hash_internal {

// Folds `blocks` consecutive 64-byte chunks into the eight-word SHA-256
// state (FIPS 180-4 §6.2.2, one iteration per chunk).
void Sha256CompressScalar(uint32_t* state, const std::byte* data,
                          size_t blocks);

// CRC32C update, pre/post-inverted exactly like the public Crc32cExtend.
uint32_t Crc32cExtendScalar(uint32_t crc, std::span<const std::byte> data);

#if defined(__x86_64__)
// Whether this CPU runs the kernels below (SHA extensions + SSE4.1 for the
// SHA-256 kernel, SSE4.2 for the CRC32C kernel).
bool CpuHasShaNi();
bool CpuHasSse42();

// Same contracts as the scalar kernels; call only when the matching
// CpuHas* check holds.
void Sha256CompressShaNi(uint32_t* state, const std::byte* data,
                         size_t blocks);
uint32_t Crc32cExtendSse42(uint32_t crc, std::span<const std::byte> data);
#endif

}  // namespace clio::hash_internal

#endif  // SRC_UTIL_HASH_KERNELS_H_
