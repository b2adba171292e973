#include "src/util/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/util/hash_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace clio {
namespace {

alignas(16) constexpr std::array<uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

using CompressKernel = void (*)(uint32_t*, const std::byte*, size_t);

CompressKernel ChooseKernel() {
#if defined(__x86_64__)
  if (hash_internal::CpuHasShaNi()) {
    return hash_internal::Sha256CompressShaNi;
  }
#endif
  return hash_internal::Sha256CompressScalar;
}

}  // namespace

namespace hash_internal {

void Sha256CompressScalar(uint32_t* state, const std::byte* data,
                          size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
bool CpuHasShaNi() {
  // cpuid leaf 7 EBX bit 29 is the SHA extensions flag. Queried directly
  // because not every supported compiler accepts
  // __builtin_cpu_supports("sha").
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  return (ebx & (1u << 29)) != 0 && __builtin_cpu_supports("sse4.1");
}

// SHA-NI compression. The state lives in two registers in the order the
// sha256rnds2 instruction wants (ABEF and CDGH); each iteration of the
// group loop runs four rounds, and groups 4..15 extend the message
// schedule with sha256msg1/msg2 from the previous four groups' words.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t* state, const std::byte* data, size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i words;
      if (g < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      } else {
        // W[t..t+3] = msg2(msg1(W[t-16..], W[t-12..]) + W[t-7..], W[t-4..])
        words = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        words = _mm_add_epi32(
            words, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        words = _mm_sha256msg2_epu32(words, w[(g + 3) % 4]);
      }
      w[g % 4] = words;
      const __m128i k = _mm_add_epi32(
          words,
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, k);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(k, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

}  // namespace hash_internal

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::Compress(const std::byte* data, size_t blocks) {
  static const CompressKernel kernel = ChooseKernel();
  kernel(state_.data(), data, blocks);
}

void Sha256::Update(std::span<const std::byte> data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer memcpy must not see
  }
  total_bytes_ += data.size();
  if (buffered_ > 0) {
    size_t take = std::min<size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    data = data.subspan(take);
    if (buffered_ < 64) {
      return;
    }
    Compress(buffer_.data(), 1);
    buffered_ = 0;
  }
  const size_t whole = data.size() / 64;
  if (whole > 0) {
    Compress(data.data(), whole);
    data = data.subspan(whole * 64);
  }
  std::memcpy(buffer_.data(), data.data(), data.size());
  buffered_ = data.size();
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, ending on
  // a chunk boundary — one chunk when the length field still fits after
  // the buffered bytes, two otherwise.
  const uint64_t bit_length = total_bytes_ * 8;
  std::array<std::byte, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = std::byte{0x80};
  const size_t tail_bytes = buffered_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    tail[tail_bytes - 8 + i] =
        static_cast<std::byte>((bit_length >> (8 * (7 - i))) & 0xFF);
  }
  Compress(tail.data(), tail_bytes / 64);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::byte>((state_[i] >> 24) & 0xFF);
    out[4 * i + 1] = static_cast<std::byte>((state_[i] >> 16) & 0xFF);
    out[4 * i + 2] = static_cast<std::byte>((state_[i] >> 8) & 0xFF);
    out[4 * i + 3] = static_cast<std::byte>(state_[i] & 0xFF);
  }
  Reset();
  return out;
}

Sha256Digest Sha256Of(std::span<const std::byte> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace clio
