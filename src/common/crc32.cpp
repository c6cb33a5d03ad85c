#include "common/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define BGL_CRC32_FOLDED 1
#else
#define BGL_CRC32_FOLDED 0
#endif

namespace bglpred {

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][n] is the CRC of byte n
/// followed by k zero bytes, so one step can look all eight bytes up at
/// once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}
constexpr Crc32Tables kTables = make_crc32_tables();

/// The folded kernel takes inputs of at least this many bytes: one
/// 64-byte block fills its four lanes.
constexpr std::size_t kFoldMinBytes = 64;

/// Little-endian 32-bit load at any alignment (compiles to one load).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// bgl:hot-begin(crc32-kernels)
// Every SUBMIT payload byte passes through one of these kernels. Both
// update the running (inverted) CRC state `c`; the callers invert it on
// entry and exit.

/// Slicing-by-8 over n bytes at any alignment.
std::uint32_t slicing_update(const unsigned char* p, std::size_t n,
                             std::uint32_t c) {
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#if BGL_CRC32_FOLDED
/// Folds n bytes, n >= 64 and a multiple of 16, by carry-less
/// multiplication: four 128-bit lanes stride the input 64 bytes at a
/// time, fold into one lane, then to 64 bits, and a Barrett reduction
/// leaves the 32-bit state. Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), laid
/// out as zlib's crc32_simd. The constants are bit-reflected, each
/// shifted left by one: k1 = x^(4*128+32) mod P, k2 = x^(4*128-32)
/// mod P, k3 = x^(128+32) mod P, k4 = x^(128-32) mod P, k5 = x^64 mod P,
/// then P itself and mu = floor(x^64 / P).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(
    const unsigned char* p, std::size_t n, std::uint32_t c) {
  // Written out without helpers: a lambda or callee would not inherit
  // this function's target and could not use the clmul intrinsics.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto* in = reinterpret_cast<const __m128i*>(p);

  __m128i x1 = _mm_xor_si128(_mm_loadu_si128(in),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = _mm_loadu_si128(in + 1);
  __m128i x3 = _mm_loadu_si128(in + 2);
  __m128i x4 = _mm_loadu_si128(in + 3);
  in += 4;
  n -= 64;
  // Each lane's halves times (k1, k2) move it 512 bits on, onto the
  // next block's lane.
  for (; n >= 64; n -= 64, in += 4) {
    const __m128i y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i y4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y1), _mm_loadu_si128(in));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, y2), _mm_loadu_si128(in + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, y3), _mm_loadu_si128(in + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, y4), _mm_loadu_si128(in + 3));
  }
  // (k3, k4) move one lane 128 bits on: fold x1 into x2, x3, x4, then
  // into each remaining 16-byte block.
  const __m128i lanes[3] = {x2, x3, x4};
  for (const __m128i next : lanes) {
    const __m128i y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y), next);
  }
  for (; n >= 16; n -= 16, ++in) {
    const __m128i y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y), _mm_loadu_si128(in));
  }
  // 128 bits to 64.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#endif

std::uint32_t crc32_with(std::string_view data, std::uint32_t seed,
                         bool fold) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xffffffffu;
#if BGL_CRC32_FOLDED
  if (fold && n >= kFoldMinBytes) {
    const std::size_t prefix = n & ~std::size_t{15};
    c = fold_pclmul(p, prefix, c);
    p += prefix;
    n -= prefix;
  }
#else
  (void)fold;
#endif
  return slicing_update(p, n, c) ^ 0xffffffffu;
}
// bgl:hot-end

bool detect_folded() {
#if BGL_CRC32_FOLDED
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

}  // namespace

bool crc32_folded_supported() {
  static const bool supported = detect_folded();
  return supported;
}

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  return crc32_with(data, seed, crc32_folded_supported());
}

std::uint32_t crc32_slicing(std::string_view data, std::uint32_t seed) {
  return crc32_with(data, seed, false);
}

std::uint32_t crc32_folded(std::string_view data, std::uint32_t seed) {
  return crc32_with(data, seed, true);
}

}  // namespace bglpred
