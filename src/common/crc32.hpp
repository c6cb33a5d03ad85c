// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte
// ranges. Used by the serve wire protocol to detect corrupted frame
// payloads before any payload decoding runs, so a flipped bit on the
// wire surfaces as a typed BAD_CRC error instead of garbage records,
// and by the checkpoint and log-store manifests.
//
// Portable slicing-by-8: eight 256-entry tables, built at compile time,
// fold eight input bytes per step with one table lookup each instead of
// eight dependent bytewise steps. Values are those of the bytewise
// definition (tests/crc32_oracle.hpp pins them at every length and
// alignment), so wire frames and stored CRCs are unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bglpred {

namespace detail {
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
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load at any alignment (compiles to one load).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// CRC-32 of `data`. `seed` chains multi-part computations: pass the
/// previous call's result to continue a running checksum.
inline std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace bglpred
