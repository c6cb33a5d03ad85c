// The bytewise CRC-32 loop the product shipped before its slicing-by-8
// and folded kernels (common/crc32.hpp): one lookup in its own 256-entry
// table per input byte. Kept as the differential oracle for both kernels
// and as the baseline of the perf_serve_submit smoke's same-process speed
// ratios.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace bglpred::oracle {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_bytewise_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[n] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kBytewiseTable =
    make_bytewise_table();
}  // namespace detail

inline std::uint32_t crc32_bytewise(std::string_view data,
                                    std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char ch : data) {
    c = detail::kBytewiseTable[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^
        (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace bglpred::oracle
