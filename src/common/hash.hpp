// Fixed 64-bit hash of a byte string, eight bytes per step. Unlike
// std::hash its values are the same on every platform and standard
// library, so they may be stored: the Phase-1 spatial keys in engine
// checkpoints are hashes of entry texts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "common/binary.hpp"

namespace bglpred {

inline std::uint64_t stable_hash64(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = n * kMul;
  for (; n >= 8; n -= 8, p += 8) {
    h = (h ^ wire::decode<std::uint64_t>(p)) * kMul;
    h ^= h >> 29;
  }
  char tail[8] = {};
  std::copy_n(p, n, tail);
  h = (h ^ wire::decode<std::uint64_t>(tail)) * kMul;
  return h ^ (h >> 32);
}

}  // namespace bglpred
