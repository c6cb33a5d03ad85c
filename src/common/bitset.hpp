// Fixed- and dynamic-width bitsets for the mining fast paths.
//
// ItemBitset is the fixed-width set the hot loops operate on: a few
// 64-bit words covering the dense mining-item universe (body and label
// slots; see mining/items.hpp for the item -> bit mapping and the
// compile-time width check against the taxonomy catalog). Subset tests
// and intersections become a handful of word ops instead of walks over
// sorted vectors.
//
// DynamicBitset is the runtime-width companion used for vertical
// transaction indexes (item -> bitset over transaction ids) and for rule
// candidate masks (item -> bitset over rule indices), where the width is
// only known once the database or rule set exists. An empty bitset acts
// as all-zeros of any width, so sparse column arrays stay cheap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace bglpred {

/// Fixed 256-bit set over the dense item universe.
class ItemBitset {
 public:
  static constexpr std::size_t kBits = 256;
  static constexpr std::size_t kWords = kBits / 64;

  constexpr ItemBitset() = default;

  void set(std::size_t bit) {
    BGL_CHECK_RANGE(bit, kBits);
    words_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  void clear(std::size_t bit) {
    BGL_CHECK_RANGE(bit, kBits);
    words_[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
  }
  bool test(std::size_t bit) const {
    BGL_CHECK_RANGE(bit, kBits);
    return (words_[bit / 64] >> (bit % 64)) & 1;
  }

  /// The 64-bit word holding bits [64 * i, 64 * i + 64).
  std::uint64_t word(std::size_t i) const {
    BGL_CHECK_RANGE(i, kWords);
    return words_[i];
  }

  void reset() {
    for (std::uint64_t& w : words_) {
      w = 0;
    }
  }

  bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// True if every bit set here is also set in `other`.
  bool is_subset_of(const ItemBitset& other) const {
    for (std::size_t i = 0; i < kWords; ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Invokes `fn(bit)` for each set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t i = 0; i < kWords; ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        fn(i * 64 + bit);
        w &= w - 1;
      }
    }
  }

  friend bool operator==(const ItemBitset& a, const ItemBitset& b) {
    for (std::size_t i = 0; i < kWords; ++i) {
      if (a.words_[i] != b.words_[i]) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const ItemBitset& a, const ItemBitset& b) {
    return !(a == b);
  }

 private:
  std::uint64_t words_[kWords] = {};
};

/// Runtime-width bitset. A default-constructed (or never-set) instance
/// behaves as all-zeros regardless of the width it is compared against.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  /// All-zeros bitset able to hold `bits` bits without reallocation.
  explicit DynamicBitset(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  std::size_t word_count() const { return words_.size(); }

  void set(std::size_t bit) {
    const std::size_t word = bit / 64;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    words_[word] |= std::uint64_t{1} << (bit % 64);
  }

  bool test(std::size_t bit) const {
    const std::size_t word = bit / 64;
    if (word >= words_.size()) {
      return false;
    }
    return (words_[word] >> (bit % 64)) & 1;
  }

  /// The word holding bits [64 * i, 64 * i + 64); 0 past the stored width.
  std::uint64_t word(std::size_t i) const {
    return i < words_.size() ? words_[i] : 0;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// popcount(a & b) without materializing the intersection.
  static std::size_t and_count(const DynamicBitset& a,
                               const DynamicBitset& b) {
    const std::size_t n = std::min(a.words_.size(), b.words_.size());
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out += static_cast<std::size_t>(std::popcount(a.words_[i] &
                                                    b.words_[i]));
    }
    return out;
  }

  /// a & b as a new bitset (trailing zero words trimmed implicitly by
  /// using the shorter width).
  static DynamicBitset and_of(const DynamicBitset& a,
                              const DynamicBitset& b) {
    DynamicBitset out;
    const std::size_t n = std::min(a.words_.size(), b.words_.size());
    out.words_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.words_[i] = a.words_[i] & b.words_[i];
    }
    return out;
  }

  /// this &= other (bits beyond `other`'s width are cleared).
  void and_with(const DynamicBitset& other) {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t i = 0; i < n; ++i) {
      words_[i] &= other.words_[i];
    }
    for (std::size_t i = n; i < words_.size(); ++i) {
      words_[i] = 0;
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Debug rendering: ascending list of set bits, e.g. "{1, 64, 129}".
std::string to_string(const ItemBitset& bits);

}  // namespace bglpred
