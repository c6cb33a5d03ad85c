#include "mining/apriori.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {
namespace {

// A (k+1)-candidate plus the indices of the two frequent k-itemsets whose
// prefix join produced it (its transaction bitset is the AND of theirs).
struct Candidate {
  Itemset items;
  std::size_t left = 0;
  std::size_t right = 0;
};

// Generates (k+1)-candidates from sorted frequent k-itemsets via the
// prefix join, pruning candidates with an infrequent k-subset. The output
// inherits the input's lexicographic order.
std::vector<Candidate> generate_candidates(
    const std::vector<Itemset>& frequent_k) {
  // The prefix join and the binary_search prune below both assume
  // lexicographic order; an unsorted input silently drops candidates.
  BGL_DCHECK(std::is_sorted(frequent_k.begin(), frequent_k.end()),
             "prefix join requires lexicographically sorted itemsets");
  std::vector<Candidate> candidates;
  Itemset candidate;
  Itemset subset;  // prune-check scratch, reused across candidates
  // frequent_k is sorted lexicographically; itemsets sharing a (k-1)
  // prefix are adjacent.
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      const Itemset& a = frequent_k[i];
      const Itemset& b = frequent_k[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
        break;  // prefixes diverge; later j only diverge further
      }
      candidate.assign(a.begin(), a.end());
      candidate.push_back(b.back());
      // Apriori pruning: every k-subset must be frequent. The two
      // "parents" are frequent by construction; test the others.
      bool prune = false;
      for (std::size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
        subset.clear();
        for (std::size_t m = 0; m < candidate.size(); ++m) {
          if (m != drop) {
            subset.push_back(candidate[m]);
          }
        }
        if (!std::binary_search(frequent_k.begin(), frequent_k.end(),
                                subset)) {
          prune = true;
          break;
        }
      }
      if (!prune) {
        candidates.push_back(Candidate{candidate, i, j});
      }
    }
  }
  return candidates;
}

// Single items with their counts, in ascending item order (the order
// level 1 is emitted in).
std::map<Item, std::size_t> count_singles(const TransactionDb& db) {
  std::map<Item, std::size_t> singles;
  for (const Transaction& t : db.transactions()) {
    for (Item item : t) {
      ++singles[item];
    }
  }
  return singles;
}

}  // namespace

std::vector<FrequentItemset> apriori(const TransactionDb& db,
                                     std::size_t min_count,
                                     std::size_t max_itemset_size) {
  // A zero floor would make every combination of items "frequent".
  BGL_REQUIRE(min_count >= 1, "minimum support count must be >= 1");
  BGL_REQUIRE(max_itemset_size >= 1, "max itemset size must be >= 1");
  std::vector<FrequentItemset> result;
  if (db.empty()) {
    return result;
  }
  const VerticalIndex& index = db.vertical_index();

  // Pass 1: frequent single items, each carrying its transaction bitset.
  std::vector<Itemset> frequent_k;
  std::vector<DynamicBitset> tids_k;
  for (const auto& [item, count] : count_singles(db)) {
    if (count >= min_count) {
      result.push_back({{item}, count});
      frequent_k.push_back({item});
      const DynamicBitset* column = index.column(item);
      BGL_CHECK(column != nullptr,
                "counted item missing from the vertical index");
      tids_k.push_back(*column);
    }
  }

  // Level-wise passes: a candidate's bitset is the AND of its two join
  // parents' bitsets, and its support the popcount — no transaction scan.
  for (std::size_t k = 2;
       k <= max_itemset_size && frequent_k.size() >= 2; ++k) {
    const std::vector<Candidate> candidates = generate_candidates(frequent_k);
    if (candidates.empty()) {
      break;
    }
    std::vector<Itemset> next_frequent;
    std::vector<DynamicBitset> next_tids;
    for (const Candidate& c : candidates) {
      BGL_CHECK_RANGE(c.left, tids_k.size());
      BGL_CHECK_RANGE(c.right, tids_k.size());
      // Count without materializing: most candidates are infrequent at
      // low support, and and_count needs no allocation. Only survivors
      // pay for an actual tidset.
      const std::size_t count =
          DynamicBitset::and_count(tids_k[c.left], tids_k[c.right]);
      BGL_CHECK(count <= db.size(),
                "candidate counted more often than there are transactions");
      if (count >= min_count) {
        result.push_back({c.items, count});
        next_frequent.push_back(c.items);
        next_tids.push_back(
            DynamicBitset::and_of(tids_k[c.left], tids_k[c.right]));
      }
    }
    frequent_k = std::move(next_frequent);
    tids_k = std::move(next_tids);
    // The join emits candidates in lexicographic order, so the surviving
    // frequent sets are already sorted for the next level's prefix join.
    BGL_DCHECK(std::is_sorted(frequent_k.begin(), frequent_k.end()),
               "candidate generation lost lexicographic order");
  }
  return result;
}

}  // namespace bglpred
