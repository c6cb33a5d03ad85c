#include "mining_oracle.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred::oracle {
namespace {

// Hash for an itemset (FNV-ish over items). Collisions are resolved by the
// map's key equality.
struct ItemsetHash {
  std::size_t operator()(const Itemset& items) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (Item it : items) {
      h ^= it;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

using CandidateCounts = std::unordered_map<Itemset, std::size_t, ItemsetHash>;

// (k+1)-candidates of the sorted frequent k-itemsets: each join of two
// itemsets sharing their first k-1 items whose k-subsets are all
// frequent, in lexicographic order.
std::vector<Itemset> candidates_of(const std::vector<Itemset>& frequent_k) {
  const std::set<Itemset> frequent(frequent_k.begin(), frequent_k.end());
  std::vector<Itemset> candidates;
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      const Itemset& a = frequent_k[i];
      const Itemset& b = frequent_k[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
        break;
      }
      Itemset candidate = a;
      candidate.push_back(b.back());
      bool all_frequent = true;
      for (std::size_t drop = 0; drop < candidate.size(); ++drop) {
        Itemset subset = candidate;
        subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
        all_frequent = all_frequent && frequent.count(subset) != 0;
      }
      if (all_frequent) {
        candidates.push_back(std::move(candidate));
      }
    }
  }
  return candidates;
}

// Enumerates all k-subsets of `items` and bumps matching candidates.
void count_subsets(const Itemset& items, std::size_t k,
                   CandidateCounts& counts) {
  if (items.size() < k) {
    return;
  }
  // Iterative combination enumeration over indices.
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) {
    idx[i] = i;
  }
  Itemset subset(k);
  for (;;) {
    for (std::size_t i = 0; i < k; ++i) {
      subset[i] = items[idx[i]];
    }
    if (auto it = counts.find(subset); it != counts.end()) {
      ++it->second;
    }
    // Advance to the next combination: bump the rightmost index that has
    // room, then reset everything to its right.
    std::ptrdiff_t pos = static_cast<std::ptrdiff_t>(k) - 1;
    while (pos >= 0 &&
           idx[static_cast<std::size_t>(pos)] ==
               static_cast<std::size_t>(pos) + items.size() - k) {
      --pos;
    }
    if (pos < 0) {
      return;
    }
    ++idx[static_cast<std::size_t>(pos)];
    for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < k; ++i) {
      idx[i] = idx[i - 1] + 1;
    }
  }
}

}  // namespace

std::vector<FrequentItemset> apriori_reference(const TransactionDb& db,
                                               std::size_t min_count,
                                               std::size_t max_itemset_size) {
  BGL_REQUIRE(min_count >= 1, "minimum support count must be >= 1");
  BGL_REQUIRE(max_itemset_size >= 1, "max itemset size must be >= 1");
  std::vector<FrequentItemset> result;

  // Pass 1: frequent single items.
  std::map<Item, std::size_t> singles;
  for (const Transaction& t : db.transactions()) {
    for (Item item : t) {
      ++singles[item];
    }
  }
  std::vector<Itemset> frequent_k;
  for (const auto& [item, count] : singles) {
    if (count >= min_count) {
      result.push_back({{item}, count});
      frequent_k.push_back({item});
    }
  }

  // Restrict each transaction to its frequent items once; sortedness of
  // transactions is preserved by the filter.
  std::vector<Itemset> filtered;
  filtered.reserve(db.size());
  for (const Transaction& t : db.transactions()) {
    Itemset keep;
    for (Item item : t) {
      if (singles.at(item) >= min_count) {
        keep.push_back(item);
      }
    }
    filtered.push_back(std::move(keep));
  }

  // Level-wise passes with horizontal counting: enumerate each
  // transaction's k-subsets against the candidate hash map.
  for (std::size_t k = 2; k <= max_itemset_size && frequent_k.size() >= 2;
       ++k) {
    const std::vector<Itemset> candidates = candidates_of(frequent_k);
    CandidateCounts counts;
    counts.reserve(candidates.size() * 2);
    for (const Itemset& c : candidates) {
      counts.emplace(c, 0);
    }
    for (const Itemset& t : filtered) {
      count_subsets(t, k, counts);
    }
    frequent_k.clear();
    for (const Itemset& c : candidates) {
      const std::size_t count = counts.at(c);
      if (count >= min_count) {
        result.push_back({c, count});
        frequent_k.push_back(c);
      }
    }
  }
  return result;
}

std::size_t absolute_support_naive(const TransactionDb& db,
                                   const Itemset& items) {
  return static_cast<std::size_t>(
      std::count_if(db.transactions().begin(), db.transactions().end(),
                    [&](const Transaction& t) { return is_subset(items, t); }));
}

RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options) {
  BGL_REQUIRE(options.mining.max_itemset_size >= 1,
              "max itemset size must be >= 1");
  if (db.empty()) {
    return RuleSet{};
  }
  // Group transactions by their (single) label item.
  std::map<Item, std::vector<Transaction>> by_label;
  for (const Transaction& t : db.transactions()) {
    for (Item item : t) {
      if (is_label(item)) {
        // Strip the label; the per-class sub-database holds bodies only.
        Transaction body;
        body.reserve(t.size() - 1);
        for (Item other : t) {
          if (!is_label(other)) {
            body.push_back(other);
          }
        }
        by_label[item].push_back(std::move(body));
        break;
      }
    }
  }

  std::vector<Rule> rules;
  for (const auto& [label, bodies] : by_label) {
    if (bodies.size() < options.min_label_count) {
      continue;
    }
    TransactionDb class_db{std::vector<Transaction>(bodies)};
    // Reserve one slot of the itemset budget for the label.
    const std::size_t max_itemset_size =
        std::max<std::size_t>(1, options.mining.max_itemset_size - 1);
    const std::vector<FrequentItemset> frequent = apriori_reference(
        class_db, class_db.min_count_for(options.mining.min_support),
        max_itemset_size);
    for (const FrequentItemset& f : frequent) {
      if (f.items.empty() || f.count < options.min_rule_hits) {
        continue;
      }
      const std::size_t body_count = db.absolute_support(f.items);
      BGL_CHECK(body_count >= f.count,
                "class-conditional support exceeds global body support");
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(body_count);
      if (confidence + 1e-12 < options.min_confidence) {
        continue;
      }
      Rule rule;
      rule.body = f.items;
      rule.heads = {subcat_of(label)};
      rule.hit_count = f.count;
      rule.body_count = body_count;
      rule.support =
          static_cast<double>(f.count) / static_cast<double>(db.size());
      rule.confidence = confidence;
      rules.push_back(std::move(rule));
    }
  }
  return RuleSet(combine_rules(std::move(rules)));
}

}  // namespace bglpred::oracle
