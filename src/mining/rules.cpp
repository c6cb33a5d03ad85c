#include "mining/rules.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/binary.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "mining/apriori.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

std::string Rule::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += std::string(catalog().info(subcat_of(body[i])).name);
  }
  out += " ==> ";
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += std::string(catalog().info(heads[i]).name);
  }
  out += ": " + TextTable::num(confidence, 6);
  return out;
}

namespace {

// Kept bodies: linear probing behind a one-hash Bloom filter that keeps
// most probes for absent bodies out of the table. The empty body never
// enters, so an all-zeros slot is free, and one always remains.
class BodySet {
 public:
  explicit BodySet(std::size_t max_size)
      : slots_(std::bit_ceil(max_size + 1)), filter_(8 * slots_.size()) {}

  void insert(const ItemBitset& body) {
    const std::uint64_t h = hash(body);
    filter_[(h >> 32) & (filter_.size() - 1)] = true;
    slots_[find(body, h)] = body;
  }

  /// True if a non-empty sub-body of the encodable `body` is in the set.
  bool has_sub_body(const Itemset& body) const {
    for (std::uint64_t subset = 1; subset < (std::uint64_t{1} << body.size());
         ++subset) {
      ItemBitset sub;
      for (std::size_t i = 0; i < body.size(); ++i) {
        if ((subset >> i) & 1) {
          sub.set(item_bit(body[i]));
        }
      }
      const std::uint64_t h = hash(sub);
      if (filter_[(h >> 32) & (filter_.size() - 1)] &&
          slots_[find(sub, h)] == sub) {
        return true;
      }
    }
    return false;
  }

 private:
  static std::uint64_t hash(const ItemBitset& body) {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < ItemBitset::kWords; ++i) {
      h = (h ^ body.word(i)) * 0x9e3779b97f4a7c15ULL;
    }
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;  // every bit mixed
    return h ^ (h >> 33);
  }

  // The slot holding `body`, or the free slot where it belongs.
  std::size_t find(const ItemBitset& body, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(h) & mask;
    while (slots_[slot].any() && slots_[slot] != body) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  std::vector<ItemBitset> slots_;
  std::vector<bool> filter_;  // 8 bits per slot
};

}  // namespace

RuleSet::RuleSet(std::vector<Rule> rules) : rules_(std::move(rules)) {
  std::sort(rules_.begin(), rules_.end(), [](const Rule& a, const Rule& b) {
    if (a.confidence != b.confidence) {
      return a.confidence > b.confidence;
    }
    if (a.support != b.support) {
      return a.support > b.support;
    }
    return a.body < b.body;
  });
  // Matching index over the reachable rules: a rule is unreachable exactly
  // when an earlier kept rule's body is a subset of its own. A body of k
  // items probes its 2^k - 1 sub-bodies (15 at the default
  // max_itemset_size) unless a scan of the kept rules is cheaper or it is
  // unencodable; those and the empty body go to the always-checked mask.
  BodySet kept_bodies(rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const Itemset& body = rules_[r].body;
    ItemBitset bits;
    const bool encodable = try_encode_bitset(body, &bits);
    const bool covered =  // 2^k probes when 2^k <= kept rules, else a scan
        encodable && body.size() < std::bit_width(index_rules_.size())
            ? kept_bodies.has_sub_body(body)
            : std::any_of(index_rules_.begin(), index_rules_.end(),
                          [&](std::size_t kept) {
                            return is_subset(rules_[kept].body, body);
                          });
    if (covered) {
      continue;
    }
    const std::size_t slot = index_rules_.size();
    index_rules_.push_back(r);
    bodies_.push_back(encodable ? bits : ItemBitset{});
    if (body.empty() || !encodable) {
      always_check_.set(slot);
    } else {
      kept_bodies.insert(bits);
      bits.for_each_set(
          [&](std::size_t bit) { rules_by_item_[bit].set(slot); });
    }
    if (body.empty()) {
      break;  // matches every window, so no later rule is reachable
    }
  }
}

// bgl:hot-begin(rule-matcher)
// Matching runs once per forwarded record (DESIGN §6), so it must not
// allocate: instead of a candidate bitset (193 words on servebench's
// DC-Prophet model) the walk ORs the observed items' masks one word at a
// time and stops in the word holding the first hit.
const Rule* RuleSet::match_candidates(const ItemBitset& observed,
                                      const Itemset* observed_items) const {
  // Masks of the observed items that some kept body uses; the walk ends
  // with the longest of them and the always-checked one.
  std::array<const DynamicBitset*, ItemBitset::kBits> masks;
  std::size_t mask_count = 0;
  std::size_t words = always_check_.word_count();
  observed.for_each_set([&](std::size_t bit) {
    const DynamicBitset& mask = rules_by_item_[bit];
    if (mask.word_count() != 0) {
      masks[mask_count++] = &mask;
      words = std::max(words, mask.word_count());
    }
  });
  for (std::size_t w = 0; w < words; ++w) {
    // Candidates: kept rules sharing an item with the window (any
    // matching non-empty body must), plus the always-checked ones.
    std::uint64_t candidates = always_check_.word(w);
    for (std::size_t m = 0; m < mask_count; ++m) {
      candidates |= masks[m]->word(w);
    }
    // Slots ascend in confidence order, so the first subset hit is the
    // best match.
    for (; candidates != 0; candidates &= candidates - 1) {
      const std::size_t slot =
          w * 64 + static_cast<std::size_t>(std::countr_zero(candidates));
      const Rule& rule = rules_[index_rules_[slot]];
      const bool hit =
          !always_check_.test(slot) ? bodies_[slot].is_subset_of(observed)
          : observed_items != nullptr ? is_subset(rule.body, *observed_items)
                                      : rule.body.empty();
      if (hit) {
        return &rule;
      }
    }
  }
  return nullptr;
}

const Rule* RuleSet::best_match(const Itemset& observed) const {
  ItemBitset bits;
  for (const Item item : observed) {
    const std::size_t bit = item_bit(item);
    if (bit != kNoItemBit) {
      bits.set(bit);
    }
  }
  // Unencodable observed items only matter to always-checked rules, which
  // get the full itemset for their naive subset test.
  return match_candidates(bits, &observed);
}

const Rule* RuleSet::best_match(const ItemBitset& observed) const {
  return match_candidates(observed, nullptr);
}
// bgl:hot-end

const Rule* RuleSet::best_match_naive(const Itemset& observed) const {
  for (const Rule& rule : rules_) {
    if (is_subset(rule.body, observed)) {
      return &rule;  // rules are confidence-sorted; first match wins
    }
  }
  return nullptr;
}

std::vector<Rule> combine_rules(std::vector<Rule> rules) {
  std::map<Itemset, Rule> by_body;
  for (Rule& rule : rules) {
    auto [it, inserted] = by_body.try_emplace(rule.body, rule);
    if (inserted) {
      continue;
    }
    Rule& merged = it->second;
    BGL_CHECK(merged.body_count == rule.body_count,
              "rules with identical bodies disagree on body support");
    merged.heads.insert(merged.heads.end(), rule.heads.begin(),
                        rule.heads.end());
    merged.hit_count += rule.hit_count;
    // Exact because each event-set carries exactly one label: the head
    // events are disjoint across transactions with this body. The clamps
    // only absorb rounding in the sums, which load_rules would refuse.
    merged.support = std::min(1.0, merged.support + rule.support);
    merged.confidence =
        std::min(1.0, merged.confidence + rule.confidence);
  }
  std::vector<Rule> out;
  out.reserve(by_body.size());
  for (auto& [body, rule] : by_body) {
    std::sort(rule.heads.begin(), rule.heads.end());
    rule.heads.erase(std::unique(rule.heads.begin(), rule.heads.end()),
                     rule.heads.end());
    out.push_back(std::move(rule));
  }
  return out;
}

RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options) {
  // One slot of the itemset budget is the label's, and a rule needs a
  // body item besides.
  BGL_REQUIRE(options.mining.max_itemset_size >= 2,
              "max itemset size must be >= 2: a rule is a body plus a label");
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
  for (auto& [label, bodies] : by_label) {
    if (bodies.size() < options.min_label_count) {
      continue;
    }
    const TransactionDb class_db{std::move(bodies)};
    // Support counts are anti-monotone, so an itemset under the hit floor
    // has no superset above it: mining at the higher of the two floors
    // skips exactly the itemsets that could never become rules.
    const std::size_t min_count =
        std::max(class_db.min_count_for(options.mining.min_support),
                 options.min_rule_hits);
    for (FrequentItemset& f : apriori(class_db, min_count,
                                      options.mining.max_itemset_size - 1)) {
      // Confidence against the *full* database, so competing contexts
      // still discount weak bodies.
      const std::size_t body_count = db.absolute_support(f.items);
      BGL_CHECK(body_count >= f.count,
                "class-conditional support exceeds global body support");
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(body_count);
      if (confidence + 1e-12 < options.min_confidence) {
        continue;
      }
      Rule rule;
      rule.body = std::move(f.items);
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

void save_rules(std::ostream& os, const RuleSet& rules) {
  wire::write_tag(os, "BGLRULE1");
  wire::write<std::uint64_t>(os, rules.size());
  for (const Rule& rule : rules.rules()) {
    wire::write<std::uint32_t>(os,
                               static_cast<std::uint32_t>(rule.body.size()));
    for (const Item item : rule.body) {
      wire::write<std::uint32_t>(os, item);
    }
    wire::write<std::uint32_t>(os,
                               static_cast<std::uint32_t>(rule.heads.size()));
    for (const SubcategoryId head : rule.heads) {
      wire::write<std::uint16_t>(os, head);
    }
    wire::write_double(os, rule.support);
    wire::write_double(os, rule.confidence);
    wire::write<std::uint64_t>(os, rule.body_count);
    wire::write<std::uint64_t>(os, rule.hit_count);
  }
}

namespace {

// The sets load_rules has returned, while something still holds them.
struct LoadedSets {
  std::mutex mutex;
  std::vector<std::weak_ptr<const RuleSet>> sets;
};

LoadedSets& loaded_sets() {
  static LoadedSets loaded;
  return loaded;
}

}  // namespace

std::shared_ptr<const RuleSet> load_rules(std::istream& is) {
  wire::expect_tag(is, "BGLRULE1");
  const auto count = wire::read<std::uint64_t>(is, "rule count");
  // A rule body/head is bounded by the item universe; anything larger
  // means a corrupt stream, not a big model.
  constexpr std::uint32_t kMaxRuleItems = 1u << 16;
  std::vector<Rule> rules;  // no reserve: the count is unchecked input
  for (std::uint64_t i = 0; i < count; ++i) {
    Rule rule;
    const auto body_size = wire::read<std::uint32_t>(is, "rule body size");
    if (body_size > kMaxRuleItems) {
      throw ParseError("rule body implausibly large");
    }
    rule.body.reserve(body_size);
    for (std::uint32_t b = 0; b < body_size; ++b) {
      rule.body.push_back(wire::read<Item>(is, "rule body item"));
    }
    const auto head_size = wire::read<std::uint32_t>(is, "rule head size");
    if (head_size > kMaxRuleItems) {
      throw ParseError("rule head implausibly large");
    }
    rule.heads.reserve(head_size);
    for (std::uint32_t h = 0; h < head_size; ++h) {
      rule.heads.push_back(wire::read<SubcategoryId>(is, "rule head"));
    }
    rule.support = wire::read_double(is, "rule support");
    rule.confidence = wire::read_double(is, "rule confidence");
    // Matching checks every confidence it serves, and the sort needs a
    // strict weak order: a NaN or out-of-range value is a corrupt model.
    if (!(rule.support >= 0.0 && rule.support <= 1.0) ||
        !(rule.confidence >= 0.0 && rule.confidence <= 1.0)) {
      throw ParseError("rule support or confidence outside [0, 1]");
    }
    rule.body_count = wire::read<std::uint64_t>(is, "rule body count");
    rule.hit_count = wire::read<std::uint64_t>(is, "rule hit count");
    rules.push_back(std::move(rule));
  }
  // A live set's rules() are in confidence order, the order save_rules
  // wrote, so a load of the same model compares equal as parsed. Building
  // under the lock makes concurrent loads of one model build its index
  // once.
  LoadedSets& loaded = loaded_sets();
  const std::lock_guard lock(loaded.mutex);
  std::erase_if(loaded.sets, [](const std::weak_ptr<const RuleSet>& set) {
    return set.expired();
  });
  for (const std::weak_ptr<const RuleSet>& weak : loaded.sets) {
    std::shared_ptr<const RuleSet> set = weak.lock();
    if (set != nullptr && set->rules() == rules) {
      return set;
    }
  }
  // The constructor sorts (a saved list is in order already) and builds
  // the matching index.
  auto set = std::make_shared<const RuleSet>(std::move(rules));
  loaded.sets.push_back(set);
  return set;
}

}  // namespace bglpred
