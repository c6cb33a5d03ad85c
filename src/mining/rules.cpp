#include "mining/rules.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/binary.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
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
  // unencodable.
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
    index_rules_.push_back(r);
    if (encodable && !body.empty()) {
      kept_bodies.insert(bits);
    }
    // Only body items enter a prediction window, so the counting path
    // needs no other body.
    const bool counted =
        encodable && std::none_of(body.begin(), body.end(), is_label);
    body_sizes_.push_back(counted ? static_cast<std::uint8_t>(bits.count())
                                  : kUncounted);
    if (body.empty()) {
      break;  // matches every window, so no later rule is reachable
    }
  }
  // Posting lists: count each bit's slots, then place them in slot order.
  const auto for_each_posting = [&](auto&& fn) {
    for (std::size_t slot = 0; slot < index_rules_.size(); ++slot) {
      ItemBitset bits;
      if (body_sizes_[slot] != kUncounted &&
          try_encode_bitset(rules_[index_rules_[slot]].body, &bits)) {
        bits.for_each_set([&](std::size_t bit) { fn(bit, slot); });
      }
    }
  };
  for_each_posting([&](std::size_t bit, std::size_t) {
    ++posting_offsets_[bit + 1];
  });
  for (std::size_t bit = 0; bit < kItemBodyBits; ++bit) {
    posting_offsets_[bit + 1] += posting_offsets_[bit];
  }
  postings_.resize(posting_offsets_.back());
  std::vector<std::uint32_t> next(posting_offsets_.begin(),
                                  posting_offsets_.end() - 1);
  for_each_posting([&](std::size_t bit, std::size_t slot) {
    postings_[next[bit]++] = static_cast<std::uint32_t>(slot);
  });
}

const Rule* RuleSet::best_match(const Itemset& observed) const {
  for (const std::size_t r : index_rules_) {
    if (is_subset(rules_[r].body, observed)) {
      return &rules_[r];  // slots ascend in confidence order
    }
  }
  return nullptr;
}

void RuleMatch::bind(const RuleSet& rules) {
  rules_ = &rules;
  const std::size_t slots = rules.reachable_size();
  counts_.assign(slots, 0);
  satisfied_.assign((slots + 63) / 64, 0);
  summary_.assign((satisfied_.size() + 63) / 64, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (rules.body_sizes_[slot] == 0) {
      mark(slot);  // the empty body holds in every window
    }
  }
}

// bgl:hot-begin(rule-matcher)
// Matching runs once per forwarded record (DESIGN §6), but the window's
// item set changes on few of them (about one in eight on servebench's
// DC-Prophet streams). So only a change walks a posting list, and a
// record costs two countr_zeros.
void RuleMatch::mark(std::size_t slot) {
  const std::size_t word = slot / 64;
  satisfied_[word] |= std::uint64_t{1} << (slot % 64);
  summary_[word / 64] |= std::uint64_t{1} << (word % 64);
}

void RuleMatch::unmark(std::size_t slot) {
  const std::size_t word = slot / 64;
  satisfied_[word] &= ~(std::uint64_t{1} << (slot % 64));
  if (satisfied_[word] == 0) {
    summary_[word / 64] &= ~(std::uint64_t{1} << (word % 64));
  }
}

// Both walks read the sizes and counts through locals: a write through a
// uint8_t may alias anything, so members would be reloaded per entry.
void RuleMatch::add(std::size_t bit) {
  BGL_CHECK_RANGE(bit, kItemBodyBits);
  const std::uint8_t* const sizes = rules_->body_sizes_.data();
  std::uint8_t* const counts = counts_.data();
  for (const std::uint32_t slot : rules_->postings(bit)) {
    if (++counts[slot] == sizes[slot]) {
      mark(slot);
    }
  }
}

void RuleMatch::remove(std::size_t bit) {
  BGL_CHECK_RANGE(bit, kItemBodyBits);
  const std::uint8_t* const sizes = rules_->body_sizes_.data();
  std::uint8_t* const counts = counts_.data();
  for (const std::uint32_t slot : rules_->postings(bit)) {
    if (counts[slot]-- == sizes[slot]) {
      unmark(slot);
    }
  }
}

const Rule* RuleMatch::best() const {
  for (std::size_t i = 0; i < summary_.size(); ++i) {
    if (summary_[i] != 0) {
      const std::size_t word =
          i * 64 + static_cast<std::size_t>(std::countr_zero(summary_[i]));
      const std::size_t slot =
          word * 64 +
          static_cast<std::size_t>(std::countr_zero(satisfied_[word]));
      return &rules_->rules_[rules_->index_rules_[slot]];
    }
  }
  return nullptr;
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

// A rule body/head is bounded by the item universe; anything larger means
// a corrupt stream, not a big model.
constexpr std::uint32_t kMaxRuleItems = 1u << 16;
// A rule's support, confidence, body count and hit count.
constexpr std::size_t kRuleFixedBytes = 32;

// Appends the next `n` bytes of `is` to `out` and returns how many the
// stream had. `out` grows only by those.
std::size_t append_bytes(std::istream& is, std::string& out, std::size_t n) {
  const std::size_t old_size = out.size();
  out.resize(old_size + n);
  is.read(out.data() + old_size, static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(is.gcount());
  out.resize(old_size + got);
  return got;
}

[[noreturn]] void throw_truncated(const char* what) {
  throw ParseError(std::string("binary input truncated reading ") + what);
}

// Reads a save_rules section after its tag, as it is on the wire: the
// rule count, then per rule the body size, the body, the head size, and
// the heads with the four fixed fields. Throws what wire::read would.
std::string read_section(std::istream& is) {
  std::string bytes;
  if (append_bytes(is, bytes, 8) != 8) {
    throw_truncated("rule count");
  }
  const auto count = wire::decode<std::uint64_t>(bytes.data());
  for (std::uint64_t i = 0; i < count; ++i) {
    if (append_bytes(is, bytes, 4) != 4) {
      throw_truncated("rule body size");
    }
    const auto body_size =
        wire::decode<std::uint32_t>(bytes.data() + bytes.size() - 4);
    if (body_size > kMaxRuleItems) {
      throw ParseError("rule body implausibly large");
    }
    if (append_bytes(is, bytes, 4 * std::size_t{body_size}) !=
        4 * std::size_t{body_size}) {
      throw_truncated("rule body item");
    }
    if (append_bytes(is, bytes, 4) != 4) {
      throw_truncated("rule head size");
    }
    const auto head_size =
        wire::decode<std::uint32_t>(bytes.data() + bytes.size() - 4);
    if (head_size > kMaxRuleItems) {
      throw ParseError("rule head implausibly large");
    }
    const std::size_t heads = 2 * std::size_t{head_size};
    const std::size_t got = append_bytes(is, bytes, heads + kRuleFixedBytes);
    if (got != heads + kRuleFixedBytes) {
      throw_truncated(got < heads        ? "rule head"
                      : got < heads + 8  ? "rule support"
                      : got < heads + 16 ? "rule confidence"
                      : got < heads + 24 ? "rule body count"
                                         : "rule hit count");
    }
  }
  return bytes;
}

// Walks a section read_section returned; every size in it is in bounds.
class SectionCursor {
 public:
  explicit SectionCursor(std::string_view bytes) : p_(bytes.data()) {}

  template <typename T>
  T next() {
    const T value = wire::decode<T>(p_);
    p_ += sizeof(T);
    return value;
  }

 private:
  const char* p_;
};

// True if `set` is what `section` decodes to, field by field and doubles
// by bit pattern, so no other section shares its set. Allocates nothing.
bool holds_section(const RuleSet& set, std::string_view section) {
  SectionCursor in(section);
  if (in.next<std::uint64_t>() != set.size()) {
    return false;
  }
  for (const Rule& rule : set.rules()) {
    if (in.next<std::uint32_t>() != rule.body.size()) {
      return false;
    }
    for (const Item item : rule.body) {
      if (in.next<Item>() != item) {
        return false;
      }
    }
    if (in.next<std::uint32_t>() != rule.heads.size()) {
      return false;
    }
    for (const SubcategoryId head : rule.heads) {
      if (in.next<SubcategoryId>() != head) {
        return false;
      }
    }
    if (in.next<std::uint64_t>() !=
            std::bit_cast<std::uint64_t>(rule.support) ||
        in.next<std::uint64_t>() !=
            std::bit_cast<std::uint64_t>(rule.confidence) ||
        in.next<std::uint64_t>() != rule.body_count ||
        in.next<std::uint64_t>() != rule.hit_count) {
      return false;
    }
  }
  return true;
}

// The rules of a section read_section returned.
std::vector<Rule> decode_rules(std::string_view section) {
  SectionCursor in(section);
  std::vector<Rule> rules(in.next<std::uint64_t>());
  for (Rule& rule : rules) {
    rule.body.resize(in.next<std::uint32_t>());
    for (Item& item : rule.body) {
      item = in.next<Item>();
    }
    rule.heads.resize(in.next<std::uint32_t>());
    for (SubcategoryId& head : rule.heads) {
      head = in.next<SubcategoryId>();
    }
    rule.support = std::bit_cast<double>(in.next<std::uint64_t>());
    rule.confidence = std::bit_cast<double>(in.next<std::uint64_t>());
    // Matching checks every confidence it serves, and the sort needs a
    // strict weak order: a NaN or out-of-range value is a corrupt model.
    if (!(rule.support >= 0.0 && rule.support <= 1.0) ||
        !(rule.confidence >= 0.0 && rule.confidence <= 1.0)) {
      throw ParseError("rule support or confidence outside [0, 1]");
    }
    rule.body_count = in.next<std::uint64_t>();
    rule.hit_count = in.next<std::uint64_t>();
  }
  return rules;
}

// The sets load_rules has built, while something still holds them, by
// stable_hash64 of the section each was built from.
struct LoadedSets {
  std::mutex mutex;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const RuleSet>> sets;
};

LoadedSets& loaded_sets() {
  static LoadedSets loaded;
  return loaded;
}

}  // namespace

std::shared_ptr<const RuleSet> load_rules(std::istream& is) {
  wire::expect_tag(is, "BGLRULE1");
  std::string section = read_section(is);
  const std::uint64_t key = stable_hash64(section);
  // Building under the lock makes concurrent loads of one model build its
  // index once.
  LoadedSets& loaded = loaded_sets();
  const std::lock_guard lock(loaded.mutex);
  std::erase_if(loaded.sets, [](const auto& entry) {
    return entry.second.expired();
  });
  const auto [first, last] = loaded.sets.equal_range(key);
  for (auto it = first; it != last; ++it) {
    std::shared_ptr<const RuleSet> set = it->second.lock();
    if (set != nullptr && holds_section(*set, section)) {
      return set;
    }
  }
  // A saved list is in confidence order already; the constructor's sort
  // keeps it, so the set's rules() decode to the section again. The
  // section's bytes go before the index is built.
  std::vector<Rule> rules = decode_rules(section);
  section = std::string();
  auto set = std::make_shared<const RuleSet>(std::move(rules));
  loaded.sets.emplace(key, set);
  return set;
}

}  // namespace bglpred
