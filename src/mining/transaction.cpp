#include "mining/transaction.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bglpred {

VerticalIndex::VerticalIndex(const std::vector<Transaction>& transactions)
    : transaction_count_(transactions.size()) {
  for (std::size_t t = 0; t < transactions.size(); ++t) {
    for (const Item item : transactions[t]) {
      auto [it, inserted] = columns_.try_emplace(item, transaction_count_);
      it->second.set(t);
    }
  }
}

const DynamicBitset* VerticalIndex::column(Item item) const {
  const auto it = columns_.find(item);
  return it == columns_.end() ? nullptr : &it->second;
}

std::size_t VerticalIndex::support(const Itemset& items) const {
  if (items.empty()) {
    return transaction_count_;  // every transaction contains the empty set
  }
  const DynamicBitset* first = column(items[0]);
  if (first == nullptr) {
    return 0;
  }
  if (items.size() == 1) {
    return first->count();
  }
  if (items.size() == 2) {
    const DynamicBitset* second = column(items[1]);
    return second == nullptr ? 0
                             : DynamicBitset::and_count(*first, *second);
  }
  DynamicBitset acc = *first;
  for (std::size_t i = 1; i < items.size(); ++i) {
    const DynamicBitset* col = column(items[i]);
    if (col == nullptr) {
      return 0;
    }
    acc.and_with(*col);
  }
  return acc.count();
}

TransactionDb::TransactionDb(std::vector<Transaction> transactions)
    : transactions_(std::move(transactions)) {
  for (Transaction& t : transactions_) {
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
  }
}

TransactionDb::TransactionDb(const TransactionDb& other)
    : transactions_(other.transactions_) {}

TransactionDb& TransactionDb::operator=(const TransactionDb& other) {
  if (this != &other) {
    transactions_ = other.transactions_;
    index_.reset();
  }
  return *this;
}

TransactionDb::TransactionDb(TransactionDb&& other) noexcept
    : transactions_(std::move(other.transactions_)),
      index_(std::move(other.index_)) {}

TransactionDb& TransactionDb::operator=(TransactionDb&& other) noexcept {
  if (this != &other) {
    transactions_ = std::move(other.transactions_);
    index_ = std::move(other.index_);
  }
  return *this;
}

void TransactionDb::add(Transaction t) {
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  transactions_.push_back(std::move(t));
  index_.reset();  // columns are one bit per transaction; now stale
}

const VerticalIndex& TransactionDb::vertical_index() const {
  const std::scoped_lock lock(index_mutex_);
  if (index_ == nullptr) {
    index_ = std::make_unique<VerticalIndex>(transactions_);
  }
  return *index_;
}

std::size_t TransactionDb::absolute_support(const Itemset& items) const {
  return vertical_index().support(items);
}

std::size_t TransactionDb::min_count_for(double relative_support) const {
  BGL_REQUIRE(relative_support >= 0.0 && relative_support <= 1.0,
              "relative support must be in [0, 1]");
  const double raw =
      relative_support * static_cast<double>(transactions_.size());
  const auto count = static_cast<std::size_t>(std::ceil(raw - 1e-9));
  return std::max<std::size_t>(1, count);
}

}  // namespace bglpred
