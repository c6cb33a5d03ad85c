// Transaction database for frequent-itemset mining.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bitset.hpp"
#include "mining/items.hpp"

namespace bglpred {

/// One transaction: a sorted set of distinct items (body items plus at
/// most one label item in the event-set construction).
using Transaction = Itemset;

/// Vertical ("tid-list") index over a transaction collection: one bitset
/// per item whose bit t is set iff transaction t contains the item. An
/// itemset's absolute support is then popcount of the word-wise AND of
/// its item columns — the layout Apriori candidate counting and the
/// per-label confidence pass run on.
class VerticalIndex {
 public:
  explicit VerticalIndex(const std::vector<Transaction>& transactions);

  std::size_t transaction_count() const { return transaction_count_; }

  /// The item's transaction bitset, or nullptr if the item never occurs.
  const DynamicBitset* column(Item item) const;

  /// Absolute support of an itemset: popcount of the AND of its columns.
  std::size_t support(const Itemset& items) const;

 private:
  std::size_t transaction_count_ = 0;
  std::unordered_map<Item, DynamicBitset> columns_;
};

/// An immutable collection of transactions.
class TransactionDb {
 public:
  TransactionDb() = default;
  explicit TransactionDb(std::vector<Transaction> transactions);

  // The cached vertical index never leaves a copy (it would dangle on
  // add()); copies re-derive it lazily from the transactions.
  TransactionDb(const TransactionDb& other);
  TransactionDb& operator=(const TransactionDb& other);
  TransactionDb(TransactionDb&& other) noexcept;
  TransactionDb& operator=(TransactionDb&& other) noexcept;

  /// Appends a transaction; items are sorted and deduplicated here.
  void add(Transaction t);

  const std::vector<Transaction>& transactions() const {
    return transactions_;
  }
  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  /// Absolute support (number of containing transactions) of an itemset.
  /// Uses the vertical index: a few word-wise ANDs + popcount.
  std::size_t absolute_support(const Itemset& items) const;

  /// The item -> transaction-bitset index, built lazily on first use
  /// (thread-safe) and invalidated by add().
  const VerticalIndex& vertical_index() const;

  /// Minimum absolute count corresponding to a relative support threshold
  /// (ceil, but at least 1).
  std::size_t min_count_for(double relative_support) const;

 private:
  std::vector<Transaction> transactions_;
  mutable std::mutex index_mutex_;
  mutable std::unique_ptr<VerticalIndex> index_;
};

}  // namespace bglpred
