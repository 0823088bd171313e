// The Pareto search's label queue (see mlc.h): a radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, 1990) over the bit patterns of
// non-negative travel times. Internal to MultiLabelCorrecting; declared
// here so its pop order can be tested against a binary heap directly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sunchase/common/assert.h"
#include "sunchase/core/criteria.h"

namespace sunchase::core::detail {

/// Min-queue of ids keyed by travel time, for keys that never fall
/// below the least key queued at the last pop — the search's case:
/// every label it queues extends a popped one by an edge of
/// non-negative time. The IEEE-754 bit pattern of a non-negative double
/// orders like its value, so a key lives in bucket
/// bit_width(bits ^ base), base being the bits of that least key:
/// bucket 0 holds keys equal to it, bucket i keys whose highest bit
/// differing from it is bit i-1. Both patterns have a 0 sign bit, so
/// the index is at most 63. A pop from an empty bucket 0 re-bases on
/// the least key of the lowest occupied bucket and spreads that bucket
/// over lower ones, so each entry moves at most 63 times in all.
///
/// Pop order, with m the least key queued: among the entries within
/// kCriteriaEpsilon of m (fuzzy_cmp(key, m) == 0), the first by
/// `before(id_a, id_b)`. Bucket 0 keeps its entries in a binary heap
/// under `before`; keys in (m, m + eps] can only sit in buckets 1 to
/// bit_width(bits(m + eps) ^ bits(m)): every key from m to m + eps
/// shares the bits above that one with m. One mask test finds those
/// buckets empty on almost every pop.
class MonotoneQueue {
 public:
  struct Entry {
    double key;
    std::uint32_t id;
  };

  /// Empties the queue and resets its base to 0, keeping capacity.
  void clear() noexcept {
    for (std::vector<Entry>& bucket : buckets_) bucket.clear();
    occupied_ = 0;
    base_ = 0;
    size_ = 0;
    heaped_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Queues `id` at `key`. ContractViolation unless `key` is at least
  /// the least key queued at the last pop (0 before the first) and is
  /// neither negative (-0.0 included) nor NaN.
  void push(double key, std::uint32_t id) {
    const auto bits = std::bit_cast<std::uint64_t>(key);
    SUNCHASE_EXPECTS(bits >= base_ && bits <= kInfinityBits);
    place(Entry{key, id}, bits);
    ++size_;
  }

  /// Removes and returns the next entry in pop order (see the class
  /// comment). `before(a, b)` is true when id `a` pops ahead of id `b`
  /// among near-equal keys; it must order ids the same on every call.
  /// Precondition: !empty().
  template <typename Before>
  Entry pop(Before before) {
    if ((occupied_ & 1u) == 0) rebase();
    std::vector<Entry>& ties = buckets_[0];
    const auto later = [&before](const Entry& a, const Entry& b) {
      return before(b.id, a.id);
    };
    while (heaped_ < ties.size())
      std::push_heap(ties.begin(),
                     ties.begin() + static_cast<std::ptrdiff_t>(++heaped_),
                     later);

    const double limit = ties.front().key + kCriteriaEpsilon;
    const unsigned reach = bucket_of(std::bit_cast<std::uint64_t>(limit));
    const std::uint64_t near = occupied_ & ~std::uint64_t{1} &
                               (~std::uint64_t{0} >> (63 - reach));
    Entry top;
    if (near == 0) [[likely]] {
      std::pop_heap(ties.begin(), ties.end(), later);
      top = ties.back();
      ties.pop_back();
      --heaped_;
    } else {
      top = pop_near(near, limit, before, later);
    }
    if (ties.empty()) occupied_ &= ~std::uint64_t{1};
    --size_;
    return top;
  }

  /// Bytes held by the buckets.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t entries = 0;
    for (const std::vector<Entry>& bucket : buckets_)
      entries += bucket.capacity();
    return entries * sizeof(Entry);
  }

 private:
  static constexpr std::uint64_t kInfinityBits = 0x7ff0000000000000u;

  [[nodiscard]] unsigned bucket_of(std::uint64_t bits) const noexcept {
    return static_cast<unsigned>(std::bit_width(bits ^ base_));
  }

  void place(const Entry& entry, std::uint64_t bits) {
    const unsigned bucket = bucket_of(bits);
    buckets_[bucket].push_back(entry);
    occupied_ |= std::uint64_t{1} << bucket;
  }

  /// Bucket 0 is empty: re-bases on the least key of the lowest
  /// occupied bucket and spreads that bucket over the buckets below.
  void rebase() {
    const auto lowest = static_cast<unsigned>(std::countr_zero(occupied_));
    std::vector<Entry>& from = buckets_[lowest];
    const auto least = std::min_element(
        from.begin(), from.end(),
        [](const Entry& a, const Entry& b) { return a.key < b.key; });
    base_ = std::bit_cast<std::uint64_t>(least->key);
    occupied_ &= ~(std::uint64_t{1} << lowest);
    for (const Entry& entry : from)
      place(entry, std::bit_cast<std::uint64_t>(entry.key));
    from.clear();
    heaped_ = 0;
  }

  /// The rare pop with keys in (m, m + eps] queued beside bucket 0:
  /// scans the buckets in `near` for the first by `before`, keys up to
  /// `limit` only, against bucket 0's top.
  template <typename Before, typename Later>
  Entry pop_near(std::uint64_t near, double limit, Before& before,
                 const Later& later) {
    std::vector<Entry>& ties = buckets_[0];
    std::vector<Entry>* from = &ties;
    std::size_t at = 0;
    for (; near != 0; near &= near - 1) {
      std::vector<Entry>& bucket =
          buckets_[static_cast<unsigned>(std::countr_zero(near))];
      for (std::size_t i = 0; i < bucket.size(); ++i)
        if (bucket[i].key <= limit && before(bucket[i].id, (*from)[at].id)) {
          from = &bucket;
          at = i;
        }
    }
    if (from == &ties) {
      std::pop_heap(ties.begin(), ties.end(), later);
      const Entry top = ties.back();
      ties.pop_back();
      --heaped_;
      return top;
    }
    const Entry top = (*from)[at];
    (*from)[at] = from->back();
    from->pop_back();
    if (from->empty())
      occupied_ &= ~(std::uint64_t{1} << (from - buckets_.data()));
    return top;
  }

  std::array<std::vector<Entry>, 64> buckets_;
  std::uint64_t occupied_ = 0;  ///< bit i set while bucket i is non-empty
  std::uint64_t base_ = 0;      ///< bits of the least key at the last pop
  std::size_t size_ = 0;
  std::size_t heaped_ = 0;  ///< bucket 0's [0, heaped_) is a heap
};

}  // namespace sunchase::core::detail
