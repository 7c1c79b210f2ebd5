// SpaceSaving (Metwally et al. 2005) — frequent-items ("heavy hitters").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace taureau::sketch {

/// Tracks the (approximately) k most frequent items of a stream using k
/// counters. Every item with true frequency > N/k is guaranteed present.
class SpaceSaving {
 public:
  explicit SpaceSaving(size_t capacity);

  void Add(std::string_view item, uint64_t count = 1);

  struct Entry {
    std::string item;
    uint64_t count;  ///< Upper bound on the true frequency.
    uint64_t error;  ///< Max overestimation (count - error is a lower bound).
  };

  /// Entries with estimated count >= threshold, sorted descending by count.
  std::vector<Entry> HeavyHitters(uint64_t threshold = 0) const;

  /// Guaranteed heavy hitters: lower-bound count >= threshold.
  std::vector<Entry> GuaranteedHeavyHitters(uint64_t threshold) const;

  /// Point estimate (upper bound); 0 when not tracked.
  uint64_t EstimateCount(std::string_view item) const;

  /// Combines two summaries (capacity of the result = this->capacity()).
  Status Merge(const SpaceSaving& other);

  size_t capacity() const { return capacity_; }
  size_t tracked() const { return counters_.size(); }
  uint64_t total() const { return total_; }

 private:
  void Offer(std::string_view item, uint64_t count, uint64_t error);

  /// std::hash<std::string_view>, which hashes a std::string to the same
  /// value: lookups by view build no temporary string.
  struct ItemHash {
    using is_transparent = void;
    size_t operator()(std::string_view item) const noexcept {
      return std::hash<std::string_view>{}(item);
    }
  };

  size_t capacity_;
  uint64_t total_ = 0;
  // item -> (count, error). Eviction scans for the minimum count (the
  // first minimum in iteration order wins a tie) and reuses its node.
  struct Counter {
    uint64_t count;
    uint64_t error;
  };
  std::unordered_map<std::string, Counter, ItemHash, std::equal_to<>>
      counters_;
};

}  // namespace taureau::sketch
