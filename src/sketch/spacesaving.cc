#include "sketch/spacesaving.h"

#include <algorithm>

namespace taureau::sketch {

SpaceSaving::SpaceSaving(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void SpaceSaving::Add(std::string_view item, uint64_t count) {
  total_ += count;
  Offer(item, count, 0);
}

void SpaceSaving::Offer(std::string_view item, uint64_t count,
                        uint64_t error) {
  auto it = counters_.find(item);
  if (it != counters_.end()) {
    it->second.count += count;
    return;
  }
  if (counters_.size() < capacity_) {
    counters_.emplace(std::string(item), Counter{count, error});
    return;
  }
  // Evict the minimum counter; the newcomer inherits its count as error.
  // Its node is reused: re-keyed in place and reinserted, so eviction
  // allocates only when the new item outgrows the old key's buffer.
  auto min_it = counters_.begin();
  for (auto c = counters_.begin(); c != counters_.end(); ++c) {
    if (c->second.count < min_it->second.count) min_it = c;
  }
  auto node = counters_.extract(min_it);
  const uint64_t min_count = node.mapped().count;
  node.key().assign(item);
  node.mapped() = Counter{min_count + count, min_count + error};
  counters_.insert(std::move(node));
}

std::vector<SpaceSaving::Entry> SpaceSaving::HeavyHitters(
    uint64_t threshold) const {
  std::vector<Entry> out;
  for (const auto& [item, c] : counters_) {
    if (c.count >= threshold) out.push_back({item, c.count, c.error});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::GuaranteedHeavyHitters(
    uint64_t threshold) const {
  std::vector<Entry> out;
  for (const auto& [item, c] : counters_) {
    if (c.count - c.error >= threshold) out.push_back({item, c.count, c.error});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  return out;
}

uint64_t SpaceSaving::EstimateCount(std::string_view item) const {
  auto it = counters_.find(item);
  return it == counters_.end() ? 0 : it->second.count;
}

Status SpaceSaving::Merge(const SpaceSaving& other) {
  total_ += other.total_;
  // Standard mergeable-summaries combine: add counts for shared items, then
  // offer the rest; resulting error bounds remain valid (Agarwal et al. 2013).
  for (const auto& [item, c] : other.counters_) {
    Offer(item, c.count, c.error);
  }
  return Status::OK();
}

}  // namespace taureau::sketch
