#include "reuse/result_cache.h"

namespace taureau::reuse {

template <typename Key, typename Hash>
const CachedResult* BasicResultCache<Key, Hash>::Lookup(const Key& key,
                                                        SimTime now_us) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  if (Expired(it->second, now_us)) {
    ++expirations_;
    ++misses_;
    Erase(it);
    return nullptr;
  }
  ++hits_;
  Touch(&it->second);
  return &it->second.entry;
}

template <typename Key, typename Hash>
PutOutcome BasicResultCache<Key, Hash>::Put(const Key& key,
                                            CachedResult value,
                                            SimTime now_us) {
  value.stored_at_us = now_us;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (!Expired(it->second, now_us)) {
      // First writer wins: keep the original, refresh recency.
      ++duplicate_puts_;
      Touch(&it->second);
      return PutOutcome::kDuplicate;
    }
    ++expirations_;
    Erase(it);
  }
  const size_t incoming =
      KeyBytes(key) + value.output.size() + kEntryOverheadBytes;
  SweepExpiredTail(now_us);
  if (config_.cost_aware) {
    // Evict LRU victims only while they are worth no more than the
    // incoming entry; a more valuable victim rejects the insert instead.
    const double score = value.Score();
    while (OverBudget(incoming) && oldest_ != nullptr) {
      if (oldest_->entry.Score() > score) {
        ++rejected_admissions_;
        return PutOutcome::kRejected;
      }
      ++evictions_;
      EraseOldest();
    }
  } else {
    while (OverBudget(incoming) && oldest_ != nullptr) {
      ++evictions_;
      EraseOldest();
    }
  }
  if (OverBudget(incoming)) {
    // The entry alone exceeds the budget (or entries are capped at 0).
    ++rejected_admissions_;
    return PutOutcome::kRejected;
  }
  bytes_ += incoming;
  auto slot_it =
      entries_.try_emplace(key, Slot{std::move(value), incoming}).first;
  slot_it->second.key = &slot_it->first;
  LinkNewest(&slot_it->second);
  return PutOutcome::kInserted;
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::SetLimits(size_t max_bytes,
                                            size_t max_entries) {
  config_.max_bytes = max_bytes;
  config_.max_entries = max_entries;
  while (OverBudget(0) && oldest_ != nullptr) {
    ++evictions_;
    EraseOldest();
  }
}

template <typename Key, typename Hash>
bool BasicResultCache<Key, Hash>::OverBudget(size_t incoming_bytes) const {
  if (config_.max_entries > 0 &&
      entries_.size() + (incoming_bytes > 0 ? 1 : 0) > config_.max_entries) {
    return true;
  }
  return config_.max_bytes > 0 && bytes_ + incoming_bytes > config_.max_bytes;
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::SweepExpiredTail(SimTime now_us) {
  while (oldest_ != nullptr && Expired(*oldest_, now_us)) {
    ++expirations_;
    EraseOldest();
  }
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::LinkNewest(Slot* slot) {
  slot->newer = nullptr;
  slot->older = newest_;
  if (newest_ != nullptr) {
    newest_->newer = slot;
  } else {
    oldest_ = slot;
  }
  newest_ = slot;
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::Unlink(Slot* slot) {
  (slot->newer != nullptr ? slot->newer->older : newest_) = slot->older;
  (slot->older != nullptr ? slot->older->newer : oldest_) = slot->newer;
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::Touch(Slot* slot) {
  if (slot == newest_) return;
  Unlink(slot);
  LinkNewest(slot);
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::Erase(typename Map::iterator it) {
  bytes_ -= it->second.bytes;
  Unlink(&it->second);
  entries_.erase(it);
}

template <typename Key, typename Hash>
void BasicResultCache<Key, Hash>::Clear() {
  entries_.clear();
  newest_ = nullptr;
  oldest_ = nullptr;
  bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
  duplicate_puts_ = 0;
  evictions_ = 0;
  expirations_ = 0;
  rejected_admissions_ = 0;
}

template class BasicResultCache<std::string>;
template class BasicResultCache<ContentKey, ContentKeyHash>;

}  // namespace taureau::reuse
