// taureau::reuse — the computation-reuse layer (E29, ROADMAP item 5).
//
// The paper's economic argument is that serverless platforms charge every
// invocation as if it were novel work, while real traffic is heavily skewed
// and repetitive. The cheapest capacity is the work you never redo: this
// file holds the shared cache substrate — one LRU/TTL implementation,
// BasicResultCache<Key, Hash>, with two key types:
//   - ContentCache (ContentKey): the content-addressed result cache of
//     memoized idempotent invocations, keyed by (function id, payload
//     hash) — see reuse/content_key.h;
//   - ResultCache (std::string): the chaos idempotency cache (exactly-once
//     replay under at-least-once delivery), a thin policy over it.
//
// Design points:
//   - First-writer-wins: Put() of an existing key refreshes recency and
//     returns kDuplicate without touching the stored value — the semantics
//     the idempotency path has relied on since E20.
//   - Bounded two ways: by entry count (the idempotency shape) and by a
//     byte budget (the result-cache shape; an entry costs KeyBytes(key) +
//     output bytes plus a fixed bookkeeping overhead).
//   - Intrusive recency list: each slot links its newer and older
//     neighbours and points at its own map key, so a hit relinks in O(1)
//     and eviction and TTL sweeps read the oldest slot directly. An entry
//     is one map node; the key is stored once.
//   - TTL: entries older than `ttl_us` are dead on arrival at Lookup time
//     (lazy, deterministic — no sweeper event needed) and are also swept
//     before eviction decisions so stale entries never veto admission.
//   - Cost-aware admission (cost_aware = true): every entry carries a
//     score = observed execution cost x recurrence estimate. When full,
//     the incoming entry evicts LRU victims only while their scores do not
//     exceed its own; meeting a more valuable victim rejects the insert.
//     One-hit wonders (recurrence 1, cheap exec) therefore never displace
//     hot expensive results, while plain LRU (cost_aware = false) keeps
//     the historical idempotency behaviour.
//
// Deterministic by construction: no clocks, no randomness — the hit/miss/
// eviction sequence is a pure function of the call sequence, which is what
// the serial-vs-psim differential tests byte-compare.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/time_types.h"
#include "reuse/content_key.h"

namespace taureau::reuse {

/// One memoized completion. `exec_us` and `recurrence` feed the cost-aware
/// admission score; both are 0/1 and unused on plain-LRU caches.
struct CachedResult {
  Status status;
  std::string output;
  /// Observed execution time of the run that produced this result (the
  /// work a hit saves).
  SimDuration exec_us = 0;
  /// Recurrence estimate (CountMin) for the key at admission time.
  uint64_t recurrence = 1;
  SimTime stored_at_us = 0;

  /// Admission/eviction score: the expected work this entry saves.
  double Score() const { return double(exec_us) * double(recurrence); }
};

struct ResultCacheConfig {
  /// Byte budget over keys + outputs + per-entry overhead (0 = unbounded).
  size_t max_bytes = 0;
  /// Entry-count bound (0 = unbounded). Both bounds may be active.
  size_t max_entries = 0;
  /// Entries expire this long after `stored_at_us` (0 = never).
  SimDuration ttl_us = 0;
  /// Score-gated admission (see header comment). Off = plain LRU.
  bool cost_aware = false;
};

enum class PutOutcome { kInserted, kDuplicate, kRejected };

/// Bytes a text key costs against the byte budget.
inline size_t KeyBytes(const std::string& key) { return key.size(); }

/// The shared LRU/TTL store. Single-threaded, like every per-shard module.
/// Slots point at each other and at their map keys, so the cache is
/// neither copyable nor movable.
template <typename Key, typename Hash = std::hash<Key>>
class BasicResultCache {
 public:
  /// Fixed bookkeeping cost charged per entry against `max_bytes`.
  static constexpr size_t kEntryOverheadBytes = 64;
  using PutOutcome = reuse::PutOutcome;

  explicit BasicResultCache(ResultCacheConfig config = {}) : config_(config) {}
  BasicResultCache(const BasicResultCache&) = delete;
  BasicResultCache& operator=(const BasicResultCache&) = delete;

  /// The live entry for `key`, or nullptr (absent or expired). A hit
  /// refreshes recency; an expired entry is erased and counted. The
  /// pointer is valid until the next mutating call.
  const CachedResult* Lookup(const Key& key, SimTime now_us);

  /// Inserts `value` (stamping stored_at_us = now_us). First writer wins:
  /// an existing live key counts a duplicate and keeps the original.
  /// Cost-aware caches may reject the insert instead of evicting a more
  /// valuable victim.
  PutOutcome Put(const Key& key, CachedResult value, SimTime now_us);

  /// Re-bounds the cache (0 = unbounded), evicting LRU entries as needed.
  void SetLimits(size_t max_bytes, size_t max_entries);

  void Clear();

  const ResultCacheConfig& config() const { return config_; }
  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t duplicate_puts() const { return duplicate_puts_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t expirations() const { return expirations_; }
  uint64_t rejected_admissions() const { return rejected_admissions_; }

 private:
  /// One entry and its place in the recency list. `key` points at the
  /// map's own copy; map nodes never move, so it stays valid until the
  /// entry is erased.
  struct Slot {
    CachedResult entry;
    size_t bytes = 0;
    Slot* newer = nullptr;
    Slot* older = nullptr;
    const Key* key = nullptr;
  };
  using Map = std::unordered_map<Key, Slot, Hash>;

  bool Expired(const Slot& slot, SimTime now_us) const {
    return config_.ttl_us > 0 &&
           now_us - slot.entry.stored_at_us >= config_.ttl_us;
  }
  void LinkNewest(Slot* slot);
  void Unlink(Slot* slot);
  void Touch(Slot* slot);
  void Erase(typename Map::iterator it);
  /// Erases the least recently used entry (the list's oldest end).
  void EraseOldest() { Erase(entries_.find(*oldest_->key)); }
  /// Drops expired entries from the LRU tail (cheap pre-pass so stale
  /// entries never win an admission comparison).
  void SweepExpiredTail(SimTime now_us);
  bool OverBudget(size_t incoming_bytes) const;

  ResultCacheConfig config_;
  Map entries_;
  Slot* newest_ = nullptr;  ///< Most recently used.
  Slot* oldest_ = nullptr;  ///< Next eviction candidate.
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t duplicate_puts_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t rejected_admissions_ = 0;
};

/// The idempotency cache's substrate (chaos::IdempotencyCache).
using ResultCache = BasicResultCache<std::string>;
/// The reuse layer's content-addressed result cache.
using ContentCache = BasicResultCache<ContentKey, ContentKeyHash>;

extern template class BasicResultCache<std::string>;
extern template class BasicResultCache<ContentKey, ContentKeyHash>;

}  // namespace taureau::reuse
