// Differential tests for the reuse layer's substrates. The result cache is
// replayed against the std::list-backed implementation it replaced (kept
// verbatim below as the reference) over random Put/Lookup/SetLimits/Clear
// streams in TTL, cost-aware and plain-LRU shapes, with both key types.
// After every operation the return value, every counter, bytes() and
// size() must agree. The content key's text form is checked against the
// string key the reference was fed, and the hot-key SpaceSaving sketch
// against its own pre-node-reuse implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "reuse/result_cache.h"
#include "reuse/reuse.h"
#include "sketch/spacesaving.h"

namespace taureau {
namespace {

using reuse::CachedResult;
using reuse::ContentKey;
using reuse::ResultCacheConfig;
using reuse::ReuseLayer;
using sketch::SpaceSaving;

// ------------------------------------------------- reference (verbatim)
//
// The pre-intrusive ResultCache: a std::unordered_map<std::string, Slot>
// plus a std::list<std::string> recency order holding a second copy of
// every key. Only the class name differs from the original.

class LegacyResultCache {
 public:
  static constexpr size_t kEntryOverheadBytes = 64;

  explicit LegacyResultCache(ResultCacheConfig config = {})
      : config_(config) {}

  enum class PutOutcome { kInserted, kDuplicate, kRejected };

  const CachedResult* Lookup(const std::string& key, SimTime now_us) {
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
    Touch(it->second);
    return &it->second.entry;
  }

  PutOutcome Put(const std::string& key, CachedResult value, SimTime now_us) {
    value.stored_at_us = now_us;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (!Expired(it->second, now_us)) {
        ++duplicate_puts_;
        Touch(it->second);
        return PutOutcome::kDuplicate;
      }
      ++expirations_;
      Erase(it);
    }
    const size_t incoming = EntryBytes(key, value);
    SweepExpiredTail(now_us);
    if (config_.cost_aware) {
      const double score = value.Score();
      while (OverBudget(incoming) && !lru_.empty()) {
        auto victim = entries_.find(lru_.back());
        if (victim->second.entry.Score() > score) {
          ++rejected_admissions_;
          return PutOutcome::kRejected;
        }
        ++evictions_;
        Erase(victim);
      }
    } else {
      while (OverBudget(incoming) && !lru_.empty()) {
        ++evictions_;
        Erase(entries_.find(lru_.back()));
      }
    }
    if (OverBudget(incoming)) {
      ++rejected_admissions_;
      return PutOutcome::kRejected;
    }
    lru_.push_front(key);
    bytes_ += incoming;
    entries_.emplace(key, Slot{std::move(value), incoming, lru_.begin()});
    return PutOutcome::kInserted;
  }

  void SetLimits(size_t max_bytes, size_t max_entries) {
    config_.max_bytes = max_bytes;
    config_.max_entries = max_entries;
    while (OverBudget(0) && !lru_.empty()) {
      ++evictions_;
      Erase(entries_.find(lru_.back()));
    }
  }

  void Clear() {
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    hits_ = 0;
    misses_ = 0;
    duplicate_puts_ = 0;
    evictions_ = 0;
    expirations_ = 0;
    rejected_admissions_ = 0;
  }

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
  struct Slot {
    CachedResult entry;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  using Map = std::unordered_map<std::string, Slot>;

  static size_t EntryBytes(const std::string& key, const CachedResult& e) {
    return key.size() + e.output.size() + kEntryOverheadBytes;
  }
  bool Expired(const Slot& slot, SimTime now_us) const {
    return config_.ttl_us > 0 &&
           now_us - slot.entry.stored_at_us >= config_.ttl_us;
  }
  void Touch(Slot& slot) { lru_.splice(lru_.begin(), lru_, slot.lru_it); }
  void Erase(Map::iterator it) {
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  void SweepExpiredTail(SimTime now_us) {
    while (!lru_.empty()) {
      auto it = entries_.find(lru_.back());
      if (!Expired(it->second, now_us)) return;
      ++expirations_;
      Erase(it);
    }
  }
  bool OverBudget(size_t incoming_bytes) const {
    if (config_.max_entries > 0 &&
        entries_.size() + (incoming_bytes > 0 ? 1 : 0) > config_.max_entries) {
      return true;
    }
    return config_.max_bytes > 0 &&
           bytes_ + incoming_bytes > config_.max_bytes;
  }

  ResultCacheConfig config_;
  Map entries_;
  std::list<std::string> lru_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t duplicate_puts_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t rejected_admissions_ = 0;
};

/// The text key ReuseLayer built before keys were values, verbatim:
/// function + 0x1f + 16 lowercase hex digits of Fnv1a64(payload).
std::string LegacyKey(const std::string& function,
                      const std::string& payload) {
  static constexpr char kDigits[] = "0123456789abcdef";
  uint64_t v = Fnv1a64(payload);
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[size_t(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  std::string key;
  key.reserve(function.size() + 17);
  key += function;
  key += '\x1f';
  key += hex;
  return key;
}

// ------------------------------------------------------------- replay

template <typename Cache>
void ExpectSameState(const LegacyResultCache& ref, const Cache& cache,
                     int op) {
  ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
  ASSERT_EQ(cache.bytes(), ref.bytes()) << "op " << op;
  ASSERT_EQ(cache.hits(), ref.hits()) << "op " << op;
  ASSERT_EQ(cache.misses(), ref.misses()) << "op " << op;
  ASSERT_EQ(cache.duplicate_puts(), ref.duplicate_puts()) << "op " << op;
  ASSERT_EQ(cache.evictions(), ref.evictions()) << "op " << op;
  ASSERT_EQ(cache.expirations(), ref.expirations()) << "op " << op;
  ASSERT_EQ(cache.rejected_admissions(), ref.rejected_admissions())
      << "op " << op;
  ASSERT_EQ(cache.config().max_bytes, ref.config().max_bytes) << "op " << op;
  ASSERT_EQ(cache.config().max_entries, ref.config().max_entries)
      << "op " << op;
}

/// Replays one seeded op stream through the reference and `cache`. Keys
/// are drawn from `universe` distinct ids; `text(id)` is the reference's
/// string key and `key(id)` the cache-under-test's key for the same id.
template <typename Cache, typename TextFn, typename KeyFn>
void RunDifferential(uint64_t seed, ResultCacheConfig config, Cache& cache,
                     uint64_t universe, TextFn text, KeyFn key) {
  LegacyResultCache ref(config);
  Rng rng(seed);
  SimTime now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += SimDuration(rng.NextBounded(40));
    const uint64_t id = rng.NextBounded(universe);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 45) {
      const CachedResult* want = ref.Lookup(text(id), now);
      const CachedResult* got = cache.Lookup(key(id), now);
      ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
      if (want != nullptr) {
        EXPECT_EQ(got->output, want->output) << "op " << op;
        EXPECT_EQ(got->status.code(), want->status.code()) << "op " << op;
        EXPECT_EQ(got->exec_us, want->exec_us) << "op " << op;
        EXPECT_EQ(got->recurrence, want->recurrence) << "op " << op;
        EXPECT_EQ(got->stored_at_us, want->stored_at_us) << "op " << op;
      }
    } else if (dice < 92) {
      const CachedResult value{
          rng.NextBool(0.9) ? Status::OK() : Status::Internal("x"),
          std::string(size_t(rng.NextBounded(120)), char('a' + op % 26)),
          SimDuration(1 + rng.NextBounded(2000)), 1 + rng.NextBounded(8)};
      const auto want = ref.Put(text(id), value, now);
      const auto got = cache.Put(key(id), value, now);
      ASSERT_EQ(int(got), int(want)) << "op " << op;
    } else if (dice < 99) {
      // Re-bound live; sometimes unbounded, sometimes tight enough to
      // evict most of the cache at once.
      const size_t max_bytes =
          config.max_bytes == 0 ? 0 : size_t(rng.NextBounded(3000));
      const size_t max_entries =
          config.max_entries == 0 ? 0 : size_t(rng.NextBounded(16));
      ref.SetLimits(max_bytes, max_entries);
      cache.SetLimits(max_bytes, max_entries);
    } else {
      ref.Clear();
      cache.Clear();
    }
    ExpectSameState(ref, cache, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The cache shapes the repo runs: the reuse layer's (cost-aware, byte
/// budget, TTL), the idempotency cache's (entry-bounded plain LRU), and
/// mixes of both bounds with and without cost-aware admission.
const ResultCacheConfig kShapes[] = {
    {/*max_bytes=*/1500, /*max_entries=*/0, /*ttl_us=*/400,
     /*cost_aware=*/true},
    {/*max_bytes=*/0, /*max_entries=*/6, /*ttl_us=*/0, /*cost_aware=*/false},
    {/*max_bytes=*/2000, /*max_entries=*/0, /*ttl_us=*/0,
     /*cost_aware=*/true},
    {/*max_bytes=*/1200, /*max_entries=*/8, /*ttl_us=*/300,
     /*cost_aware=*/false},
    {/*max_bytes=*/900, /*max_entries=*/5, /*ttl_us=*/0, /*cost_aware=*/true},
    {/*max_bytes=*/0, /*max_entries=*/0, /*ttl_us=*/250,
     /*cost_aware=*/false},
};

/// Variable-length text keys, so byte charges differ per key.
std::string TextKey(uint64_t id) {
  return std::string(1 + id % 7, 'f') + "/" + std::to_string(id);
}

TEST(ResultCacheDifferentialTest, StringKeysMatchListReference) {
  for (size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      reuse::ResultCache cache(kShapes[shape]);
      RunDifferential(seed * 7919 + shape, kShapes[shape], cache,
                      /*universe=*/40, TextKey, TextKey);
      ASSERT_FALSE(HasFatalFailure()) << "shape " << shape << " seed " << seed;
    }
  }
}

TEST(ResultCacheDifferentialTest, ContentKeysMatchListReference) {
  // Key id i is function "fn<i % 5>" (names of different lengths) on
  // payload "p<i>"; the reference is fed the text key the layer used to
  // build, the cache under test the layer's ContentKey for the same pair.
  ReuseLayer layer;
  std::vector<std::string> texts;
  std::vector<ContentKey> keys;
  for (uint64_t i = 0; i < 40; ++i) {
    const std::string fn = "fn" + std::string(i % 5, '_');
    const std::string payload = "p" + std::to_string(i);
    texts.push_back(LegacyKey(fn, payload));
    keys.push_back(layer.KeyFor(fn, payload));
  }
  for (size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      reuse::ContentCache cache(kShapes[shape]);
      RunDifferential(
          seed * 104729 + shape, kShapes[shape], cache, /*universe=*/40,
          [&](uint64_t id) { return texts[id]; },
          [&](uint64_t id) { return keys[id]; });
      ASSERT_FALSE(HasFatalFailure()) << "shape " << shape << " seed " << seed;
    }
  }
}

TEST(ContentKeyTest, TextFormAndChargeMatchLegacyStringKey) {
  ReuseLayer layer;
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    // Random bytes, separators and empty strings included.
    std::string fn(size_t(rng.NextBounded(40)), '\0');
    for (char& c : fn) c = char(rng.NextBounded(256));
    std::string payload(size_t(rng.NextBounded(200)), '\0');
    for (char& c : payload) c = char(rng.NextBounded(256));
    const std::string legacy = LegacyKey(fn, payload);
    const ContentKey key = layer.KeyFor(fn, payload);
    ASSERT_EQ(layer.KeyText(key), legacy) << i;
    ASSERT_EQ(KeyBytes(key), legacy.size()) << i;
    EXPECT_EQ(layer.KeyFor(fn, payload), key) << i;  // Interned once.
  }
  // The byte budget charges name + 17 + output + 64 per entry.
  const std::string fn = "resize-image";
  const ContentKey key = layer.KeyFor(fn, "cat.png");
  const size_t before = layer.cache().bytes();
  ASSERT_EQ(layer.Offer(key, {Status::OK(), "thumb", /*exec_us=*/10}, 0),
            reuse::PutOutcome::kInserted);
  EXPECT_EQ(layer.cache().bytes() - before,
            fn.size() + 17 + 5 + reuse::ContentCache::kEntryOverheadBytes);
}

// ------------------------------------------------------------ SpaceSaving

// The SpaceSaving implementation before heterogeneous lookup and node
// reuse, kept verbatim (only the class name differs) as the reference the
// current one must match exactly: same tracked set, counts and errors —
// including which of several tied minimum counters an arrival evicts.
class LegacySpaceSaving {
 public:
  explicit LegacySpaceSaving(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  void Add(std::string_view item, uint64_t count = 1) {
    total_ += count;
    Offer(std::string(item), count, 0);
  }

  std::vector<SpaceSaving::Entry> HeavyHitters(uint64_t threshold = 0) const {
    std::vector<SpaceSaving::Entry> out;
    for (const auto& [item, c] : counters_) {
      if (c.count >= threshold) out.push_back({item, c.count, c.error});
    }
    std::sort(out.begin(), out.end(),
              [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.item < b.item;
              });
    return out;
  }

  std::vector<SpaceSaving::Entry> GuaranteedHeavyHitters(
      uint64_t threshold) const {
    std::vector<SpaceSaving::Entry> out;
    for (const auto& [item, c] : counters_) {
      if (c.count - c.error >= threshold)
        out.push_back({item, c.count, c.error});
    }
    std::sort(out.begin(), out.end(),
              [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.item < b.item;
              });
    return out;
  }

  uint64_t EstimateCount(std::string_view item) const {
    auto it = counters_.find(std::string(item));
    return it == counters_.end() ? 0 : it->second.count;
  }

  Status Merge(const LegacySpaceSaving& other) {
    total_ += other.total_;
    for (const auto& [item, c] : other.counters_) {
      Offer(item, c.count, c.error);
    }
    return Status::OK();
  }

  size_t tracked() const { return counters_.size(); }
  uint64_t total() const { return total_; }

 private:
  void Offer(const std::string& item, uint64_t count, uint64_t error) {
    auto it = counters_.find(item);
    if (it != counters_.end()) {
      it->second.count += count;
      return;
    }
    if (counters_.size() < capacity_) {
      counters_.emplace(item, Counter{count, error});
      return;
    }
    auto min_it = counters_.begin();
    for (auto c = counters_.begin(); c != counters_.end(); ++c) {
      if (c->second.count < min_it->second.count) min_it = c;
    }
    const uint64_t min_count = min_it->second.count;
    counters_.erase(min_it);
    counters_.emplace(item, Counter{min_count + count, min_count + error});
  }

  size_t capacity_;
  uint64_t total_ = 0;
  struct Counter {
    uint64_t count;
    uint64_t error;
  };
  std::unordered_map<std::string, Counter> counters_;
};

void ExpectSameEntries(const std::vector<SpaceSaving::Entry>& got,
                       const std::vector<SpaceSaving::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << i;
    EXPECT_EQ(got[i].count, want[i].count) << i;
    EXPECT_EQ(got[i].error, want[i].error) << i;
  }
}

void ExpectSameSummary(const SpaceSaving& got, const LegacySpaceSaving& want,
                       uint64_t threshold) {
  ASSERT_EQ(got.tracked(), want.tracked());
  ASSERT_EQ(got.total(), want.total());
  ExpectSameEntries(got.HeavyHitters(0), want.HeavyHitters(0));
  ExpectSameEntries(got.GuaranteedHeavyHitters(threshold),
                    want.GuaranteedHeavyHitters(threshold));
}

TEST(SpaceSavingTest, MatchesReferenceUnderEvictionTiesAndMerge) {
  // Small alphabets over tiny capacities: nearly every arrival evicts, and
  // unit increments keep many counters tied at the minimum, so the
  // tie-break (the first minimum in iteration order) is exercised.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const size_t capacity = 1 + size_t(rng.NextBounded(16));
    const uint64_t alphabet = capacity + 1 + rng.NextBounded(40);
    auto item = [&](uint64_t i) {
      return std::string(1 + i % 5, 'k') + std::to_string(i);
    };
    SpaceSaving got(capacity);
    LegacySpaceSaving want(capacity);
    for (int op = 0; op < 1500; ++op) {
      if (rng.NextBounded(100) < 3) {
        // Merge in a summary built from its own stream.
        SpaceSaving other(1 + size_t(rng.NextBounded(16)));
        LegacySpaceSaving other_want(other.capacity());
        for (int j = 0; j < 60; ++j) {
          const std::string x = item(rng.NextBounded(alphabet * 2));
          const uint64_t c = 1 + rng.NextBounded(3);
          other.Add(x, c);
          other_want.Add(x, c);
        }
        ASSERT_TRUE(got.Merge(other).ok());
        ASSERT_TRUE(want.Merge(other_want).ok());
      } else {
        const std::string x = item(rng.NextBounded(alphabet));
        const uint64_t c = rng.NextBounded(4) == 0 ? 2 : 1;
        got.Add(x, c);
        want.Add(x, c);
        ASSERT_EQ(got.EstimateCount(x), want.EstimateCount(x)) << op;
      }
      const std::string probe = item(rng.NextBounded(alphabet * 2));
      ASSERT_EQ(got.EstimateCount(probe), want.EstimateCount(probe)) << op;
      ExpectSameSummary(got, want, rng.NextBounded(8));
      ASSERT_FALSE(HasFatalFailure()) << "seed " << seed << " op " << op;
    }
  }
}

}  // namespace
}  // namespace taureau
