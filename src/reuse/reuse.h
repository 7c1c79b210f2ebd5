// taureau::reuse — computation reuse + approximation layer (E29).
//
// ReuseLayer bundles the three reuse paths the platform consults on every
// idempotent invocation, in priority order:
//
//   1. *Result cache hit*: a content-addressed cache keyed by
//      (function, payload hash) with TTL, a byte budget, and cost-aware
//      admission — admit by observed exec-time x recurrence (estimated by
//      a CountMin sketch over request keys), so one-hit wonders never
//      evict hot expensive results.
//   2. *Approximation fallback*: when the SLO burn rate crosses a live
//      threshold ("reuse.approx.burn_threshold", a ctrl knob — so the
//      degradation mode is canary-rollable and auto-rollback-able), a
//      registered provider serves a sketch-backed approximate answer with
//      an exported error bound instead of queueing exact work on a
//      saturated fleet.
//   3. *Singleflight coalescing*: concurrent identical requests attach to
//      the one in-flight execution and fan out on completion —
//      single-billed, per-follower spans.
//
// The layer owns the policy state (cache, sketches, burn gate, live knobs)
// and the "reuse.*" metrics (aggregate + per-tenant labeled, pre-resolved
// handles); the request lifecycle — spans, billing, callbacks — stays with
// the platform (faas::FaasPlatform::AttachReuse). Everything is
// deterministic and single-threaded per shard, so a sharded world stays
// byte-identical at any psim worker-thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/time_types.h"
#include "ctrl/config.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/slo.h"
#include "reuse/result_cache.h"
#include "reuse/singleflight.h"
#include "sketch/countmin.h"
#include "sketch/spacesaving.h"

namespace taureau::reuse {

struct ReuseConfig {
  /// Result-cache shape. Cost-aware with a byte budget and TTL by default;
  /// TTL is the freshness cost a hit pays (staleness <= ttl_us).
  ResultCacheConfig cache{/*max_bytes=*/size_t(64) << 20, /*max_entries=*/0,
                          /*ttl_us=*/60 * kSecond, /*cost_aware=*/true};
  /// CountMin shape for the recurrence estimate (one-sided error: never
  /// undercounts, so admission can only over-value, never starve).
  uint32_t countmin_depth = 4;
  uint32_t countmin_width = 4096;
  uint64_t countmin_seed = 17;
  /// SpaceSaving capacity for the hot-key report.
  size_t hot_key_capacity = 16;
  /// Master switch (live: "reuse.enabled").
  bool enabled = true;
  /// Approximation fires when SLO burn >= this (0 disables; live:
  /// "reuse.approx.burn_threshold").
  double approx_burn_threshold = 0.0;
  /// Burn-rate window for the gate. The SloEngine only retains windowed
  /// events up to the objective's longest policy window, so the objective
  /// wired in via SetSloSource must carry at least one burn-rate policy
  /// whose window covers this one.
  SimDuration approx_burn_window_us = 1 * kSecond;
  /// SloEngine objective the gate reads (SetSloSource).
  std::string slo_objective;
};

/// Aggregate counters, materialized from the metric registry on demand.
struct ReuseStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t coalesced = 0;
  uint64_t approx_served = 0;
  uint64_t cache_admitted = 0;
  uint64_t cache_rejected = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_expired = 0;
  /// Execution time hits + coalesced followers did not re-run.
  SimDuration saved_exec_us = 0;
};

class ReuseLayer {
 public:
  explicit ReuseLayer(ReuseConfig config = {});
  ReuseLayer(const ReuseLayer&) = delete;
  ReuseLayer& operator=(const ReuseLayer&) = delete;

  /// Content-addressed cache key: function + 0x1f + 16-hex payload hash.
  /// Payload bytes are hashed, never stored, so key size is independent of
  /// payload size.
  static std::string Key(const std::string& function,
                         const std::string& payload);

  const ReuseConfig& config() const { return config_; }
  bool enabled() const { return enabled_; }
  double approx_burn_threshold() const { return approx_burn_threshold_; }

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  Singleflight& flights() { return flights_; }
  const Singleflight& flights() const { return flights_; }

  /// Feeds the recurrence sketches. Call once per arriving request,
  /// before Lookup, so the estimate covers the full request stream.
  void NoteRequest(const std::string& key);

  /// CountMin recurrence estimate for a key (never undercounts).
  uint64_t Recurrence(const std::string& key) const {
    return popularity_.EstimateCount(key);
  }

  /// Cache lookup at `now` (TTL-aware). Does not bump reuse.hit/miss
  /// metrics — the platform records those with tenant attribution.
  const CachedResult* Lookup(const std::string& key, SimTime now_us) {
    return cache_.Lookup(key, now_us);
  }

  /// Offers a finished execution's result to the cache under cost-aware
  /// admission (recurrence is stamped from the sketch) and maintains the
  /// admitted/rejected/eviction metrics.
  ResultCache::PutOutcome Offer(const std::string& key, CachedResult result,
                                SimTime now_us);

  // ------------------------------------------------------ approximation
  /// A degraded-mode answer: `output` plus the guaranteed error bound the
  /// caller exports to the client (e.g. CountMin's eps * total).
  struct ApproxAnswer {
    std::string output;
    double error_bound = 0.0;
  };
  using ApproxProvider = std::function<ApproxAnswer(const std::string&)>;

  /// Registers the degraded-mode provider for `function`.
  void RegisterApprox(const std::string& function, ApproxProvider provider);
  bool HasApprox(const std::string& function) const {
    return approx_.count(function) != 0;
  }
  /// Runs the provider (caller must check HasApprox / ShouldApproximate).
  ApproxAnswer Approximate(const std::string& function,
                           const std::string& payload) const;

  /// Reads burn rates from this engine's `objective` for the gate.
  void SetSloSource(const obs::SloEngine* slo, std::string objective);

  /// True when degradation should serve this request: reuse + a positive
  /// threshold are enabled and the tenant's (or the aggregate) burn rate
  /// over the configured window is at or above the threshold.
  bool ShouldApproximate(const std::string& tenant, SimTime now_us) const;

  // ---------------------------------------------------------- recording
  // The platform attributes each served path; `saved_exec_us` is the
  // execution time the hit/follower did not re-run.
  void RecordHit(const std::string& tenant, SimDuration saved_exec_us);
  void RecordMiss(const std::string& tenant);
  void RecordCoalesce(const std::string& tenant, SimDuration saved_exec_us);
  void RecordApprox(const std::string& tenant);

  // --------------------------------------------------------------- wiring
  /// Re-homes "reuse.*" metrics onto the shared registry.
  void AttachObservability(obs::Observability* o);

  /// Defines and subscribes the live knobs: "reuse.enabled",
  /// "reuse.approx.burn_threshold" and "reuse.cache.max_bytes" (defaults =
  /// the constructed config). A non-empty `scope` subscribes target-scoped
  /// so a staged rollout can canary one platform's degradation mode alone.
  void AttachControl(ctrl::ConfigService* service,
                     const std::string& scope = std::string());

  ReuseStats stats() const;
  /// Hot keys by estimated recurrence (SpaceSaving top-k), deterministic.
  std::vector<sketch::SpaceSaving::Entry> HotKeys() const {
    return hot_keys_.HeavyHitters(0);
  }

 private:
  struct TenantHandles {
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle coalesced;
    obs::CounterHandle approx_served;
  };

  void BindMetrics();
  /// Resolves `tenant`'s labeled series in the current registry.
  TenantHandles ResolveTenant(const std::string& tenant);
  TenantHandles& TenantMetrics(const std::string& tenant);
  void SyncCacheGauges();

  ReuseConfig config_;
  bool enabled_ = true;
  double approx_burn_threshold_ = 0.0;
  ResultCache cache_;
  Singleflight flights_;
  sketch::CountMinSketch popularity_;
  sketch::SpaceSaving hot_keys_;
  std::map<std::string, ApproxProvider> approx_;
  const obs::SloEngine* slo_ = nullptr;
  std::string objective_;

  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;

  struct MetricHandles {
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle coalesced;
    obs::CounterHandle approx_served;
    obs::CounterHandle cache_admitted;
    obs::CounterHandle cache_rejected;
    obs::CounterHandle cache_evictions;
    obs::CounterHandle cache_expired;
    obs::CounterHandle saved_exec_us;
    obs::GaugeHandle cache_bytes;
    obs::GaugeHandle cache_entries;
  };
  MetricHandles h_;
  std::map<std::string, TenantHandles> tenant_handles_;
};

}  // namespace taureau::reuse
