// taureau::reuse — computation reuse + approximation layer (E29).
//
// ReuseLayer bundles the three reuse paths the platform consults on every
// idempotent invocation, in priority order:
//
//   1. *Result cache hit*: a content-addressed cache keyed by a 16-byte
//      ContentKey — (function id, payload hash) — with TTL, a byte budget,
//      and cost-aware admission — admit by observed exec-time x recurrence
//      (estimated by a CountMin sketch over request keys), so one-hit
//      wonders never evict hot expensive results.
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
// Keys are values, not text: the layer interns each function name once and
// hashes the payload, so the cache and the singleflight group store 16
// bytes per key and a miss allocates only their two map nodes. The text
// form (function + 0x1f + 16 hex digits) exists only as KeyText, rendered
// into a reused buffer as the input of the recurrence sketches, so
// estimates, admission and the hot-key report read the same strings as
// before keys were values.
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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_types.h"
#include "ctrl/config.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/slo.h"
#include "reuse/content_key.h"
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

  /// Content-addressed key for `payload` run by `function`: the
  /// function's interned id and Fnv1a64(payload). Payload bytes are
  /// hashed, never stored, so key size is independent of payload size.
  ContentKey KeyFor(const std::string& function, std::string_view payload);

  /// The key's text form, function + 0x1f + 16 hex digits: what the
  /// recurrence sketches count and HotKeys reports. Rendered into a buffer
  /// the layer reuses, so the view is valid until the next KeyText call.
  std::string_view KeyText(const ContentKey& key) const;

  const ReuseConfig& config() const { return config_; }
  bool enabled() const { return enabled_; }
  double approx_burn_threshold() const { return approx_burn_threshold_; }

  ContentCache& cache() { return cache_; }
  const ContentCache& cache() const { return cache_; }
  Singleflight& flights() { return flights_; }
  const Singleflight& flights() const { return flights_; }

  /// Feeds the recurrence sketches. Call once per arriving request,
  /// before Lookup, so the estimate covers the full request stream.
  void NoteRequest(const ContentKey& key);

  /// CountMin recurrence estimate for a key (never undercounts).
  uint64_t Recurrence(const ContentKey& key) const {
    return popularity_.EstimateCount(KeyText(key));
  }

  /// Cache lookup at `now` (TTL-aware). Does not bump reuse.hit/miss
  /// metrics — the platform records those with tenant attribution.
  const CachedResult* Lookup(const ContentKey& key, SimTime now_us) {
    return cache_.Lookup(key, now_us);
  }

  /// Offers a finished execution's result to the cache under cost-aware
  /// admission (recurrence is stamped from the sketch) and maintains the
  /// admitted/rejected/eviction metrics.
  PutOutcome Offer(const ContentKey& key, CachedResult result,
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
  /// Interned function names, indexed by ContentKey::function.
  std::vector<std::string> function_names_;
  std::unordered_map<std::string, uint32_t> function_ids_;
  /// KeyText's reused render buffer.
  mutable std::string key_text_;
  ContentCache cache_;
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
