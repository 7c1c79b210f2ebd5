// Per-tenant dimensional telemetry (PR 8 / E27): labeled metric series,
// tenant-scoped SLO tracks under the cardinality guard, the shard-merge
// tenant rollup, and the end-to-end tenant threading through faas, pubsub
// and jiffy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faas/platform.h"
#include "jiffy/data_structures.h"
#include "jiffy/memory_pool.h"
#include "obs/flame.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/shard_merge.h"
#include "obs/slo.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau::obs {
namespace {

// ------------------------------------------------------- labeled registry

TEST(LabeledRegistryTest, SeriesNameIsCanonical) {
  // Label keys in fixed alphabetical order, empty labels omitted.
  EXPECT_EQ(Registry::SeriesName("faas.invocations", {.tenant = "acme"}),
            "faas.invocations{tenant=\"acme\"}");
  EXPECT_EQ(Registry::SeriesName("x", {.tenant = "t", .shard = "3"}),
            "x{shard=\"3\",tenant=\"t\"}");
  EXPECT_EQ(Registry::SeriesName(
                "x", {.tenant = "t", .cell = "c", .shard = "s", .module = "m"}),
            "x{cell=\"c\",module=\"m\",shard=\"s\",tenant=\"t\"}");
  EXPECT_EQ(Registry::SeriesName("x", LabelSet{}), "x");
}

TEST(LabeledRegistryTest, LabeledAndUnlabeledSeriesAreDistinctSlots) {
  Registry r;
  CounterHandle plain = r.ResolveCounter("faas.invocations");
  CounterHandle acme =
      r.ResolveCounter("faas.invocations", {.tenant = "acme"});
  CounterHandle acme_again =
      r.ResolveCounter("faas.invocations", {.tenant = "acme"});
  plain.Inc(5);
  acme.Inc(2);
  acme_again.Inc(1);  // same slot as `acme`
  EXPECT_EQ(plain.value(), 5u);
  EXPECT_EQ(acme.value(), 3u);
  // The slow path reads the same slot through the canonical key.
  EXPECT_EQ(r.GetCounter("faas.invocations{tenant=\"acme\"}")->value(), 3u);
}

TEST(LabeledRegistryTest, LabelValuesAreInternedAndSorted) {
  Registry r;
  r.ResolveCounter("m.c", {.tenant = "zeta"});
  r.ResolveCounter("m.c", {.tenant = "acme"});
  r.ResolveCounter("m.d", {.tenant = "acme", .shard = "0"});
  r.ResolveGauge("m.g", {.cell = "west"});
  const auto tenants = r.LabelValues("tenant");
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0], "acme");
  EXPECT_EQ(tenants[1], "zeta");
  EXPECT_EQ(r.LabelValues("cell").size(), 1u);
  EXPECT_EQ(r.LabelValues("shard").size(), 1u);
  EXPECT_TRUE(r.LabelValues("module").empty());
  EXPECT_EQ(r.labeled_series(), 4u);
}

TEST(LabeledRegistryTest, TenantCounterRollupSumsAcrossOtherLabels) {
  Registry r;
  r.ResolveCounter("faas.invocations", {.tenant = "a", .shard = "0"}).Inc(3);
  r.ResolveCounter("faas.invocations", {.tenant = "a", .shard = "1"}).Inc(4);
  r.ResolveCounter("pubsub.published", {.tenant = "a"}).Inc(2);
  r.ResolveCounter("faas.invocations", {.tenant = "b"}).Inc(9);
  r.ResolveCounter("faas.invocations").Inc(100);  // unlabeled: not rolled up
  const auto rollup = r.TenantCounterRollup();
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup.at("a").at("faas.invocations"), 7u);
  EXPECT_EQ(rollup.at("a").at("pubsub.published"), 2u);
  EXPECT_EQ(rollup.at("b").at("faas.invocations"), 9u);
}

TEST(LabeledRegistryTest, MergeFromFoldsLabeledSeriesByCanonicalKey) {
  Registry a, b;
  a.ResolveCounter("m.c", {.tenant = "t"}).Inc(2);
  b.ResolveCounter("m.c", {.tenant = "t"}).Inc(3);
  b.ResolveCounter("m.c", {.tenant = "u"}).Inc(1);
  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("m.c{tenant=\"t\"}")->value(), 5u);
  EXPECT_EQ(a.GetCounter("m.c{tenant=\"u\"}")->value(), 1u);
  // Label metadata follows the merged series: the rollup sees both tenants.
  EXPECT_EQ(a.TenantCounterRollup().size(), 2u);
}

TEST(LabeledRegistryTest, ResetKeepsLabeledHandlesValid) {
  Registry r;
  CounterHandle h = r.ResolveCounter("m.c", {.tenant = "t"});
  h.Inc(7);
  r.Reset();
  EXPECT_EQ(h.value(), 0u);
  h.Inc(1);
  EXPECT_EQ(r.GetCounter("m.c{tenant=\"t\"}")->value(), 1u);
}

// Regression (E28): the AttachObservability idiom — merge the module's own
// registry into the shared one, Reset the own registry, re-resolve handles
// on the shared registry — must keep every handle generation valid. A
// module attached after it already counted (the ctrl service does exactly
// this) must neither lose the merged counts nor crash through the old
// handles.
TEST(LabeledRegistryTest, HandlesSurviveMergeResetReRegistration) {
  Registry own, shared;
  CounterHandle early = own.ResolveCounter("ctrl.pushes", {.tenant = "t"});
  early.Inc(3);
  shared.MergeFrom(own);
  own.Reset();
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 3u);
  // The pre-merge handle stays valid: it writes into the reset own
  // registry (now detached scratch), never into freed memory.
  early.Inc(1);
  EXPECT_EQ(own.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 1u);
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 3u);
  // Re-registration on the shared registry aliases the merged slot.
  CounterHandle late = shared.ResolveCounter("ctrl.pushes", {.tenant = "t"});
  late.Inc(2);
  EXPECT_EQ(shared.GetCounter("ctrl.pushes{tenant=\"t\"}")->value(), 5u);
  // Same story for gauges and histograms.
  GaugeHandle g_early = own.ResolveGauge("ctrl.version", {.tenant = "t"});
  g_early.Set(4.0);
  shared.MergeFrom(own);
  own.Reset();
  GaugeHandle g_late = shared.ResolveGauge("ctrl.version", {.tenant = "t"});
  g_late.Set(9.0);
  EXPECT_EQ(shared.GetGauge("ctrl.version{tenant=\"t\"}")->value(), 9.0);
  g_early.Set(1.0);  // detached scratch write, shared value untouched
  EXPECT_EQ(shared.GetGauge("ctrl.version{tenant=\"t\"}")->value(), 9.0);
}

// ----------------------------------------------------------- shard merge

TEST(ShardMergeTest, TenantsSectionAppearsOnlyWithTenantSeries) {
  Registry plain;
  plain.ResolveCounter("m.c").Inc(1);
  const std::string no_tenants = MergeShardExports({&plain});
  EXPECT_EQ(no_tenants.find("== tenants =="), std::string::npos);

  Registry labeled;
  labeled.ResolveCounter("m.c", {.tenant = "acme"}).Inc(4);
  const std::string with_tenants = MergeShardExports({&plain, &labeled});
  EXPECT_NE(with_tenants.find("== tenants =="), std::string::npos);
  EXPECT_NE(with_tenants.find("acme"), std::string::npos);
}

TEST(ShardMergeTest, DigestIsDeterministicAcrossRebuilds) {
  auto build = [] {
    auto r = std::make_unique<Registry>();
    r->ResolveCounter("m.c", {.tenant = "a", .shard = "0"}).Inc(3);
    r->ResolveHistogram("m.h", {.tenant = "b"}).Observe(42.0);
    return r;
  };
  auto r1 = build();
  auto r2 = build();
  EXPECT_EQ(ShardExportDigest({r1.get()}), ShardExportDigest({r2.get()}));
}

// Property: perturbing any single labeled series by one event changes the
// merged-export digest — no per-tenant series can drift silently through
// the E26 differential harness.
TEST(ShardMergeTest, DigestIsSensitiveToEveryLabeledSeries) {
  constexpr int kShards = 3;
  constexpr int kSeries = 24;
  const char* kBases[] = {"faas.invocations", "pubsub.published", "jiffy.ops"};
  // One deterministic plan of (shard, base, tenant, value) tuples.
  struct Planned {
    int shard;
    std::string base;
    std::string tenant;
    uint64_t value;
  };
  std::vector<Planned> plan;
  Rng rng(271828);
  for (int i = 0; i < kSeries; ++i) {
    plan.push_back({int(rng.NextBounded(kShards)),
                    kBases[rng.NextBounded(3)],
                    "tenant-" + std::to_string(i), 1 + rng.NextBounded(50)});
  }
  // Builds the sharded world, adding one extra event to series `perturb`
  // (-1 = none).
  auto build = [&](int perturb) {
    std::vector<std::unique_ptr<Registry>> regs;
    for (int s = 0; s < kShards; ++s) regs.push_back(std::make_unique<Registry>());
    for (int i = 0; i < kSeries; ++i) {
      const Planned& p = plan[i];
      const uint64_t v = p.value + (i == perturb ? 1 : 0);
      regs[p.shard]
          ->ResolveCounter(p.base, {.tenant = p.tenant,
                                    .shard = std::to_string(p.shard)})
          .Inc(v);
    }
    return regs;
  };
  auto digest = [](const std::vector<std::unique_ptr<Registry>>& regs) {
    std::vector<const Registry*> ptrs;
    for (const auto& r : regs) ptrs.push_back(r.get());
    return ShardExportDigest(ptrs);
  };
  const uint64_t baseline = digest(build(-1));
  EXPECT_EQ(digest(build(-1)), baseline);  // determinism first
  for (int i = 0; i < kSeries; ++i) {
    EXPECT_NE(digest(build(i)), baseline)
        << "series " << i << " (" << plan[i].base << ", " << plan[i].tenant
        << ") did not move the digest";
  }
}

// ------------------------------------------------- tenant-scoped SLOs

SloObjective PerTenantObjective(std::string name, double target,
                                size_t max_series) {
  SloObjective obj;
  obj.name = std::move(name);
  obj.module = "app";
  obj.target = target;
  obj.latency_budget_us = -1;
  obj.policies = {{"page", /*long=*/10000, /*short=*/1000, /*burn=*/5.0}};
  obj.per_tenant = true;
  obj.max_tenant_series = max_series;
  return obj;
}

// Property: tenant A's bad events never move tenant B's burn rate. B's
// track in a world with A's storm is event-for-event identical to B's
// track in a world without it.
TEST(TenantSloTest, BurnIsolationProperty) {
  SloEngine storm;   // interleaved: A all-bad, B all-good
  SloEngine control; // B's events only, same timestamps
  storm.AddObjective(PerTenantObjective("avail", 0.99, 64));
  control.AddObjective(PerTenantObjective("avail", 0.99, 64));

  Rng rng(99);
  SimTime t = 0;
  std::vector<SimTime> checkpoints;
  for (int i = 0; i < 2000; ++i) {
    t += 1 + rng.NextBounded(20);
    if (rng.NextBool(0.5)) {
      storm.Record("app", "a", t, 100, /*ok=*/false);
    } else {
      storm.Record("app", "b", t, 100, /*ok=*/true);
      control.Record("app", "b", t, 100, /*ok=*/true);
    }
    if (i % 100 == 0) checkpoints.push_back(t);
  }
  // A is burning hard and firing; B never fires and never burns.
  EXPECT_TRUE(storm.IsTenantFiring("avail", "a", "page"));
  EXPECT_FALSE(storm.IsTenantFiring("avail", "b", "page"));
  EXPECT_EQ(storm.TenantBadEvents("avail", "b"), 0u);
  EXPECT_EQ(storm.TenantTotalEvents("avail", "b"),
            control.TenantTotalEvents("avail", "b"));
  for (SimTime now : checkpoints) {
    for (SimDuration w : {SimDuration(1000), SimDuration(10000)}) {
      EXPECT_DOUBLE_EQ(storm.TenantBurnRate("avail", "b", w, now),
                       control.TenantBurnRate("avail", "b", w, now));
      EXPECT_DOUBLE_EQ(storm.TenantBurnRate("avail", "b", w, now), 0.0);
    }
  }
  // Every tenant-attributed alert edge names A, never B.
  bool saw_a_edge = false;
  for (const AlertEvent& e : storm.alerts()) {
    if (!e.tenant.empty()) {
      EXPECT_EQ(e.tenant, "a");
      saw_a_edge = true;
    }
  }
  EXPECT_TRUE(saw_a_edge);
}

TEST(TenantSloTest, EmptyTenantLandsOnOtherTrack) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 4));
  slo.Record("app", "", 100, 10, true);
  slo.Record("app", kOtherTenant, 200, 10, false);
  EXPECT_EQ(slo.TenantTotalEvents("avail", kOtherTenant), 2u);
  EXPECT_EQ(slo.TenantBadEvents("avail", kOtherTenant), 1u);
  EXPECT_EQ(slo.MaterializedTenants("avail"),
            std::vector<std::string>{kOtherTenant});
}

// Regression (E28): a live config change re-registers an objective
// (AddObjective with the same name replaces the state). The engine must
// rebuild cleanly — per-tenant queries keep answering, new events
// re-materialize the tenant tracks, and firing state starts from the new
// spec rather than carrying a stale edge.
TEST(TenantSloTest, ReRegisteredObjectiveRebuildsPerTenantTracks) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) slo.Record("app", "a", ++t, 10, false);
  EXPECT_TRUE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_GT(slo.TenantBurnRate("avail", "a", 10000, t), 0.0);

  // Config push: tighter target, same name. State is replaced wholesale.
  slo.AddObjective(PerTenantObjective("avail", 0.999, 8));
  EXPECT_FALSE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 0u);
  EXPECT_DOUBLE_EQ(slo.TenantBurnRate("avail", "a", 10000, t), 0.0);

  // New events score against the new spec and re-materialize the track.
  for (int i = 0; i < 50; ++i) slo.Record("app", "a", ++t, 10, false);
  EXPECT_TRUE(slo.IsTenantFiring("avail", "a", "page"));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 50u);
  const auto tenants = slo.MaterializedTenants("avail");
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "a"), tenants.end());
}

TEST(TenantSloTest, CardinalityGuardDemotesWeakestAndConserves) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.9, 2));
  SimTime t = 0;
  // Fill phase: first two distinct tenants materialize exactly.
  for (int i = 0; i < 10; ++i) slo.Record("app", "t1", ++t, 10, true);
  slo.Record("app", "t2", ++t, 10, false);  // t2 fires immediately (all-bad)
  EXPECT_TRUE(slo.IsTenantFiring("avail", "t2", "page"));
  EXPECT_EQ(slo.TenantAttributionBound("avail", "t1"), 0u);
  EXPECT_EQ(slo.TenantAttributionBound("avail", "t2"), 0u);
  {
    const auto mats = slo.MaterializedTenants("avail");
    EXPECT_EQ(mats, (std::vector<std::string>{"t1", "t2"}));
  }
  // t3 surges past t2's popularity: the guard demotes t2, folds its counts
  // into __other__, clears its alert with a falling edge, and materializes
  // t3 with a nonzero attribution bound.
  for (int i = 0; i < 10; ++i) slo.Record("app", "t3", ++t, 10, true);
  EXPECT_GE(slo.TenantDemotions("avail"), 1u);
  const auto mats = slo.MaterializedTenants("avail");
  EXPECT_EQ(mats, (std::vector<std::string>{kOtherTenant, "t1", "t3"}));
  EXPECT_EQ(slo.TenantTotalEvents("avail", "t2"), 0u);  // demoted reads zero
  EXPECT_FALSE(slo.IsTenantFiring("avail", "t2", "page"));
  const AlertEvent& last = slo.alerts().back();
  EXPECT_EQ(last.tenant, "t2");
  EXPECT_FALSE(last.firing);
  // t2's bad event survives in the long tail.
  EXPECT_EQ(slo.TenantBadEvents("avail", kOtherTenant), 1u);
  // Conservation: materialized tracks (incl. __other__) sum to the
  // aggregate.
  uint64_t sum = 0;
  for (const auto& name : mats) sum += slo.TenantTotalEvents("avail", name);
  EXPECT_EQ(sum, slo.TotalEvents("avail"));
}

TEST(TenantSloTest, AttributionBoundCoversPreMaterializationEvents) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.9, 2));
  Rng rng(7);
  SimTime t = 0;
  std::map<std::string, uint64_t> truth;
  // Skewed churn over 6 tenants through a 2-slot guard: plenty of
  // demotions and re-promotions.
  for (int i = 0; i < 3000; ++i) {
    const std::string tenant =
        "t" + std::to_string(rng.NextBounded(rng.NextBounded(6) + 1));
    ++truth[tenant];
    slo.Record("app", tenant, ++t, 10, true);
  }
  const sketch::SpaceSaving* sk = slo.TenantSketch("avail");
  ASSERT_NE(sk, nullptr);
  const uint64_t sketch_bound = sk->total() / sk->capacity();
  uint64_t materialized_sum = 0;
  for (const std::string& name : slo.MaterializedTenants("avail")) {
    materialized_sum += slo.TenantTotalEvents("avail", name);
    if (name == kOtherTenant) continue;
    const uint64_t exact = slo.TenantTotalEvents("avail", name);
    const uint64_t bound = slo.TenantAttributionBound("avail", name);
    const uint64_t missed = truth.at(name) - std::min(truth.at(name), exact);
    EXPECT_LE(truth.at(name) - missed, truth.at(name));
    EXPECT_LE(missed, bound) << "tenant " << name;
    // The bound itself never exceeds the SpaceSaving error guarantee.
    EXPECT_LE(bound, sketch_bound) << "tenant " << name;
  }
  EXPECT_EQ(materialized_sum, slo.TotalEvents("avail"));
  // Sketch error guarantee holds for every tracked tenant.
  for (const auto& e : sk->HeavyHitters()) {
    EXPECT_LE(e.error, sketch_bound);
  }
}

TEST(TenantSloTest, ExportTextCarriesTenantLinesAndGuardStats) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  slo.Record("app", "acme", 100, 10, false);
  const std::string text = slo.ExportText();
  EXPECT_NE(text.find("  tenant=acme total=1 bad=1"), std::string::npos);
  EXPECT_NE(text.find("  tenant_guard k=8"), std::string::npos);
  EXPECT_NE(text.find("alert avail/page tenant=acme FIRING"),
            std::string::npos);
  // Tenant-free engines export no tenant vocabulary at all (byte-compat
  // with pre-dimensional exports).
  SloEngine plain;
  SloObjective obj;
  obj.name = "avail";
  obj.module = "app";
  obj.target = 0.99;
  obj.policies = {{"page", 10000, 1000, 5.0}};
  plain.AddObjective(obj);
  plain.Record("app", 100, 10, true);
  EXPECT_EQ(plain.ExportText().find("tenant"), std::string::npos);
}

// ------------------------------------------- clock-regression fallback

TEST(SloClockRegressionTest, NonDecreasingTimestampsNeverClamp) {
  SloEngine slo;
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  for (SimTime t : {100, 100, 200, 300}) slo.Record("app", "a", t, 10, true);
  EXPECT_EQ(slo.clamped_events(), 0u);
  EXPECT_EQ(slo.ExportText().find("clock_regressions"), std::string::npos);
}

TEST(SloClockRegressionTest, RegressionIsClampedAndCounted) {
  SloEngine slo;
  // Debug builds assert on a regression; the test opts into the
  // release-mode clamp path explicitly.
  slo.AllowClockRegression(true);
  slo.AddObjective(PerTenantObjective("avail", 0.99, 8));
  slo.Record("app", "a", 1000, 10, true);
  slo.Record("app", "a", 400, 10, false);  // regressed: clamps to 1000
  slo.Record("app", "a", 1200, 10, true);
  EXPECT_EQ(slo.clamped_events(), 1u);
  // The clamped event still scored (window aging never walked backwards).
  EXPECT_EQ(slo.TenantTotalEvents("avail", "a"), 3u);
  EXPECT_EQ(slo.TenantBadEvents("avail", "a"), 1u);
  // All three events are inside the long window ending now: the clamped
  // one aged as if it happened at t=1000.
  EXPECT_GT(slo.TenantBurnRate("avail", "a", 10000, 1200), 0.0);
  EXPECT_NE(slo.ExportText().find("clock_regressions 1"), std::string::npos);
  // A later regression clamps to the newest timestamp seen so far.
  slo.Record("app", "a", 1100, 10, true);
  EXPECT_EQ(slo.clamped_events(), 2u);
}

// ------------------------------------------- burn-window differential

// Brute-force reference for SloEngine: the same objectives, tenant guard
// and export format, but every window query rescans the track's retained
// (time, good) events from the newest back.
class ReferenceSlo {
 public:
  // Coverage counters: what the stream actually exercised.
  uint64_t boundary_hits = 0;  ///< Scans stopped by an event exactly W old.
  uint64_t rematerialized = 0;  ///< Demoted tenants materialized again.

  const std::vector<AlertEvent>& alerts() const { return alerts_; }

  void AddObjective(SloObjective objective) {
    State st;
    for (const BurnRatePolicy& p : objective.policies) {
      st.max_window_us = std::max(
          st.max_window_us, std::max(p.long_window_us, p.short_window_us));
      st.agg.firing[p.name] = false;
    }
    if (objective.per_tenant) {
      objective.max_tenant_series =
          std::max<size_t>(objective.max_tenant_series, 1);
      st.popularity =
          std::make_unique<sketch::SpaceSaving>(objective.max_tenant_series);
    }
    st.spec = std::move(objective);
    objectives_.insert_or_assign(st.spec.name, std::move(st));
  }

  void Record(const std::string& module, const std::string& tenant,
              SimTime at_us, SimDuration latency_us, bool ok) {
    if (at_us < last_at_us_) {
      ++clamped_;
      at_us = last_at_us_;
    } else {
      last_at_us_ = at_us;
    }
    for (auto& [name, st] : objectives_) {
      if (st.spec.module != module) continue;
      const bool good = ok && (st.spec.latency_budget_us < 0 ||
                               latency_us <= st.spec.latency_budget_us);
      Score(&st, &st.agg, "", at_us, good);
      if (st.spec.per_tenant) {
        auto it = Resolve(&st, tenant, at_us);
        Score(&st, &it->second, it->first, at_us, good);
      }
    }
  }

  double BurnRate(const std::string& objective, SimDuration window_us,
                  SimTime now_us) {
    const auto it = objectives_.find(objective);
    return it == objectives_.end()
               ? 0.0
               : Burn(it->second.agg, it->second.spec.target, window_us,
                      now_us);
  }
  double TenantBurnRate(const std::string& objective,
                        const std::string& tenant, SimDuration window_us,
                        SimTime now_us) {
    const auto it = objectives_.find(objective);
    if (it == objectives_.end()) return 0.0;
    const auto tit = it->second.tenants.find(tenant);
    return tit == it->second.tenants.end()
               ? 0.0
               : Burn(tit->second, it->second.spec.target, window_us, now_us);
  }
  bool IsFiring(const std::string& objective, const std::string& policy) {
    const auto it = objectives_.find(objective);
    return it != objectives_.end() && Firing(it->second.agg, policy);
  }
  bool IsTenantFiring(const std::string& objective, const std::string& tenant,
                      const std::string& policy) {
    const auto it = objectives_.find(objective);
    if (it == objectives_.end()) return false;
    const auto tit = it->second.tenants.find(tenant);
    return tit != it->second.tenants.end() && Firing(tit->second, policy);
  }

  std::string ExportText() const {
    std::string out;
    char buf[256];
    for (const auto& [name, st] : objectives_) {
      double remaining = 1.0;
      if (st.agg.total > 0) {
        const double allowed = double(st.agg.total) * (1.0 - st.spec.target);
        remaining = allowed <= 0 ? (st.agg.bad == 0 ? 1.0 : 0.0)
                                 : std::max(0.0, 1.0 - double(st.agg.bad) /
                                                           allowed);
      }
      std::snprintf(buf, sizeof(buf),
                    "%s module=%s target=%.6g total=%llu bad=%llu "
                    "budget_remaining=%.6g\n",
                    name.c_str(), st.spec.module.c_str(), st.spec.target,
                    static_cast<unsigned long long>(st.agg.total),
                    static_cast<unsigned long long>(st.agg.bad), remaining);
      out += buf;
      if (!st.spec.per_tenant) continue;
      for (const auto& [tenant, tr] : st.tenants) {
        std::snprintf(
            buf, sizeof(buf),
            "  tenant=%s total=%llu bad=%llu attribution_bound=%llu\n",
            tenant.c_str(), static_cast<unsigned long long>(tr.total),
            static_cast<unsigned long long>(tr.bad),
            static_cast<unsigned long long>(tr.attribution_bound));
        out += buf;
      }
      const uint64_t sketch_total = st.popularity->total();
      std::snprintf(
          buf, sizeof(buf),
          "  tenant_guard k=%llu materialized=%llu demotions=%llu "
          "sketch_total=%llu sketch_error_bound=%llu\n",
          static_cast<unsigned long long>(st.spec.max_tenant_series),
          static_cast<unsigned long long>(st.tenants.size()),
          static_cast<unsigned long long>(st.demotions),
          static_cast<unsigned long long>(sketch_total),
          static_cast<unsigned long long>(sketch_total /
                                          st.spec.max_tenant_series));
      out += buf;
    }
    for (const AlertEvent& a : alerts_) {
      const std::string who = a.tenant.empty() ? "" : " tenant=" + a.tenant;
      std::snprintf(buf, sizeof(buf),
                    "alert %s/%s%s %s at=%lld burn_long=%.6g "
                    "burn_short=%.6g\n",
                    a.objective.c_str(), a.policy.c_str(), who.c_str(),
                    a.firing ? "FIRING" : "clear",
                    static_cast<long long>(a.at_us), a.burn_long,
                    a.burn_short);
      out += buf;
    }
    if (clamped_ > 0) {
      std::snprintf(buf, sizeof(buf), "clock_regressions %llu\n",
                    static_cast<unsigned long long>(clamped_));
      out += buf;
    }
    return out;
  }

 private:
  struct Track {
    uint64_t total = 0;
    uint64_t bad = 0;
    std::deque<std::pair<SimTime, bool>> window;  // (at_us, good)
    std::map<std::string, bool> firing;
    uint64_t attribution_bound = 0;
  };
  struct State {
    SloObjective spec;
    SimDuration max_window_us = 0;
    Track agg;
    std::map<std::string, Track> tenants;
    std::unique_ptr<sketch::SpaceSaving> popularity;
    uint64_t demotions = 0;
    std::set<std::string> demoted;
  };
  using TenantIter = std::map<std::string, Track>::iterator;

  static bool Firing(const Track& tr, const std::string& policy) {
    const auto it = tr.firing.find(policy);
    return it != tr.firing.end() && it->second;
  }

  double Burn(const Track& tr, double target, SimDuration window_us,
              SimTime now_us) {
    uint64_t total = 0;
    uint64_t bad = 0;
    for (auto it = tr.window.rbegin(); it != tr.window.rend(); ++it) {
      if (it->first <= now_us - window_us) {
        if (it->first == now_us - window_us) ++boundary_hits;
        break;
      }
      ++total;
      if (!it->second) ++bad;
    }
    if (total == 0) return 0.0;
    const double bad_fraction = double(bad) / double(total);
    const double budget = 1.0 - target;
    return budget > 0 ? bad_fraction / budget : (bad > 0 ? 1e18 : 0.0);
  }

  void Score(State* st, Track* tr, const std::string& tenant, SimTime at_us,
             bool good) {
    ++tr->total;
    if (!good) ++tr->bad;
    if (st->max_window_us > 0) {
      tr->window.emplace_back(at_us, good);
      while (!tr->window.empty() &&
             tr->window.front().first <= at_us - st->max_window_us) {
        tr->window.pop_front();
      }
    }
    for (const BurnRatePolicy& p : st->spec.policies) {
      const double burn_long =
          Burn(*tr, st->spec.target, p.long_window_us, at_us);
      const double burn_short =
          Burn(*tr, st->spec.target, p.short_window_us, at_us);
      const bool fire =
          burn_long >= p.burn_threshold && burn_short >= p.burn_threshold;
      bool& firing = tr->firing[p.name];
      if (fire == firing) continue;
      firing = fire;
      alerts_.push_back(
          {at_us, st->spec.name, p.name, tenant, fire, burn_long, burn_short});
    }
  }

  TenantIter Resolve(State* st, const std::string& tenant, SimTime at_us) {
    if (tenant.empty() || tenant == kOtherTenant) {
      return st->tenants.try_emplace(kOtherTenant).first;
    }
    st->popularity->Add(tenant);
    auto it = st->tenants.find(tenant);
    if (it != st->tenants.end()) return it;
    const size_t exact = st->tenants.size() - st->tenants.count(kOtherTenant);
    const uint64_t estimate = st->popularity->EstimateCount(tenant);
    auto materialize = [&] {
      if (st->demoted.count(tenant) > 0) ++rematerialized;
      auto ins = st->tenants.try_emplace(tenant).first;
      ins->second.attribution_bound = estimate > 0 ? estimate - 1 : 0;
      return ins;
    };
    if (exact < st->spec.max_tenant_series) return materialize();
    bool found = false;
    std::string weakest;
    uint64_t weakest_estimate = 0;
    for (const auto& [name, track] : st->tenants) {
      if (name == kOtherTenant) continue;
      const uint64_t est = st->popularity->EstimateCount(name);
      if (!found || est < weakest_estimate) {
        found = true;
        weakest = name;
        weakest_estimate = est;
      }
    }
    if (!found || estimate <= weakest_estimate) {
      return st->tenants.try_emplace(kOtherTenant).first;
    }
    Track& victim = st->tenants.at(weakest);
    for (auto& [policy, firing] : victim.firing) {
      if (!firing) continue;
      firing = false;
      alerts_.push_back(
          {at_us, st->spec.name, policy, weakest, false, 0.0, 0.0});
    }
    Track& other = st->tenants[kOtherTenant];
    other.total += victim.total;
    other.bad += victim.bad;
    other.attribution_bound += victim.total;
    ++st->demotions;
    st->demoted.insert(weakest);
    st->tenants.erase(weakest);
    return materialize();
  }

  std::map<std::string, State> objectives_;
  std::vector<AlertEvent> alerts_;
  SimTime last_at_us_ = 0;
  uint64_t clamped_ = 0;
};

/// Asserts the engine's alert log matches the reference's from `*checked`
/// on, then advances `*checked` to the end.
void ExpectSameAlertsSince(const std::vector<AlertEvent>& got,
                           const std::vector<AlertEvent>& want,
                           size_t* checked, int i) {
  ASSERT_EQ(got.size(), want.size()) << "alert count after record " << i;
  for (; *checked < got.size(); ++*checked) {
    const AlertEvent& a = got[*checked];
    const AlertEvent& b = want[*checked];
    ASSERT_EQ(a.at_us, b.at_us) << "alert " << *checked << " i=" << i;
    ASSERT_EQ(a.objective, b.objective) << "alert " << *checked;
    ASSERT_EQ(a.policy, b.policy) << "alert " << *checked;
    ASSERT_EQ(a.tenant, b.tenant) << "alert " << *checked;
    ASSERT_EQ(a.firing, b.firing) << "alert " << *checked;
    ASSERT_EQ(a.burn_long, b.burn_long) << "alert " << *checked;
    ASSERT_EQ(a.burn_short, b.burn_short) << "alert " << *checked;
  }
}

// Seeded random streams through SloEngine and the rescanning reference:
// after every Record, the alert log, every firing bit, every burn rate
// (current and past `now`) must agree exactly, and the full export every
// 500 events. Streams mix bad bursts (alerts fire and clear), equal
// timestamps, events exactly W old (times and windows share a 5 us grid),
// clamped clock regressions, zero-length short windows (a correct engine
// never fires them; one that counts the event at `now` does), tenant
// demotion and re-materialization through a 3-slot guard, and mid-stream
// objective re-registrations that change the policy set and the longest
// window.
TEST(SloWindowDifferentialTest, MatchesRescanReference) {
  const std::vector<std::string> pool = {"t0", "t1", "t2", "t3", "t4", "t5",
                                         "t6", "t7", "t8", "t9", "",
                                         kOtherTenant};
  auto per_tenant_latency = [](bool extra_policy) {
    SloObjective o;
    o.name = "latency";
    o.module = "app";
    o.target = 0.95;
    o.latency_budget_us = 100;
    // Policy names deliberately out of alphabetical order.
    o.policies = {{"ticket", 1000, 100, 2.0},
                  {"page", 500, 50, 8.0},
                  {"instant", 300, 0, 1.0}};
    if (extra_policy) o.policies.push_back({"fast", 200, 20, 3.0});
    o.per_tenant = true;
    o.max_tenant_series = 3;
    return o;
  };
  auto availability = [](SimDuration long_window_us) {
    SloObjective o;
    o.name = "avail";
    o.module = "app";
    o.target = 0.9;
    o.policies = {{"page", long_window_us, 40, 4.0},
                  {"instant", 200, 0, 2.0}};
    return o;
  };
  SloObjective unwindowed;  // no policies: no window kept at all
  unwindowed.name = "count-only";
  unwindowed.module = "app";
  unwindowed.target = 0.99;
  const std::vector<SimDuration> windows = {0, 5, 40, 50, 100, 400,
                                            500, 1000, 3000};

  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SloEngine slo;
    ReferenceSlo ref;
    slo.AllowClockRegression(true);
    slo.AddObjective(per_tenant_latency(false));
    slo.AddObjective(availability(400));
    slo.AddObjective(unwindowed);
    ref.AddObjective(per_tenant_latency(false));
    ref.AddObjective(availability(400));
    ref.AddObjective(unwindowed);

    Rng rng(seed);
    SimTime t = 0;
    bool burst = false;
    size_t alerts_checked = 0;
    for (int i = 0; i < 4000; ++i) {
      if (rng.NextBool(0.01)) burst = !burst;
      SimTime at = t;
      if (rng.NextBool(0.02)) {
        at = t - 5 * SimTime(1 + rng.NextBounded(40));  // regression
      } else if (!rng.NextBool(0.25)) {                 // else equal time
        t += 5 * SimTime(1 + rng.NextBounded(8));
        at = t;
      }
      // Popularity drifts every 1000 events, churning the 3-slot guard.
      const size_t rank = rng.NextBounded(rng.NextBounded(10) + 1);
      const std::string& tenant =
          rng.NextBool(0.05) ? pool[10 + rng.NextBounded(2)]
                             : pool[(rank + 3 * size_t(i / 1000)) % 10];
      const bool ok = !rng.NextBool(burst ? 0.6 : 0.02);
      const SimDuration latency =
          SimDuration(rng.NextBounded(burst ? 300 : 110));
      slo.Record("app", tenant, at, latency, ok);
      ref.Record("app", tenant, at, latency, ok);
      if (i == 1500) {  // live re-registration: a shorter longest window
        slo.AddObjective(availability(150));
        ref.AddObjective(availability(150));
      }
      if (i == 2500) {  // live re-registration: one more policy
        slo.AddObjective(per_tenant_latency(true));
        ref.AddObjective(per_tenant_latency(true));
      }
      ExpectSameAlertsSince(slo.alerts(), ref.alerts(), &alerts_checked, i);
      if (HasFatalFailure()) return;

      const SimTime past = t - SimTime(rng.NextBounded(300));
      for (const char* obj : {"latency", "avail", "count-only"}) {
        for (SimDuration w : windows) {
          for (SimTime now : {t, past}) {
            ASSERT_EQ(slo.BurnRate(obj, w, now), ref.BurnRate(obj, w, now))
                << obj << " w=" << w << " now=" << now << " i=" << i;
          }
        }
        for (const char* policy :
             {"page", "ticket", "instant", "fast", "none"}) {
          ASSERT_EQ(slo.IsFiring(obj, policy), ref.IsFiring(obj, policy))
              << obj << "/" << policy << " i=" << i;
        }
      }
      for (const std::string& tn : pool) {
        for (SimDuration w : {SimDuration(50), SimDuration(500)}) {
          for (SimTime now : {t, past}) {
            ASSERT_EQ(slo.TenantBurnRate("latency", tn, w, now),
                      ref.TenantBurnRate("latency", tn, w, now))
                << tn << " w=" << w << " now=" << now << " i=" << i;
          }
        }
        for (const char* policy : {"page", "ticket", "instant", "fast"}) {
          ASSERT_EQ(slo.IsTenantFiring("latency", tn, policy),
                    ref.IsTenantFiring("latency", tn, policy))
              << tn << "/" << policy << " i=" << i;
        }
      }
      if (i % 500 == 0) {
        ASSERT_EQ(slo.ExportText(), ref.ExportText()) << i;
      }
    }
    EXPECT_EQ(slo.ExportText(), ref.ExportText());

    // The stream reached every case it is meant to cover.
    size_t fired = 0;
    size_t cleared = 0;
    size_t fast_fired = 0;
    for (const AlertEvent& a : slo.alerts()) {
      ++(a.firing ? fired : cleared);
      EXPECT_FALSE(a.firing && a.policy == "instant") << a.at_us;
      if (a.firing && a.policy == "fast") ++fast_fired;
    }
    EXPECT_GT(fired, 0u);
    EXPECT_GT(cleared, 0u);
    EXPECT_GT(fast_fired, 0u);
    EXPECT_GT(slo.clamped_events(), 0u);
    EXPECT_GT(slo.TenantDemotions("latency"), 0u);
    EXPECT_GT(ref.rematerialized, 0u);
    EXPECT_GT(ref.boundary_hits, 0u);
  }
}

// ---------------------------------------------------- flame by-tenant

TEST(FlameTenantTest, ByTenantBreakdownFollowsRootAttr) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  auto request = [&](const std::string& tenant, SimDuration exec_us) {
    TraceContext root = tracer.StartTrace("invoke:f", "faas");
    if (!tenant.empty()) tracer.SetAttr(root, kTenantAttr, tenant);
    sim.Schedule(0, [&, root, exec_us] {
      TraceContext child = tracer.StartSpan("exec", "faas", root);
      sim.Schedule(exec_us, [&, root, child] {
        tracer.EndSpan(child);
        tracer.EndSpan(root);
      });
    });
    sim.Run();
  };
  request("acme", 100);
  request("acme", 300);
  request("zeta", 50);
  request("", 1000);  // untagged root: counted in by_root only

  FlameProfile flame;
  flame.FoldTrace(tracer.spans());
  const auto& by_tenant = flame.by_tenant();
  ASSERT_EQ(by_tenant.size(), 2u);
  EXPECT_EQ(by_tenant.at("acme").count, 2u);
  EXPECT_EQ(by_tenant.at("acme").breakdown.total_us, 400);
  EXPECT_EQ(by_tenant.at("zeta").count, 1u);
  EXPECT_EQ(flame.by_root().at("invoke:f").count, 4u);
  const std::string text = flame.ExportTenantsText();
  EXPECT_NE(text.find("acme"), std::string::npos);
  EXPECT_NE(text.find("zeta"), std::string::npos);
}

// ------------------------------------------- end-to-end tenant threading

TEST(FaasTenantTest, SpecTenantFlowsToSpansSeriesAndOwner) {
  sim::Simulation sim;
  Observability o(&sim);
  cluster::Cluster cluster{4, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cluster, {});
  platform.AttachObservability(&o);
  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.tenant = "acme";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);
  ASSERT_TRUE(platform.InvokeSync("serve", "x").ok());
  ASSERT_TRUE(platform.InvokeSync("serve", "y").ok());

  // Root spans carry the tenant attr; exec spans carry the allocation
  // owner (cluster::Machine::owner round-trip).
  int roots = 0, execs = 0;
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "invoke:serve") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
      ++roots;
    }
    if (s.name == "exec") {
      EXPECT_EQ(s.attrs.at("owner"), "acme");
      ++execs;
    }
  }
  EXPECT_EQ(roots, 2);
  EXPECT_EQ(execs, 2);

  // Tenant-labeled series sit alongside the unlabeled aggregates.
  EXPECT_EQ(o.registry.GetCounter("faas.invocations")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetCounter("faas.invocations{tenant=\"acme\"}")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetCounter("faas.completions{tenant=\"acme\"}")->value(), 2u);
  EXPECT_EQ(
      o.registry.GetHistogram("faas.e2e_latency_us{tenant=\"acme\"}")->count(),
      2u);
  EXPECT_EQ(o.registry.TenantCounterRollup().at("acme").at("faas.invocations"),
            2u);
}

TEST(FaasTenantTest, UntaggedFunctionEmitsNoTenantSeries) {
  sim::Simulation sim;
  Observability o(&sim);
  cluster::Cluster cluster{4, {32000, 65536}};
  faas::FaasPlatform platform(&sim, &cluster, {});
  platform.AttachObservability(&o);
  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);
  ASSERT_TRUE(platform.InvokeSync("serve", "x").ok());
  EXPECT_EQ(o.registry.labeled_series(), 0u);
  for (const Span& s : o.tracer.spans()) {
    EXPECT_EQ(s.attrs.count(kTenantAttr), 0u) << s.name;
  }
  // Tenant-free worlds keep the pre-dimensional export byte-shape.
  EXPECT_EQ(o.registry.ExportText().find("tenant"), std::string::npos);
}

TEST(PubsubTenantTest, TopicTenantFlowsToSeriesAndPublishSpan) {
  sim::Simulation sim;
  Observability o(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachObservability(&o);
  ASSERT_TRUE(pulsar.CreateTopic("t", {.tenant = "acme"}).ok());
  ASSERT_TRUE(pulsar.CreateTopic("plain", {}).ok());
  ASSERT_TRUE(pulsar.Publish("t", "", "m1").ok());
  ASSERT_TRUE(pulsar.Publish("t", "", "m2").ok());
  ASSERT_TRUE(pulsar.Publish("plain", "", "m3").ok());
  sim.Run();
  EXPECT_EQ(o.registry.GetCounter("pubsub.published")->value(), 3u);
  EXPECT_EQ(
      o.registry.GetCounter("pubsub.published{tenant=\"acme\"}")->value(), 2u);
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "publish:t") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
    }
    if (s.name == "publish:plain") {
      EXPECT_EQ(s.attrs.count(kTenantAttr), 0u);
    }
  }
}

TEST(JiffyTenantTest, OwnerFlowsToSeriesAndOpSpans) {
  sim::Simulation sim;
  Observability o(&sim);
  jiffy::MemoryPool pool(2, 64, 1024);
  jiffy::JiffyHashTable table(&pool, "acme", 2);
  table.AttachObservability(&o);
  const TraceContext root = o.tracer.StartTrace("req", "test");
  ASSERT_TRUE(table.Put("k", "v", root).status.ok());
  std::string got;
  ASSERT_TRUE(table.Get("k", &got, root).status.ok());
  o.tracer.EndSpan(root);
  EXPECT_EQ(o.registry.GetCounter("jiffy.ops")->value(), 2u);
  EXPECT_EQ(o.registry.GetCounter("jiffy.ops{tenant=\"acme\"}")->value(), 2u);
  for (const Span& s : o.tracer.spans()) {
    if (s.module == "jiffy") {
      EXPECT_EQ(s.attrs.at(kTenantAttr), "acme");
    }
  }
}

}  // namespace
}  // namespace taureau::obs
