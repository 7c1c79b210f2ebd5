// Tests for the production-scale observability layer (E22): the sampling
// pipeline (head + tail retention, bounded store), the flame-profile
// aggregator (exact self-time partition), the SLO burn-rate engine, and
// the Observability::EnableScale wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "faas/platform.h"
#include "obs/critical_path.h"
#include "obs/flame.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace taureau::obs {
namespace {

using taureau::Rng;
using taureau::SimDuration;
using taureau::SimTime;

// ------------------------------------------------------------- helpers

/// Emits one three-span trace (root + exec child [+ optional marker
/// attrs on the root]) through `o.tracer` and returns its trace id.
uint64_t EmitTrace(Observability* o, SimTime start, SimDuration dur,
                   const std::string& outcome = "") {
  auto root = o->tracer.StartSpanAt("req", "svc", {}, start);
  o->tracer.EmitSpan("exec", "svc", root, start, start + dur,
                     {{kCategoryAttr, "exec"}});
  if (!outcome.empty()) o->tracer.SetAttr(root, kOutcomeAttr, outcome);
  o->tracer.EndSpanAt(root, start + dur);
  return root.trace_id;
}

ScaleConfig Config(double head_rate, SimDuration slow_us = -1) {
  ScaleConfig cfg;
  cfg.sampler.head_rate = head_rate;
  cfg.sampler.seed = 7;
  cfg.sampler.slow_threshold_us = slow_us;
  return cfg;
}

/// Small E20-style faulty FaaS world; returns the full export and copies
/// out the sampler stats. Chaos kills force fault/error/slow traces.
std::string RunFaultyWorld(uint64_t seed, double head_rate,
                           SamplingPipeline::Stats* stats_out = nullptr) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(head_rate);
  SloObjective latency;
  latency.name = "faas-latency";
  latency.module = "faas";
  latency.target = 0.99;
  latency.latency_budget_us = 50 * kMillisecond;
  cfg.objectives.push_back(std::move(latency));
  EXPECT_TRUE(o.EnableScale(cfg));

  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasConfig config;
  config.seed = seed;
  config.keep_alive_us = 10 * kMinute;
  config.retry = chaos::RetryPolicy::ExponentialJitter(4);
  faas::FaasPlatform platform(&sim, &cluster, config);
  platform.AttachObservability(&o);

  chaos::InjectorRegistry registry(&sim);
  cluster.AttachChaos(&registry);
  platform.AttachChaos(&registry);
  registry.AttachObservability(&o);
  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = 5 * kSecond;
  plan_cfg.num_machines = 4;
  plan_cfg.container_kill_per_s = 4.0;
  Rng plan_rng(seed + 1);
  registry.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));

  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 15 * kMillisecond, 0, 0};
  spec.init_us = 120 * kMillisecond;
  platform.RegisterFunction(spec);
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(SimTime(i) * 40 * kMillisecond, [&platform] {
      platform.Invoke("serve", "req", [](const faas::InvocationResult&) {});
    });
  }
  sim.Run();
  o.Flush();
  if (stats_out != nullptr) *stats_out = o.pipeline()->stats();
  return o.ExportAll();
}

// ------------------------------------------------------------- sampler

TEST(SamplerTest, HeadDecisionDeterministicAndSeedDependent) {
  SamplerConfig a;
  a.head_rate = 0.3;
  a.seed = 1;
  SamplerConfig b = a;
  SamplerConfig c = a;
  c.seed = 2;
  SamplingPipeline pa(a, nullptr, nullptr);
  SamplingPipeline pb(b, nullptr, nullptr);
  SamplingPipeline pc(c, nullptr, nullptr);
  bool seed_changes_some = false;
  for (uint64_t id = 1; id <= 500; ++id) {
    EXPECT_EQ(pa.HeadKeeps(id), pb.HeadKeeps(id));
    if (pa.HeadKeeps(id) != pc.HeadKeeps(id)) seed_changes_some = true;
  }
  EXPECT_TRUE(seed_changes_some);
}

TEST(SamplerTest, HeadRateZeroAndOneAreAbsolute) {
  SamplerConfig none;
  none.head_rate = 0.0;
  SamplerConfig all;
  all.head_rate = 1.0;
  SamplingPipeline p_none(none, nullptr, nullptr);
  SamplingPipeline p_all(all, nullptr, nullptr);
  for (uint64_t id = 1; id <= 200; ++id) {
    EXPECT_FALSE(p_none.HeadKeeps(id));
    EXPECT_TRUE(p_all.HeadKeeps(id));
  }
}

TEST(SamplerTest, HeadRateApproximatesFraction) {
  SamplerConfig cfg;
  cfg.head_rate = 0.2;
  SamplingPipeline p(cfg, nullptr, nullptr);
  int kept = 0;
  for (uint64_t id = 1; id <= 10000; ++id) {
    if (p.HeadKeeps(id)) ++kept;
  }
  EXPECT_GT(kept, 1700);
  EXPECT_LT(kept, 2300);
}

TEST(SamplerTest, TailKeepsErrorFaultAndSlowAtHeadRateZero) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0, /*slow_us=*/100)));
  const uint64_t healthy = EmitTrace(&o, 0, 50);
  const uint64_t err = EmitTrace(&o, 100, 50, kOutcomeError);
  const uint64_t fault = EmitTrace(&o, 200, 50, kOutcomeFault);
  const uint64_t slow = EmitTrace(&o, 300, 500);
  const SamplingPipeline* p = o.pipeline();
  EXPECT_EQ(p->DecisionFor(healthy), RetainReason::kDropped);
  EXPECT_EQ(p->DecisionFor(err), RetainReason::kError);
  EXPECT_EQ(p->DecisionFor(fault), RetainReason::kFault);
  EXPECT_EQ(p->DecisionFor(slow), RetainReason::kSlow);
  EXPECT_EQ(p->stats().important_seen, 3u);
  EXPECT_EQ(p->stats().important_retained, 3u);
  EXPECT_EQ(p->stats().traces_dropped, 1u);
}

TEST(SamplerTest, ErrorOutranksFaultOutranksSlow) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0, /*slow_us=*/100)));
  // Slow AND fault AND error: one marker anywhere decides the reason.
  auto root = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.EmitSpan("mark", "svc", root, 0, 1, {{kOutcomeAttr, kOutcomeFault}});
  o.tracer.SetAttr(root, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(root, 500);
  EXPECT_EQ(o.pipeline()->DecisionFor(root.trace_id), RetainReason::kError);
}

TEST(SamplerTest, SloBudgetDrivesSlowThreshold) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(0.0);  // no global slow threshold
  SloObjective objective;
  objective.name = "svc-latency";
  objective.module = "svc";
  objective.latency_budget_us = 200;
  cfg.objectives.push_back(std::move(objective));
  ASSERT_TRUE(o.EnableScale(cfg));
  const uint64_t fast = EmitTrace(&o, 0, 150);
  const uint64_t slow = EmitTrace(&o, 1000, 300);
  EXPECT_EQ(o.pipeline()->DecisionFor(fast), RetainReason::kDropped);
  EXPECT_EQ(o.pipeline()->DecisionFor(slow), RetainReason::kSlow);
}

TEST(SamplerTest, DroppedTracesStillFoldedIntoFlame) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0)));
  for (int i = 0; i < 10; ++i) {
    EmitTrace(&o, SimTime(i) * 100, 50);
  }
  EXPECT_EQ(o.pipeline()->stats().traces_retained, 0u);
  EXPECT_EQ(o.pipeline()->retained_span_count(), 0u);
  EXPECT_EQ(o.flame()->folded_traces(), 10u);
  const auto& by_root = o.flame()->by_root();
  ASSERT_TRUE(by_root.count("req"));
  EXPECT_EQ(by_root.at("req").count, 10u);
  EXPECT_EQ(by_root.at("req").breakdown.total_us, 10 * 50);
}

TEST(SamplerTest, BoundedStoreEvictsHealthyBeforeImportant) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(1.0, /*slow_us=*/1000);
  cfg.sampler.max_retained_spans = 8;  // four 2-span traces
  ASSERT_TRUE(o.EnableScale(cfg));
  const uint64_t err = EmitTrace(&o, 0, 50, kOutcomeError);
  for (int i = 1; i <= 5; ++i) {
    EmitTrace(&o, SimTime(i) * 100, 50);
  }
  const SamplingPipeline* p = o.pipeline();
  EXPECT_GT(p->stats().evicted_traces, 0u);
  EXPECT_EQ(p->stats().evicted_important, 0u);
  EXPECT_LE(p->retained_span_count(), 8u);
  // The error trace is still in the retained export.
  const std::string text = p->ExportText();
  EXPECT_NE(text.find("trace=" + std::to_string(err) + " reason=error"),
            std::string::npos);
}

TEST(SamplerTest, LateSpanGroupsFollowTraceDecision) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(0.0)));
  // Retained trace (error); a late async span arrives after the decision.
  auto kept = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.SetAttr(kept, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(kept, 100);
  auto late_kept = o.tracer.StartSpanAt("deliver", "svc", kept, 150);
  o.tracer.EndSpanAt(late_kept, 200);
  // Dropped trace; its late span must not resurrect it.
  auto dropped = o.tracer.StartSpanAt("req", "svc", {}, 300);
  o.tracer.EndSpanAt(dropped, 400);
  auto late_dropped = o.tracer.StartSpanAt("deliver", "svc", dropped, 450);
  o.tracer.EndSpanAt(late_dropped, 500);

  const SamplingPipeline* p = o.pipeline();
  EXPECT_EQ(p->stats().late_groups, 2u);
  const std::string text = p->ExportText();
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_EQ(p->retained_span_count(), 2u);  // root + late span, kept trace
  // Late groups still fold into the flame regardless of retention.
  EXPECT_EQ(o.flame()->folded_spans(), 4u);
}

TEST(SamplerTest, StreamModeKeepsTracerEmptyAndCountsEmitted) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  for (int i = 0; i < 5; ++i) EmitTrace(&o, SimTime(i) * 100, 50);
  EXPECT_EQ(o.tracer.stored_span_count(), 0u);
  EXPECT_EQ(o.tracer.span_count(), 10u);
  EXPECT_EQ(o.pipeline()->retained_span_count(), 10u);
}

TEST(SamplerTest, FlushFinalizesOpenTracesAsIncomplete) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  auto root = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.EmitSpan("exec", "svc", root, 0, 10, {});
  // Root never closes; Flush must still account for the trace.
  o.Flush();
  EXPECT_EQ(o.pipeline()->stats().incomplete_traces, 1u);
  EXPECT_EQ(o.pipeline()->stats().traces_finalized, 1u);
}

TEST(SamplerTest, RetainedBytesTrackStoreContent) {
  sim::Simulation sim;
  Observability o(&sim);
  ASSERT_TRUE(o.EnableScale(Config(1.0)));
  EXPECT_EQ(o.pipeline()->retained_bytes(), 0u);
  EmitTrace(&o, 0, 50);
  const size_t one = o.pipeline()->retained_bytes();
  EXPECT_GT(one, 0u);
  EmitTrace(&o, 100, 50);
  EXPECT_GT(o.pipeline()->retained_bytes(), one);
}

// ------------------------------------------------- sampler properties

TEST(SamplerPropertyTest, ImportantTracesAlwaysRetainedAcrossChaosSeeds) {
  bool saw_important = false;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SamplingPipeline::Stats stats;
    RunFaultyWorld(seed, /*head_rate=*/0.02, &stats);
    EXPECT_EQ(stats.important_retained, stats.important_seen)
        << "seed " << seed;
    if (stats.important_seen > 0) saw_important = true;
  }
  EXPECT_TRUE(saw_important) << "chaos plans never produced an incident";
}

TEST(SamplerPropertyTest, SameSeedSampledExportsByteIdentical) {
  const std::string a = RunFaultyWorld(3, 0.05);
  const std::string b = RunFaultyWorld(3, 0.05);
  const std::string c = RunFaultyWorld(4, 0.05);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --------------------------------------------------------------- flame

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t trace,
              const std::string& name, SimTime start, SimTime end,
              const std::string& cat = "") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.module = "t";
  s.start_us = start;
  s.end_us = end;
  if (!cat.empty()) s.attrs.Set(kCategoryAttr, cat);
  return s;
}

TEST(FlameTest, SelfTimesSumToRootWallTimeOnRandomTrees) {
  Rng rng(99);
  FlameProfile flame;
  SimDuration total_roots = 0;
  for (int t = 1; t <= 50; ++t) {
    std::vector<Span> spans;
    const SimDuration root_dur = 100 + SimDuration(rng.NextBounded(900));
    spans.push_back(
        MakeSpan(1, 0, uint64_t(t), "root", 0, SimTime(root_dur)));
    total_roots += root_dur;
    uint64_t next_id = 2;
    // Random children nested under random earlier spans, clipped inside
    // the parent's window; overlapping siblings are allowed on purpose.
    const int n = 1 + int(rng.NextBounded(6));
    for (int c = 0; c < n; ++c) {
      const size_t pi = size_t(rng.NextBounded(spans.size()));
      const Span& parent = spans[pi];
      if (parent.end_us - parent.start_us < 2) continue;
      const SimTime lo =
          parent.start_us +
          SimTime(rng.NextBounded(
              uint64_t(parent.end_us - parent.start_us - 1)));
      const SimTime hi =
          lo + 1 + SimTime(rng.NextBounded(uint64_t(parent.end_us - lo)));
      const char* cats[] = {"exec", "queue", "shuffle", ""};
      spans.push_back(MakeSpan(next_id, parent.id, uint64_t(t),
                               "c" + std::to_string(c), lo, hi,
                               cats[rng.NextBounded(4)]));
      ++next_id;
    }
    flame.FoldTrace(spans);
  }
  SimDuration total_self = 0;
  for (const auto& [path, stat] : flame.paths()) total_self += stat.self_us;
  EXPECT_EQ(total_self, total_roots);
}

TEST(FlameTest, ByRootBreakdownMatchesAnalyzeCriticalPath) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  auto root = tracer.EmitSpan("req", "t", {}, 0, 100);
  tracer.EmitSpan("queue", "t", root, 0, 30, {{kCategoryAttr, "queue"}});
  tracer.EmitSpan("exec", "t", root, 30, 90, {{kCategoryAttr, "exec"}});
  auto oracle = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(oracle.ok());

  FlameProfile flame;
  flame.FoldTrace(tracer.spans());
  const auto& agg = flame.by_root().at("req");
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.breakdown.total_us, oracle->total_us);
  for (size_t c = 0; c < kCategoryCount; ++c) {
    EXPECT_EQ(agg.breakdown.by_category[c], oracle->by_category[c]);
  }
}

TEST(FlameTest, PathKeysAreSemicolonJoinedFromGroupRoot) {
  FlameProfile flame;
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 0, 1, "a", 0, 100));
  spans.push_back(MakeSpan(2, 1, 1, "b", 10, 60));
  spans.push_back(MakeSpan(3, 2, 1, "c", 20, 40));
  flame.FoldTrace(spans);
  EXPECT_TRUE(flame.paths().count("a"));
  EXPECT_TRUE(flame.paths().count("a;b"));
  EXPECT_TRUE(flame.paths().count("a;b;c"));
  EXPECT_EQ(flame.paths().at("a;b;c").self_us, 20);
  EXPECT_EQ(flame.paths().at("a;b").self_us, 30);  // 50 minus c's 20
  EXPECT_EQ(flame.paths().at("a").self_us, 50);
}

TEST(FlameTest, TopKBySelfIsDeterministicWithLexicalTieBreak) {
  FlameProfile flame;
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 0, 1, "root", 0, 100));
  spans.push_back(MakeSpan(2, 1, 1, "bb", 0, 40));
  spans.push_back(MakeSpan(3, 1, 1, "aa", 40, 80));
  flame.FoldTrace(spans);
  auto top = flame.TopKBySelf(2);
  ASSERT_EQ(top.size(), 2u);
  // bb and aa both have 40us self; the tie breaks lexicographically.
  EXPECT_EQ(top[0].first, "root;aa");
  EXPECT_EQ(top[1].first, "root;bb");
}

TEST(FlameTest, AggregatesIdenticalRegardlessOfSamplingRate) {
  auto run = [](double head_rate) {
    sim::Simulation sim;
    Observability o(&sim);
    EXPECT_TRUE(o.EnableScale(Config(head_rate)));
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      EmitTrace(&o, SimTime(i) * 1000, 50 + SimDuration(rng.NextBounded(100)));
    }
    return FormatRootAggregates(o.flame()->by_root()) +
           o.flame()->ExportText();
  };
  EXPECT_EQ(run(1.0), run(0.05));
  EXPECT_EQ(run(1.0), run(0.0));
}

// ----------------------------------------------------------------- slo

SloObjective Availability(const std::string& name, double target,
                          std::vector<BurnRatePolicy> policies) {
  SloObjective o;
  o.name = name;
  o.module = "svc";
  o.target = target;
  o.policies = std::move(policies);
  return o;
}

TEST(SloTest, BurnRateIsBadFractionOverBudget) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.99, {{"page", 1000, 100, 1e9}}));
  for (int i = 0; i < 90; ++i) slo.Record("svc", SimTime(i), 10, true);
  for (int i = 90; i < 100; ++i) slo.Record("svc", SimTime(i), 10, false);
  // 10 bad / 100 events over the window, budget 0.01 -> burn 10.
  EXPECT_NEAR(slo.BurnRate("a", 1000, 99), 10.0, 1e-9);
  EXPECT_EQ(slo.TotalEvents("a"), 100u);
  EXPECT_EQ(slo.BadEvents("a"), 10u);
}

TEST(SloTest, LatencyObjectiveCountsSlowAsBad) {
  SloEngine slo;
  SloObjective o;
  o.name = "lat";
  o.module = "svc";
  o.target = 0.9;
  o.latency_budget_us = 100;
  slo.AddObjective(std::move(o));
  slo.Record("svc", 0, 50, true);    // good
  slo.Record("svc", 1, 150, true);   // ok but slow -> bad
  slo.Record("svc", 2, 50, false);   // failed -> bad
  EXPECT_EQ(slo.BadEvents("lat"), 2u);
  EXPECT_EQ(slo.SlowBudgetFor("svc"), 100);
  EXPECT_EQ(slo.SlowBudgetFor("other"), -1);
}

TEST(SloTest, MultiWindowAlertRequiresBothWindowsBurning) {
  SloEngine slo;
  // Long 1000us, short 100us, threshold 5 (target 0.99 -> 5% bad fires).
  slo.AddObjective(Availability("a", 0.99, {{"page", 1000, 100, 5.0}}));
  // An incident: both windows burn -> one rising edge.
  for (int i = 0; i < 20; ++i) slo.Record("svc", SimTime(i), 10, false);
  EXPECT_TRUE(slo.IsFiring("a", "page"));
  // The incident stops. The long window still burns far above threshold,
  // but the short window has drained -> the alert clears. This is the
  // multi-window rule: significance alone (long) does not hold the page
  // once the problem stopped happening (short).
  for (int i = 0; i < 40; ++i) {
    slo.Record("svc", SimTime(420 + i), 10, true);
  }
  EXPECT_GE(slo.BurnRate("a", 1000, 459), 5.0);
  EXPECT_LT(slo.BurnRate("a", 100, 459), 5.0);
  EXPECT_FALSE(slo.IsFiring("a", "page"));
  // Exactly one rising and one falling edge were logged.
  size_t rising = 0;
  size_t falling = 0;
  for (const AlertEvent& a : slo.alerts()) {
    (a.firing ? rising : falling) += 1;
  }
  EXPECT_EQ(rising, 1u);
  EXPECT_EQ(falling, 1u);
}

TEST(SloTest, WindowBoundaryExcludesEventsExactlyWindowOld) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.9, {{"page", 100, 10, 1e9}}));
  slo.Record("svc", 0, 10, false);
  slo.Record("svc", 50, 10, true);
  // Window (now-100, now] at now=100 excludes the t=0 bad event.
  EXPECT_DOUBLE_EQ(slo.BurnRate("a", 100, 100), 0.0);
  // At now=99 the t=0 event is still inside: 1 bad / 2 events.
  EXPECT_DOUBLE_EQ(slo.BurnRate("a", 100, 99), 5.0);
}

TEST(SloTest, BudgetExhaustionClampsAtZero) {
  SloEngine slo;
  slo.AddObjective(Availability("a", 0.9, {}));
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 1.0);
  for (int i = 0; i < 9; ++i) slo.Record("svc", SimTime(i), 10, true);
  slo.Record("svc", 9, 10, false);
  // 1 bad of 10 with 10% budget: exactly exhausted.
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 0.0);
  slo.Record("svc", 10, 10, false);
  EXPECT_DOUBLE_EQ(slo.BudgetRemaining("a"), 0.0);  // clamped, not negative
}

TEST(SloTest, ExportTextIsDeterministic) {
  auto build = [] {
    SloEngine slo;
    slo.AddObjective(Availability("a", 0.99, {{"page", 100, 10, 2.0}}));
    for (int i = 0; i < 20; ++i) {
      slo.Record("svc", SimTime(i), 10, i % 4 != 0);
    }
    return slo.ExportText();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_NE(a.find("module=svc"), std::string::npos);
  EXPECT_NE(a.find("alert a/page FIRING"), std::string::npos);
}

// ------------------------------------------------------- observability

std::string Section(const std::string& all, const std::string& header) {
  const size_t start = all.find(header);
  if (start == std::string::npos) return "";
  const size_t body = start + header.size();
  const size_t end = all.find("== ", body);
  return all.substr(body, end == std::string::npos ? std::string::npos
                                                   : end - body);
}

TEST(ObservabilityTest, ExportAllHasCriticalPathSectionInRetainMode) {
  sim::Simulation sim;
  Observability o(&sim);  // no scale layer: legacy retain mode
  auto root = o.tracer.EmitSpan("req", "svc", {}, 0, 100);
  o.tracer.EmitSpan("exec", "svc", root, 0, 80, {{kCategoryAttr, "exec"}});
  const std::string all = o.ExportAll();
  const std::string section = Section(all, "== critical-path ==\n");
  EXPECT_NE(section.find("req count=1"), std::string::npos);
  EXPECT_NE(section.find("exec="), std::string::npos);
}

TEST(ObservabilityTest, CriticalPathSectionIdenticalRetainVsStream) {
  auto run = [](bool scale) {
    sim::Simulation sim;
    Observability o(&sim);
    if (scale) {
      EXPECT_TRUE(o.EnableScale(Config(1.0)));
    }
    Rng rng(11);
    for (int i = 0; i < 25; ++i) {
      const SimTime start = SimTime(i) * 500;
      auto root = o.tracer.StartSpanAt("req", "svc", {}, start);
      const SimDuration q = SimDuration(rng.NextBounded(40));
      const SimDuration e = 20 + SimDuration(rng.NextBounded(60));
      o.tracer.EmitSpan("queue", "svc", root, start, start + q,
                        {{kCategoryAttr, "queue"}});
      o.tracer.EmitSpan("exec", "svc", root, start + q, start + q + e,
                        {{kCategoryAttr, "exec"}});
      o.tracer.EndSpanAt(root, start + q + e);
    }
    o.Flush();
    return Section(o.ExportAll(), "== critical-path ==\n");
  };
  const std::string retain = run(false);
  const std::string stream = run(true);
  EXPECT_FALSE(retain.empty());
  EXPECT_EQ(retain, stream);
}

TEST(ObservabilityTest, ExportAllScaleSectionsPresent) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(1.0);
  cfg.objectives.push_back(Availability("a", 0.99, {}));
  cfg.objectives.back().module = "svc";
  ASSERT_TRUE(o.EnableScale(cfg));
  EmitTrace(&o, 0, 50);
  o.Flush();
  const std::string all = o.ExportAll();
  EXPECT_NE(all.find("== sampler ==\n"), std::string::npos);
  EXPECT_NE(all.find("== flame ==\n"), std::string::npos);
  EXPECT_NE(all.find("== slo ==\n"), std::string::npos);
  EXPECT_NE(Section(all, "== sampler ==\n").find("traces_retained 1"),
            std::string::npos);
}

TEST(ObservabilityTest, EnableScaleRefusedAfterSpansEmitted) {
  sim::Simulation sim;
  Observability o(&sim);
  o.tracer.EmitSpan("req", "svc", {}, 0, 10);
  EXPECT_FALSE(o.EnableScale(Config(1.0)));
}

// ------------------------------------------------ flame differential

/// The attribution algorithm before the scratch-taking rewrite (id-keyed
/// depth map, fresh vectors per call), verbatim: the reference the
/// interned flame fold is checked against.
Result<TraceAttribution> RefAttributeTrace(const std::vector<Span>& spans,
                                           uint64_t root_span_id) {
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.id == root_span_id) {
      root = &s;
      break;
    }
  }
  if (root == nullptr) {
    return Status::NotFound("no span with id " + std::to_string(root_span_id));
  }
  if (!root->ended()) {
    return Status::FailedPrecondition("root span " +
                                      std::to_string(root_span_id) +
                                      " is still open");
  }

  TraceAttribution out;
  out.breakdown.total_us = root->duration_us();
  out.self_us.assign(spans.size(), 0);
  if (out.breakdown.total_us == 0) return out;

  struct Interval {
    SimTime start;
    SimTime end;
    int depth;
    uint64_t id;
    size_t index;
    bool has_cat;
    Category cat;
  };
  std::unordered_map<uint64_t, int> depth;
  depth.reserve(spans.size());
  depth[root_span_id] = 0;
  size_t root_index = 0;
  std::vector<Interval> intervals;
  std::vector<SimTime> bounds{root->start_us, root->end_us};
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id == root_span_id) {
      root_index = i;
      continue;
    }
    if (s.parent == 0) continue;
    const auto dit = depth.find(s.parent);
    if (dit == depth.end()) continue;
    depth[s.id] = dit->second + 1;
    if (!s.ended()) continue;
    const auto it = s.attrs.find(kCategoryAttr);
    const auto cat = it != s.attrs.end() ? ParseCategory(it->second)
                                         : std::nullopt;
    const SimTime lo = std::max(s.start_us, root->start_us);
    const SimTime hi = std::min(s.end_us, root->end_us);
    if (hi <= lo) continue;
    intervals.push_back({lo, hi, depth[s.id], s.id, i, cat.has_value(),
                         cat.value_or(Category::kOther)});
    bounds.push_back(lo);
    bounds.push_back(hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const SimTime lo = bounds[i];
    const SimTime hi = bounds[i + 1];
    const Interval* best_cat = nullptr;
    const Interval* best_any = nullptr;
    for (const Interval& iv : intervals) {
      if (iv.start > lo || iv.end < hi) continue;
      const bool deeper_any =
          best_any == nullptr || iv.depth > best_any->depth ||
          (iv.depth == best_any->depth && iv.id < best_any->id);
      if (deeper_any) best_any = &iv;
      if (!iv.has_cat) continue;
      if (best_cat == nullptr || iv.depth > best_cat->depth ||
          (iv.depth == best_cat->depth && iv.id < best_cat->id)) {
        best_cat = &iv;
      }
    }
    const Category cat =
        best_cat != nullptr ? best_cat->cat : Category::kOther;
    out.breakdown.by_category[static_cast<size_t>(cat)] += hi - lo;
    out.self_us[best_any != nullptr ? best_any->index : root_index] += hi - lo;
  }
  return out;
}

/// The string-path flame fold before path interning, verbatim.
struct RefFlame {
  void FoldTrace(const std::vector<Span>& spans) {
    if (spans.empty()) return;
    ++folded_traces_;

    std::unordered_set<uint64_t> present;
    present.reserve(spans.size());
    for (const Span& s : spans) present.insert(s.id);

    std::unordered_map<uint64_t, const std::string*> path_of;
    std::vector<std::string> paths(spans.size());
    std::vector<uint64_t> group_roots;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const bool is_root = s.parent == 0 || !present.count(s.parent);
      if (is_root) {
        paths[i] = s.name;
        group_roots.push_back(s.id);
      } else {
        auto it = path_of.find(s.parent);
        paths[i] = it != path_of.end() ? *it->second + ";" + s.name : s.name;
      }
      path_of[s.id] = &paths[i];
    }

    std::vector<SimDuration> self(spans.size(), 0);
    for (uint64_t root_id : group_roots) {
      auto attributed = RefAttributeTrace(spans, root_id);
      if (!attributed.ok()) continue;
      for (size_t i = 0; i < spans.size(); ++i) {
        self[i] += attributed->self_us[i];
      }
      const Span* root = nullptr;
      for (const Span& s : spans) {
        if (s.id == root_id) root = &s;
      }
      RootAggregate& agg = by_root_[root->name];
      ++agg.count;
      agg.breakdown.Accumulate(attributed->breakdown);
      const auto tenant = root->attrs.find(kTenantAttr);
      if (tenant != root->attrs.end()) {
        RootAggregate& tagg = by_tenant_[tenant->second];
        ++tagg.count;
        tagg.breakdown.Accumulate(attributed->breakdown);
      }
    }

    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (!s.ended()) continue;
      PathStat& stat = paths_[paths[i]];
      ++stat.count;
      stat.total_us += s.duration_us();
      stat.self_us += self[i];
      ++folded_spans_;
    }
  }

  std::vector<std::pair<std::string, PathStat>> TopKBySelf(size_t k) const {
    std::vector<std::pair<std::string, PathStat>> out(paths_.begin(),
                                                      paths_.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second.self_us != b.second.self_us) {
        return a.second.self_us > b.second.self_us;
      }
      return a.first < b.first;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::string ExportText() const {
    std::string out;
    char buf[96];
    for (const auto& [path, stat] : paths_) {
      std::snprintf(buf, sizeof(buf), " count=%llu total=%lld self=%lld\n",
                    static_cast<unsigned long long>(stat.count),
                    static_cast<long long>(stat.total_us),
                    static_cast<long long>(stat.self_us));
      out += path + buf;
    }
    return out;
  }

  std::map<std::string, PathStat> paths_;
  std::map<std::string, RootAggregate> by_root_;
  std::map<std::string, RootAggregate> by_tenant_;
  uint64_t folded_spans_ = 0;
  uint64_t folded_traces_ = 0;
};

std::string PathLines(const std::vector<std::pair<std::string, PathStat>>& v) {
  std::string out;
  for (const auto& [path, stat] : v) {
    out += path + " " + std::to_string(stat.count) + " " +
           std::to_string(stat.total_us) + " " +
           std::to_string(stat.self_us) + "\n";
  }
  return out;
}

std::string PathLines(const std::map<std::string, PathStat>& m) {
  return PathLines(
      std::vector<std::pair<std::string, PathStat>>(m.begin(), m.end()));
}

/// One random id-sorted span group, shaped like the sampler's finalized
/// groups and worse: several subtree roots, parents missing from the group
/// (late and async groups), unended spans, zero-duration roots, repeated
/// names, and "a;b", whose path collides with the chain "a" -> "b".
std::vector<Span> RandomGroup(Rng* rng, uint64_t trace, uint64_t* next_id) {
  static const char* const kNames[] = {"req", "exec", "queue", "a",
                                       "b",   "a;b",  "exec"};
  static const char* const kCats[] = {"exec",  "queue", "cold", "shuffle",
                                      "retry", "bogus", ""};
  static const char* const kTenants[] = {"t1", "t2", "t3"};
  std::vector<Span> spans;
  *next_id += 1 + rng->NextBounded(3);  // ids below the group: missing
  const uint64_t first_id = *next_id;
  const int n = 1 + int(rng->NextBounded(8));
  for (int k = 0; k < n; ++k) {
    Span s;
    s.id = (*next_id)++;
    if (rng->NextBounded(4) == 0) ++*next_id;  // an id gap
    s.trace = trace;
    s.name = kNames[rng->NextBounded(7)];
    s.module = "m";
    const uint64_t pick = rng->NextBounded(10);
    const Span* parent = nullptr;
    if (pick == 0 || (spans.empty() && pick < 5)) {
      s.parent = 0;
    } else if (pick == 1 || spans.empty()) {
      s.parent = 1 + rng->NextBounded(first_id - 1);  // absent from group
    } else {
      parent = &spans[rng->NextBounded(spans.size())];
      s.parent = parent->id;
    }
    s.start_us = parent != nullptr
                     ? parent->start_us + SimTime(rng->NextBounded(200))
                     : SimTime(rng->NextBounded(1000));
    switch (rng->NextBounded(8)) {
      case 0:
        s.end_us = s.start_us;  // zero duration
        break;
      case 1:
        s.end_us = s.start_us - 1;  // never ended
        break;
      default:
        s.end_us = s.start_us + 1 + SimTime(rng->NextBounded(300));
    }
    const char* cat = kCats[rng->NextBounded(7)];
    if (*cat != '\0') s.attrs.Set(kCategoryAttr, cat);
    if (rng->NextBounded(3) == 0) {
      s.attrs.Set(kTenantAttr, kTenants[rng->NextBounded(3)]);
    }
    if (rng->NextBounded(6) == 0) s.attrs.Set(kAsyncAttr, "1");
    spans.push_back(std::move(s));
  }
  return spans;
}

void ExpectSameFlame(const FlameProfile& got, const RefFlame& want,
                     const std::string& where) {
  EXPECT_EQ(PathLines(got.paths()), PathLines(want.paths_)) << where;
  EXPECT_EQ(FormatRootAggregates(got.by_root()),
            FormatRootAggregates(want.by_root_))
      << where;
  EXPECT_EQ(FormatRootAggregates(got.by_tenant()),
            FormatRootAggregates(want.by_tenant_))
      << where;
  for (size_t k : {size_t(1), size_t(4), size_t(1000)}) {
    EXPECT_EQ(PathLines(got.TopKBySelf(k)), PathLines(want.TopKBySelf(k)))
        << where << " k=" << k;
  }
  EXPECT_EQ(got.ExportText(), want.ExportText()) << where;
  EXPECT_EQ(got.folded_spans(), want.folded_spans_) << where;
  EXPECT_EQ(got.folded_traces(), want.folded_traces_) << where;
}

TEST(FlameDifferentialTest, InternedFoldMatchesStringPathReference) {
  FlameProfile flame;
  RefFlame ref;
  // A root named "a;b" and the chain a -> b render the same path; both
  // folds must land in one entry.
  std::vector<Span> collide;
  collide.push_back(MakeSpan(1, 0, 1, "a;b", 0, 10));
  flame.FoldTrace(collide);
  ref.FoldTrace(collide);
  collide = {MakeSpan(2, 0, 2, "a", 0, 30), MakeSpan(3, 2, 2, "b", 5, 25)};
  flame.FoldTrace(collide);
  ref.FoldTrace(collide);
  ExpectSameFlame(flame, ref, "collision");
  EXPECT_EQ(flame.paths().at("a;b").count, 2u);

  Rng rng(2024);
  uint64_t next_id = 10;
  for (uint64_t t = 3; t < 600 && !HasFailure(); ++t) {
    const std::vector<Span> group = RandomGroup(&rng, t, &next_id);
    flame.FoldTrace(group);
    ref.FoldTrace(group);
    ExpectSameFlame(flame, ref, "group " + std::to_string(t));
  }
  EXPECT_GT(flame.by_tenant().size(), 1u);
}

// ------------------------------------------------------- node recycling

TEST(RecyclingTest, RecycledTracerNodeCarriesNoStaleSpan) {
  // A sink that copies leaves the closed span intact in the tracer's node:
  // the worst case for the node's next occupant.
  struct CopySink : SpanSink {
    std::vector<Span> ended;
    void OnSpanStart(const Span& s) override {
      EXPECT_TRUE(s.attrs.empty()) << s.name;
    }
    void OnSpanEnd(Span&& s) override { ended.push_back(s); }
  } sink;
  sim::Simulation sim;
  Tracer tracer(&sim);
  ASSERT_TRUE(tracer.SetStoreMode(Tracer::StoreMode::kStream));
  tracer.SetSink(&sink);
  const TraceContext a = tracer.StartSpanAt("a", "m", {}, 0);
  const TraceContext a_child = tracer.EmitSpan("c", "m", a, 0, 5, {{"x", "1"}});
  tracer.SetAttr(a, "k", "v");
  tracer.SetAttr(a, kOutcomeAttr, kOutcomeError);
  tracer.EndSpanAt(a, 10);
  const TraceContext b = tracer.StartSpanAt("b", "n", {}, 20);
  const Span* open_b = tracer.Find(b.span_id);
  ASSERT_NE(open_b, nullptr);
  EXPECT_TRUE(open_b->attrs.empty());
  EXPECT_FALSE(open_b->ended());
  EXPECT_EQ(open_b->parent, 0u);
  tracer.EndSpanAt(b, 30);
  ASSERT_EQ(sink.ended.size(), 3u);
  EXPECT_EQ(sink.ended[0].id, a_child.span_id);
  EXPECT_EQ(sink.ended[1].attrs.size(), 2u);
  EXPECT_EQ(sink.ended[1].attrs.at("k"), "v");
  const Span& got_b = sink.ended[2];
  EXPECT_EQ(got_b.id, b.span_id);
  EXPECT_EQ(got_b.trace, b.trace_id);
  EXPECT_EQ(got_b.parent, 0u);
  EXPECT_EQ(got_b.name, "b");
  EXPECT_EQ(got_b.module, "n");
  EXPECT_EQ(got_b.start_us, 20);
  EXPECT_EQ(got_b.end_us, 30);
  EXPECT_TRUE(got_b.attrs.empty());
  EXPECT_EQ(tracer.stored_span_count(), 0u);
}

/// A retained-store rendering split into per-trace blocks, keyed by the
/// "trace=<id>" header.
std::map<std::string, std::string> TraceBlocks(const std::string& text) {
  std::map<std::string, std::string> blocks;
  size_t at = 0;
  while (at < text.size()) {
    size_t next = text.find("\ntrace=", at);
    next = next == std::string::npos ? text.size() : next + 1;
    const std::string block = text.substr(at, next - at);
    blocks[block.substr(0, block.find(' '))] = block;
    at = next;
  }
  return blocks;
}

TEST(RecyclingTest, RecycledPendingGroupCarriesNoStaleState) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(0.0, /*slow_us=*/500);
  cfg.objectives.push_back(Availability("svc-avail", 0.9, {}));
  cfg.objectives.back().per_tenant = true;
  ASSERT_TRUE(o.EnableScale(cfg));
  const SamplingPipeline* p = o.pipeline();

  // Trace 1: tenant, error outcome, slow root, seven spans, then a late
  // async follow-up that reuses (and returns) the same group node.
  const TraceContext r1 = o.tracer.StartSpanAt("req", "svc", {}, 0);
  o.tracer.SetAttr(r1, kTenantAttr, "t1");
  for (int i = 0; i < 6; ++i) {
    o.tracer.EmitSpan("exec", "svc", r1, i * 10, i * 10 + 5,
                      {{"i", std::to_string(i)}});
  }
  o.tracer.SetAttr(r1, kOutcomeAttr, kOutcomeError);
  o.tracer.EndSpanAt(r1, 1000);
  o.tracer.EmitSpan("deliver", "svc", r1, 1100, 1200, {{kAsyncAttr, "1"}});
  // Trace 2: healthy, fast and tenant-free, on the recycled group.
  const uint64_t t2 = EmitTrace(&o, 2000, 50);
  // Trace 3: fault; trace 4: healthy again.
  const uint64_t t3 = EmitTrace(&o, 3000, 50, kOutcomeFault);
  const uint64_t t4 = EmitTrace(&o, 4000, 50);

  EXPECT_EQ(p->DecisionFor(r1.trace_id), RetainReason::kError);
  EXPECT_EQ(p->DecisionFor(t2), RetainReason::kDropped);
  EXPECT_EQ(p->DecisionFor(t3), RetainReason::kFault);
  EXPECT_EQ(p->DecisionFor(t4), RetainReason::kDropped);
  EXPECT_EQ(p->stats().late_groups, 1u);
  EXPECT_EQ(p->stats().traces_finalized, 4u);
  EXPECT_EQ(p->stats().incomplete_traces, 0u);
  EXPECT_EQ(p->pending_span_count(), 0u);
  EXPECT_EQ(o.slo()->TotalEvents("svc-avail"), 4u);
  EXPECT_EQ(o.slo()->BadEvents("svc-avail"), 1u);
  EXPECT_EQ(o.slo()->TenantTotalEvents("svc-avail", "t1"), 1u);

  // Trace 5: root left open with a closed child; Flush finalizes it on a
  // recycled group as incomplete, without trace 4's spans.
  const TraceContext r5 = o.tracer.StartSpanAt("req", "svc", {}, 5000);
  o.tracer.EmitSpan("exec", "svc", r5, 5000, 5010, {});
  o.Flush();
  EXPECT_EQ(p->stats().incomplete_traces, 1u);
  EXPECT_EQ(p->stats().traces_finalized, 5u);
  EXPECT_EQ(o.flame()->folded_spans(), 8u + 2u * 3u + 1u);

  // The retained error trace kept exactly its own eight spans, attributes
  // intact, and the fault trace exactly its two.
  const std::map<std::string, std::string> blocks =
      TraceBlocks(p->ExportText());
  ASSERT_EQ(blocks.size(), 2u);
  const std::string t1 = "trace=" + std::to_string(r1.trace_id);
  const std::string& block = blocks.at(t1);
  EXPECT_EQ(block.substr(0, block.find('\n') + 1), t1 + " reason=error\n");
  EXPECT_EQ(std::count(block.begin(), block.end(), '\n'), 1 + 8) << block;
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(block.find(" i=" + std::to_string(i) + "\n"),
              std::string::npos)
        << block;
  }
  EXPECT_NE(block.find("outcome=error tenant=t1\n"), std::string::npos)
      << block;
  EXPECT_NE(block.find("async=1\n"), std::string::npos) << block;
  EXPECT_EQ(p->retained_span_count(), 8u + 2u);
}

/// Interleaved traces with per-span attributes, children left open past
/// their root's close, error/fault outcomes, tenants, late async
/// follow-ups and roots still open at Flush. Returns the full export.
std::string RunRecyclingWorkload(double head_rate) {
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig cfg = Config(head_rate, /*slow_us=*/400);
  cfg.objectives.push_back(Availability("svc-avail", 0.9, {}));
  cfg.objectives.back().per_tenant = true;
  EXPECT_TRUE(o.EnableScale(cfg));
  // A root closed while a child is still open is scored when the child
  // closes, after later roots: deliberate, and clamped identically at
  // every sampling rate.
  o.slo()->AllowClockRegression(true);
  Rng rng(23);
  std::vector<TraceContext> roots;
  std::vector<TraceContext> children;
  SimTime now = 0;
  for (int step = 0; step < 600; ++step) {
    now += 10;
    const std::string tag = std::to_string(step);
    switch (rng.NextBounded(6)) {
      case 0:
      case 1: {
        const TraceContext root = o.tracer.StartSpanAt("req", "svc", {}, now);
        if (rng.NextBounded(2) == 0) {
          o.tracer.SetAttr(root, kTenantAttr,
                           "t" + std::to_string(rng.NextBounded(3)));
        }
        roots.push_back(root);
        break;
      }
      case 2: {
        if (roots.empty()) break;
        const TraceContext parent = roots[rng.NextBounded(roots.size())];
        const TraceContext exec =
            o.tracer.StartSpanAt("exec", "svc", parent, now);
        for (uint64_t a = rng.NextBounded(3); a > 0; --a) {
          o.tracer.SetAttr(exec, "a" + std::to_string(a), tag);
        }
        if (rng.NextBounded(2) == 0) {
          o.tracer.SetAttr(exec, kCategoryAttr, "exec");
        }
        o.tracer.EndSpanAt(exec, now + 5);
        break;
      }
      case 3: {
        if (roots.empty()) break;
        const TraceContext parent = roots[rng.NextBounded(roots.size())];
        const TraceContext child =
            o.tracer.StartSpanAt("wait", "svc", parent, now);
        o.tracer.SetAttr(child, "w", tag);
        children.push_back(child);
        break;
      }
      case 4: {
        if (children.empty()) break;
        const size_t i = rng.NextBounded(children.size());
        o.tracer.EndSpanAt(children[i], now);
        children.erase(children.begin() + ptrdiff_t(i));
        break;
      }
      default: {
        if (roots.empty()) break;
        const size_t i = rng.NextBounded(roots.size());
        const TraceContext root = roots[i];
        roots.erase(roots.begin() + ptrdiff_t(i));
        const uint64_t outcome = rng.NextBounded(10);
        if (outcome == 0) o.tracer.SetAttr(root, kOutcomeAttr, kOutcomeError);
        if (outcome == 1) o.tracer.SetAttr(root, kOutcomeAttr, kOutcomeFault);
        o.tracer.SetAttr(root, "r", tag);
        o.tracer.EndSpanAt(root, now);
        if (rng.NextBounded(4) == 0) {
          o.tracer.EmitSpan("deliver", "svc", root, now, now + 3,
                            {{kAsyncAttr, "1"}, {"d", tag}});
        }
      }
    }
  }
  o.Flush();
  return o.ExportAll();
}

TEST(RecyclingTest, SampledExportMatchesFullRetentionTraceByTrace) {
  const std::string full = RunRecyclingWorkload(1.0);
  const std::map<std::string, std::string> full_blocks =
      TraceBlocks(Section(full, "== trace ==\n"));
  for (double rate : {0.0, 0.3}) {
    const std::string sampled = RunRecyclingWorkload(rate);
    const std::map<std::string, std::string> blocks =
        TraceBlocks(Section(sampled, "== trace ==\n"));
    EXPECT_GT(blocks.size(), 5u) << "rate " << rate;
    EXPECT_LT(blocks.size(), full_blocks.size()) << "rate " << rate;
    for (const auto& [trace, block] : blocks) {
      const auto it = full_blocks.find(trace);
      ASSERT_NE(it, full_blocks.end()) << trace;
      EXPECT_EQ(block, it->second) << "rate " << rate;
    }
    for (const char* header : {"== critical-path ==\n", "== flame ==\n",
                               "== tenants ==\n", "== slo ==\n"}) {
      EXPECT_EQ(Section(sampled, header), Section(full, header))
          << "rate " << rate << " " << header;
    }
  }
  EXPECT_NE(full.find("== tenants ==\n"), std::string::npos);
}

}  // namespace
}  // namespace taureau::obs
