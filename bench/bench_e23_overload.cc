// E23: overload protection (taureau::guard) — admission control, deadline
// propagation, retry budgets, and hedging.
//
// Part a is the tentpole experiment: a three-phase offered-load trace
// (warmup at 0.5x capacity, a burst at 0.5x..4x, recovery back at 0.5x)
// driven against the same platform under two client policies. The naive
// client resubmits on a 100ms timeout with no budget — at >=2x the burst
// backlog plus timeout-driven duplicates keep the recovery phase saturated
// long after offered load has dropped (the metastable failure the paper's
// retry storms produce). The guarded client passes its deadline to the
// platform, runs behind a bounded admission queue, and draws resubmits
// from a retry budget — it sheds the excess during the burst and returns
// to full goodput the moment the burst ends. Both cells run under an
// identical E20 fault plan (container kills + network-delay spikes).
//
// Part b: hedged requests on a heavy-tailed (lognormal) function at low
// utilization — the p95-tracked duplicate cuts p99 for a measured
// duplicate-work cost.
//
// Part c: the E21 critical path itemizes guard time — a queued request
// whose deadline lapses is charged to the "guard" category.
//
// Deterministic: the same binary run twice prints a byte-identical table
// (checked at the end by re-running a cell).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "cluster/cluster.h"
#include "common/stats.h"
#include "faas/platform.h"
#include "guard/guard.h"
#include "obs/critical_path.h"
#include "obs/observability.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

constexpr uint64_t kSeed = 23;
constexpr size_t kMachines = 8;
constexpr size_t kSlots = 8;  ///< max_concurrency = service capacity.
constexpr SimDuration kExecUs = 10 * kMillisecond;
constexpr SimDuration kPatienceUs = 100 * kMillisecond;  ///< Client deadline.
constexpr int kMaxChainAttempts = 8;

bool Small() { return std::getenv("TAUREAU_BENCH_SMALL") != nullptr; }
SimDuration WarmupUs() { return Small() ? 1 * kSecond : 2 * kSecond; }
SimDuration BurstUs() { return Small() ? 1500 * kMillisecond : 3 * kSecond; }
SimDuration RecoveryUs() { return Small() ? 2 * kSecond : 5 * kSecond; }
SimDuration TotalUs() { return WarmupUs() + BurstUs() + RecoveryUs(); }

/// Service capacity in requests/s: kSlots containers x 10ms fixed exec.
double CapacityPerSec() { return double(kSlots) * 1e6 / double(kExecUs); }

// ------------------------------------------------------------------ part a

struct LoadResult {
  uint64_t offered[3] = {0, 0, 0};  ///< Chains submitted per phase.
  uint64_t ontime[3] = {0, 0, 0};   ///< Chains succeeding within patience.
  uint64_t shed = 0;            ///< Attempts rejected by admission/deadline.
  uint64_t retries = 0;         ///< Client resubmits issued.
  uint64_t timeouts = 0;        ///< Attempts abandoned at the patience bound.
  uint64_t budget_denied = 0;   ///< Resubmits refused by the retry budget.
  uint64_t wasted = 0;          ///< OK completions the client no longer wanted.
  uint64_t gave_up = 0;         ///< Chains exhausting kMaxChainAttempts.
  double p50_ms = 0.0;          ///< Chain latency of on-time successes.
  double p99_ms = 0.0;

  double Goodput(int phase) const {
    return offered[phase] ? double(ontime[phase]) / double(offered[phase])
                          : 0.0;
  }
};

/// One offered-load cell. A "chain" is one logical client request: the
/// client submits, waits kPatienceUs, and on timeout or failure resubmits
/// (naive: unconditionally, up to kMaxChainAttempts; guarded: gated by the
/// shared retry budget). Goodput counts chains that succeed within the
/// client's patience, bucketed by submission phase.
LoadResult RunLoad(double burst_mult, bool guarded) {
  sim::Simulation sim;
  chaos::InjectorRegistry injectors(&sim);
  cluster::Cluster cluster(kMachines, {32000, 65536});

  faas::FaasConfig config;
  config.seed = kSeed;
  config.max_concurrency = kSlots;
  config.dispatch_median_us = 500;
  config.dispatch_sigma = 0.1;
  if (guarded) {
    config.enable_admission = true;
    config.admission.max_queue_depth = 2 * kSlots;
    config.admission.expected_service_us = kExecUs;
  }
  faas::FaasPlatform platform(&sim, &cluster, config);
  cluster.AttachChaos(&injectors);
  platform.AttachChaos(&injectors);

  guard::GuardConfig gcfg;
  gcfg.retry_budget.refill_ratio = 0.1;
  gcfg.retry_budget.initial_tokens = 10;
  gcfg.retry_budget.max_tokens = 50;
  guard::Guard guard(gcfg);
  if (guarded) platform.AttachGuard(&guard);

  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kExecUs, 0.0, 0.0};
  spec.init_us = 1 * kMillisecond;
  platform.RegisterFunction(spec);
  // Warm pool up front: the experiment measures overload dynamics, not
  // the t=0 cold-start ramp (E2's subject).
  platform.Prewarm("serve", kSlots);

  // The same fault plan hits both policies: container kills mid-flight
  // plus network-delay spikes, at E20's moderate intensity.
  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = TotalUs();
  plan_cfg.num_machines = kMachines;
  plan_cfg.container_kill_per_s = 1.0;
  plan_cfg.network_delay_per_s = 0.05;
  Rng plan_rng(kSeed + 1);
  injectors.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));

  LoadResult out;
  Histogram chain_e2e{double(kMinute)};

  struct Chain {
    SimTime first_submit = 0;
    int phase = 0;
    int attempts_left = kMaxChainAttempts;
    bool done = false;
  };

  struct Driver {
    sim::Simulation& sim;
    faas::FaasPlatform& platform;
    guard::Guard& guard;
    const bool guarded;
    LoadResult& out;
    Histogram& chain_e2e;

    void Submit(std::shared_ptr<Chain> chain) {
      const SimTime t0 = sim.Now();
      // Whichever of {terminal callback, client timeout} fires first acts
      // (completes the chain or drives the retry); the other only counts.
      auto acted = std::make_shared<bool>(false);
      guard::Deadline d = guarded ? guard::Deadline::In(t0, kPatienceUs)
                                  : guard::Deadline{};
      platform.Invoke(
          "serve", "req",
          [this, chain, acted](const faas::InvocationResult& r) {
            if (chain->done || *acted) {
              if (r.status.ok()) ++out.wasted;
              return;
            }
            *acted = true;
            if (r.status.ok()) {
              chain->done = true;
              ++out.ontime[chain->phase];
              chain_e2e.Add(double(sim.Now() - chain->first_submit));
            } else {
              if (r.status.IsResourceExhausted() ||
                  r.status.IsDeadlineExceeded()) {
                ++out.shed;
              }
              MaybeRetry(chain);
            }
          },
          {}, d);
      sim.Schedule(kPatienceUs, [this, chain, acted] {
        if (chain->done || *acted) return;
        *acted = true;
        ++out.timeouts;
        MaybeRetry(chain);
      });
    }

    void MaybeRetry(std::shared_ptr<Chain> chain) {
      if (--chain->attempts_left <= 0) {
        chain->done = true;
        ++out.gave_up;
        return;
      }
      if (guarded && !guard.retry_budget().TryAcquire()) {
        chain->done = true;
        ++out.budget_denied;
        return;
      }
      ++out.retries;
      Submit(chain);
    }
  };
  Driver driver{sim, platform, guard, guarded, out, chain_e2e};

  auto phase_of = [](SimTime t) {
    if (t < WarmupUs()) return 0;
    return t < WarmupUs() + BurstUs() ? 1 : 2;
  };
  auto schedule_phase = [&](SimTime start, SimDuration dur, double rate) {
    const SimDuration gap = SimDuration(1e6 / rate);
    for (SimTime t = start; t < start + dur; t += gap) {
      const int phase = phase_of(t);
      ++out.offered[phase];
      sim.ScheduleAt(t, [&driver, t, phase] {
        auto chain = std::make_shared<Chain>();
        chain->first_submit = t;
        chain->phase = phase;
        driver.Submit(chain);
      });
    }
  };
  schedule_phase(0, WarmupUs(), 0.5 * CapacityPerSec());
  schedule_phase(WarmupUs(), BurstUs(), burst_mult * CapacityPerSec());
  schedule_phase(WarmupUs() + BurstUs(), RecoveryUs(), 0.5 * CapacityPerSec());
  sim.Run();

  out.p50_ms = chain_e2e.P50() / double(kMillisecond);
  out.p99_ms = chain_e2e.P99() / double(kMillisecond);
  return out;
}

std::vector<std::string> LoadRow(const char* policy, double mult,
                                 const LoadResult& r) {
  return {policy,
          bench::Fmt("%.1fx", mult),
          bench::FmtInt(int64_t(r.offered[0] + r.offered[1] + r.offered[2])),
          bench::Fmt("%.3f", r.Goodput(0)),
          bench::Fmt("%.3f", r.Goodput(1)),
          bench::Fmt("%.3f", r.Goodput(2)),
          bench::FmtInt(int64_t(r.shed)),
          bench::FmtInt(int64_t(r.retries)),
          bench::FmtInt(int64_t(r.budget_denied)),
          bench::FmtInt(int64_t(r.wasted)),
          bench::Fmt("%.1f", r.p99_ms)};
}

// ------------------------------------------------------------------ part b

struct HedgeResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t hedges = 0;
  uint64_t wins = 0;
  double wasted_ms = 0.0;  ///< Duplicate execution billed to losers.
  double extra_work_frac = 0.0;
};

/// Heavy-tailed function (lognormal exec, sigma 1.0) at ~25% utilization:
/// hedging duplicates the slowest ~5% after the tracked p95 delay.
HedgeResult RunHedge(bool hedged) {
  sim::Simulation sim;
  cluster::Cluster cluster(kMachines, {32000, 65536});
  faas::FaasConfig config;
  config.seed = kSeed;
  config.max_concurrency = 32;
  config.dispatch_median_us = 500;
  config.dispatch_sigma = 0.1;
  faas::FaasPlatform platform(&sim, &cluster, config);

  guard::GuardConfig gcfg;
  gcfg.hedge.delay_quantile = 0.95;
  gcfg.hedge.min_samples = 50;
  gcfg.hedge.default_delay_us = 50 * kMillisecond;
  gcfg.hedge.min_delay_us = 1 * kMillisecond;
  guard::Guard guard(gcfg);
  platform.AttachGuard(&guard);

  faas::FunctionSpec spec;
  spec.name = "tail";
  spec.exec = {faas::ExecTimeModel::Kind::kLogNormal, 8 * kMillisecond, 1.2,
               0.0};
  spec.init_us = 1 * kMillisecond;
  platform.RegisterFunction(spec);
  platform.Prewarm("tail", 32);

  const int n = Small() ? 600 : 4000;
  Histogram e2e{double(kMinute)};
  SimDuration exec_total = 0;
  bench::PaceArrivals(&sim, n, 2500, [&](int) {
    auto cb = [&](const faas::InvocationResult& r) {
      if (!r.status.ok()) return;
      e2e.Add(double(r.end_us - r.submit_us));
      exec_total += r.exec_us;
    };
    if (hedged) {
      platform.InvokeHedged("tail", "p", cb);
    } else {
      platform.Invoke("tail", "p", cb);
    }
  });
  sim.Run();

  const guard::GuardStats s = guard.stats();
  HedgeResult out;
  out.p50_ms = e2e.P50() / double(kMillisecond);
  out.p99_ms = e2e.P99() / double(kMillisecond);
  out.hedges = s.hedges_launched;
  out.wins = s.hedge_wins;
  out.wasted_ms = double(guard.hedge_wasted_us()) / double(kMillisecond);
  out.extra_work_frac =
      exec_total > 0 ? double(guard.hedge_wasted_us()) / double(exec_total)
                     : 0.0;
  return out;
}

// ------------------------------------------------------------------ part c

/// Traces one request whose deadline lapses while queued behind a long
/// run, then itemizes its critical path: the doomed wait is charged to
/// the "guard" category (E21 integration).
void CriticalPathTable() {
  sim::Simulation sim;
  obs::Observability o(&sim);
  cluster::Cluster cluster(2, {32000, 65536});
  faas::FaasConfig config;
  config.seed = kSeed;
  config.max_concurrency = 1;
  config.enable_admission = true;
  faas::FaasPlatform platform(&sim, &cluster, config);
  guard::Guard guard;
  platform.AttachGuard(&guard);
  platform.AttachObservability(&o);
  guard.AttachObservability(&o);

  faas::FunctionSpec spec;
  spec.name = "slow";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 100 * kMillisecond, 0.0,
               0.0};
  spec.init_us = 1 * kMillisecond;
  platform.RegisterFunction(spec);

  platform.Invoke("slow", "a", [](const faas::InvocationResult&) {});
  // Submitted once "a" holds the only slot. Admitted (expected wait ~10ms
  // prior < 30ms budget) but doomed: the slot frees only after the 100ms
  // run, so the queued wait is cancelled and charged to the guard.
  sim.ScheduleAt(10 * kMillisecond, [&] {
    platform.Invoke("slow", "b", [](const faas::InvocationResult&) {}, {},
                    guard::Deadline::In(sim.Now(), 30 * kMillisecond));
  });
  sim.Run();

  // The two invokes each open a root trace; pick the one whose critical
  // path carries guard time (the cancelled request).
  bench::Table table({"category", "time", "fraction"});
  for (uint64_t root : o.tracer.Roots()) {
    auto bd = obs::AnalyzeCriticalPath(o.tracer, root);
    if (!bd.ok() || bd->Get(obs::Category::kGuard) == 0) continue;
    for (size_t c = 0; c < obs::kCategoryCount; ++c) {
      const auto cat = obs::Category(c);
      if (bd->Get(cat) == 0) continue;
      table.AddRow({std::string(obs::CategoryName(cat)),
                    FormatDuration(double(bd->Get(cat))),
                    bench::Fmt("%.3f", bd->Fraction(cat))});
    }
    break;
  }
  table.Print(
      "E23c: critical path of a deadline-cancelled request — doomed queue "
      "time lands in the guard category");
}

// -------------------------------------------------------------- experiment

void RunExperiment() {
  std::vector<double> mults = {0.5, 1.0, 2.0, 4.0};
  LoadResult naive2x, guard2x;
  {
    bench::Table table({"policy", "burst load", "offered", "warmup goodput",
                        "burst goodput", "recovery goodput", "shed",
                        "retries", "budget denied", "wasted", "p99 (ms)"});
    for (double m : mults) {
      LoadResult r = RunLoad(m, /*guarded=*/false);
      if (m == 2.0) naive2x = r;
      table.AddRow(LoadRow("naive", m, r));
    }
    for (double m : mults) {
      LoadResult r = RunLoad(m, /*guarded=*/true);
      if (m == 2.0) guard2x = r;
      table.AddRow(LoadRow("guard", m, r));
    }
    table.Print(
        "E23a: load sweep under faults (capacity 800 req/s, 100ms client "
        "patience) — unbudgeted timeout retries keep recovery saturated "
        "(metastable); guard sheds the burst and recovers immediately");
  }

  {
    bench::Table table({"mode", "p50 (ms)", "p99 (ms)", "hedges", "hedge wins",
                        "duplicate work (ms)", "extra work"});
    HedgeResult plain = RunHedge(false);
    HedgeResult hedged = RunHedge(true);
    auto row = [](const char* name, const HedgeResult& r) {
      return std::vector<std::string>{
          name,
          bench::Fmt("%.2f", r.p50_ms),
          bench::Fmt("%.2f", r.p99_ms),
          bench::FmtInt(int64_t(r.hedges)),
          bench::FmtInt(int64_t(r.wins)),
          bench::Fmt("%.1f", r.wasted_ms),
          bench::Fmt("%.1f%%", 100.0 * r.extra_work_frac)};
    };
    table.AddRow(row("plain", plain));
    table.AddRow(row("hedged (p95 delay)", hedged));
    table.Print(
        "E23b: hedged requests on a heavy-tailed function (lognormal exec, "
        "~25% utilization) — p99 cut for a bounded duplicate-work cost");
    bench::JsonReport::Instance().Note(
        "hedge_p99_cut",
        bench::Fmt("%.1f%%",
                   plain.p99_ms > 0
                       ? 100.0 * (plain.p99_ms - hedged.p99_ms) / plain.p99_ms
                       : 0.0));
  }

  CriticalPathTable();

  // Acceptance: at 2x the naive client stays collapsed through recovery
  // while the guard restores >=90% goodput with a bounded admitted p99.
  const bool pass = naive2x.Goodput(2) < 0.5 && guard2x.Goodput(2) >= 0.9 &&
                    guard2x.p99_ms <= double(kPatienceUs) / kMillisecond;
  bench::JsonReport::Instance().Note(
      "acceptance",
      std::string(pass ? "PASS" : "FAIL") +
          bench::Fmt(" naive_recovery=%.3f", naive2x.Goodput(2)) +
          bench::Fmt(" guard_recovery=%.3f", guard2x.Goodput(2)) +
          bench::Fmt(" guard_p99_ms=%.1f", guard2x.p99_ms));

  // Determinism: the same cell run twice must agree exactly.
  LoadResult again = RunLoad(2.0, /*guarded=*/true);
  const bool same = LoadRow("guard", 2.0, again) == LoadRow("guard", 2.0, guard2x);
  bench::JsonReport::Instance().Note("determinism", same ? "yes" : "BROKEN");
}

// --------------------------------------------------------- microbenchmarks

void BM_AdmissionAdmit(benchmark::State& state) {
  guard::AdmissionConfig cfg;
  cfg.max_queue_depth = 64;
  guard::AdmissionController admission(cfg);
  guard::Deadline d = guard::Deadline::In(0, 100 * kMillisecond);
  size_t depth = 0;
  for (auto _ : state) {
    depth = (depth + 1) % 80;
    benchmark::DoNotOptimize(admission.Admit(depth, 8, d, 1000));
  }
}
BENCHMARK(BM_AdmissionAdmit);

void BM_RetryBudgetCycle(benchmark::State& state) {
  guard::RetryBudget budget({.refill_ratio = 0.1});
  for (auto _ : state) {
    budget.RecordSuccess();
    benchmark::DoNotOptimize(budget.TryAcquire());
  }
}
BENCHMARK(BM_RetryBudgetCycle);

void BM_HedgeTrackerDelay(benchmark::State& state) {
  guard::HedgeDelayTracker tracker;
  SimDuration v = 0;
  for (auto _ : state) {
    v = (v + 997) % (50 * kMillisecond);
    tracker.Record(v);
    benchmark::DoNotOptimize(tracker.Delay());
  }
}
BENCHMARK(BM_HedgeTrackerDelay);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
