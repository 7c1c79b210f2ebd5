#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "alloc_counter.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "ctrl/config.h"
#include "faas/platform.h"
#include "guard/guard.h"
#include "obs/observability.h"
#include "reuse/reuse.h"
#include "sim/simulation.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace taureau;

constexpr double kPi = 3.14159265358979323846;
constexpr size_t kTenants = 50;
constexpr int64_t kMachineCpu = 8000;  ///< 16 containers of 500 millicores.
constexpr int64_t kMachineMemMb = 16384;

/// SeBS-like exec classes; every tenant owns one function of each.
struct ExecClass {
  const char* name;
  double share;  ///< Share of fleet_day requests.
  SimDuration median_us;
  double sigma;
  SimDuration init_us;
  SimDuration timeout_us;
  SimDuration budget_us;
  SimDuration deadline_us;
  bool hedged;
};
constexpr ExecClass kClasses[] = {
    {"web", 0.5, 5 * kMillisecond, 0.4, 50 * kMillisecond,
     100 * kMillisecond, 100 * kMillisecond, 1 * kSecond, true},
    {"etl", 0.2, 20 * kMillisecond, 0.5, 150 * kMillisecond,
     200 * kMillisecond, 300 * kMillisecond, 3 * kSecond, false},
    {"inference", 0.2, 50 * kMillisecond, 0.6, 400 * kMillisecond,
     250 * kMillisecond, 600 * kMillisecond, 5 * kSecond, false},
    {"montecarlo", 0.1, 100 * kMillisecond, 0.5, 200 * kMillisecond,
     400 * kMillisecond, 1 * kSecond, 8 * kSecond, false},
};
constexpr size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

void MakeFunctions(FleetInput* in) {
  for (size_t t = 0; t < kTenants; ++t) {
    char tenant[16];
    std::snprintf(tenant, sizeof(tenant), "tenant-%02zu", t);
    in->tenants.push_back(tenant);
    for (const ExecClass& c : kClasses) {
      FunctionDef f;
      f.name = std::string(tenant) + "/" + c.name;
      f.tenant = tenant;
      f.median_us = c.median_us;
      f.sigma = c.sigma;
      f.init_us = c.init_us;
      f.timeout_us = c.timeout_us;
      f.budget_us = c.budget_us;
      f.deadline_us = c.deadline_us;
      f.hedged = c.hedged;
      in->functions.push_back(std::move(f));
    }
  }
}

/// Tenant index for each Zipf popularity rank: a seeded permutation, so
/// which tenant is hottest changes with the seed.
std::vector<uint32_t> RankToIndex(size_t n, Rng* rng) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng->Shuffle(&order);
  return order;
}

void FinishInput(FleetInput* in) {
  std::stable_sort(in->requests.begin(), in->requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.at_us < b.at_us;
                   });
  std::unordered_set<std::string> seen;
  uint64_t repeats = 0;
  for (const Request& r : in->requests) {
    if (!seen.insert(in->functions[r.function].name + '\x1f' + r.payload)
             .second) {
      ++repeats;
    }
  }
  in->distinct_keys = seen.size();
  in->repeat_share =
      in->requests.empty() ? 0 : double(repeats) / double(in->requests.size());
}

}  // namespace

FleetInput MakeFleetDay(uint64_t seed, double scale) {
  FleetInput in;
  in.seed = seed;
  in.machines = 64;
  in.container_kills_per_s = 2.0;
  MakeFunctions(&in);

  // A compressed day: diurnal sinusoid from a night trough (0.5x) to a
  // midday peak (1.5x), plus one flash crowd on a mid-popularity tenant.
  const double base_rate = 1500.0;  // req/s
  in.horizon_us = SimTime(16 * kSecond * scale);
  in.push_at_us = in.horizon_us / 2;
  Rng rng(HashCombine(seed, 0xF1EE7));
  const std::vector<uint32_t> tenant_of_rank = RankToIndex(kTenants, &rng);
  const ZipfGenerator zipf(kTenants, 0.9);
  auto make_payload = [&](uint32_t fn, size_t serial) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"fn\":%u,\"req\":%zu,\"seed\":%llu,\"blob\":\"%016llx\"}",
                  fn, serial, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(rng.NextU64()));
    return std::string(buf);
  };
  size_t serial = 0;
  for (SimTime t = 0;;) {
    const double phase = 2 * kPi * double(t) / double(in.horizon_us);
    const double rate = base_rate * (1.0 - 0.5 * std::cos(phase));
    t += std::max<SimDuration>(1, SimDuration(rng.NextExponential(rate) *
                                              double(kSecond)));
    if (t >= in.horizon_us) break;
    const uint32_t tenant = tenant_of_rank[zipf.Next(&rng)];
    double u = rng.NextDouble();
    size_t cls = 0;
    while (cls + 1 < kNumClasses && u >= kClasses[cls].share) {
      u -= kClasses[cls].share;
      ++cls;
    }
    const uint32_t fn = uint32_t(tenant * kNumClasses + cls);
    in.requests.push_back({t, fn, make_payload(fn, serial++)});
  }
  // Flash crowd: the base rate again for 1/20 of the day, all on the web
  // function of the rank-20 tenant.
  const uint32_t flash_fn = uint32_t(tenant_of_rank[20] * kNumClasses);
  const SimTime flash_end = in.horizon_us * 3 / 4;
  for (SimTime t = in.horizon_us * 7 / 10;;) {
    t += std::max<SimDuration>(
        1, SimDuration(rng.NextExponential(base_rate) * double(kSecond)));
    if (t >= flash_end) break;
    in.requests.push_back({t, flash_fn, make_payload(flash_fn, serial++)});
  }
  FinishInput(&in);
  return in;
}

FleetInput MakeHotKeys(uint64_t seed, double scale) {
  FleetInput in;
  in.seed = seed;
  in.machines = 4;
  in.container_kills_per_s = 2.0;
  MakeFunctions(&in);

  // 64 keys: four payloads for each inference and Monte Carlo function of
  // the first 8 tenants (memoized expensive calls). The catalogue and its
  // popularity order are fixed; the seed drives the stream drawn from it.
  constexpr size_t kKeys = 64;
  constexpr size_t kKeyTenants = 8;
  std::vector<uint32_t> key_fn(kKeys);
  std::vector<std::string> key_payload(kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    const size_t tenant = k % kKeyTenants;
    const size_t cls = 2 + (k / kKeyTenants) % 2;  // inference, montecarlo
    key_fn[k] = uint32_t(tenant * kNumClasses + cls);
    key_payload[k] = "{\"key\":" + std::to_string(k) + "}";
  }
  const ZipfGenerator zipf(kKeys, 1.1);

  // Offered load: 4x what the fleet could serve by executing every
  // request, given the popularity-weighted mean exec time of the keys.
  double mean_exec_s = 0, norm = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    const double p = 1.0 / std::pow(double(k + 1), 1.1);
    mean_exec_s += p * double(in.functions[key_fn[k]].median_us) / kSecond;
    norm += p;
  }
  mean_exec_s /= norm;
  const double slots = double(in.machines) * double(kMachineCpu / 500);
  const double rate = 4.0 * slots / mean_exec_s;
  const size_t count = size_t(40000 * scale);
  Rng rng(HashCombine(seed, 0x407));
  SimTime t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += std::max<SimDuration>(
        1, SimDuration(rng.NextExponential(rate) * double(kSecond)));
    const uint64_t key = zipf.Next(&rng);
    in.requests.push_back({t, key_fn[key], key_payload[key]});
  }
  in.horizon_us = t + 1;
  in.push_at_us = in.horizon_us / 2;
  FinishInput(&in);
  return in;
}

namespace {

/// One simulated world. Members are declared so that the platform is
/// destroyed before the layers it points at.
class World {
 public:
  World(const FleetInput& in, unsigned layers, SpanLog* log)
      : in_(in),
        log_(log),
        cluster_(in.machines, {kMachineCpu, kMachineMemMb}),
        outcomes_(in.requests.size()) {
    if (layers & kObs) {
      obs_ = std::make_unique<obs::Observability>(&sim_);
      obs::ScaleConfig scale;
      scale.sampler.head_rate = 0.05;
      scale.sampler.seed = 7;
      scale.sampler.max_retained_spans = size_t(1) << 16;
      // Per-tenant latency and availability objectives, each with a fast
      // (page) and a slow (ticket) multi-window burn policy.
      const std::vector<obs::BurnRatePolicy> policies = {
          {"page", 1 * kSecond, 100 * kMillisecond, 14.4},
          {"ticket", 2 * kSecond, 250 * kMillisecond, 3.0}};
      scale.objectives.push_back({.name = "faas-latency",
                                  .module = "faas",
                                  .target = 0.99,
                                  .latency_budget_us = 1 * kSecond,
                                  .policies = policies,
                                  .per_tenant = true,
                                  .max_tenant_series = 64});
      scale.objectives.push_back({.name = "faas-availability",
                                  .module = "faas",
                                  .target = 0.999,
                                  .latency_budget_us = -1,
                                  .policies = policies,
                                  .per_tenant = true,
                                  .max_tenant_series = 64});
      obs_->EnableScale(scale);
    }

    faas::FaasConfig config;
    config.seed = in.seed;
    config.retry = chaos::RetryPolicy::ExponentialJitter(3);
    config.rates.quantum_us = 1 * kMillisecond;
    config.enable_admission = (layers & kGuard) != 0;
    config.admission.max_queue_depth = 4096;
    config.admission.expected_service_us = 25 * kMillisecond;
    platform_ = std::make_unique<faas::FaasPlatform>(&sim_, &cluster_, config);
    if (obs_) platform_->AttachObservability(obs_.get());

    if (layers & kGuard) {
      guard::GuardConfig gcfg;
      gcfg.retry_budget = {.refill_ratio = 0.1,
                           .max_tokens = 200,
                           .initial_tokens = 50};
      guard_ = std::make_unique<guard::Guard>(gcfg);
      if (obs_) guard_->AttachObservability(obs_.get());
      platform_->AttachGuard(guard_.get());
    }
    if (layers & kReuse) {
      reuse::ReuseConfig rcfg;
      rcfg.cache.max_bytes = size_t(8) << 20;
      // Results stay fresh for 250ms: hot keys re-execute (warm) four
      // times a second and followers coalesce onto the refresh.
      rcfg.cache.ttl_us = 250 * kMillisecond;
      reuse_ = std::make_unique<reuse::ReuseLayer>(rcfg);
      if (obs_) reuse_->AttachObservability(obs_.get());
      platform_->AttachReuse(reuse_.get());
    }
    if (layers & kCtrl) {
      ctrl_ = std::make_unique<ctrl::ConfigService>(&sim_);
      if (obs_) ctrl_->AttachObservability(obs_.get());
      platform_->AttachControl(ctrl_.get());
      if (guard_) guard_->AttachControl(ctrl_.get());
      if (reuse_) reuse_->AttachControl(ctrl_.get());
      // The mid-run push: idle containers are now retired after 2s
      // instead of 10min, so cold tenants start paying cold starts.
      sim_.ScheduleAt(in.push_at_us, [this] {
        ScopedSpan span(log_, "ctrl.Push");
        ctrl_->Push("faas.keep_alive_us", ctrl::ConfigValue::Int(2 * kSecond));
      });
    }
    if (layers & kChaos) {
      chaos_ = std::make_unique<chaos::InjectorRegistry>(&sim_);
      if (obs_) chaos_->AttachObservability(obs_.get());
      cluster_.AttachChaos(chaos_.get());
      platform_->AttachChaos(chaos_.get());
      chaos::FaultPlanConfig plan;
      plan.horizon_us = in.horizon_us;
      plan.num_machines = in.machines;
      plan.container_kill_per_s = in.container_kills_per_s;
      Rng plan_rng(HashCombine(in.seed, 0xC4A05));
      chaos_->Arm(chaos::FaultPlan::Generate(plan, &plan_rng));
    }

    for (const FunctionDef& f : in.functions) {
      faas::FunctionSpec spec;
      spec.name = f.name;
      spec.tenant = f.tenant;
      spec.demand = {500, 256};
      spec.exec = {faas::ExecTimeModel::Kind::kLogNormal, f.median_us,
                   f.sigma, 0.0};
      spec.init_us = f.init_us;
      spec.timeout_us = f.timeout_us;
      spec.idempotent = true;
      spec.handler = [](const std::string& payload, faas::InvocationContext&) {
        char out[16];
        std::snprintf(out, sizeof(out), "r%08x",
                      unsigned(Fnv1a64(payload) & 0xffffffffu));
        return Result<std::string>(std::string(out));
      };
      (void)platform_->RegisterFunction(std::move(spec));
    }
    if (!in.requests.empty()) ScheduleArrival(0);
  }

  /// Runs the day in ten slices of simulated time, drains, then flushes
  /// and exports obs. Fills the host-cost fields of `out`. With `host`,
  /// the reference kernel runs before the first slice and after each one
  /// (outside the timed slices) to rescale each slice to the nominal host.
  void Run(FleetRun* out, HostSpeed* host) {
    SliceClock clock(host);
    const uint64_t allocs0 = AllocCount();
    for (int d = 0; d < 10; ++d) {
      out->decile_s[d] = clock.Slice([&] {
        {
          ScopedSpan span(log_, "sim.RunUntil");
          sim_.RunUntil(in_.horizon_us * (d + 1) / 10);
        }
        if (d == 9) {
          ScopedSpan span(log_, "sim.Run");
          sim_.Run();
        }
      });
    }
    if (obs_) {
      clock.Slice([&] {
        {
          ScopedSpan span(log_, "obs.Flush");
          obs_->Flush();
        }
        ScopedSpan span(log_, "obs.ExportAll");
        export_ = obs_->ExportAll();
      });
    }
    out->run_s = clock.wall_s();
    out->run_nominal_s = clock.nominal_s();
    out->allocs = AllocCount() - allocs0 - clock.probe_allocs();
  }

  void Collect(FleetRun* out) const;

 private:
  struct Outcome {
    uint8_t callbacks = 0;
    bool accepted = false;
    bool ok = false;
    uint8_t code = 0;
    uint8_t served_via = 0;
    uint8_t attempts = 0;
    SimTime end_us = 0;
    SimDuration e2e_us = 0;
    int64_t cost_nano = 0;
  };

  void ScheduleArrival(size_t i) {
    sim_.ScheduleAt(in_.requests[i].at_us, [this, i] { Arrive(i); });
  }

  void Arrive(size_t i) {
    const Request& rq = in_.requests[i];
    const FunctionDef& f = in_.functions[rq.function];
    const guard::Deadline deadline =
        guard::Deadline::In(sim_.Now(), f.deadline_us);
    faas::InvokeCallback cb = [this, i](const faas::InvocationResult& r) {
      OnResult(i, r);
    };
    const uint32_t span = log_->Begin("faas.Invoke");
    Result<uint64_t> id =
        f.hedged ? platform_->InvokeHedged(f.name, rq.payload, std::move(cb),
                                           {}, deadline)
                 : platform_->Invoke(f.name, rq.payload, std::move(cb), {},
                                     deadline);
    log_->End(span);
    if (id.ok()) {
      log_->SetRequest(span, *id);
      outcomes_[i].accepted = true;
    }
    if (i + 1 < in_.requests.size()) ScheduleArrival(i + 1);
  }

  void OnResult(size_t i, const faas::InvocationResult& r) {
    ScopedSpan span(log_, "faas.callback", r.id);
    Outcome& o = outcomes_[i];
    ++o.callbacks;
    o.ok = r.status.ok();
    o.code = uint8_t(r.status.code());
    o.served_via = uint8_t(r.served_via);
    o.attempts = uint8_t(std::min(r.attempts, 255));
    o.end_us = r.end_us;
    o.e2e_us = r.EndToEnd();
    o.cost_nano = r.cost.nano_dollars();
  }

  const FleetInput& in_;
  SpanLog* log_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<chaos::InjectorRegistry> chaos_;
  std::unique_ptr<guard::Guard> guard_;
  std::unique_ptr<reuse::ReuseLayer> reuse_;
  std::unique_ptr<ctrl::ConfigService> ctrl_;
  std::unique_ptr<faas::FaasPlatform> platform_;
  std::vector<Outcome> outcomes_;
  std::string export_;
};

void World::Collect(FleetRun* out) const {
  const size_t n = in_.requests.size();
  out->attempted = n;
  std::vector<uint64_t> tenant_total(in_.tenants.size(), 0);
  std::vector<uint64_t> tenant_good(in_.tenants.size(), 0);
  std::vector<SimTime> ends;
  ends.reserve(n);
  uint64_t digest = kFnvOffset;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes_[i];
    const FunctionDef& f = in_.functions[in_.requests[i].function];
    const size_t tenant = in_.requests[i].function / kNumClasses;
    const uint8_t expected = o.accepted ? 1 : 0;
    if (o.callbacks != expected) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "request %zu (%s): %u completion callbacks, expected %u",
                    i, f.name.c_str(), unsigned(o.callbacks),
                    unsigned(expected));
      if (out->check_failures.size() < 10) out->check_failures.push_back(line);
    }
    if (!o.accepted) ++out->rejected;
    ++tenant_total[tenant];
    if (o.accepted && o.ok) {
      ++out->ok;
      out->ok_latency_ms.push_back(double(o.e2e_us) / kMillisecond);
      if (o.e2e_us <= f.budget_us) ++tenant_good[tenant];
    } else {
      ++out->failed;
    }
    if (o.callbacks > 0) ends.push_back(o.end_us);
    out->retries += o.attempts > 0 ? o.attempts - 1 : 0;
    digest = FnvMix(digest, i);
    digest = FnvMix(digest, uint64_t(o.accepted) | uint64_t(o.code) << 8 |
                                uint64_t(o.served_via) << 16 |
                                uint64_t(o.attempts) << 24);
    digest = FnvMix(digest, uint64_t(o.end_us));
    digest = FnvMix(digest, uint64_t(o.cost_nano));
  }
  if (out->attempted != out->ok + out->failed) {
    out->check_failures.push_back(
        "attempted " + std::to_string(out->attempted) + " != ok " +
        std::to_string(out->ok) + " + failed " + std::to_string(out->failed));
  }

  std::vector<double> attainment;
  for (size_t t = 0; t < tenant_total.size(); ++t) {
    if (tenant_total[t] > 0) {
      attainment.push_back(double(tenant_good[t]) / double(tenant_total[t]));
    }
  }
  out->slo_attainment_p5 = Quantile(attainment, 0.05);

  const faas::PlatformMetrics& m = platform_->metrics();
  out->events = sim_.events_fired();
  out->cold_starts = m.cold_starts;
  out->warm_starts = m.warm_starts;
  out->timeouts = m.timeouts;
  out->throttled = m.throttled;
  out->peak_containers = m.peak_containers;
  out->billing_records = platform_->ledger().record_count();
  out->cost_usd = platform_->ledger().Total().dollars();
  const uint64_t executions = m.cold_starts + m.warm_starts;
  if (out->billing_records > executions) {
    out->check_failures.push_back(
        "billing records " + std::to_string(out->billing_records) +
        " > executions " + std::to_string(executions));
  }
  digest = FnvMix(digest, uint64_t(platform_->ledger().Total().nano_dollars()));
  digest = FnvMix(digest, out->billing_records);

  if (obs_) {
    const auto& ps = obs_->pipeline()->stats();
    out->obs_retained_frac =
        ps.traces_finalized ? double(ps.traces_retained) /
                                  double(ps.traces_finalized)
                            : 0;
    out->export_bytes = export_.size();
    digest = FnvMix(digest, Fnv1a64(export_));
    // Mean number of terminal events inside the longest burn window
    // (2s) at each event: what every SloEngine::Record rescans.
    std::sort(ends.begin(), ends.end());
    size_t lo = 0;
    double sum = 0;
    for (size_t hi = 0; hi < ends.size(); ++hi) {
      while (ends[lo] <= ends[hi] - 2 * kSecond) ++lo;
      sum += double(hi - lo + 1);
    }
    out->slo_window_events = ends.empty() ? 0 : sum / double(ends.size());
  }
  if (guard_) {
    const guard::GuardStats gs = guard_->stats();
    out->shed = gs.shed_queue_full + gs.shed_deadline;
    out->retries_granted = gs.retries_granted;
    out->retries_denied = gs.retries_denied;
    out->hedges_launched = gs.hedges_launched;
    out->hedge_wins = gs.hedge_wins;
  }
  if (reuse_) {
    const reuse::ReuseStats rs = reuse_->stats();
    out->reuse_hits = rs.hits;
    out->reuse_misses = rs.misses;
    out->reuse_coalesced = rs.coalesced;
    out->reuse_admitted = rs.cache_admitted;
    out->reuse_rejected = rs.cache_rejected;
    out->reuse_evictions = rs.cache_evictions;
  }
  if (ctrl_) {
    const ctrl::ConfigServiceStats cs = ctrl_->stats();
    out->ctrl_pushes = cs.pushes;
    out->ctrl_applied = cs.applied;
  }
  if (chaos_) {
    out->chaos_injected = chaos_->injected();
    out->chaos_recovered = chaos_->recovered();
  }
  out->digest = digest;
}

}  // namespace

FleetRun RunFleet(const FleetInput& in, unsigned layers, SpanLog* log,
                  HostSpeed* host) {
  FleetRun out;
  std::optional<World> world;
  SliceClock setup(host);
  setup.Slice([&] { world.emplace(in, layers, log); });
  out.setup_s = setup.wall_s();
  out.setup_nominal_s = setup.nominal_s();
  world->Run(&out, host);
  for (const Request& r : in.requests) {
    ++out.decile_requests[std::min<SimTime>(9, r.at_us * 10 / in.horizon_us)];
  }
  world->Collect(&out);
  return out;
}

int ReproKeepAliveDrain() {
  sim::Simulation sim;
  cluster::Cluster cluster(1, {1000, 2048});  // Room for two containers.
  faas::FaasConfig config;
  config.keep_alive_us = 1 * kSecond;
  faas::FaasPlatform platform(&sim, &cluster, config);
  for (const char* name : {"a", "b"}) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.demand = {500, 256};
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
    (void)platform.RegisterFunction(std::move(spec));
  }
  int callbacks_b = 0;
  // Two concurrent "a" calls fill the machine; both containers then idle
  // warm until their keep-alive expires at ~1.1s.
  (void)platform.Invoke("a", "1", [](const faas::InvocationResult&) {});
  (void)platform.Invoke("a", "2", [](const faas::InvocationResult&) {});
  // "b" arrives while both slots are held by idle "a" containers: queued.
  sim.ScheduleAt(500 * kMillisecond, [&] {
    (void)platform.Invoke("b", "3", [&](const faas::InvocationResult&) {
      ++callbacks_b;
    });
  });
  sim.Run();
  std::printf("keepalive-drain: queued invocation of b got %d completion "
              "callbacks, expected 1 (pending queue depth at end: %zu)\n",
              callbacks_b, platform.pending_queue_depth());
  return callbacks_b == 1 ? 0 : 1;
}

}  // namespace perfbench
