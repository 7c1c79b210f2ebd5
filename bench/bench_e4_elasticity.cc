// E4 — Demand-driven elasticity under bursts (paper §2, §3.2).
// Claim: serverless tracks bursty load with per-request scaling; a fixed
// fleet either overprovisions (idle cost) or queues (latency blowup).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "sim/simulation.h"
#include "workload/arrivals.h"

namespace taureau {
namespace {

struct ElasticityResult {
  double faas_p50_ms, faas_p99_ms;
  double pool_p50_ms, pool_p99_ms;
  double pool_utilization;
  uint64_t peak_containers;
};

ElasticityResult RunBurst(double burst_factor, size_t pool_slots) {
  const SimTime horizon = 20 * kMinute;
  const SimDuration service = 100 * kMillisecond;

  // Shared arrival trace so both systems see identical load.
  Rng rng(17);
  workload::BurstyArrivals arrivals(5.0, burst_factor, 2 * kMinute,
                                    20 * kSecond);
  const auto times = arrivals.Generate(horizon, &rng);

  // Serverless platform.
  sim::Simulation sim1;
  cluster::Cluster cl(128, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.keep_alive_us = 2 * kMinute;
  cfg.max_concurrency = 50000;
  faas::FaasPlatform platform(&sim1, &cl, cfg);
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.demand = {200, 256};
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, service, 0, 0};
  spec.init_us = 120 * kMillisecond;
  platform.RegisterFunction(spec);
  for (SimTime t : times) {
    sim1.ScheduleAt(t, [&platform] { platform.Invoke("fn", "", nullptr); });
  }
  sim1.Run();

  // Fixed server pool.
  sim::Simulation sim2;
  faas::ServerPool pool(&sim2, {.num_servers = pool_slots,
                                .per_server_concurrency = 1,
                                .breaker = {},
                                .admission = {}});
  for (SimTime t : times) {
    sim2.ScheduleAt(t, [&pool, service] { pool.Submit(service); });
  }
  sim2.Run();

  ElasticityResult out;
  out.faas_p50_ms = platform.metrics().e2e_latency_us.P50() / 1e3;
  out.faas_p99_ms = platform.metrics().e2e_latency_us.P99() / 1e3;
  out.pool_p50_ms = pool.sojourn_hist().P50() / 1e3;
  out.pool_p99_ms = pool.sojourn_hist().P99() / 1e3;
  out.pool_utilization = pool.Utilization();
  out.peak_containers = platform.metrics().peak_containers;
  return out;
}

void RunExperiment() {
  // Part 1: burst-factor sweep with a mean-sized fixed pool (2 slots
  // ~ 5 req/s * 100ms * 4x headroom).
  {
    bench::Table table({"peak/mean", "faas p50", "faas p99", "pool p50",
                        "pool p99", "peak containers"});
    for (double burst : {2.0, 10.0, 50.0}) {
      auto r = RunBurst(burst, /*pool_slots=*/4);
      table.AddRow({bench::Fmt("%.0fx", burst),
                    bench::Fmt("%.0fms", r.faas_p50_ms),
                    bench::Fmt("%.0fms", r.faas_p99_ms),
                    bench::Fmt("%.0fms", r.pool_p50_ms),
                    bench::Fmt("%.0fms", r.pool_p99_ms),
                    bench::FmtInt(int64_t(r.peak_containers))});
    }
    table.Print(
        "E4a: bursty load (5 req/s mean) — per-request scaling vs a "
        "mean-sized fixed pool of 4 workers");
  }

  // Part 2: fixed-pool sizing sweep at 10x bursts — the overprovision-or-
  // queue dilemma serverless sidesteps.
  {
    bench::Table table(
        {"pool size", "pool p99", "pool utilization", "faas p99 (ref)"});
    auto ref = RunBurst(10.0, 4);
    for (size_t slots : {2, 4, 8, 16, 32, 64}) {
      auto r = RunBurst(10.0, slots);
      table.AddRow({bench::FmtInt(int64_t(slots)),
                    bench::Fmt("%.0fms", r.pool_p99_ms),
                    bench::Fmt("%.2f", r.pool_utilization),
                    bench::Fmt("%.0fms", ref.faas_p99_ms)});
    }
    table.Print(
        "E4b: fixed-fleet sizing at 10x bursts — latency vs utilization");
  }
}

void BM_BurstyTraceGeneration(benchmark::State& state) {
  workload::BurstyArrivals arrivals(5.0, 10.0, 2 * kMinute, 20 * kSecond);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arrivals.Generate(kMinute, &rng));
  }
}
BENCHMARK(BM_BurstyTraceGeneration);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
