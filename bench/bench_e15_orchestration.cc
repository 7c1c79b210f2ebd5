// E15 — Orchestration properties (paper §4.2, Lopez et al. [137]).
// Claims: compositions behave like functions (nest arbitrarily); running a
// composition charges exactly the sum of its basic functions (no double
// billing); orchestration overhead on the critical path is bounded by the
// platform dispatch, not the composition depth structure.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "orchestration/composition.h"
#include "orchestration/orchestrator.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using orchestration::Composition;
using orchestration::Orchestrator;

struct Env {
  sim::Simulation sim;
  cluster::Cluster cluster{32, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, faas::FaasConfig{}};
  Orchestrator orch{&sim, &platform};

  Env() {
    faas::FunctionSpec spec;
    spec.name = "step";
    spec.demand = {200, 256};
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 30 * kMillisecond, 0, 0};
    spec.handler = [](const std::string& in, faas::InvocationContext&)
        -> Result<std::string> { return in + "."; };
    (void)platform.RegisterFunction(spec);
  }
};

void RunExperiment() {
  // Acceptance: every E15a row single-billed and every E15c row ok.
  bool billed_exactly = true;
  // Part 1: chain depth — cost exactly linear, zero orchestration charges.
  {
    bench::Table table({"chain depth", "invocations", "total cost",
                        "cost / invocation", "ledger == result cost"});
    for (int depth : {1, 4, 16, 64}) {
      Env env;
      std::vector<Composition> steps;
      for (int i = 0; i < depth; ++i) steps.push_back(Composition::Task("step"));
      auto res = env.orch.RunSync(Composition::Sequence(std::move(steps)), "");
      const Money per = Money::FromNanoDollars(res->cost.nano_dollars() /
                                               depth);
      const bool exact = res->cost == env.platform.ledger().Total();
      billed_exactly = billed_exactly && exact;
      table.AddRow({bench::FmtInt(depth),
                    bench::FmtInt(int64_t(res->function_invocations)),
                    res->cost.ToString(), per.ToString(),
                    exact ? "yes" : "NO"});
    }
    table.Print("E15a: no double billing — chains charge exactly the sum of "
                "their steps");
  }

  // Part 2: fan-out width — parallel branches, makespan ~ one step.
  {
    bench::Table table({"fan-out", "makespan", "total cost",
                        "makespan / single-step"});
    Env ref_env;
    auto single = ref_env.orch.RunSync(Composition::Task("step"), "");
    const double single_us = double(single->Makespan());
    for (int width : {1, 4, 16, 64}) {
      Env env;
      std::vector<Composition> branches;
      for (int i = 0; i < width; ++i) {
        branches.push_back(Composition::Task("step"));
      }
      auto res =
          env.orch.RunSync(Composition::Parallel(std::move(branches)), "");
      table.AddRow({bench::FmtInt(width),
                    FormatDuration(double(res->Makespan())),
                    res->cost.ToString(),
                    bench::Fmt("%.2fx", double(res->Makespan()) / single_us)});
    }
    table.Print("E15b: parallel fan-out — elastic concurrency keeps the "
                "makespan near one step");
  }

  // Part 3: nesting depth — compositions of compositions stay functions.
  {
    bench::Table table({"nesting depth", "invocations", "cost",
                        "status"});
    for (int depth : {1, 3, 6}) {
      Env env;
      // inner-0 = step; inner-k = Sequence(inner-(k-1), inner-(k-1)).
      (void)env.orch.RegisterComposition("lvl-0", Composition::Task("step"));
      for (int k = 1; k <= depth; ++k) {
        (void)env.orch.RegisterComposition(
            "lvl-" + std::to_string(k),
            Composition::Sequence(
                {Composition::Named("lvl-" + std::to_string(k - 1)),
                 Composition::Named("lvl-" + std::to_string(k - 1))}));
      }
      auto res = env.orch.RunSync(
          Composition::Named("lvl-" + std::to_string(depth)), "");
      const bool ok = res->status.ok() &&
                      res->cost == env.platform.ledger().Total();
      billed_exactly = billed_exactly && ok;
      table.AddRow({bench::FmtInt(depth),
                    bench::FmtInt(int64_t(res->function_invocations)),
                    res->cost.ToString(),
                    ok ? "ok, single-billed" : "VIOLATION"});
    }
    table.Print("E15c: composition-as-function — 2^depth leaf invocations, "
                "still exactly single-billed");
  }
  std::printf("\nacceptance (every chain and nesting run billed exactly its "
              "function charges): %s\n",
              billed_exactly ? "PASS" : "FAIL");
  bench::JsonReport::Instance().Note("acceptance",
                                     billed_exactly ? "PASS" : "FAIL");
}

void BM_OrchestrateChain(benchmark::State& state) {
  for (auto _ : state) {
    Env env;
    std::vector<Composition> steps;
    for (int i = 0; i < int(state.range(0)); ++i) {
      steps.push_back(Composition::Task("step"));
    }
    benchmark::DoNotOptimize(
        env.orch.RunSync(Composition::Sequence(std::move(steps)), ""));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrchestrateChain)->Arg(4)->Arg(32);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
