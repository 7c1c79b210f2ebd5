// E7 — Count-Min as a Pulsar function (paper Figure 3).
// Claim: frequency estimation over a live stream runs as a serverless
// function with bounded memory and bounded (one-sided) error.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "pubsub/broker.h"
#include "pubsub/functions.h"
#include "sim/simulation.h"
#include "sketch/countmin.h"

namespace taureau {
namespace {

void RunExperiment() {
  // Sweep sketch geometry; stream Zipf(1.1) events through a deployed
  // Pulsar function and compare estimates to exact counts.
  struct Geometry {
    uint32_t depth, width;
  };
  bench::Table table({"sketch (d x w)", "memory", "processed",
                      "mean overcount (hot 50)", "max overcount",
                      "exact-map memory"});
  for (Geometry g : {Geometry{4, 64}, Geometry{4, 256}, Geometry{8, 1024},
                     Geometry{20, 20}}) {
    sim::Simulation sim;
    pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
    pulsar.CreateTopic("events", {.tenant = {}, .partitions = 4});
    sketch::CountMinSketch cms(g.depth, g.width, 128);
    pubsub::FunctionWorker fn(
        &pulsar, {.name = "count-min", .input_topic = "events",
                  .output_topic = {}, .parallelism = 2},
        [&cms](const pubsub::Message& m, pubsub::FunctionContext&) {
          cms.Add(m.payload, 1);  // the paper's sketch.add(input, 1)
          return Status::OK();
        });
    (void)fn.Deploy();

    std::map<std::string, uint64_t> exact;
    Rng rng(19);
    ZipfGenerator zipf(10000, 1.1);
    const int n = 100000;
    uint64_t exact_bytes = 0;
    for (int i = 0; i < n; ++i) {
      const std::string ev = "evt-" + std::to_string(zipf.Next(&rng));
      if (exact.emplace(ev, 0).second) exact_bytes += ev.size() + 8;
      ++exact[ev];
      pulsar.Publish("events", "", ev);
    }
    sim.Run();

    // Error over the 50 hottest events.
    std::vector<std::pair<uint64_t, std::string>> hot;
    for (const auto& [ev, c] : exact) hot.emplace_back(c, ev);
    std::sort(hot.rbegin(), hot.rend());
    double mean_over = 0;
    uint64_t max_over = 0;
    const size_t top = std::min<size_t>(50, hot.size());
    for (size_t i = 0; i < top; ++i) {
      const uint64_t est = cms.EstimateCount(hot[i].second);
      const uint64_t over = est - hot[i].first;  // never negative (one-sided)
      mean_over += double(over);
      max_over = std::max(max_over, over);
    }
    mean_over /= double(top);

    table.AddRow({std::to_string(g.depth) + "x" + std::to_string(g.width),
                  FormatBytes(double(cms.MemoryBytes())),
                  bench::FmtInt(int64_t(fn.metrics().processed)),
                  bench::Fmt("%.1f", mean_over),
                  bench::FmtInt(int64_t(max_over)),
                  FormatBytes(double(exact_bytes))});
  }
  table.Print(
      "E7: Count-Min as a Pulsar function — 100K Zipf(1.1) events over "
      "10K keys (paper Fig. 3 deployment)");
}

void BM_SketchAddThroughput(benchmark::State& state) {
  sketch::CountMinSketch cms(uint32_t(state.range(0)), 1024);
  Rng rng(5);
  ZipfGenerator zipf(10000, 1.1);
  for (auto _ : state) {
    cms.Add("evt-" + std::to_string(zipf.Next(&rng)), 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchAddThroughput)->Arg(4)->Arg(8)->Arg(20);

void BM_EndToEndFunctionPipeline(benchmark::State& state) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  pulsar.CreateTopic("in", {});
  sketch::CountMinSketch cms(4, 256);
  pubsub::FunctionWorker fn(&pulsar,
                            {.name = "f", .input_topic = "in",
                             .output_topic = {}},
                            [&cms](const pubsub::Message& m,
                                   pubsub::FunctionContext&) {
                              cms.Add(m.payload, 1);
                              return Status::OK();
                            });
  (void)fn.Deploy();
  for (auto _ : state) {
    pulsar.Publish("in", "", "event");
    if (sim.pending_events() > 4096) sim.Run();
  }
  sim.Run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndFunctionPipeline);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
