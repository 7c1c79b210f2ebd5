// E10 — Serverless ETL / shuffle through ephemeral state (paper §3.1, §5.1).
// Claims: MapReduce-style jobs run on stateless functions when the shuffle
// goes through fast ephemeral storage; blob-store shuffles pay an order of
// magnitude in latency (the "shuffling, fast and slow" result).
#include <benchmark/benchmark.h>

#include "baas/blob_store.h"
#include "bench_util.h"
#include "common/stats.h"
#include "analytics/mapreduce.h"
#include "jiffy/controller.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using analytics::BlobShuffle;
using analytics::JiffyShuffle;
using analytics::MapReduceConfig;
using analytics::RunMapReduce;
using analytics::WordCountMap;
using analytics::WordCountReduce;

std::vector<std::string> MakeCorpus(size_t records, uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(5000, 0.95);
  std::vector<std::string> corpus;
  corpus.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    std::string line;
    for (int w = 0; w < 8; ++w) {
      if (w) line += ' ';
      line += "w" + std::to_string(zipf.Next(&rng));
    }
    corpus.push_back(std::move(line));
  }
  return corpus;
}

void RunExperiment() {
  // Part 1: parallelism sweep (M x R) on a Jiffy shuffle.
  {
    const auto corpus = MakeCorpus(100000, 29);
    bench::Table table({"M x R", "map stage", "reduce stage", "makespan",
                        "shuffle volume", "cost"});
    for (uint32_t par : {4u, 8u, 16u, 32u}) {
      sim::Simulation sim;
      jiffy::JiffyConfig cfg;
      cfg.num_memory_nodes = 16;
      cfg.blocks_per_node = 16384;
      cfg.block_size_bytes = 128 * 1024;
      jiffy::JiffyController jc(&sim, cfg);
      JiffyShuffle shuffle(&jc, "/job", par);
      (void)shuffle.Init();
      std::vector<std::string> output;
      auto stats = RunMapReduce(corpus, WordCountMap(), WordCountReduce(),
                                &shuffle,
                                MapReduceConfig{.num_mappers = par,
                                                .num_reducers = par,
                                                .task_model = {}},
                                &output);
      table.AddRow({std::to_string(par) + "x" + std::to_string(par),
                    FormatDuration(double(stats->map_stage_us)),
                    FormatDuration(double(stats->reduce_stage_us)),
                    FormatDuration(double(stats->makespan_us)),
                    FormatBytes(double(stats->shuffle_bytes)),
                    stats->cost.ToString()});
    }
    table.Print("E10a: wordcount over 100K records — parallelism sweep "
                "(Jiffy shuffle)");
  }

  // Part 2: shuffle-store comparison at fixed parallelism.
  {
    const auto corpus = MakeCorpus(50000, 31);
    bench::Table table({"shuffle store", "makespan", "vs jiffy"});
    SimDuration jiffy_makespan = 0;
    {
      sim::Simulation sim;
      jiffy::JiffyConfig cfg;
      cfg.num_memory_nodes = 16;
      cfg.blocks_per_node = 16384;
      cfg.block_size_bytes = 128 * 1024;
      jiffy::JiffyController jc(&sim, cfg);
      JiffyShuffle shuffle(&jc, "/job", 16);
      (void)shuffle.Init();
      std::vector<std::string> output;
      auto stats = RunMapReduce(
          corpus, WordCountMap(), WordCountReduce(), &shuffle,
          MapReduceConfig{.num_mappers = 16, .num_reducers = 16,
                          .task_model = {}},
          &output);
      jiffy_makespan = stats->makespan_us;
      table.AddRow({"jiffy (ephemeral blocks)",
                    FormatDuration(double(stats->makespan_us)), "1.0x"});
    }
    {
      baas::BlobStore blob;
      BlobShuffle shuffle(&blob, "job");
      std::vector<std::string> output;
      auto stats = RunMapReduce(
          corpus, WordCountMap(), WordCountReduce(), &shuffle,
          MapReduceConfig{.num_mappers = 16, .num_reducers = 16,
                          .task_model = {}},
          &output);
      table.AddRow({"blob store (S3-style)",
                    FormatDuration(double(stats->makespan_us)),
                    bench::Fmt("%.1fx", double(stats->makespan_us) /
                                            double(jiffy_makespan))});
    }
    table.Print("E10b: the same 16x16 wordcount through both shuffle stores");
  }

  // Part 3: input-scale sweep.
  {
    bench::Table table({"records", "makespan", "throughput (rec/s sim)",
                        "cost"});
    for (size_t records : {size_t(10000), size_t(100000), size_t(1000000)}) {
      const auto corpus = MakeCorpus(records, 37);
      sim::Simulation sim;
      jiffy::JiffyConfig cfg;
      cfg.num_memory_nodes = 32;
      cfg.blocks_per_node = 32768;
      cfg.block_size_bytes = 128 * 1024;
      jiffy::JiffyController jc(&sim, cfg);
      JiffyShuffle shuffle(&jc, "/job", 16);
      (void)shuffle.Init();
      std::vector<std::string> output;
      auto stats = RunMapReduce(
          corpus, WordCountMap(), WordCountReduce(), &shuffle,
          MapReduceConfig{.num_mappers = 16, .num_reducers = 16,
                          .task_model = {}},
          &output);
      table.AddRow(
          {FormatCount(double(records)),
           FormatDuration(double(stats->makespan_us)),
           FormatCount(double(records) / ToSeconds(stats->makespan_us)),
           stats->cost.ToString()});
    }
    table.Print("E10c: input scaling at 16x16 (Jiffy shuffle)");
  }
}

void BM_WordcountMapTask(benchmark::State& state) {
  const auto corpus = MakeCorpus(1000, 41);
  auto map_fn = WordCountMap();
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t i = 0;
  for (auto _ : state) {
    pairs.clear();
    map_fn(corpus[i++ % corpus.size()], &pairs);
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordcountMapTask);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
