// Serverless ETL (paper §3.1 "Data Processing"): an orchestrated
// extract -> transform -> load pipeline over blob storage, followed by a
// larger MapReduce aggregation whose shuffle rides Jiffy ephemeral state.
//
//   $ ./build/examples/etl_pipeline
#include <cstdio>
#include <sstream>

#include "analytics/mapreduce.h"
#include "baas/blob_store.h"
#include "cluster/cluster.h"
#include "faas/platform.h"
#include "jiffy/controller.h"
#include "orchestration/composition.h"
#include "orchestration/orchestrator.h"
#include "sim/simulation.h"

using namespace taureau;
using orchestration::Composition;

int main() {
  sim::Simulation sim;
  cluster::Cluster region(16, {32000, 65536});
  faas::FaasPlatform platform(&sim, &region, faas::FaasConfig{});
  baas::BlobStore lake;

  // Land some raw "sales" data in the data lake.
  (void)lake.Put("raw/sales.csv",
                 "widget,3\ngadget,7\nwidget,2\ndoohickey,1\ngadget,4\n");

  // --- The three pipeline functions -------------------------------------
  faas::FunctionSpec extract;
  extract.name = "extract";
  extract.exec = {faas::ExecTimeModel::Kind::kFixed, 40 * kMillisecond, 0, 0};
  extract.handler = [&lake](const std::string& key, faas::InvocationContext&)
      -> Result<std::string> {
    std::string raw;
    auto op = lake.Get(key, &raw);
    if (!op.status.ok()) return op.status;
    return raw;
  };

  faas::FunctionSpec transform;
  transform.name = "transform";
  transform.exec = {faas::ExecTimeModel::Kind::kPerByte, 10 * kMillisecond, 0,
                    2.0};
  transform.handler = [](const std::string& csv, faas::InvocationContext&)
      -> Result<std::string> {
    // Aggregate quantities per product.
    std::map<std::string, int> totals;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
      const size_t comma = line.find(',');
      if (comma == std::string::npos) continue;
      totals[line.substr(0, comma)] += std::stoi(line.substr(comma + 1));
    }
    std::string out;
    for (const auto& [product, qty] : totals) {
      out += product + "," + std::to_string(qty) + "\n";
    }
    return out;
  };

  faas::FunctionSpec load;
  load.name = "load";
  load.exec = {faas::ExecTimeModel::Kind::kFixed, 25 * kMillisecond, 0, 0};
  load.handler = [&lake](const std::string& data, faas::InvocationContext&)
      -> Result<std::string> {
    auto op = lake.Put("warehouse/sales_by_product.csv", data);
    if (!op.status.ok()) return op.status;
    return std::string("warehouse/sales_by_product.csv");
  };

  for (auto* spec : {&extract, &transform, &load}) {
    if (!platform.RegisterFunction(*spec).ok()) return 1;
  }

  // --- Compose and run ----------------------------------------------------
  orchestration::Orchestrator orch(&sim, &platform);
  (void)orch.RegisterComposition(
      "etl", Composition::Sequence({Composition::Task("extract"),
                                    Composition::Task("transform"),
                                    Composition::Task("load")}));
  auto run = orch.RunSync(Composition::Named("etl"), "raw/sales.csv");
  if (!run.ok() || !run->status.ok()) {
    std::fprintf(stderr, "pipeline failed\n");
    return 1;
  }
  std::string warehouse;
  (void)lake.Get("warehouse/sales_by_product.csv", &warehouse);
  std::printf("ETL pipeline finished in %s for %s (3 functions, no "
              "orchestration surcharge)\n",
              FormatDuration(double(run->Makespan())).c_str(),
              run->cost.ToString().c_str());
  std::printf("warehouse/sales_by_product.csv:\n%s\n", warehouse.c_str());

  // --- Scale it up: MapReduce wordcount with a Jiffy shuffle --------------
  jiffy::JiffyConfig jcfg;
  jcfg.num_memory_nodes = 8;
  jcfg.blocks_per_node = 8192;
  jcfg.block_size_bytes = 128 * 1024;
  jiffy::JiffyController jc(&sim, jcfg);
  analytics::JiffyShuffle shuffle(&jc, "/etl-agg", 8);
  (void)shuffle.Init();

  Rng rng(7);
  ZipfGenerator zipf(2000, 0.9);
  std::vector<std::string> logs;
  for (int i = 0; i < 20000; ++i) {
    logs.push_back("product-" + std::to_string(zipf.Next(&rng)) + " purchase");
  }
  std::vector<std::string> output;
  auto stats = analytics::RunMapReduce(
      logs, analytics::WordCountMap(), analytics::WordCountReduce(), &shuffle,
      {.num_mappers = 8, .num_reducers = 8, .task_model = {}}, &output);
  if (!stats.ok()) return 1;
  std::printf("MapReduce aggregation: %llu records -> %llu keys in %s "
              "(%s shuffled through Jiffy), cost %s\n",
              (unsigned long long)stats->input_records,
              (unsigned long long)stats->output_records,
              FormatDuration(double(stats->makespan_us)).c_str(),
              FormatBytes(double(stats->shuffle_bytes)).c_str(),
              stats->cost.ToString().c_str());
  return 0;
}
