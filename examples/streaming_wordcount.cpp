// Streaming analytics with Pulsar Functions and sketches — the paper's
// Figure 3 scenario end-to-end: a Count-Min sketch deployed as a serverless
// function over a live topic, alongside a HyperLogLog for distinct counts.
//
//   $ ./build/examples/streaming_wordcount
#include <cstdio>

#include "common/rng.h"
#include "pubsub/broker.h"
#include "pubsub/functions.h"
#include "sim/simulation.h"
#include "sketch/countmin.h"
#include "sketch/hyperloglog.h"

using namespace taureau;

int main() {
  sim::Simulation sim;
  pubsub::PulsarConfig cfg;
  cfg.num_brokers = 3;
  cfg.num_bookies = 6;
  pubsub::PulsarCluster pulsar(&sim, cfg);

  if (!pulsar.CreateTopic("words", {.tenant = {}, .partitions = 4}).ok() ||
      !pulsar.CreateTopic("alerts", {.tenant = {}, .partitions = 1}).ok()) {
    std::fprintf(stderr, "topic creation failed\n");
    return 1;
  }

  // The paper's Fig. 3: `CountMinSketch sketch = new CountMinSketch(20,20,128)`
  sketch::CountMinSketch sketch(20, 20, 128);
  sketch::HyperLogLog distinct(12);

  // Deploy the function: counts word frequencies, publishes an alert when a
  // word crosses a hotness threshold.
  pubsub::FunctionWorker counter(
      &pulsar,
      {.name = "count-min", .input_topic = "words", .output_topic = "alerts",
       .parallelism = 2},
      [&](const pubsub::Message& m, pubsub::FunctionContext& ctx) {
        sketch.Add(m.payload, 1);       // sketch.add(input, 1)
        distinct.Add(m.payload);
        const uint64_t count = sketch.EstimateCount(m.payload);
        if (count == 500) {  // react to the updated count
          return ctx.Publish("HOT WORD: " + m.payload);
        }
        return Status::OK();
      });
  if (!counter.Deploy().ok()) {
    std::fprintf(stderr, "function deploy failed\n");
    return 1;
  }

  // A dashboard consumer on the alert topic.
  (void)pulsar.Subscribe("alerts", "dashboard",
                         pubsub::SubscriptionType::kExclusive,
                         [&](const pubsub::Message& m) {
                           std::printf("[t=%s] alert: %s\n",
                                       FormatDuration(double(sim.Now())).c_str(),
                                       m.payload.c_str());
                         });

  // Produce a Zipf word stream.
  Rng rng(2024);
  ZipfGenerator zipf(1000, 1.05);
  const int kEvents = 50000;
  for (int i = 0; i < kEvents; ++i) {
    const std::string word = "word-" + std::to_string(zipf.Next(&rng));
    if (!pulsar.Publish("words", word, word).ok()) {
      std::fprintf(stderr, "publish failed\n");
      return 1;
    }
  }
  sim.Run();

  std::printf("\nprocessed %llu events across %u function instances\n",
              (unsigned long long)counter.metrics().processed,
              counter.config().parallelism);
  std::printf("distinct words (HLL estimate): %.0f (true: <=1000)\n",
              distinct.Estimate());
  std::printf("hottest word estimate: word-0 -> %llu occurrences\n",
              (unsigned long long)sketch.EstimateCount("word-0"));
  std::printf("sketch memory: %s (vs exact counting over the stream)\n",
              FormatBytes(double(sketch.MemoryBytes())).c_str());
  std::printf("publish p50 %s, delivery p50 %s, %llu msgs acked\n",
              FormatDuration(pulsar.metrics().publish_latency_us.P50()).c_str(),
              FormatDuration(pulsar.metrics().delivery_latency_us.P50()).c_str(),
              (unsigned long long)pulsar.metrics().acked);
  return 0;
}
