// E6 — Pulsar architecture (paper §4.3, Figure 1).
// Claims: partitioned topics scale throughput across brokers; replication
// (write/ack quorums) trades latency for durability; stateless brokers
// fail over without losing messages.
#include <benchmark/benchmark.h>

#include <set>

#include "bench_util.h"
#include "pubsub/bookkeeper.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

using pubsub::PulsarCluster;
using pubsub::PulsarConfig;
using pubsub::SubscriptionType;
using pubsub::TopicConfig;

struct ThroughputResult {
  double publish_kmsg_per_s;
  double publish_p50_us;
  double publish_p99_us;
  double delivery_p50_us;
};

/// How the publish stream is offered to the cluster (see bench_util.h).
enum class Drive {
  kBurst,       ///< Everything at t=0 (historical open-loop burst).
  kPaced,       ///< Fixed inter-arrival gap.
  kClosedLoop,  ///< Fixed in-flight window; next publish on delivery.
};

ThroughputResult RunStream(uint32_t partitions, uint32_t write_quorum,
                           uint32_t ack_quorum, int messages,
                           Drive drive = Drive::kBurst,
                           SimDuration pace_gap_us = 0, int window = 0) {
  sim::Simulation sim;
  PulsarConfig cfg;
  cfg.num_brokers = 4;
  cfg.num_bookies = 8;
  PulsarCluster cluster(&sim, cfg);
  TopicConfig topic;
  topic.partitions = partitions;
  topic.ensemble_size = std::max(3u, write_quorum);
  topic.write_quorum = write_quorum;
  topic.ack_quorum = ack_quorum;
  cluster.CreateTopic("stream", topic);
  uint64_t delivered = 0;
  // Closed-loop completions: each delivery releases the next publish.
  std::function<void()> on_delivery;
  cluster.Subscribe("stream", "sub", SubscriptionType::kShared,
                    [&](const pubsub::Message&) {
                      ++delivered;
                      if (on_delivery) on_delivery();
                    });
  const std::string payload(512, 'x');
  auto publish = [&](int i) {
    cluster.Publish("stream", "key-" + std::to_string(i % 64), payload);
  };
  switch (drive) {
    case Drive::kBurst:
      for (int i = 0; i < messages; ++i) publish(i);
      break;
    case Drive::kPaced:
      bench::PaceArrivals(&sim, messages, pace_gap_us, publish);
      break;
    case Drive::kClosedLoop: {
      std::vector<std::function<void()>> completions;
      bench::DriveClosedLoop(messages, window,
                             [&](int i, std::function<void()> done) {
                               completions.push_back(std::move(done));
                               publish(i);
                             });
      on_delivery = [&completions] {
        if (!completions.empty()) {
          auto done = std::move(completions.front());
          completions.erase(completions.begin());
          done();
        }
      };
      sim.Run();
      on_delivery = nullptr;
      break;
    }
  }
  sim.Run();

  const auto& m = cluster.metrics();
  ThroughputResult out;
  out.publish_kmsg_per_s =
      m.last_ack_time_us > 0
          ? double(m.published) / ToSeconds(m.last_ack_time_us) / 1e3
          : 0;
  out.publish_p50_us = m.publish_latency_us.P50();
  out.publish_p99_us = m.publish_latency_us.P99();
  out.delivery_p50_us = m.delivery_latency_us.P50();
  return out;
}

void RunExperiment() {
  // Part 1: partition scaling.
  {
    bench::Table table({"partitions", "throughput (Kmsg/s)", "publish p50",
                        "publish p99", "delivery p50"});
    for (uint32_t parts : {1u, 2u, 4u, 8u, 16u, 64u}) {
      auto r = RunStream(parts, 2, 2, 20000);
      table.AddRow({bench::FmtInt(parts),
                    bench::Fmt("%.1f", r.publish_kmsg_per_s),
                    FormatDuration(r.publish_p50_us),
                    FormatDuration(r.publish_p99_us),
                    FormatDuration(r.delivery_p50_us)});
    }
    table.Print(
        "E6a: partitioned-topic scaling (4 brokers, 8 bookies, 512B msgs, "
        "WQ=2/AQ=2)");
  }

  // Part 2: replication factor sweep.
  {
    bench::Table table({"write/ack quorum", "throughput (Kmsg/s)",
                        "publish p50", "publish p99"});
    struct Quorums {
      uint32_t wq, aq;
    };
    for (Quorums q : {Quorums{1, 1}, Quorums{2, 1}, Quorums{2, 2},
                      Quorums{3, 2}, Quorums{3, 3}, Quorums{5, 5}}) {
      auto r = RunStream(8, q.wq, q.aq, 20000);
      table.AddRow({std::to_string(q.wq) + "/" + std::to_string(q.aq),
                    bench::Fmt("%.1f", r.publish_kmsg_per_s),
                    FormatDuration(r.publish_p50_us),
                    FormatDuration(r.publish_p99_us)});
    }
    table.Print("E6b: replication sweep (8 partitions) — durability costs "
                "throughput and tail latency");
  }

  // Part 3: arrival pacing — what the latency percentiles actually measure
  // depends on the drive. The t=0 burst inflates publish p50 with
  // self-inflicted queueing at the serial brokers/bookies; pacing near the
  // service rate or closing the loop reports the service-time latency.
  {
    bench::Table table({"drive", "throughput (Kmsg/s)", "publish p50",
                        "publish p99"});
    struct Mode {
      const char* name;
      Drive drive;
      SimDuration gap_us;
      int window;
    };
    for (const Mode& m :
         {Mode{"burst @ t=0 (open loop)", Drive::kBurst, 0, 0},
          Mode{"paced, 40us gap", Drive::kPaced, 40, 0},
          Mode{"paced, 100us gap", Drive::kPaced, 100, 0},
          Mode{"closed loop, 32 in flight", Drive::kClosedLoop, 0, 32}}) {
      auto r = RunStream(8, 2, 2, 20000, m.drive, m.gap_us, m.window);
      table.AddRow({m.name, bench::Fmt("%.1f", r.publish_kmsg_per_s),
                    FormatDuration(r.publish_p50_us),
                    FormatDuration(r.publish_p99_us)});
    }
    table.Print("E6c: drive mode (8 partitions, WQ=2/AQ=2) — open-loop burst "
                "latency is queueing, paced/closed-loop is service time");
  }

  // Part 4: broker failover — no message loss.
  {
    sim::Simulation sim;
    PulsarCluster cluster(&sim, PulsarConfig{});
    cluster.CreateTopic("t", {.tenant = {}, .partitions = 3});
    std::set<std::string> got;
    cluster.Subscribe("t", "sub", SubscriptionType::kShared,
                      [&](const pubsub::Message& m) { got.insert(m.payload); });
    for (int i = 0; i < 500; ++i) {
      cluster.Publish("t", "", "pre-" + std::to_string(i));
    }
    cluster.CrashBroker(0);
    for (int i = 0; i < 500; ++i) {
      cluster.Publish("t", "", "post-" + std::to_string(i));
    }
    sim.Run();
    bench::Table table({"metric", "value"});
    table.AddRow({"published", "1000"});
    table.AddRow({"distinct delivered", bench::FmtInt(int64_t(got.size()))});
    table.AddRow({"redeliveries (dupes, at-least-once)",
                  bench::FmtInt(int64_t(cluster.metrics().redelivered))});
    table.AddRow({"lost", bench::FmtInt(int64_t(1000 - got.size()))});
    table.Print("E6d: broker crash mid-stream — stateless brokers lose "
                "nothing (durable state in bookies)");
  }
}

void BM_LedgerAppend(benchmark::State& state) {
  pubsub::BookKeeper bk(8);
  auto ledger = bk.CreateLedger(3, uint32_t(state.range(0)), 1);
  const std::string payload(512, 'x');
  SimTime now = 0;
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(bk.Append(*ledger, payload, now));
  }
}
BENCHMARK(BM_LedgerAppend)->Arg(1)->Arg(2)->Arg(3);

void BM_Publish(benchmark::State& state) {
  sim::Simulation sim;
  PulsarCluster cluster(&sim, PulsarConfig{});
  cluster.CreateTopic("t",
                      {.tenant = {}, .partitions = uint32_t(state.range(0))});
  const std::string payload(512, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Publish("t", "", payload));
    if (sim.pending_events() > 10000) sim.Run();
  }
  sim.Run();
}
BENCHMARK(BM_Publish)->Arg(1)->Arg(8);

}  // namespace
}  // namespace taureau

TAUREAU_BENCH_MAIN(taureau::RunExperiment)
