// Depth tests for paths the per-module suites exercise lightly: RNG tail
// distributions, histogram weighted adds, server-pool instrumentation,
// bookie accounting, TTL interactions, heterogeneous cluster stats,
// orchestration edge cases, and platform instrumentation.
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/video.h"
#include "baas/kv_store.h"
#include "baas/table_store.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "jiffy/controller.h"
#include "orchestration/orchestrator.h"
#include "pubsub/bookkeeper.h"
#include "pubsub/broker.h"
#include "pubsub/functions.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

// ------------------------------------------------------------- common/rng

TEST(RngDepthTest, LogNormalMedian) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.NextLogNormal(std::log(100.0), 0.5));
  EXPECT_NEAR(ExactQuantile(xs, 0.5), 100.0, 5.0);
}

TEST(RngDepthTest, ParetoHeavyTail) {
  Rng rng(2);
  int above_10x = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextPareto(1.0, 1.5);
    EXPECT_GE(x, 1.0);
    if (x > 10.0) ++above_10x;
  }
  // P(X > 10) = 10^-1.5 ~ 3.16%.
  EXPECT_NEAR(double(above_10x) / n, 0.0316, 0.005);
}

TEST(HistogramDepthTest, AddNWeightedEquivalentToLoop) {
  Histogram a, b;
  a.AddN(50.0, 1000);
  for (int i = 0; i < 1000; ++i) b.Add(50.0);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.P99(), b.P99());
}

TEST(HistogramDepthTest, QuantileClampsOutOfRange) {
  Histogram h;
  h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

// ------------------------------------------------------------- ServerPool

TEST(ServerPoolDepthTest, InstrumentationDuringRun) {
  sim::Simulation sim;
  faas::ServerPool pool(&sim, {.num_servers = 2,
                               .per_server_concurrency = 1,
                               .breaker = {},
                               .admission = {}});
  for (int i = 0; i < 5; ++i) pool.Submit(kSecond);
  EXPECT_EQ(pool.busy_slots(), 2u);
  EXPECT_EQ(pool.queue_depth(), 3u);
  sim.Run();
  EXPECT_EQ(pool.busy_slots(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.completed(), 5u);
  EXPECT_EQ(pool.wait_hist().count(), 5u);
  // Sojourn = wait + service; the last request waited 2 services.
  EXPECT_DOUBLE_EQ(pool.sojourn_hist().max(), double(3 * kSecond));
}

// ----------------------------------------------------------------- Bookie

TEST(BookieDepthTest, ByteAccountingAndRecovery) {
  pubsub::Bookie bookie(0);
  ASSERT_TRUE(bookie.Write(1, 0, std::string(100, 'x'), 0).ok());
  ASSERT_TRUE(bookie.Write(1, 1, std::string(50, 'y'), 0).ok());
  EXPECT_EQ(bookie.bytes_stored(), 150u);
  EXPECT_EQ(bookie.entries_stored(), 2u);
  bookie.Crash();
  EXPECT_TRUE(bookie.Write(1, 2, "z", 0).status().IsUnavailable());
  EXPECT_TRUE(bookie.Read(1, 0).status().IsUnavailable());
  bookie.Recover();
  EXPECT_TRUE(bookie.Read(1, 0).ok());  // data survived the crash
  ASSERT_TRUE(bookie.Erase(1).ok());
  EXPECT_EQ(bookie.bytes_stored(), 0u);
}

TEST(BookieDepthTest, SerialDeviceQueueing) {
  pubsub::Bookie bookie(0, /*write_base_us=*/1000, /*us_per_byte=*/0);
  auto t1 = bookie.Write(1, 0, "a", /*now=*/0);
  auto t2 = bookie.Write(1, 1, "b", /*now=*/0);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t1, 1000);
  EXPECT_EQ(*t2, 2000);  // queued behind the first
}

// ---------------------------------------------------------------- KvStore

TEST(KvStoreDepthTest, PutIfAbsentSucceedsAfterTtlExpiry) {
  baas::KvStore kv;
  ASSERT_TRUE(kv.PutIfAbsent("k", "v1", 0, /*ttl=*/kSecond).status.ok());
  EXPECT_TRUE(kv.PutIfAbsent("k", "v2", 500 * kMillisecond).status
                  .IsAlreadyExists());
  EXPECT_TRUE(kv.PutIfAbsent("k", "v3", 2 * kSecond).status.ok());
  std::string v;
  kv.Get("k", 2 * kSecond, &v);
  EXPECT_EQ(v, "v3");
}

TEST(TableStoreDepthTest, WriteOnlyTransactionsNeverConflict) {
  baas::TableStore table;
  for (int i = 0; i < 10; ++i) {
    auto t = table.Begin();
    ASSERT_TRUE(table.Write(t, "k", std::to_string(i)).ok());
    ASSERT_TRUE(table.Commit(t).ok());  // blind writes: no read set
  }
  EXPECT_EQ(*table.GetCommitted("k"), "9");
  EXPECT_EQ(table.commits(), 10u);
  EXPECT_EQ(table.aborts(), 0u);
  EXPECT_GT(table.SampleOpLatency(100), 0);
}

// ---------------------------------------------------------------- Cluster

TEST(ClusterDepthTest, HeterogeneousStatsAggregate) {
  cluster::Cluster cl({{16000, 32768, 0}, {32000, 65536, 8}});
  const auto stats = cl.Stats();
  EXPECT_EQ(stats.total_capacity.cpu_millis, 48000);
  EXPECT_EQ(stats.total_capacity.gpus, 8);
  EXPECT_EQ(stats.machines_total, 2u);
  EXPECT_EQ(cl.ReservedCost(3, 0).nano_dollars(), 0);
}

// ----------------------------------------------------------- Orchestrator

TEST(OrchestratorDepthTest, NullPredicateTakesElse) {
  sim::Simulation sim;
  cluster::Cluster cl(4, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "tag";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  spec.handler = [](const std::string& in, faas::InvocationContext&)
      -> Result<std::string> { return in + "!"; };
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  orchestration::Orchestrator orch(&sim, &platform);
  auto comp = orchestration::Composition::Choice(
      nullptr, orchestration::Composition::Task("tag"),
      orchestration::Composition::Sequence({}));
  auto res = orch.RunSync(comp, "unchanged");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "unchanged");  // else branch: pass-through
}

// ------------------------------------------------------------------ Video

TEST(VideoDepthTest, SerialEncodeAccountsKeyframe) {
  analytics::Video v = analytics::Video::Generate(60, 30, 3);
  analytics::EncodeConfig cfg;
  const auto stats = analytics::EncodeSerial(v, cfg);
  // Output must exceed the no-keyframe compression floor.
  uint64_t floor_bytes = 0;
  for (const auto& f : v.frames) {
    floor_bytes += uint64_t(double(f.raw_bytes) * cfg.compression_ratio);
  }
  EXPECT_GT(stats.serial_output_bytes, floor_bytes);
  EXPECT_EQ(stats.tasks, 1u);
  EXPECT_EQ(stats.makespan_us, stats.serial_encode_us);
}

// -------------------------------------------------------- Pulsar functions

TEST(PulsarDepthTest, FunctionWithoutOutputTopicCannotPublish) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  ASSERT_TRUE(pulsar.CreateTopic("in", {}).ok());
  Status publish_status;
  pubsub::FunctionWorker fn(
      &pulsar, {.name = "sink", .input_topic = "in", .output_topic = {}},
      [&](const pubsub::Message&, pubsub::FunctionContext& ctx) {
        publish_status = ctx.Publish("out");
        return Status::OK();  // function itself still succeeds
      });
  ASSERT_TRUE(fn.Deploy().ok());
  pulsar.Publish("in", "", "x");
  sim.Run();
  EXPECT_TRUE(publish_status.IsFailedPrecondition());
}

TEST(PulsarDepthTest, RecoveredBrokerServesAgain) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  ASSERT_TRUE(pulsar.CreateTopic("t", {.tenant = {}, .partitions = 3}).ok());
  ASSERT_TRUE(pulsar.CrashBroker(0).ok());
  ASSERT_TRUE(pulsar.RecoverBroker(0).ok());
  int got = 0;
  pulsar.Subscribe("t", "s", pubsub::SubscriptionType::kShared,
                   [&](const pubsub::Message&) { ++got; });
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(pulsar.Publish("t", "", "m").ok());
  }
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(PulsarDepthTest, CrashingAllBrokersFailsPublish) {
  sim::Simulation sim;
  pubsub::PulsarConfig cfg;
  cfg.num_brokers = 2;
  pubsub::PulsarCluster pulsar(&sim, cfg);
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  ASSERT_TRUE(pulsar.CrashBroker(0).ok());
  EXPECT_TRUE(pulsar.CrashBroker(1).IsUnavailable());  // last broker refuses
}

// --------------------------------------------------------------- Platform

TEST(PlatformDepthTest, QueueLatencyRecordedUnderContention) {
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasConfig cfg;
  cfg.max_concurrency = 1;
  faas::FaasPlatform platform(&sim, &cl, cfg);
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kSecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  for (int i = 0; i < 4; ++i) platform.Invoke("fn", "", nullptr);
  sim.Run();
  // The 4th invocation queued ~3 service times.
  EXPECT_GT(platform.metrics().queue_latency_us.max(),
            double(2 * kSecond));
  EXPECT_EQ(platform.pending_queue_depth(), 0u);
}

TEST(PlatformDepthTest, FlushWarmPoolDropsIdleContainers) {
  sim::Simulation sim;
  cluster::Cluster cl(8, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  ASSERT_TRUE(platform.InvokeSync("fn", "").ok());
  EXPECT_EQ(platform.active_containers(), 1u);
  platform.FlushWarmPool();
  EXPECT_EQ(platform.active_containers(), 0u);
  EXPECT_EQ(cl.Stats().units, 0u);
  // The next invocation cold-starts again.
  auto res = platform.InvokeSync("fn", "");
  EXPECT_TRUE(res->cold_start);
}

// ------------------------------------------------------------------ Jiffy

TEST(JiffyDepthTest, RenewPermanentLeaseIsNoop) {
  sim::Simulation sim;
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 1;
  cfg.blocks_per_node = 8;
  jiffy::JiffyController jc(&sim, cfg);
  ASSERT_TRUE(jc.CreateNamespace("/pin", -1).ok());
  EXPECT_TRUE(jc.RenewLease("/pin").ok());
  auto remaining = jc.LeaseRemaining("/pin");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(*remaining, INT64_MAX);
}

TEST(JiffyDepthTest, NotifyUnknownPathFails) {
  sim::Simulation sim;
  jiffy::JiffyController jc(&sim, jiffy::JiffyConfig{});
  EXPECT_TRUE(jc.Notify("/ghost", "evt").IsNotFound());
  EXPECT_TRUE(jc.Subscribe("/ghost", nullptr).IsNotFound());
}

}  // namespace
}  // namespace taureau
