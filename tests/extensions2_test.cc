// Tests for the second extension wave: Pulsar geo-replication (§4.3),
// Path ORAM access-pattern hiding (§6 Security), and Jiffy queue spilling
// under memory pressure (§4.4 context — Pocket-style pressure relief).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "baas/blob_store.h"
#include "jiffy/data_structures.h"
#include "jiffy/memory_pool.h"
#include "pubsub/geo_replication.h"
#include "security/path_oram.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

// --------------------------------------------------------- GeoReplication

struct GeoFixture {
  sim::Simulation sim;
  pubsub::PulsarCluster us{&sim,
                           pubsub::PulsarConfig{.seed = 1, .admission = {}}};
  pubsub::PulsarCluster eu{&sim,
                           pubsub::PulsarConfig{.seed = 2, .admission = {}}};
  pubsub::GeoReplicator geo{&sim, &us, "us", &eu, "eu", 60 * kMillisecond};

  GeoFixture() {
    EXPECT_TRUE(us.CreateTopic("orders", {.tenant = {}, .partitions = 2}).ok());
    EXPECT_TRUE(eu.CreateTopic("orders", {.tenant = {}, .partitions = 2}).ok());
    EXPECT_TRUE(geo.ReplicateTopic("orders").ok());
  }
};

TEST(GeoReplicationTest, MessageCrossesRegions) {
  GeoFixture f;
  std::vector<std::string> eu_seen;
  ASSERT_TRUE(f.eu.Subscribe("orders", "app", pubsub::SubscriptionType::kShared,
                             [&](const pubsub::Message& m) {
                               eu_seen.push_back(m.payload);
                             })
                  .ok());
  ASSERT_TRUE(f.us.Publish("orders", "k1", "bought-a-bull").ok());
  f.sim.Run();
  ASSERT_EQ(eu_seen.size(), 1u);
  EXPECT_EQ(eu_seen[0], "bought-a-bull");
  EXPECT_EQ(f.geo.metrics().forwarded_a_to_b, 1u);
}

TEST(GeoReplicationTest, NoPingPongLoops) {
  GeoFixture f;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.us.Publish("orders", "", "us-" + std::to_string(i)).ok());
    ASSERT_TRUE(f.eu.Publish("orders", "", "eu-" + std::to_string(i)).ok());
  }
  f.sim.Run();
  // Each message forwarded exactly once; the replicated copies are
  // suppressed when they reach the other side's replicator.
  EXPECT_EQ(f.geo.metrics().forwarded_a_to_b, 20u);
  EXPECT_EQ(f.geo.metrics().forwarded_b_to_a, 20u);
  EXPECT_EQ(f.geo.metrics().suppressed_loops, 40u);
}

TEST(GeoReplicationTest, BothRegionsSeeTheUnion) {
  GeoFixture f;
  std::set<std::string> us_seen, eu_seen;
  f.us.Subscribe("orders", "app", pubsub::SubscriptionType::kShared,
                 [&](const pubsub::Message& m) { us_seen.insert(m.payload); });
  f.eu.Subscribe("orders", "app", pubsub::SubscriptionType::kShared,
                 [&](const pubsub::Message& m) { eu_seen.insert(m.payload); });
  for (int i = 0; i < 10; ++i) {
    f.us.Publish("orders", "", "us-" + std::to_string(i));
    f.eu.Publish("orders", "", "eu-" + std::to_string(i));
  }
  f.sim.Run();
  EXPECT_EQ(us_seen.size(), 20u);
  EXPECT_EQ(eu_seen.size(), 20u);
}

TEST(GeoReplicationTest, ReplicatedDeliveryPaysWanLatency) {
  GeoFixture f;
  SimTime published_at = 0, delivered_at = 0;
  f.eu.Subscribe("orders", "app", pubsub::SubscriptionType::kShared,
                 [&](const pubsub::Message&) { delivered_at = f.sim.Now(); });
  published_at = f.sim.Now();
  f.us.Publish("orders", "", "transatlantic");
  f.sim.Run();
  EXPECT_GE(delivered_at - published_at, 60 * kMillisecond);
}

TEST(GeoReplicationTest, OriginTagVisibleToConsumers) {
  GeoFixture f;
  std::string origin = "unset";
  f.eu.Subscribe("orders", "app", pubsub::SubscriptionType::kShared,
                 [&](const pubsub::Message& m) { origin = m.replicated_from; });
  f.us.Publish("orders", "", "x");
  f.sim.Run();
  EXPECT_EQ(origin, "us");
}

TEST(GeoReplicationTest, MissingTopicRejected) {
  sim::Simulation sim;
  pubsub::PulsarCluster a{&sim, pubsub::PulsarConfig{}};
  pubsub::PulsarCluster b{&sim, pubsub::PulsarConfig{}};
  pubsub::GeoReplicator geo{&sim, &a, "a", &b, "b"};
  EXPECT_TRUE(geo.ReplicateTopic("ghost").IsNotFound());
  ASSERT_TRUE(a.CreateTopic("t", {}).ok());
  EXPECT_TRUE(geo.ReplicateTopic("t").IsNotFound());  // missing in b
}

// ---------------------------------------------------------------- PathORAM

TEST(PathOramTest, ReadsReturnLastWrite) {
  security::PathOram oram(64);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(oram.Write(i, "v" + std::to_string(i)).ok());
  }
  for (uint32_t i = 0; i < 64; ++i) {
    auto r = oram.Read(i);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
}

TEST(PathOramTest, OverwriteSticks) {
  security::PathOram oram(16);
  ASSERT_TRUE(oram.Write(3, "old").ok());
  ASSERT_TRUE(oram.Write(3, "new").ok());
  EXPECT_EQ(*oram.Read(3), "new");
}

TEST(PathOramTest, UnwrittenBlockNotFoundButStillAccessed) {
  security::PathOram oram(16);
  const size_t before = oram.access_log().leaves.size();
  EXPECT_TRUE(oram.Read(5).status().IsNotFound());
  // The miss still produced a path access — misses are oblivious too.
  EXPECT_EQ(oram.access_log().leaves.size(), before + 1);
}

TEST(PathOramTest, OutOfRangeRejected) {
  security::PathOram oram(16);
  EXPECT_TRUE(oram.Write(16, "x").IsInvalidArgument());
  EXPECT_TRUE(oram.Read(99).status().IsInvalidArgument());
}

TEST(PathOramTest, SurvivesHeavyChurn) {
  security::PathOram oram(128, 7);
  Rng rng(5);
  std::map<uint32_t, std::string> truth;
  for (int op = 0; op < 5000; ++op) {
    const uint32_t id = uint32_t(rng.NextBounded(128));
    if (rng.NextBool(0.5)) {
      const std::string v = "val-" + std::to_string(op);
      ASSERT_TRUE(oram.Write(id, v).ok());
      truth[id] = v;
    } else if (truth.count(id)) {
      auto r = oram.Read(id);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, truth[id]);
    }
  }
  // Path ORAM's stash stays small with overwhelming probability.
  EXPECT_LT(oram.max_stash_size(), 80u);
}

TEST(PathOramTest, AccessPatternLooksUniform) {
  // The §6 security property: repeatedly touching the SAME logical block
  // produces server-visible leaf accesses indistinguishable from uniform.
  security::PathOram oram(256, 11);
  ASSERT_TRUE(oram.Write(42, "secret").ok());
  const size_t skip = oram.access_log().leaves.size();
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(oram.Read(42).ok());
  }
  const auto& leaves = oram.access_log().leaves;
  // Chi-square against uniform over the leaf range.
  const uint32_t num_leaves = 1u << oram.tree_height();
  std::vector<int> counts(num_leaves, 0);
  for (size_t i = skip; i < leaves.size(); ++i) ++counts[leaves[i]];
  const double expected = double(leaves.size() - skip) / num_leaves;
  double chi2 = 0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // dof = num_leaves - 1; mean ~ dof, sd ~ sqrt(2 dof). 5-sigma slack.
  const double dof = num_leaves - 1;
  EXPECT_LT(chi2, dof + 5 * std::sqrt(2 * dof));
  // And consecutive accesses to one block never repeat a stale path
  // deterministically: many distinct leaves must appear.
  std::set<uint32_t> distinct(leaves.begin() + ptrdiff_t(skip), leaves.end());
  EXPECT_GT(distinct.size(), num_leaves / 2);
}

// ------------------------------------------------------------ Queue spill

TEST(QueueSpillTest, SpillsInsteadOfFailing) {
  jiffy::MemoryPool pool(1, 2, 1024);  // tiny: 2KB total
  baas::BlobStore cold;
  jiffy::JiffyQueue q(&pool, "job", 47);
  q.EnableSpill(&cold);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.Enqueue(std::string(900, char('a' + i))).status.ok()) << i;
  }
  EXPECT_GT(q.spilled_items(), 0u);
  EXPECT_GT(cold.object_count(), 0u);
  // FIFO order preserved across the spill boundary.
  for (int i = 0; i < 10; ++i) {
    std::string v;
    ASSERT_TRUE(q.Dequeue(&v).status.ok()) << i;
    EXPECT_EQ(v, std::string(900, char('a' + i))) << i;
  }
  EXPECT_EQ(cold.object_count(), 0u);  // spilled objects reclaimed
}

TEST(QueueSpillTest, WithoutSpillStillFailsCleanly) {
  jiffy::MemoryPool pool(1, 2, 1024);
  jiffy::JiffyQueue q(&pool, "job");
  Status last;
  for (int i = 0; i < 10; ++i) {
    last = q.Enqueue(std::string(900, 'x')).status;
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

TEST(QueueSpillTest, SpilledAccessIsSlower) {
  jiffy::MemoryPool pool(1, 2, 1024);
  baas::BlobStore cold;
  jiffy::JiffyQueue q(&pool, "job", 47);
  q.EnableSpill(&cold);
  auto in_memory = q.Enqueue(std::string(900, 'a'));
  ASSERT_TRUE(in_memory.status.ok());
  // Fill until spill kicks in.
  jiffy::JiffyOp spilled{};
  for (int i = 0; i < 5; ++i) {
    spilled = q.Enqueue(std::string(900, 'b'));
    ASSERT_TRUE(spilled.status.ok());
  }
  ASSERT_GT(q.spilled_items(), 0u);
  EXPECT_GT(spilled.latency_us, in_memory.latency_us * 5);
}

}  // namespace
}  // namespace taureau
