// Tests for the fourth extension wave: Pulsar backlog retention trimming
// (§4.3 "durable storage for messages until they are consumed") and the
// oblivious key-value store over Path ORAM (§6 Security).
#include <gtest/gtest.h>

#include <vector>

#include "pubsub/broker.h"
#include "security/oblivious_store.h"
#include "sim/simulation.h"

namespace taureau {
namespace {

// ------------------------------------------------------- Backlog trimming

struct TrimFixture {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  pubsub::ConsumerId consumer = 0;
  std::vector<pubsub::MessageId> delivered;

  TrimFixture() {
    EXPECT_TRUE(pulsar.CreateTopic("t", {.tenant = {}, .partitions = 1}).ok());
    auto c = pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                              [this](const pubsub::Message& m) {
                                delivered.push_back(m.id);
                              });
    EXPECT_TRUE(c.ok());
    consumer = *c;
  }

  uint64_t BookieEntries() {
    uint64_t total = 0;
    for (size_t b = 0; b < pulsar.bookkeeper().bookie_count(); ++b) {
      total += pulsar.bookkeeper().bookie(pubsub::BookieId(b)).entries_stored();
    }
    return total;
  }
};

TEST(BacklogTrimTest, FullyAckedBacklogReclaimed) {
  TrimFixture f;
  for (int i = 0; i < 20; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  ASSERT_EQ(f.delivered.size(), 20u);
  for (const auto& id : f.delivered) {
    ASSERT_TRUE(f.pulsar.Ack(f.consumer, id).ok());
  }
  ASSERT_GT(f.BookieEntries(), 0u);
  auto trimmed = f.pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 20u);
  EXPECT_EQ(f.BookieEntries(), 0u);
}

TEST(BacklogTrimTest, UnackedMessagesRetained) {
  TrimFixture f;
  for (int i = 0; i < 10; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  ASSERT_EQ(f.delivered.size(), 10u);
  // Ack everything except the 4th message: the floor stops there.
  for (size_t i = 0; i < f.delivered.size(); ++i) {
    if (i != 3) {
      ASSERT_TRUE(f.pulsar.Ack(f.consumer, f.delivered[i]).ok());
    }
  }
  auto trimmed = f.pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 3u);  // entries 0..2 only
  // The unacked message can still be read for redelivery.
  EXPECT_TRUE(f.pulsar.bookkeeper()
                  .Read(f.delivered[3].ledger_id, f.delivered[3].entry_id)
                  .ok());
}

TEST(BacklogTrimTest, SlowestSubscriptionGovernsRetention) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  ASSERT_TRUE(pulsar.CreateTopic("t", {.tenant = {}, .partitions = 1}).ok());
  std::vector<pubsub::MessageId> fast_ids;
  auto fast = pulsar.Subscribe("t", "fast", pubsub::SubscriptionType::kShared,
                               [&](const pubsub::Message& m) {
                                 fast_ids.push_back(m.id);
                               });
  ASSERT_TRUE(fast.ok());
  auto lagging = pulsar.Subscribe("t", "lagging",
                                  pubsub::SubscriptionType::kShared,
                                  [](const pubsub::Message&) {});
  ASSERT_TRUE(lagging.ok());
  for (int i = 0; i < 10; ++i) pulsar.Publish("t", "", "m");
  sim.Run();
  for (const auto& id : fast_ids) {
    ASSERT_TRUE(pulsar.Ack(*fast, id).ok());
  }
  // "lagging" acked nothing: retention must keep everything for it.
  auto trimmed = pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 0u);
}

TEST(BacklogTrimTest, NoSubscriptionsRetainsEverything) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  for (int i = 0; i < 5; ++i) pulsar.Publish("t", "", "m");
  sim.Run();
  auto trimmed = pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 0u);
  EXPECT_TRUE(pulsar.TrimConsumedBacklog("ghost").status().IsNotFound());
}

TEST(BacklogTrimTest, TrimIsIdempotent) {
  TrimFixture f;
  for (int i = 0; i < 5; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  for (const auto& id : f.delivered) (void)f.pulsar.Ack(f.consumer, id);
  EXPECT_EQ(*f.pulsar.TrimConsumedBacklog("t"), 5u);
  EXPECT_EQ(*f.pulsar.TrimConsumedBacklog("t"), 0u);
}

// --------------------------------------------------------- ObliviousStore

TEST(ObliviousStoreTest, PutGetRoundTrip) {
  security::ObliviousStore store(64);
  ASSERT_TRUE(store.Put("alpha", "1").status.ok());
  ASSERT_TRUE(store.Put("beta", "2").status.ok());
  std::string v;
  ASSERT_TRUE(store.Get("alpha", &v).status.ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(store.Get("beta", &v).status.ok());
  EXPECT_EQ(v, "2");
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(ObliviousStoreTest, OverwriteReplaces) {
  security::ObliviousStore store(16);
  ASSERT_TRUE(store.Put("k", "old").status.ok());
  ASSERT_TRUE(store.Put("k", "new").status.ok());
  std::string v;
  ASSERT_TRUE(store.Get("k", &v).status.ok());
  EXPECT_EQ(v, "new");
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(ObliviousStoreTest, MissIsObliviousAndNotFound) {
  security::ObliviousStore store(16);
  const uint64_t before = store.physical_bytes_moved();
  std::string v;
  EXPECT_TRUE(store.Get("ghost", &v).status.IsNotFound());
  // A miss still moves a full path: indistinguishable from a hit.
  EXPECT_GT(store.physical_bytes_moved(), before);
}

TEST(ObliviousStoreTest, CapacityAndSizeLimits) {
  security::ObliviousStore store(2, /*block_size=*/64);
  EXPECT_TRUE(store.Put("big", std::string(100, 'x')).status
                  .IsInvalidArgument());
  ASSERT_TRUE(store.Put("a", "1").status.ok());
  ASSERT_TRUE(store.Put("b", "2").status.ok());
  EXPECT_TRUE(store.Put("c", "3").status.IsResourceExhausted());
  EXPECT_TRUE(store.Put("", "x").status.IsInvalidArgument());
}

TEST(ObliviousStoreTest, BandwidthAmplificationMatchesTheory) {
  security::ObliviousStore store(256, 4096);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), std::string(4096, 'x')).status.ok());
  }
  std::string v;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Get("k" + std::to_string(i), &v).status.ok());
  }
  // Expected amplification at full blocks: 2 * Z * (height + 1).
  const double expected = 2.0 * 4 * (store.oram().tree_height() + 1);
  EXPECT_NEAR(store.BandwidthAmplification(), expected, 0.01);
  EXPECT_GT(expected, 10.0);  // the security tax is real and visible
}

TEST(ObliviousStoreTest, AccessPatternStaysUniformThroughFacade) {
  security::ObliviousStore store(256, 1024, baas::KvStoreLatency(), 5);
  ASSERT_TRUE(store.Put("hot", "secret").status.ok());
  std::string v;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Get("hot", &v).status.ok());
  }
  // Distinct leaves touched must cover a large fraction of the tree even
  // though the logical pattern is a single hot key.
  const auto& leaves = store.oram().access_log().leaves;
  std::set<uint32_t> distinct(leaves.begin(), leaves.end());
  EXPECT_GT(distinct.size(),
            (size_t(1) << store.oram().tree_height()) / 2);
}

}  // namespace
}  // namespace taureau
