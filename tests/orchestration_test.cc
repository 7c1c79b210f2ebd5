// Unit tests for orchestration (§4.2): the three properties of composition
// frameworks — black-box functions, composition-as-function, no double
// billing.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "faas/platform.h"
#include "orchestration/composition.h"
#include "orchestration/orchestrator.h"
#include "sim/simulation.h"

namespace taureau::orchestration {
namespace {

struct Fixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, faas::FaasConfig{}};
  Orchestrator orch{&sim, &platform};

  Fixture() {
    RegisterAppender("a");
    RegisterAppender("b");
    RegisterAppender("c");
  }

  /// A function that appends its own name to the payload — so dataflow
  /// order is observable in the output.
  void RegisterAppender(const std::string& name,
                        SimDuration exec = 20 * kMillisecond) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.handler = [name](const std::string& payload,
                          faas::InvocationContext&)
        -> Result<std::string> { return payload + name; };
    ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  }
};

TEST(CompositionTest, BuildersProduceExpectedShapes) {
  auto seq = Composition::Sequence(
      {Composition::Task("a"), Composition::Task("b")});
  EXPECT_EQ(seq.root()->kind, Composition::Kind::kSequence);
  EXPECT_EQ(seq.LeafCount(), 2u);
  auto par = Composition::Parallel(
      {Composition::Task("a"), seq, Composition::Named("other")});
  EXPECT_EQ(par.LeafCount(), 4u);
  auto retry = Composition::Retry(Composition::Task("a"), 3);
  EXPECT_EQ(retry.root()->retry_policy.max_attempts, 3);
  // Retry clamps to at least one attempt.
  EXPECT_EQ(Composition::Retry(Composition::Task("a"), 0)
                .root()
                ->retry_policy.max_attempts,
            1);
}

TEST(OrchestratorTest, SequencePipesOutputs) {
  Fixture f;
  auto comp = Composition::Sequence({Composition::Task("a"),
                                     Composition::Task("b"),
                                     Composition::Task("c")});
  auto res = f.orch.RunSync(comp, ">");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, ">abc");
  EXPECT_EQ(res->function_invocations, 3u);
}

TEST(OrchestratorTest, ParallelJoinsBranches) {
  Fixture f;
  auto comp = Composition::Parallel(
      {Composition::Task("a"), Composition::Task("b")});
  auto res = f.orch.RunSync(comp, "x");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "xa\nxb");
}

TEST(OrchestratorTest, ParallelCustomAggregator) {
  Fixture f;
  auto comp = Composition::Parallel(
      {Composition::Task("a"), Composition::Task("b")},
      [](const std::vector<std::string>& outs) {
        std::string joined;
        for (const auto& o : outs) joined += "[" + o + "]";
        return joined;
      });
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "[a][b]");
}

TEST(OrchestratorTest, ParallelRunsConcurrently) {
  Fixture f;
  f.RegisterAppender("slow1", 500 * kMillisecond);
  f.RegisterAppender("slow2", 500 * kMillisecond);
  auto par = Composition::Parallel(
      {Composition::Task("slow1"), Composition::Task("slow2")});
  auto res = f.orch.RunSync(par, "");
  ASSERT_TRUE(res.ok());
  // Concurrent: makespan ~ one execution (plus cold start), not two.
  EXPECT_LT(res->Makespan(), 2 * (500 * kMillisecond));
}

TEST(OrchestratorTest, ChoiceRoutesOnPredicate) {
  Fixture f;
  auto comp = Composition::Choice(
      [](const std::string& input) { return input == "left"; },
      Composition::Task("a"), Composition::Task("b"));
  EXPECT_EQ(f.orch.RunSync(comp, "left")->output, "lefta");
  EXPECT_EQ(f.orch.RunSync(comp, "right")->output, "rightb");
}

TEST(OrchestratorTest, CompositionIsAFunction) {
  // Property 2: a registered composition is invokable and nestable.
  Fixture f;
  ASSERT_TRUE(f.orch
                  .RegisterComposition(
                      "inner", Composition::Sequence({Composition::Task("a"),
                                                      Composition::Task("b")}))
                  .ok());
  // Nest it inside another composition as a black box.
  auto outer = Composition::Sequence(
      {Composition::Named("inner"), Composition::Task("c")});
  auto res = f.orch.RunSync(outer, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "abc");
  EXPECT_EQ(res->function_invocations, 3u);
  // And invokable by name directly.
  ExecutionResult by_name;
  ASSERT_TRUE(f.orch.RunNamed("inner", "", [&](const ExecutionResult& r) {
    by_name = r;
  }).ok());
  f.sim.Run();
  EXPECT_EQ(by_name.output, "ab");
}

TEST(OrchestratorTest, UnknownNamedCompositionFails) {
  Fixture f;
  auto res = f.orch.RunSync(Composition::Named("ghost"), "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsNotFound());
  EXPECT_TRUE(f.orch.RunNamed("ghost", "", nullptr).IsNotFound());
}

TEST(OrchestratorTest, UnregisteredFunctionFails) {
  Fixture f;
  auto res = f.orch.RunSync(
      Composition::Sequence(
          {Composition::Task("a"), Composition::Task("ghost")}),
      "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsNotFound()) << res->status.ToString();
  EXPECT_EQ(res->function_invocations, 1u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

TEST(OrchestratorTest, DuplicateRegistrationFails) {
  Fixture f;
  ASSERT_TRUE(
      f.orch.RegisterComposition("c1", Composition::Task("a")).ok());
  EXPECT_TRUE(f.orch.RegisterComposition("c1", Composition::Task("b"))
                  .IsAlreadyExists());
}

TEST(OrchestratorTest, NoDoubleBilling) {
  // Property 3: the orchestrated run charges exactly the sum of the basic
  // function invocations — verified against the platform's audit ledger.
  Fixture f;
  const Money before = f.platform.ledger().Total();
  auto comp = Composition::Sequence(
      {Composition::Task("a"),
       Composition::Parallel({Composition::Task("b"), Composition::Task("c"),
                              Composition::Task("a")}),
       Composition::Task("b")});
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  const Money ledger_delta = f.platform.ledger().Total() - before;
  // Exactly the function charges: nothing extra for the composition.
  EXPECT_EQ(res->cost, ledger_delta);
  EXPECT_EQ(res->function_invocations, 5u);
  EXPECT_EQ(f.platform.ledger().record_count(), 5u);
}

TEST(OrchestratorTest, NestedCompositionStillSingleBilled) {
  Fixture f;
  ASSERT_TRUE(f.orch
                  .RegisterComposition(
                      "inner", Composition::Parallel({Composition::Task("a"),
                                                      Composition::Task("b")}))
                  .ok());
  auto outer = Composition::Sequence(
      {Composition::Named("inner"), Composition::Named("inner")});
  const Money before = f.platform.ledger().Total();
  auto res = f.orch.RunSync(outer, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->cost, f.platform.ledger().Total() - before);
  EXPECT_EQ(res->function_invocations, 4u);
}

TEST(OrchestratorTest, FailurePropagates) {
  Fixture f;
  faas::FunctionSpec bad;
  bad.name = "bad";
  bad.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  bad.handler = [](const std::string&, faas::InvocationContext&)
      -> Result<std::string> { return Status::Aborted("boom"); };
  ASSERT_TRUE(f.platform.RegisterFunction(bad).ok());
  auto comp = Composition::Sequence(
      {Composition::Task("a"), Composition::Task("bad"),
       Composition::Task("c")});
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  // "c" never ran: a + bad's platform attempts only.
  EXPECT_EQ(res->function_invocations, 2u);
}

TEST(OrchestratorTest, RetryRerunsFailedSubtree) {
  Fixture f;
  int calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  flaky.handler = [&calls](const std::string& payload,
                           faas::InvocationContext&) -> Result<std::string> {
    if (++calls < 4) return Status::Aborted("not yet");
    return payload + "!";
  };
  ASSERT_TRUE(f.platform.RegisterFunction(flaky).ok());
  // Platform retries (3 attempts) fail; orchestration retry launches a
  // second invocation whose first attempt succeeds.
  auto comp = Composition::Retry(Composition::Task("flaky"), 2);
  auto res = f.orch.RunSync(comp, "x");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "x!");
  EXPECT_EQ(calls, 4);
  // Cost still equals the ledger: the failed attempts were billed too.
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

TEST(OrchestratorTest, EmptySequencePassesInputThrough) {
  Fixture f;
  auto res = f.orch.RunSync(Composition::Sequence({}), "untouched");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "untouched");
  EXPECT_EQ(res->cost, Money::Zero());
}

TEST(OrchestratorTest, BlackBoxProperty) {
  // Property 1: the composition references functions by name only — the
  // same composition runs against different function implementations.
  Fixture f;
  auto comp = Composition::Task("a");
  auto res1 = f.orch.RunSync(comp, "");
  EXPECT_EQ(res1->output, "a");

  // A second platform with a different implementation of "a".
  sim::Simulation sim2;
  cluster::Cluster cluster2{4, {32000, 65536}};
  faas::FaasPlatform platform2{&sim2, &cluster2, faas::FaasConfig{}};
  faas::FunctionSpec spec;
  spec.name = "a";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  spec.handler = [](const std::string&, faas::InvocationContext&)
      -> Result<std::string> { return std::string("other-impl"); };
  ASSERT_TRUE(platform2.RegisterFunction(spec).ok());
  Orchestrator orch2{&sim2, &platform2};
  auto res2 = orch2.RunSync(comp, "");
  EXPECT_EQ(res2->output, "other-impl");
}

// ------------------------------------------------ Fan-out/join edge rules

/// Registers a function that fails with `code` after `exec` (every attempt).
void RegisterFailing(Fixture& f, const std::string& name, StatusCode code,
                     SimDuration exec = kMillisecond) {
  faas::FunctionSpec spec;
  spec.name = name;
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
  spec.handler = [code, name](const std::string&, faas::InvocationContext&)
      -> Result<std::string> { return Status(code, name); };
  ASSERT_TRUE(f.platform.RegisterFunction(spec).ok());
}

TEST(OrchestratorTest, MapSplitKeepsEmptyItemsButDropsTrailingDelimiter) {
  Fixture f;
  const auto map = Composition::Map(Composition::Task("a"), ',');
  // Leading and middle empty items are items; the trailing ',' is not.
  auto res = f.orch.RunSync(map, ",x,,y,");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "a,xa,a,ya");
  EXPECT_EQ(res->function_invocations, 4u);
  // A lone delimiter is one empty item.
  EXPECT_EQ(f.orch.RunSync(map, ",")->output, "a");
  // Empty input: no items, no invocations, empty output.
  const Money before = f.platform.ledger().Total();
  auto empty = f.orch.RunSync(map, "");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->status.ok());
  EXPECT_EQ(empty->output, "");
  EXPECT_EQ(empty->function_invocations, 0u);
  EXPECT_EQ(f.platform.ledger().Total(), before);
}

TEST(OrchestratorTest, EmptyParallelPassesInputThrough) {
  Fixture f;
  auto res = f.orch.RunSync(Composition::Parallel({}), "untouched");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "untouched");
  EXPECT_EQ(res->function_invocations, 0u);
}

TEST(OrchestratorTest, FanOutReportsFirstErrorInCompletionOrder) {
  // Branch 0 fails late, branch 1 fails early: the join reports branch 1's
  // error — the first to complete, not the lowest index.
  Fixture f;
  RegisterFailing(f, "slow_bad", StatusCode::kAborted, 2 * kSecond);
  RegisterFailing(f, "fast_bad", StatusCode::kInvalidArgument);
  auto par = f.orch.RunSync(
      Composition::Parallel({Composition::Task("slow_bad"),
                             Composition::Task("fast_bad"),
                             Composition::Task("a")}),
      "");
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(par->status.IsInvalidArgument()) << par->status.ToString();
  EXPECT_EQ(par->output, "");
  EXPECT_EQ(par->function_invocations, 3u);

  // Map: item 0 routes to the slow failure, item 1 to the fast one.
  const auto map = Composition::Map(Composition::Choice(
      [](const std::string& in) { return in == "slow"; },
      Composition::Task("slow_bad"), Composition::Task("fast_bad")));
  auto mapped = f.orch.RunSync(map, "slow\nfast\nfast");
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->status.IsInvalidArgument())
      << mapped->status.ToString();
  EXPECT_EQ(mapped->function_invocations, 3u);
}

// ------------------------------------------------ Per-run cost ledger

TEST(OrchestratorTest, ParallelWithFailingBranchBillsEveryBranch) {
  Fixture f;
  RegisterFailing(f, "bad", StatusCode::kAborted);
  const Money before = f.platform.ledger().Total();
  auto res = f.orch.RunSync(
      Composition::Parallel({Composition::Task("a"), Composition::Task("bad"),
                             Composition::Task("b")}),
      "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  EXPECT_EQ(res->cost, f.platform.ledger().Total() - before);
  EXPECT_EQ(res->function_invocations, 3u);
  // a + b once each, "bad" on all three platform attempts.
  EXPECT_EQ(f.platform.ledger().record_count(), 5u);
}

TEST(OrchestratorTest, RetryBillsEveryAttempt) {
  // Succeeds on the third orchestration attempt: the first two each burn
  // the platform's three attempts.
  Fixture f;
  int calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  flaky.handler = [&calls](const std::string& payload,
                           faas::InvocationContext&) -> Result<std::string> {
    if (++calls <= 6) return Status::Aborted("not yet");
    return payload + "!";
  };
  ASSERT_TRUE(f.platform.RegisterFunction(flaky).ok());
  auto res = f.orch.RunSync(Composition::Retry(Composition::Task("flaky"), 3),
                            "x");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "x!");
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(res->function_invocations, 3u);
  EXPECT_EQ(f.platform.ledger().record_count(), 7u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

TEST(OrchestratorTest, DeadlineCutSequenceBillsOnlyWhatRan) {
  // The budget covers the first (cold) step and part of the chain; the
  // rest is cancelled before it invokes anything.
  Fixture f;
  std::vector<Composition> steps;
  for (int i = 0; i < 16; ++i) steps.push_back(Composition::Task("a"));
  const auto comp = Composition::WithDeadline(
      Composition::Sequence(std::move(steps)), 250 * kMillisecond);
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsDeadlineExceeded()) << res->status.ToString();
  EXPECT_GE(res->function_invocations, 1u);
  EXPECT_LT(res->function_invocations, 16u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
  EXPECT_EQ(f.platform.ledger().record_count(), res->function_invocations);
}

TEST(OrchestratorTest, RetryBackoffEndsAtTheDeadline) {
  // Every attempt fails within milliseconds while the exponential backoff
  // (50 ms doubling) soon outgrows what is left of the 2 s budget. The
  // backoff is cut at the deadline, so the run reports DeadlineExceeded at
  // the deadline instead of after waiting the full backoff out.
  Fixture f;
  RegisterFailing(f, "down", StatusCode::kUnavailable);
  const SimDuration budget = 2 * kSecond;
  const auto comp = Composition::WithDeadline(
      Composition::Retry(
          Composition::Task("down"),
          chaos::RetryPolicy::ExponentialJitter(50, 50 * kMillisecond, 0.3)),
      budget);
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsDeadlineExceeded()) << res->status.ToString();
  // One dispatch hop (median 2 ms) of slack past the deadline.
  const SimDuration dispatch_hop = 10 * kMillisecond;
  EXPECT_LE(res->end_us, res->start_us + budget + dispatch_hop);
  EXPECT_GE(res->function_invocations, 2u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

TEST(OrchestratorTest, KeyedMapOfRetryDedupesWithoutExtraBilling) {
  // Map over three items, each Retry(Sequence(a, flaky)); item "y" fails
  // its first orchestration attempt, so its re-run replays "a" from the
  // idempotency cache. Two armed re-deliveries are absorbed as well.
  Fixture f;
  chaos::InjectorRegistry registry(&f.sim);
  f.orch.AttachChaos(&registry);
  int y_calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  flaky.handler = [&y_calls](const std::string& payload,
                             faas::InvocationContext&) -> Result<std::string> {
    if (payload[0] == 'y' && ++y_calls <= 3) return Status::Aborted("y");
    return payload + "f";
  };
  ASSERT_TRUE(f.platform.RegisterFunction(flaky).ok());
  const auto comp = Composition::Map(Composition::Retry(
      Composition::Sequence(
          {Composition::Task("a"), Composition::Task("flaky")}),
      2));
  registry.Inject({0, chaos::FaultKind::kStepRedeliver, 0, 0});
  registry.Inject({0, chaos::FaultKind::kStepRedeliver, 0, 0});
  auto res = f.orch.RunKeyedSync("run", comp, "x\ny\nz");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok()) << res->status.ToString();
  EXPECT_EQ(res->output, "xaf\nyaf\nzaf");
  EXPECT_EQ(f.orch.stats().redelivered_steps, 2u);
  EXPECT_EQ(f.orch.stats().deduped_steps, 3u);
  // a x3, flaky x4 (y twice); the replayed "a" is not an invocation.
  EXPECT_EQ(res->function_invocations, 7u);
  // Ledger: a x3, flaky x (1 + 1 + 3 failed + 1) — nothing for replays.
  EXPECT_EQ(f.platform.ledger().record_count(), 9u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

// ------------------------------------------------ Long runs free their state

TEST(OrchestratorTest, LongSequenceFinishesAndFreesState) {
  Fixture f;
  std::vector<Composition> steps;
  for (int i = 0; i < 2000; ++i) steps.push_back(Composition::Task("a"));
  auto comp = Composition::Sequence(std::move(steps));
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->output.size(), 2000u);
  EXPECT_EQ(res->function_invocations, 2000u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
  // Nothing of the run still references the tree (LeakSanitizer checks the
  // continuation state itself).
  EXPECT_EQ(comp.root().use_count(), 1);
}

TEST(OrchestratorTest, LongRetryFinishesAndFreesState) {
  Fixture f;
  RegisterFailing(f, "bad", StatusCode::kAborted);
  auto comp = Composition::Retry(Composition::Task("bad"), 50);
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  EXPECT_EQ(res->function_invocations, 50u);
  EXPECT_EQ(f.platform.ledger().record_count(), 150u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
  EXPECT_EQ(comp.root().use_count(), 1);
}

// ------------------------------------------------ Parameterized chain sweep

class ChainDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepthSweep, CostGrowsLinearlyNoOverhead) {
  // E15's property at every depth: cost(chain of n) == n * cost(single).
  const int depth = GetParam();
  Fixture f;
  std::vector<Composition> steps;
  for (int i = 0; i < depth; ++i) steps.push_back(Composition::Task("a"));
  auto res = f.orch.RunSync(Composition::Sequence(std::move(steps)), "");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->function_invocations, uint64_t(depth));
  // All invocations identical (fixed exec) => identical per-call charge.
  const auto& records = f.platform.ledger().records();
  ASSERT_EQ(records.size(), size_t(depth));
  for (const auto& r : records) {
    EXPECT_EQ(r.amount, records[0].amount);
  }
  EXPECT_EQ(res->cost, records[0].amount * depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepthSweep,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace taureau::orchestration
