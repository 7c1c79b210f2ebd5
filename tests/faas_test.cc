// Unit tests for the FaaS platform: lifecycle, cold/warm starts, keep-alive,
// throttling, timeouts, retries, billing, server-pool baseline.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "cluster/cluster.h"
#include "faas/billing.h"
#include "faas/platform.h"
#include "faas/server_pool.h"
#include "sim/simulation.h"

namespace taureau::faas {
namespace {

struct Fixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  FaasConfig config;
  std::unique_ptr<FaasPlatform> platform;

  explicit Fixture(FaasConfig cfg = {}) : config(cfg) {
    platform = std::make_unique<FaasPlatform>(&sim, &cluster, config);
  }

  FunctionSpec SimpleSpec(const std::string& name,
                          SimDuration exec = 50 * kMillisecond) {
    FunctionSpec spec;
    spec.name = name;
    spec.exec = {ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.init_us = 100 * kMillisecond;
    return spec;
  }
};

// ------------------------------------------------------------ Registration

TEST(FaasPlatformTest, RegisterAndLookup) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto spec = f.platform->GetFunction("fn");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "fn");
  EXPECT_TRUE(f.platform->GetFunction("ghost").status().IsNotFound());
}

TEST(FaasPlatformTest, DuplicateRegistrationFails) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  EXPECT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn")).IsAlreadyExists());
}

TEST(FaasPlatformTest, InvalidSpecsRejected) {
  Fixture f;
  FunctionSpec unnamed;
  unnamed.name = "";
  EXPECT_TRUE(f.platform->RegisterFunction(unnamed).IsInvalidArgument());
  FunctionSpec bad_timeout = f.SimpleSpec("t");
  bad_timeout.timeout_us = 0;
  EXPECT_TRUE(f.platform->RegisterFunction(bad_timeout).IsInvalidArgument());
}

TEST(FaasPlatformTest, InvokeUnknownFunctionFails) {
  Fixture f;
  EXPECT_TRUE(
      f.platform->Invoke("ghost", "", nullptr).status().IsNotFound());
}

// -------------------------------------------------------- Cold/warm starts

TEST(FaasPlatformTest, FirstInvocationIsCold) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto res = f.platform->InvokeSync("fn", "payload");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_TRUE(res->cold_start);
  EXPECT_GT(res->startup_us, 100 * kMillisecond);  // runtime + init
  EXPECT_EQ(f.platform->metrics().cold_starts, 1u);
}

TEST(FaasPlatformTest, SecondInvocationIsWarm) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "a").ok());
  auto res = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->cold_start);
  EXPECT_EQ(res->startup_us, 0);
  EXPECT_EQ(f.platform->metrics().warm_starts, 1u);
}

TEST(FaasPlatformTest, WarmStartMuchFasterThanCold) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  auto cold = f.platform->InvokeSync("fn", "a");
  auto warm = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cold->EndToEnd(), warm->EndToEnd() + 100 * kMillisecond);
}

TEST(FaasPlatformTest, KeepAliveExpiryForcesColdStart) {
  FaasConfig cfg;
  cfg.keep_alive_us = 1 * kMinute;
  Fixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  ASSERT_TRUE(f.platform->InvokeSync("fn", "a").ok());
  EXPECT_EQ(f.platform->warm_container_count("fn"), 1u);
  // Let the keep-alive lapse.
  f.sim.RunUntil(f.sim.Now() + 2 * kMinute);
  EXPECT_EQ(f.platform->warm_container_count("fn"), 0u);
  auto res = f.platform->InvokeSync("fn", "b");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->cold_start);
}

TEST(FaasPlatformTest, ZeroKeepAliveAlwaysCold) {
  FaasConfig cfg;
  cfg.keep_alive_us = 0;
  Fixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  for (int i = 0; i < 3; ++i) {
    auto res = f.platform->InvokeSync("fn", "x");
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->cold_start) << i;
  }
  EXPECT_EQ(f.platform->metrics().cold_starts, 3u);
}

TEST(FaasPlatformTest, StatelessnessContainerCacheScopedToContainer) {
  // §4.1: functions are stateless; warm-container cache survives only while
  // the container lives.
  FaasConfig cfg;
  cfg.keep_alive_us = 1 * kMinute;
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("counter");
  spec.handler = [](const std::string&, InvocationContext& ctx)
      -> Result<std::string> {
    auto& cache = *ctx.container_cache;
    const int prev = cache.count("n") ? std::stoi(cache["n"]) : 0;
    cache["n"] = std::to_string(prev + 1);
    return cache["n"];
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "1");
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "2");  // warm
  f.sim.RunUntil(f.sim.Now() + 2 * kMinute);  // container dies
  EXPECT_EQ(f.platform->InvokeSync("counter", "")->output, "1");  // fresh
}

// ----------------------------------------------------- Timeouts + retries

TEST(FaasPlatformTest, TimeoutKillsAndRetries) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(2);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("slow", /*exec=*/10 * kMinute);
  spec.timeout_us = 1 * kSecond;
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("slow", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsTimeout());
  EXPECT_EQ(res->attempts, 2);  // original + 1 retry
  EXPECT_EQ(f.platform->metrics().timeouts, 2u);
  EXPECT_EQ(res->exec_us, 1 * kSecond);  // killed at the limit
}

TEST(FaasPlatformTest, InjectedFailureRetriesThenSucceeds) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(6);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("flaky");
  int calls = 0;
  spec.handler = [&calls](const std::string&, InvocationContext&)
      -> Result<std::string> {
    if (++calls < 3) return Status::Aborted("transient");
    return std::string("ok");
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("flaky", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "ok");
  EXPECT_EQ(res->attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(FaasPlatformTest, RetriesExhaustedReportsFailure) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(3);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("doomed");
  spec.handler = [](const std::string&, InvocationContext&)
      -> Result<std::string> { return Status::Aborted("always"); };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("doomed", "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  EXPECT_EQ(res->attempts, 3);
  EXPECT_EQ(f.platform->metrics().exhausted, 1u);
}

TEST(FaasPlatformTest, EveryAttemptIsBilled) {
  // Real FaaS platforms bill failed attempts too.
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::Immediate(3);
  Fixture f(cfg);
  FunctionSpec spec = f.SimpleSpec("doomed");
  spec.handler = [](const std::string&, InvocationContext&)
      -> Result<std::string> { return Status::Aborted("always"); };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("doomed", "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(f.platform->ledger().record_count(), 3u);
  EXPECT_EQ(res->cost, f.platform->ledger().Total());
}

// -------------------------------------------------------------- Throttling

TEST(FaasPlatformTest, ThrottleRejectsWhenConfigured) {
  FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_on_throttle = false;
  Fixture f(cfg);
  ASSERT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
  int ok = 0, throttled = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.platform
                    ->Invoke("fn", "",
                             [&](const InvocationResult& r) {
                               r.status.ok() ? ++ok : ++throttled;
                             })
                    .ok());
  }
  f.sim.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(throttled, 2);
  EXPECT_EQ(f.platform->metrics().throttled, 2u);
}

TEST(FaasPlatformTest, QueueDrainsWhenCapacityFrees) {
  FaasConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_on_throttle = true;
  Fixture f(cfg);
  ASSERT_TRUE(
      f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.platform
                    ->Invoke("fn", "",
                             [&](const InvocationResult& r) {
                               ASSERT_TRUE(r.status.ok());
                               ++done;
                             })
                    .ok());
  }
  f.sim.Run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(f.platform->metrics().throttled, 0u);
  // Serialized through one container => 4 warm starts after the first cold.
  EXPECT_EQ(f.platform->metrics().cold_starts, 1u);
  EXPECT_EQ(f.platform->metrics().warm_starts, 4u);
}

TEST(FaasPlatformTest, SingleAttemptLatencyPartsSumToEndToEnd) {
  // Two containers for eight requests: the first two start cold after the
  // dispatch hop, the rest also wait for capacity. For every invocation
  // that ran exactly one attempt, queue + startup + exec is the whole
  // end-to-end latency.
  FaasConfig cfg;
  cfg.max_concurrency = 2;
  cfg.queue_on_throttle = true;
  Fixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  std::vector<InvocationResult> results;
  auto record = [&](const InvocationResult& r) { results.push_back(r); };
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(f.platform->Invoke("fn", "", record).ok());
  }
  // Later, on an idle warm pool: a dispatch hop and no capacity wait.
  f.sim.ScheduleAt(10 * kSecond, [&] {
    ASSERT_TRUE(f.platform->Invoke("fn", "", record).ok());
  });
  f.sim.Run();
  ASSERT_EQ(results.size(), 9u);
  SimDuration max_queue = 0;
  for (const InvocationResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.attempts, 1);
    EXPECT_GT(r.queue_us, 0);
    EXPECT_EQ(r.queue_us + r.startup_us + r.exec_us, r.EndToEnd())
        << "invocation " << r.id;
    max_queue = std::max(max_queue, r.queue_us);
  }
  // The last queued request waited behind three rounds of execution.
  EXPECT_GT(max_queue, 3 * 50 * kMillisecond);
}

// Capacity freed by something other than a finishing attempt must still
// admit queued work. Two idle "a" containers fill the only machine, so a
// "b" invoked at 500 ms queues until a slot frees: at the keep-alive
// teardown, or at `flush_at_us` when that is > 0 (FlushWarmPool).
void ExpectQueuedInvokeAdmitted(SimDuration keep_alive_us,
                                SimTime flush_at_us) {
  sim::Simulation sim;
  cluster::Cluster cluster(1, {1000, 2048});  // Room for two containers.
  FaasConfig config;
  config.keep_alive_us = keep_alive_us;
  FaasPlatform platform(&sim, &cluster, config);
  for (const char* name : {"a", "b"}) {
    FunctionSpec spec;
    spec.name = name;
    spec.demand = {500, 256};
    spec.exec = {ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
    ASSERT_TRUE(platform.RegisterFunction(std::move(spec)).ok());
  }
  ASSERT_TRUE(platform.Invoke("a", "1", [](const InvocationResult&) {}).ok());
  ASSERT_TRUE(platform.Invoke("a", "2", [](const InvocationResult&) {}).ok());
  int callbacks_b = 0;
  sim.ScheduleAt(500 * kMillisecond, [&] {
    ASSERT_TRUE(platform
                    .Invoke("b", "3",
                            [&](const InvocationResult& r) {
                              EXPECT_TRUE(r.status.ok());
                              ++callbacks_b;
                            })
                    .ok());
  });
  if (flush_at_us > 0) {
    sim.ScheduleAt(flush_at_us, [&] { platform.FlushWarmPool(); });
  }
  sim.Run();
  EXPECT_EQ(callbacks_b, 1);
  EXPECT_EQ(platform.pending_queue_depth(), 0u);
}

TEST(FaasPlatformTest, KeepAliveTeardownDrainsQueue) {
  ExpectQueuedInvokeAdmitted(1 * kSecond, /*flush_at_us=*/0);
}

TEST(FaasPlatformTest, FlushWarmPoolDrainsQueue) {
  ExpectQueuedInvokeAdmitted(1 * kMinute, /*flush_at_us=*/600 * kMillisecond);
}

// -------------------------------------------------------------- Handlers

TEST(FaasPlatformTest, HandlerReceivesPayloadAndContext) {
  Fixture f;
  FunctionSpec spec = f.SimpleSpec("echo");
  spec.handler = [](const std::string& payload, InvocationContext& ctx)
      -> Result<std::string> {
    EXPECT_GT(ctx.invocation_id, 0u);
    EXPECT_EQ(ctx.attempt, 0);
    return "echo:" + payload;
  };
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto res = f.platform->InvokeSync("echo", "hello");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "echo:hello");
}

TEST(FaasPlatformTest, PerByteExecModelScalesWithPayload) {
  Fixture f;
  FunctionSpec spec;
  spec.name = "scaler";
  spec.exec = {ExecTimeModel::Kind::kPerByte, 1 * kMillisecond, 0, 10.0};
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  auto small = f.platform->InvokeSync("scaler", std::string(100, 'x'));
  auto large = f.platform->InvokeSync("scaler", std::string(10000, 'x'));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->exec_us, small->exec_us * 50);
}

// ------------------------------------------- Cancellation and chaos kills

// A platform with tracing attached, so a stopped attempt's queue -> cold ->
// exec timeline can be checked span by span.
struct TracedFixture : Fixture {
  obs::Observability o{&sim};

  explicit TracedFixture(FaasConfig cfg = {}) : Fixture(cfg) {
    platform->AttachObservability(&o);
  }

  /// The children of root `root_index`, by span name.
  std::map<std::string, const obs::Span*> Children(size_t root_index) const {
    std::map<std::string, const obs::Span*> out;
    const auto roots = o.tracer.Roots();
    if (root_index >= roots.size()) return out;
    for (uint64_t id : o.tracer.ChildrenOf(roots[root_index])) {
      const obs::Span* s = o.tracer.Find(id);
      out[s->name.str()] = s;
    }
    return out;
  }

  const obs::Span* Root(size_t root_index) const {
    const auto roots = o.tracer.Roots();
    return root_index < roots.size() ? o.tracer.Find(roots[root_index])
                                     : nullptr;
  }
};

// The single attempt of a stopped invocation: queue -> cold-start -> exec,
// contiguous, the last one ending at `stop_us`, with durations matching the
// result.
void ExpectStoppedAttemptSpans(const TracedFixture& f,
                               const InvocationResult& res, SimTime stop_us) {
  const auto spans = f.Children(0);
  ASSERT_EQ(spans.size(), 3u);
  const obs::Span* queue = spans.at("queue");
  const obs::Span* cold = spans.at("cold-start");
  const obs::Span* exec = spans.at("exec");
  EXPECT_EQ(queue->start_us, res.submit_us);
  EXPECT_EQ(queue->end_us, cold->start_us);
  EXPECT_EQ(cold->end_us, exec->start_us);
  EXPECT_EQ(exec->end_us, stop_us);
  EXPECT_EQ(cold->duration_us(), res.startup_us);
  EXPECT_EQ(exec->duration_us(), res.exec_us);
  EXPECT_EQ(exec->attrs.at("status"), StatusCodeName(res.status.code()));
  EXPECT_EQ(f.Root(0)->end_us, stop_us);
}

TEST(FaasPlatformTest, CancelWhileQueuedNeverRuns) {
  FaasConfig cfg;
  cfg.max_concurrency = 1;
  TracedFixture f(cfg);
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn", kSecond)).ok());
  std::optional<InvocationResult> first, second;
  ASSERT_TRUE(f.platform
                  ->Invoke("fn", "a",
                           [&](const InvocationResult& r) { first = r; })
                  .ok());
  auto id = f.platform->Invoke("fn", "b",
                               [&](const InvocationResult& r) { second = r; });
  ASSERT_TRUE(id.ok());
  f.sim.ScheduleAt(500 * kMillisecond, [&] {
    EXPECT_EQ(f.platform->pending_queue_depth(), 1u);
    EXPECT_TRUE(f.platform->CancelInvocation(*id));
    EXPECT_EQ(f.platform->pending_queue_depth(), 0u);
    ASSERT_TRUE(second.has_value());  // completes at the cancel, not later
  });
  f.sim.Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->status.ok());
  EXPECT_TRUE(second->status.IsCancelled());
  EXPECT_EQ(second->attempts, 1);
  EXPECT_FALSE(second->cold_start);
  EXPECT_EQ(second->startup_us, 0);
  EXPECT_EQ(second->exec_us, 0);
  EXPECT_EQ(second->end_us, 500 * kMillisecond);
  EXPECT_EQ(second->cost, Money::Zero());
  EXPECT_EQ(f.platform->ledger().record_count(), 1u);  // the first only
  EXPECT_FALSE(f.platform->CancelInvocation(*id));     // already terminal
  // It never reached a container: no attempt spans, root ends at the cancel.
  EXPECT_TRUE(f.Children(1).empty());
  EXPECT_EQ(f.Root(1)->end_us, 500 * kMillisecond);
  EXPECT_EQ(f.Root(1)->attrs.at("status"), "Cancelled");
}

TEST(FaasPlatformTest, CancelDuringDispatchDelayCompletesAtDispatch) {
  Fixture f;
  ASSERT_TRUE(f.platform->RegisterFunction(f.SimpleSpec("fn")).ok());
  std::optional<InvocationResult> res;
  auto id = f.platform->Invoke("fn", "",
                               [&](const InvocationResult& r) { res = r; });
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(f.platform->CancelInvocation(*id));
  EXPECT_FALSE(res.has_value());  // the callback never fires inside Cancel
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.IsCancelled());
  EXPECT_EQ(res->attempts, 1);
  EXPECT_EQ(res->startup_us, 0);
  EXPECT_EQ(res->exec_us, 0);
  EXPECT_GT(res->end_us, 0);  // at the dispatch event
  EXPECT_EQ(res->cost, Money::Zero());
  EXPECT_EQ(f.platform->ledger().record_count(), 0u);
  EXPECT_EQ(f.platform->metrics().cold_starts, 0u);
  EXPECT_EQ(f.platform->active_containers(), 0u);
}

TEST(FaasPlatformTest, CancelMidColdStartBillsNoExecAndDestroysContainer) {
  TracedFixture f;
  const FunctionSpec spec = f.SimpleSpec("fn", 10 * kSecond);
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  std::optional<InvocationResult> res;
  auto id = f.platform->Invoke("fn", "",
                               [&](const InvocationResult& r) { res = r; });
  ASSERT_TRUE(id.ok());
  const SimTime stop_us = 50 * kMillisecond;  // startup takes >= 100 ms
  f.sim.ScheduleAt(stop_us, [&] {
    EXPECT_TRUE(f.platform->CancelInvocation(*id));
    // Its init never finished: the container is destroyed, not pooled.
    EXPECT_EQ(f.platform->active_containers(), 0u);
    EXPECT_EQ(f.platform->warm_container_count("fn"), 0u);
  });
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.IsCancelled());
  EXPECT_EQ(res->attempts, 1);
  EXPECT_TRUE(res->cold_start);
  EXPECT_EQ(res->end_us, stop_us);
  EXPECT_EQ(res->exec_us, 0);
  EXPECT_GT(res->startup_us, 0);
  EXPECT_LT(res->startup_us, stop_us);
  ASSERT_EQ(f.platform->ledger().record_count(), 1u);
  EXPECT_EQ(f.platform->ledger().records()[0].raw_duration_us, 0);
  EXPECT_EQ(res->cost, f.platform->ledger().Price(0, spec.demand.memory_mb));
  EXPECT_EQ(res->cost, f.platform->ledger().Total());
  EXPECT_EQ(f.platform->metrics().failures, 0u);
  EXPECT_EQ(f.platform->metrics().exec_latency_us.count(), 1u);
  ExpectStoppedAttemptSpans(f, *res, stop_us);
  // The next invocation pays a cold start of its own.
  auto next = f.platform->InvokeSync("fn", "");
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->cold_start);
}

TEST(FaasPlatformTest, CancelMidExecBillsElapsedExecOnly) {
  TracedFixture f;
  const FunctionSpec spec = f.SimpleSpec("fn", 10 * kSecond);
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  std::optional<InvocationResult> res;
  auto id = f.platform->Invoke("fn", "",
                               [&](const InvocationResult& r) { res = r; });
  ASSERT_TRUE(id.ok());
  const SimTime stop_us = 5 * kSecond;
  f.sim.ScheduleAt(stop_us, [&] {
    EXPECT_TRUE(f.platform->CancelInvocation(*id));
    EXPECT_EQ(f.platform->warm_container_count("fn"), 1u);
  });
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.IsCancelled());
  EXPECT_EQ(res->attempts, 1);
  EXPECT_TRUE(res->cold_start);
  EXPECT_EQ(res->end_us, stop_us);
  EXPECT_GT(res->startup_us, 100 * kMillisecond);  // runtime + init, whole
  EXPECT_GT(res->exec_us, 4 * kSecond);
  EXPECT_LT(res->exec_us, stop_us);
  ASSERT_EQ(f.platform->ledger().record_count(), 1u);
  EXPECT_EQ(f.platform->ledger().records()[0].raw_duration_us, res->exec_us);
  EXPECT_EQ(res->cost,
            f.platform->ledger().Price(res->exec_us, spec.demand.memory_mb));
  EXPECT_EQ(f.platform->metrics().failures, 0u);
  ExpectStoppedAttemptSpans(f, *res, stop_us);
  EXPECT_EQ(f.Children(0).at("exec")->attrs.count("killed"), 0u);
}

TEST(FaasPlatformTest, ChaosKillMidColdStartDestroysContainer) {
  FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::None();  // surface the killed attempt
  TracedFixture f(cfg);
  const FunctionSpec spec = f.SimpleSpec("fn", 10 * kSecond);
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  std::optional<InvocationResult> res;
  ASSERT_TRUE(f.platform
                  ->Invoke("fn", "",
                           [&](const InvocationResult& r) { res = r; })
                  .ok());
  const SimTime stop_us = 50 * kMillisecond;
  f.sim.ScheduleAt(stop_us, [&] {
    EXPECT_TRUE(f.platform->KillContainer(/*first container=*/1, "test"));
    EXPECT_EQ(f.platform->active_containers(), 0u);
    EXPECT_EQ(f.platform->warm_container_count("fn"), 0u);
  });
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.IsUnavailable());
  EXPECT_EQ(res->attempts, 1);
  EXPECT_TRUE(res->cold_start);
  EXPECT_EQ(res->end_us, stop_us);
  EXPECT_EQ(res->exec_us, 0);
  EXPECT_GT(res->startup_us, 0);
  EXPECT_LT(res->startup_us, stop_us);
  ASSERT_EQ(f.platform->ledger().record_count(), 1u);
  EXPECT_EQ(f.platform->ledger().records()[0].raw_duration_us, 0);
  EXPECT_EQ(res->cost, f.platform->ledger().Price(0, spec.demand.memory_mb));
  const auto& m = f.platform->metrics();
  EXPECT_EQ(m.killed_containers, 1u);
  EXPECT_EQ(m.failures, 1u);
  EXPECT_EQ(m.exhausted, 1u);
  EXPECT_EQ(m.chaos_recoveries, 0u);
  ExpectStoppedAttemptSpans(f, *res, stop_us);
  EXPECT_EQ(f.Children(0).at("exec")->attrs.at("killed"), "1");
}

TEST(FaasPlatformTest, ChaosKillMidExecRetriesOnFreshContainer) {
  TracedFixture f;  // default policy: 3 immediate attempts
  const FunctionSpec spec = f.SimpleSpec("fn", 1 * kSecond);
  ASSERT_TRUE(f.platform->RegisterFunction(spec).ok());
  std::optional<InvocationResult> res;
  ASSERT_TRUE(f.platform
                  ->Invoke("fn", "",
                           [&](const InvocationResult& r) { res = r; })
                  .ok());
  const SimTime kill_us = 800 * kMillisecond;  // exec began by ~352 ms
  f.sim.ScheduleAt(kill_us, [&] {
    EXPECT_TRUE(f.platform->KillContainer(/*first container=*/1, "test"));
  });
  f.sim.Run();
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->attempts, 2);
  EXPECT_TRUE(res->cold_start);  // the retry cold-starts a new container
  EXPECT_EQ(res->exec_us, 1 * kSecond);
  const auto& records = f.platform->ledger().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GT(records[0].raw_duration_us, 0);
  EXPECT_LT(records[0].raw_duration_us, 1 * kSecond);
  EXPECT_EQ(res->cost, f.platform->ledger().Total());
  const auto& m = f.platform->metrics();
  EXPECT_EQ(m.killed_containers, 1u);
  EXPECT_EQ(m.cold_starts, 2u);
  EXPECT_EQ(m.chaos_recoveries, 1u);
  // The killed attempt's exec span ends at the kill and bills what it ran.
  int killed_execs = 0;
  for (const auto& root_child : f.o.tracer.ChildrenOf(f.o.tracer.Roots()[0])) {
    const obs::Span* s = f.o.tracer.Find(root_child);
    if (s->name == "exec" && s->attrs.count("killed")) {
      ++killed_execs;
      EXPECT_EQ(s->end_us, kill_us);
      EXPECT_EQ(s->duration_us(), records[0].raw_duration_us);
    }
  }
  EXPECT_EQ(killed_execs, 1);
}

// ---------------------------------------------------------------- Billing

TEST(BillingTest, RoundsUpToQuantum) {
  BillingLedger ledger(BillingRates{});
  // 150ms at 100ms quantum bills as 200ms.
  const Money m150 = ledger.Price(150 * kMillisecond, 1024);
  const Money m200 = ledger.Price(200 * kMillisecond, 1024);
  EXPECT_EQ(m150, m200);
  const Money m201 = ledger.Price(201 * kMillisecond, 1024);
  EXPECT_GT(m201, m200);
}

TEST(BillingTest, ScalesWithMemory) {
  BillingLedger ledger(BillingRates{});
  const Money gb = ledger.Price(kSecond, 1024);
  const Money half = ledger.Price(kSecond, 512);
  // Subtract the flat request fee before comparing the duration component;
  // integer pricing truncates, so allow 1 nano-dollar of rounding.
  const Money fee = BillingRates{}.per_request;
  EXPECT_NEAR(double((gb - fee).nano_dollars()),
              double((half - fee).nano_dollars() * 2), 1.0);
}

TEST(BillingTest, LambdaCalibration) {
  // 1GB-second should cost ~$1.6667e-5 plus the request fee.
  BillingLedger ledger(BillingRates{});
  const Money m = ledger.Price(kSecond, 1024);
  EXPECT_NEAR(m.dollars(), 1.6667e-5 + 2e-7, 1e-6);
}

TEST(BillingTest, LedgerAccumulatesPerFunction) {
  BillingLedger ledger(BillingRates{});
  ledger.Charge(1, 0, "a", 100 * kMillisecond, 128);
  ledger.Charge(2, 0, "a", 100 * kMillisecond, 128);
  ledger.Charge(3, 0, "b", 100 * kMillisecond, 128);
  EXPECT_EQ(ledger.record_count(), 3u);
  EXPECT_EQ(ledger.TotalFor("a") + ledger.TotalFor("b"), ledger.Total());
  EXPECT_GT(ledger.TotalFor("a"), ledger.TotalFor("b"));
}

TEST(BillingTest, FinerQuantumNeverCostsMore) {
  BillingRates coarse;  // 100ms
  BillingRates fine;
  fine.quantum_us = 1 * kMillisecond;
  BillingLedger lc(coarse), lf(fine);
  for (SimDuration d : {3 * kMillisecond, 57 * kMillisecond,
                        130 * kMillisecond, 990 * kMillisecond}) {
    EXPECT_LE(lf.Price(d, 512).nano_dollars(),
              lc.Price(d, 512).nano_dollars())
        << d;
  }
}

// ------------------------------------------------------------- ServerPool

TEST(ServerPoolTest, ServesWithinCapacityImmediately) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 2, .per_server_concurrency = 2,
                         .breaker = {},
                         .admission = {}});
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(kSecond, [&](SimDuration wait) {
      EXPECT_EQ(wait, 0);
      ++done;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(pool.completed(), 4u);
}

TEST(ServerPoolTest, QueuesBeyondCapacity) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 1, .per_server_concurrency = 1,
                         .breaker = {},
                         .admission = {}});
  std::vector<SimDuration> waits;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(kSecond, [&](SimDuration wait) { waits.push_back(wait); });
  }
  sim.Run();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[0], 0);
  EXPECT_EQ(waits[1], kSecond);
  EXPECT_EQ(waits[2], 2 * kSecond);
}

TEST(ServerPoolTest, UtilizationIntegral) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 1, .per_server_concurrency = 1,
                         .breaker = {},
                         .admission = {}});
  pool.Submit(kSecond);
  sim.Run();
  sim.RunUntil(2 * kSecond);
  EXPECT_NEAR(pool.Utilization(), 0.5, 1e-9);
}

TEST(ServerPoolTest, ReservedCostIndependentOfLoad) {
  sim::Simulation sim;
  ServerPool pool(&sim, {.num_servers = 3,
                         .per_server_concurrency = 1,
                         .machine_hour_price = Money::FromDollars(0.10),
                         .breaker = {},
                         .admission = {}});
  EXPECT_EQ(pool.CostFor(kHour).nano_dollars(), 300000000);  // $0.30
}

// ------------------------------------------- Parameterized keep-alive sweep

class KeepAliveSweep : public ::testing::TestWithParam<SimDuration> {};

TEST_P(KeepAliveSweep, LongerKeepAliveNeverIncreasesColdStarts) {
  // Property behind E2: cold-start count is monotone non-increasing in the
  // keep-alive duration for a fixed arrival pattern.
  auto run = [](SimDuration keep_alive) {
    FaasConfig cfg;
    cfg.keep_alive_us = keep_alive;
    Fixture f(cfg);
    FunctionSpec spec = f.SimpleSpec("fn", 10 * kMillisecond);
    EXPECT_TRUE(f.platform->RegisterFunction(spec).ok());
    // Deterministic arrivals every 45 seconds.
    for (int i = 0; i < 20; ++i) {
      f.platform->Invoke("fn", "", nullptr);
      f.sim.RunUntil(f.sim.Now() + 45 * kSecond);
    }
    f.sim.Run();
    return f.platform->metrics().cold_starts;
  };
  const SimDuration ka = GetParam();
  EXPECT_GE(run(ka), run(ka * 4));
}

INSTANTIATE_TEST_SUITE_P(Durations, KeepAliveSweep,
                         ::testing::Values(10 * kSecond, 30 * kSecond,
                                           60 * kSecond));

}  // namespace
}  // namespace taureau::faas
