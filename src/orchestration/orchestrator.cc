#include "orchestration/orchestrator.h"

#include <algorithm>
#include <optional>

#include "common/hash.h"

namespace taureau::orchestration {

Orchestrator::Orchestrator(sim::Simulation* sim, faas::FaasPlatform* platform)
    : sim_(sim), platform_(platform) {}

Status Orchestrator::RegisterComposition(const std::string& name,
                                         Composition comp) {
  if (name.empty()) return Status::InvalidArgument("empty composition name");
  auto [it, inserted] = compositions_.emplace(name, std::move(comp));
  if (!inserted) {
    return Status::AlreadyExists("composition '" + name + "'");
  }
  return Status::OK();
}

void Orchestrator::Run(const Composition& comp, std::string input,
                       ExecutionCallback cb, guard::Deadline deadline) {
  RunKeyed("", comp, std::move(input), std::move(cb), deadline);
}

void Orchestrator::RunKeyed(const std::string& run_key, const Composition& comp,
                            std::string input, ExecutionCallback cb,
                            guard::Deadline deadline) {
  // The run's result is also its one cost ledger: only the Task leaf adds
  // to `cost` and `function_invocations` (property 3).
  auto run = std::make_shared<ExecutionResult>();
  run->start_us = sim_->Now();
  obs::TraceContext root;
  if (obs_ != nullptr) {
    root = obs_->tracer.StartSpan(
        run_key.empty() ? "run" : "run:" + run_key, "orchestration", {});
    // Tenant identity: a run belongs to the tenant owning its functions.
    // The first task leaf's FunctionSpec decides (compositions mixing
    // tenants are out of the model — one workflow, one account).
    const std::string tenant = FirstTaskTenant(comp.root());
    if (root.valid() && !tenant.empty()) {
      obs_->tracer.SetAttr(root, obs::kTenantAttr, tenant);
    }
    if (root.valid() && deadline.has_deadline()) {
      obs_->tracer.SetAttr(root, "deadline_us", std::to_string(deadline.at_us));
    }
  }
  Exec(comp.root(), std::move(input), Scope{run_key, root, deadline, run},
       [this, root, run, cb = std::move(cb)](Status s, std::string output) {
         run->status = std::move(s);
         run->output = std::move(output);
         run->end_us = sim_->Now();
         if (obs_ != nullptr && root.valid()) {
           const bool ok = run->status.ok();
           obs_->tracer.SetAttr(root, "status",
                                StatusCodeName(run->status.code()));
           obs_->tracer.SetAttr(root, "invocations",
                                std::to_string(run->function_invocations));
           // Outcome/severity at root close so tail sampling keeps every
           // failed run regardless of the head-sampling rate.
           obs_->tracer.SetAttr(root, obs::kOutcomeAttr,
                                ok ? obs::kOutcomeOk : obs::kOutcomeError);
           obs_->tracer.SetAttr(root, obs::kSeverityAttr,
                                ok ? "info" : "error");
           obs_->tracer.EndSpan(root);
         }
         if (cb) cb(*run);
       });
}

std::string Orchestrator::FirstTaskTenant(const NodePtr& node) const {
  if (node == nullptr) return "";
  if (node->kind == Composition::Kind::kTask) {
    auto spec = platform_->GetFunction(node->name);
    return spec.ok() ? spec->tenant : "";
  }
  if (node->kind == Composition::Kind::kNamed) {
    auto it = compositions_.find(node->name);
    return it != compositions_.end() ? FirstTaskTenant(it->second.root()) : "";
  }
  for (const auto& child : node->children) {
    std::string tenant = FirstTaskTenant(child);
    if (!tenant.empty()) return tenant;
  }
  return "";
}

Result<ExecutionResult> Orchestrator::RunKeyedSync(const std::string& run_key,
                                                   const Composition& comp,
                                                   std::string input) {
  std::optional<ExecutionResult> out;
  RunKeyed(run_key, comp, std::move(input),
           [&out](const ExecutionResult& res) { out = res; });
  while (!out.has_value()) {
    if (!sim_->Step()) {
      return Status::Internal("simulation drained before composition ended");
    }
  }
  return *out;
}

void Orchestrator::AttachObservability(obs::Observability* o) { obs_ = o; }

void Orchestrator::AttachChaos(chaos::InjectorRegistry* registry) {
  chaos_ = registry;
  registry->RegisterHook(
      "orchestration", chaos::FaultKind::kStepRedeliver,
      [this](const chaos::FaultEvent&) { ++armed_redelivers_; });
}

Status Orchestrator::RunNamed(const std::string& name, std::string input,
                              ExecutionCallback cb) {
  auto it = compositions_.find(name);
  if (it == compositions_.end()) {
    return Status::NotFound("composition '" + name + "'");
  }
  Run(it->second, std::move(input), std::move(cb));
  return Status::OK();
}

Orchestrator::Scope Orchestrator::Scope::Child(char tag, size_t i) const {
  Scope child = *this;
  if (!key.empty()) child.key += '/' + std::string(1, tag) + std::to_string(i);
  return child;
}

struct Orchestrator::SeqState {
  NodePtr node;
  size_t next = 0;  ///< Index of the child to run next.
  Scope scope;
  NodeDone done;
};

struct Orchestrator::FanState {
  NodePtr node;
  size_t remaining;
  std::vector<std::string> outputs;
  Status first_error;
  NodeDone done;
};

struct Orchestrator::RetryState {
  NodePtr node;
  std::string input;
  int attempt = 0;  ///< 0-based index of the attempt in flight.
  Scope scope;
  NodeDone done;
};

void Orchestrator::Exec(NodePtr node, std::string input, Scope scope,
                        NodeDone done) {
  using Kind = Composition::Kind;
  // Doomed work is cancelled before it invokes anything: a subtree whose
  // deadline has already passed cannot produce an output anyone waits for.
  if (scope.deadline.Expired(sim_->Now())) {
    if (guard_ != nullptr) {
      guard_->RecordDeadlineExceeded("orchestration", scope.ctx, sim_->Now(),
                                     sim_->Now());
    }
    done(Status::DeadlineExceeded("composition deadline expired"), "");
    return;
  }
  switch (node->kind) {
    case Kind::kTask:
      RunTask(*node, std::move(input), scope, std::move(done));
      return;
    case Kind::kNamed: {
      auto it = compositions_.find(node->name);
      if (it == compositions_.end()) {
        done(Status::NotFound("composition '" + node->name + "'"), "");
        return;
      }
      Exec(it->second.root(), std::move(input), std::move(scope),
           std::move(done));
      return;
    }
    case Kind::kSequence:
      SeqNext(std::make_shared<SeqState>(
                  SeqState{std::move(node), 0, std::move(scope),
                           std::move(done)}),
              Status::OK(), std::move(input));
      return;
    case Kind::kParallel: {
      if (node->children.empty()) {
        done(Status::OK(), std::move(input));
        return;
      }
      FanOut(node, std::vector<std::string>(node->children.size(), input),
             scope, std::move(done));
      return;
    }
    case Kind::kMap: {
      // Every delimiter ends an item (empty ones included); the remainder
      // after the last one is an item only when non-empty.
      std::vector<std::string> items;
      size_t begin = 0;
      for (size_t end; (end = input.find(node->map_delimiter, begin)) !=
                       std::string::npos;
           begin = end + 1) {
        items.push_back(input.substr(begin, end - begin));
      }
      if (begin < input.size()) items.push_back(input.substr(begin));
      FanOut(node, std::move(items), scope, std::move(done));
      return;
    }
    case Kind::kChoice: {
      const size_t branch = node->predicate && node->predicate(input) ? 0 : 1;
      Exec(node->children[branch], std::move(input), scope.Child('c', branch),
           std::move(done));
      return;
    }
    case Kind::kRetry: {
      // All attempts share the subtree key: steps that succeeded on an
      // earlier attempt replay from the idempotency cache on the re-run.
      RetryAttempt(std::make_shared<RetryState>(RetryState{
          std::move(node), std::move(input), 0, std::move(scope),
          std::move(done)}));
      return;
    }
    case Kind::kDeadline: {
      // Tighten-only: the child sees min(parent deadline, now + budget).
      const SimTime now = sim_->Now();
      scope.deadline = scope.deadline.Capped(now, node->deadline_budget_us);
      if (obs_ != nullptr && scope.ctx.valid()) {
        obs_->tracer.EmitSpan(
            "deadline-scope", "orchestration", scope.ctx, now, now,
            {{"budget_us", std::to_string(node->deadline_budget_us)},
             {"deadline_us", std::to_string(scope.deadline.at_us)}});
      }
      Exec(node->children[0], std::move(input), std::move(scope),
           std::move(done));
      return;
    }
  }
  done(Status::Internal("unknown composition node"), "");
}

void Orchestrator::RunTask(const Composition::Node& node, std::string input,
                           const Scope& scope, NodeDone done) {
  obs::TraceContext step;
  if (obs_ != nullptr) {
    step = obs_->tracer.StartSpan("step:" + node.name, "orchestration",
                                  scope.ctx);
    if (step.valid() && scope.deadline.has_deadline()) {
      // The deadline in force for this step — property-tested to never
      // exceed any enclosing stage's remaining budget.
      obs_->tracer.SetAttr(step, "deadline_us",
                           std::to_string(scope.deadline.at_us));
    }
  }
  // Closes the step span with the outcome; safe to call when untraced.
  auto end_step = [this, step](const Status& s) {
    if (obs_ == nullptr || !step.valid()) return;
    obs_->tracer.SetAttr(step, "status", StatusCodeName(s.code()));
    obs_->tracer.EndSpan(step);
  };
  std::string step_key;
  if (!scope.key.empty()) {
    // Idempotent execution: a step that already completed under this key
    // replays its recorded result — no second invocation, no second side
    // effect, no second charge.
    step_key = scope.key + ":" + node.name + ":" +
               std::to_string(Fnv1a64(input));
    if (const auto* hit = idempotency_.Lookup(step_key)) {
      ++stats_.deduped_steps;
      if (step.valid()) obs_->tracer.SetAttr(step, "deduped", "1");
      end_step(hit->status);
      done(hit->status, hit->output);
      return;
    }
  }
  // `done` is copied, not moved: Invoke consumes its callback even when it
  // fails synchronously (unregistered function).
  auto r = platform_->Invoke(
      node.name, std::move(input),
      [this, step_key = std::move(step_key), run = scope.run, end_step,
       done](const faas::InvocationResult& res) {
        run->cost += res.cost;
        ++run->function_invocations;
        if (res.status.ok() && !step_key.empty()) {
          idempotency_.Record(step_key, res.status, res.output);
          if (armed_redelivers_ > 0) {
            // Injected at-least-once duplicate: deliver the completed step
            // again and let the cache absorb it.
            --armed_redelivers_;
            ++stats_.redelivered_steps;
            if (idempotency_.Lookup(step_key) != nullptr) {
              ++stats_.deduped_steps;
              if (chaos_ != nullptr) {
                chaos_->RecordRecovery("orchestration",
                                       chaos::FaultKind::kStepRedeliver, res.id,
                                       "duplicate step delivery deduped");
              }
            }
          }
        }
        end_step(res.status);
        done(res.status, res.output);
      },
      step, scope.deadline);
  if (!r.ok()) {
    end_step(r.status());
    done(r.status(), "");
  }
}

void Orchestrator::FanOut(const NodePtr& node, std::vector<std::string> inputs,
                          const Scope& scope, NodeDone done) {
  if (inputs.empty()) {
    done(Status::OK(), "");
    return;
  }
  const bool map = node->kind == Composition::Kind::kMap;
  auto st = std::make_shared<FanState>(
      FanState{node, inputs.size(), std::vector<std::string>(inputs.size()),
               Status::OK(), std::move(done)});
  for (size_t i = 0; i < inputs.size(); ++i) {
    Exec(node->children[map ? 0 : i], std::move(inputs[i]),
         scope.Child(map ? 'm' : 'p', i),
         [st, i, sep = map ? node->map_delimiter : '\n'](Status s,
                                                         std::string out) {
           if (!s.ok() && st->first_error.ok()) {
             st->first_error = std::move(s);
           } else {
             st->outputs[i] = std::move(out);
           }
           if (--st->remaining > 0) return;
           if (!st->first_error.ok()) {
             st->done(st->first_error, "");
           } else if (st->node->aggregate) {
             st->done(Status::OK(), st->node->aggregate(st->outputs));
           } else {
             std::string joined;
             for (size_t j = 0; j < st->outputs.size(); ++j) {
               if (j) joined += sep;
               joined += st->outputs[j];
             }
             st->done(Status::OK(), std::move(joined));
           }
         });
  }
}

void Orchestrator::SeqNext(std::shared_ptr<SeqState> st, Status s,
                           std::string payload) {
  if (!s.ok() || st->next >= st->node->children.size()) {
    st->done(std::move(s), std::move(payload));
    return;
  }
  const size_t i = st->next++;
  Exec(st->node->children[i], std::move(payload), st->scope.Child('s', i),
       [this, st](Status cs, std::string out) {
         SeqNext(st, std::move(cs), std::move(out));
       });
}

void Orchestrator::RetryAttempt(std::shared_ptr<RetryState> st) {
  Exec(st->node->children[0], st->input, st->scope,
       [this, st](Status s, std::string out) {
         RetryDecide(st, std::move(s), std::move(out));
       });
}

void Orchestrator::RetryDecide(std::shared_ptr<RetryState> st, Status s,
                               std::string out) {
  const chaos::RetryPolicy& policy = st->node->retry_policy;
  bool want_retry =
      !s.ok() && policy.ShouldRetry(st->attempt) && !s.IsCancelled();
  if (want_retry && st->scope.deadline.Expired(sim_->Now())) {
    // No budget left to spend another attempt in.
    if (guard_ != nullptr) {
      guard_->RecordDeadlineExceeded("orchestration", st->scope.ctx,
                                     sim_->Now(), sim_->Now());
    }
    want_retry = false;
  }
  if (want_retry && guard_ != nullptr) {
    // Orchestration-level re-attempts draw from the same per-client retry
    // budget as platform attempts, so total retries stay a bounded
    // fraction of offered load.
    const bool granted = guard_->retry_budget().TryAcquire();
    guard_->RecordRetryDecision("orchestration", granted, st->scope.ctx,
                                sim_->Now());
    want_retry = granted;
  }
  if (!want_retry) {
    st->done(std::move(s), std::move(out));
    return;
  }
  // Exponential backoff (zero for plain Retry) before the next attempt,
  // cut at the deadline: waiting past it could only end in the
  // DeadlineExceeded the next attempt then reports on time.
  const int failed = st->attempt++;
  const SimDuration backoff =
      std::min(policy.BackoffFor(failed, &rng_),
               st->scope.deadline.Remaining(sim_->Now()));
  if (backoff <= 0) {
    RetryAttempt(std::move(st));
    return;
  }
  if (obs_ != nullptr && st->scope.ctx.valid()) {
    const SimTime now = sim_->Now();
    obs_->tracer.EmitSpan("retry-wait", "orchestration", st->scope.ctx, now,
                          now + backoff,
                          {{obs::kCategoryAttr, "retry"},
                           {"failed_attempt", std::to_string(failed)}});
  }
  sim_->Schedule(backoff, [this, st = std::move(st)] { RetryAttempt(st); });
}

}  // namespace taureau::orchestration
