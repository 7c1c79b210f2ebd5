#include "ctrl/rollout.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace taureau::ctrl {

HealthSource HealthFromSlo(const obs::SloEngine* engine, std::string objective,
                           SimDuration long_window_us,
                           SimDuration short_window_us) {
  return [engine, objective = std::move(objective), long_window_us,
          short_window_us](SimTime now) {
    BurnSample s;
    s.long_burn = engine->BurnRate(objective, long_window_us, now);
    s.short_burn = engine->BurnRate(objective, short_window_us, now);
    return s;
  };
}

std::string_view RolloutStateName(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle:
      return "idle";
    case RolloutState::kRunning:
      return "running";
    case RolloutState::kCompleted:
      return "completed";
    case RolloutState::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

namespace {

std::string_view EventKindName(RolloutEvent::Kind k) {
  switch (k) {
    case RolloutEvent::Kind::kBegin:
      return "begin";
    case RolloutEvent::Kind::kAdvance:
      return "advance";
    case RolloutEvent::Kind::kRollback:
      return "rollback";
    case RolloutEvent::Kind::kComplete:
      return "complete";
  }
  return "unknown";
}

}  // namespace

RolloutController::RolloutController(sim::Simulation* sim,
                                     ConfigService* service,
                                     RolloutPolicy policy)
    : sim_(sim), service_(service), policy_(std::move(policy)) {
  assert(!policy_.stage_fractions.empty());
  BindMetrics();
}

void RolloutController::BindMetrics() {
  h_.begun = registry_->ResolveCounter("ctrl.rollout.begun");
  h_.advanced = registry_->ResolveCounter("ctrl.rollout.advanced");
  h_.rolled_back = registry_->ResolveCounter("ctrl.rollout.rolled_back");
  h_.completed = registry_->ResolveCounter("ctrl.rollout.completed");
  h_.stage = registry_->ResolveGauge("ctrl.rollout.stage");
  h_.covered = registry_->ResolveGauge("ctrl.rollout.covered");
}

void RolloutController::AttachObservability(obs::Observability* o) {
  obs_ = o;
  o->registry.MergeFrom(own_registry_);
  own_registry_.Reset();
  registry_ = &o->registry;
  BindMetrics();
}

size_t RolloutController::StageCover(int stage) const {
  const double frac = policy_.stage_fractions[size_t(stage)];
  const size_t n = ranked_.size();
  size_t cover = static_cast<size_t>(std::ceil(frac * double(n)));
  return std::min(std::max<size_t>(cover, 1), n);
}

Status RolloutController::Begin(const std::string& key, ConfigValue value,
                                std::vector<std::string> machines) {
  if (state_ == RolloutState::kRunning) {
    return Status::FailedPrecondition("rollout already running for " + key_);
  }
  if (machines.empty()) return Status::InvalidArgument("no machines");
  if (!health_) return Status::FailedPrecondition("no health source");
  if (service_ == nullptr && !applier_) {
    return Status::FailedPrecondition("no service and no stage applier");
  }

  key_ = key;
  value_ = std::move(value);
  ranked_ = std::move(machines);
  // Canary order: rank by seeded hash of the machine name (ties by name).
  // A pure function of (names, seed) — identical at any psim thread count.
  const std::string seed_suffix = "#" + std::to_string(policy_.seed);
  std::sort(ranked_.begin(), ranked_.end(),
            [&seed_suffix](const std::string& a, const std::string& b) {
              const uint64_t ha = Fnv1a64(a + seed_suffix);
              const uint64_t hb = Fnv1a64(b + seed_suffix);
              if (ha != hb) return ha < hb;
              return a < b;
            });
  covered_.clear();
  state_ = RolloutState::kRunning;
  stage_ = 0;
  h_.begun.Inc();
  Record(RolloutEvent::Kind::kBegin, health_(sim_->Now()));
  ApplyStage(0);
  sim_->Schedule(policy_.check_period_us, [this] { Tick(); });
  return Status::OK();
}

void RolloutController::ApplyStage(int stage) {
  const size_t cover = StageCover(stage);
  // The stage delta: machines entering coverage now.
  std::vector<std::string> delta(ranked_.begin() + long(covered_.size()),
                                 ranked_.begin() + long(cover));
  covered_.assign(ranked_.begin(), ranked_.begin() + long(cover));
  stage_started_us_ = sim_->Now();
  h_.stage.Set(double(stage));
  h_.covered.Set(double(cover));
  if (applier_) {
    applier_(delta, /*apply=*/true);
  } else {
    service_->PushScoped(key_, std::move(delta), value_);
  }
}

void RolloutController::Tick() {
  if (state_ != RolloutState::kRunning) return;
  const SimTime now = sim_->Now();
  const BurnSample sample = health_(now);
  if (sample.long_burn >= policy_.burn_threshold &&
      sample.short_burn >= policy_.burn_threshold) {
    Rollback(sample);
    return;
  }
  if (now - stage_started_us_ >= policy_.bake_us) {
    if (size_t(stage_) + 1 < policy_.stage_fractions.size()) {
      ++stage_;
      h_.advanced.Inc();
      Record(RolloutEvent::Kind::kAdvance, sample);
      ApplyStage(stage_);
    } else {
      Complete(sample);
      return;
    }
  }
  sim_->Schedule(policy_.check_period_us, [this] { Tick(); });
}

void RolloutController::Rollback(const BurnSample& sample) {
  state_ = RolloutState::kRolledBack;
  h_.rolled_back.Inc();
  Record(RolloutEvent::Kind::kRollback, sample);
  if (applier_) {
    applier_(covered_, /*apply=*/false);
  } else {
    service_->RetractScoped(key_, covered_);
  }
  h_.stage.Set(-1.0);
  h_.covered.Set(0.0);
}

void RolloutController::Complete(const BurnSample& sample) {
  state_ = RolloutState::kCompleted;
  h_.completed.Inc();
  Record(RolloutEvent::Kind::kComplete, sample);
  // Promote: the candidate becomes the base value, the scoped overrides
  // come off behind it (the later-versioned retract delivers the new base,
  // so no machine ever observes the old value again).
  if (finalizer_) {
    finalizer_();
  } else {
    service_->Push(key_, value_);
    service_->RetractScoped(key_, covered_);
  }
}

void RolloutController::Record(RolloutEvent::Kind kind,
                               const BurnSample& sample) {
  RolloutEvent ev;
  ev.at_us = sim_->Now();
  ev.kind = kind;
  ev.stage = stage_;
  ev.covered = kind == RolloutEvent::Kind::kBegin ? StageCover(0)
               : kind == RolloutEvent::Kind::kAdvance ? StageCover(stage_)
               : kind == RolloutEvent::Kind::kRollback ? 0
                                                       : ranked_.size();
  ev.long_burn = sample.long_burn;
  ev.short_burn = sample.short_burn;
  events_.push_back(ev);
  if (obs_ != nullptr) {
    obs_->tracer.EmitSpan(
        "rollout:" + key_, "ctrl", obs::TraceContext{}, ev.at_us, ev.at_us,
        {{obs::kCategoryAttr, "ctrl"},
         {"decision", EventKindName(kind)},
         {"stage", std::to_string(ev.stage)},
         {"covered", std::to_string(ev.covered)}});
  }
}

std::string RolloutController::DecisionLog() const {
  std::string out;
  char line[160];
  for (const RolloutEvent& e : events_) {
    std::snprintf(line, sizeof(line),
                  "%12lld us  %-8s stage=%d covered=%zu long=%.4f short=%.4f\n",
                  static_cast<long long>(e.at_us),
                  std::string(EventKindName(e.kind)).c_str(), e.stage,
                  e.covered, e.long_burn, e.short_burn);
    out += line;
  }
  return out;
}

}  // namespace taureau::ctrl
