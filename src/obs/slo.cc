#include "obs/slo.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace taureau::obs {

void SloEngine::AddObjective(SloObjective objective) {
  State st;
  st.max_window_us = 0;
  for (const BurnRatePolicy& p : objective.policies) {
    st.max_window_us = std::max(
        st.max_window_us, std::max(p.long_window_us, p.short_window_us));
    st.policies_by_name.push_back(st.policies_by_name.size());
  }
  std::stable_sort(st.policies_by_name.begin(), st.policies_by_name.end(),
                   [&](size_t a, size_t b) {
                     return objective.policies[a].name <
                            objective.policies[b].name;
                   });
  if (objective.per_tenant) {
    objective.max_tenant_series = std::max<size_t>(objective.max_tenant_series, 1);
    st.popularity =
        std::make_unique<sketch::SpaceSaving>(objective.max_tenant_series);
  }
  st.spec = std::move(objective);
  objectives_.insert_or_assign(st.spec.name, std::move(st));
}

void SloEngine::Record(const std::string& module, const std::string& tenant,
                       SimTime at_us, SimDuration latency_us, bool ok) {
  if (at_us < last_at_us_) {
    // Documented precondition: events arrive in simulation order. Loud in
    // debug; clamp to the last timestamp (and count) in release so window
    // aging never walks backwards.
    assert(allow_clock_regression_ &&
           "SloEngine::Record: timestamps must be non-decreasing");
    ++clamped_events_;
    at_us = last_at_us_;
  } else {
    last_at_us_ = at_us;
  }
  for (auto& [name, st] : objectives_) {
    if (st.spec.module != module) continue;
    const bool good =
        ok && (st.spec.latency_budget_us < 0 ||
               latency_us <= st.spec.latency_budget_us);
    Score(&st, &st.agg, std::string(), at_us, good);
    if (st.spec.per_tenant) {
      auto it = ResolveTenant(&st, tenant, at_us);
      Score(&st, &it->second, it->first, at_us, good);
    }
  }
}

SloEngine::TenantIter SloEngine::ResolveTenant(State* st,
                                               const std::string& tenant,
                                               SimTime at_us) {
  if (tenant.empty() || tenant == kOtherTenant) {
    return st->tenants.try_emplace(kOtherTenant).first;
  }
  st->popularity->Add(tenant);
  auto it = st->tenants.find(tenant);
  if (it != st->tenants.end()) return it;

  const size_t exact =
      st->tenants.size() - st->tenants.count(kOtherTenant);
  const uint64_t estimate = st->popularity->EstimateCount(tenant);
  auto materialize = [&] {
    auto ins = st->tenants.try_emplace(tenant).first;
    // Events this tenant may already have pushed into kOtherTenant (only
    // possible after demotions emptied a slot): never more than its sketch
    // estimate minus the event being recorded now.
    ins->second.attribution_bound = estimate > 0 ? estimate - 1 : 0;
    return ins;
  };
  if (exact < st->spec.max_tenant_series) return materialize();
  // Guard full: materialize only if the sketch says this tenant has
  // overtaken the weakest materialized one; otherwise it stays long-tail.
  bool found = false;
  std::string weakest_name;
  uint64_t weakest_estimate = 0;
  for (const auto& [name, track] : st->tenants) {
    if (name == kOtherTenant) continue;
    const uint64_t est = st->popularity->EstimateCount(name);
    if (!found || est < weakest_estimate) {
      found = true;
      weakest_name = name;
      weakest_estimate = est;
    }
  }
  if (found && estimate > weakest_estimate) {
    Demote(st, weakest_name, at_us);
    return materialize();
  }
  return st->tenants.try_emplace(kOtherTenant).first;
}

void SloEngine::Demote(State* st, const std::string& tenant, SimTime at_us) {
  auto it = st->tenants.find(tenant);
  if (it == st->tenants.end()) return;
  Track& victim = it->second;
  // Clear any firing alerts so IsTenantFiring never reports a ghost.
  for (size_t i : st->policies_by_name) {
    if (i >= victim.firing.size() || !victim.firing[i]) continue;
    victim.firing[i] = 0;
    alerts_.push_back({at_us, st->spec.name, st->spec.policies[i].name, tenant,
                       false, 0.0, 0.0});
  }
  Track& other = st->tenants[kOtherTenant];
  other.total += victim.total;
  other.bad += victim.bad;
  // The folded lifetime counts are no longer tenant-exact; widen the
  // long-tail bound by what was folded in.
  other.attribution_bound += victim.total;
  ++st->demotions;
  st->tenants.erase(st->tenants.find(tenant));
}

void SloEngine::Score(State* st, Track* tr, const std::string& tenant,
                      SimTime at_us, bool good) {
  ++tr->total;
  if (!good) ++tr->bad;
  if (st->max_window_us > 0) {
    const uint64_t bad_before =
        tr->window.empty() ? tr->aged_bad : tr->window.back().bad_through;
    tr->window.push_back({at_us, bad_before + (good ? 0 : 1)});
    // Window semantics are (now - W, now]: an event exactly W old has
    // aged out.
    while (!tr->window.empty() &&
           tr->window.front().at_us <= at_us - st->max_window_us) {
      tr->aged_bad = tr->window.front().bad_through;
      tr->window.pop_front();
      ++tr->aged;
    }
  }
  Evaluate(st, tr, tenant, at_us);
}

SimDuration SloEngine::SlowBudgetFor(const std::string& module) const {
  SimDuration best = -1;
  for (const auto& [name, st] : objectives_) {
    if (st.spec.module != module || st.spec.latency_budget_us < 0) continue;
    if (best < 0 || st.spec.latency_budget_us < best) {
      best = st.spec.latency_budget_us;
    }
  }
  return best;
}

double SloEngine::BurnFrom(const Track& tr, size_t first, double target) {
  const uint64_t total = tr.window.size() - first;
  if (total == 0) return 0.0;
  const uint64_t bad_before =
      first == 0 ? tr.aged_bad : tr.window[first - 1].bad_through;
  const uint64_t bad = tr.window.back().bad_through - bad_before;
  const double bad_fraction = double(bad) / double(total);
  const double budget = 1.0 - target;
  return budget > 0 ? bad_fraction / budget : (bad > 0 ? 1e18 : 0.0);
}

double SloEngine::WindowBurn(const Track& tr, double target,
                             SimDuration window_us, SimTime now_us) {
  // The window is sorted by time (Record clamps regressions), so the
  // events in (now - W, now] — plus any newer than `now` when the query
  // looks into the past — are exactly the suffix after the last event at
  // or before now - W.
  const auto first = std::upper_bound(
      tr.window.begin(), tr.window.end(), now_us - window_us,
      [](SimTime cutoff, const Event& e) { return cutoff < e.at_us; });
  return BurnFrom(tr, size_t(first - tr.window.begin()), target);
}

double SloEngine::CursorBurn(Track* tr, uint64_t* cursor, double target,
                             SimDuration window_us, SimTime now_us) {
  // `now` is the newest event's time and never decreases, so the events
  // at or before now - W only grow: skip the newly aged ones. Events aged
  // off the front are older than any window, hence behind the cursor too.
  size_t first = size_t(std::max(*cursor, tr->aged) - tr->aged);
  while (first < tr->window.size() &&
         tr->window[first].at_us <= now_us - window_us) {
    ++first;
  }
  *cursor = tr->aged + first;
  return BurnFrom(*tr, first, target);
}

void SloEngine::Evaluate(State* st, Track* tr, const std::string& tenant,
                         SimTime now_us) {
  const std::vector<BurnRatePolicy>& policies = st->spec.policies;
  tr->firing.resize(policies.size(), 0);
  tr->cursors.resize(2 * policies.size(), 0);
  for (size_t i = 0; i < policies.size(); ++i) {
    const BurnRatePolicy& p = policies[i];
    const double burn_long = CursorBurn(tr, &tr->cursors[2 * i],
                                        st->spec.target, p.long_window_us,
                                        now_us);
    const double burn_short = CursorBurn(tr, &tr->cursors[2 * i + 1],
                                         st->spec.target, p.short_window_us,
                                         now_us);
    const bool fire =
        burn_long >= p.burn_threshold && burn_short >= p.burn_threshold;
    if (fire == bool(tr->firing[i])) continue;
    tr->firing[i] = fire;
    alerts_.push_back(
        {now_us, st->spec.name, p.name, tenant, fire, burn_long, burn_short});
  }
}

double SloEngine::BurnRate(const std::string& objective,
                           SimDuration window_us, SimTime now_us) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end()
             ? WindowBurn(it->second.agg, it->second.spec.target, window_us,
                          now_us)
             : 0.0;
}

double SloEngine::BudgetRemaining(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  if (it == objectives_.end() || it->second.agg.total == 0) return 1.0;
  const State& st = it->second;
  const double allowed = double(st.agg.total) * (1.0 - st.spec.target);
  if (allowed <= 0) return st.agg.bad == 0 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - double(st.agg.bad) / allowed);
}

uint64_t SloEngine::TotalEvents(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.agg.total : 0;
}

uint64_t SloEngine::BadEvents(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.agg.bad : 0;
}

bool SloEngine::IsFiring(const std::string& objective,
                         const std::string& policy) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() &&
         TrackFiring(it->second, it->second.agg, policy);
}

bool SloEngine::TrackFiring(const State& st, const Track& tr,
                            const std::string& policy) {
  const std::vector<BurnRatePolicy>& policies = st.spec.policies;
  for (size_t i = 0; i < policies.size(); ++i) {
    if (policies[i].name == policy) {
      return i < tr.firing.size() && tr.firing[i];
    }
  }
  return false;
}

const SloEngine::Track* SloEngine::FindTenant(const std::string& objective,
                                              const std::string& tenant) const {
  const auto it = objectives_.find(objective);
  if (it == objectives_.end()) return nullptr;
  const auto tit = it->second.tenants.find(tenant);
  return tit != it->second.tenants.end() ? &tit->second : nullptr;
}

double SloEngine::TenantBurnRate(const std::string& objective,
                                 const std::string& tenant,
                                 SimDuration window_us, SimTime now_us) const {
  const Track* tr = FindTenant(objective, tenant);
  if (tr == nullptr) return 0.0;
  return WindowBurn(*tr, objectives_.at(objective).spec.target, window_us,
                    now_us);
}

uint64_t SloEngine::TenantTotalEvents(const std::string& objective,
                                      const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->total : 0;
}

uint64_t SloEngine::TenantBadEvents(const std::string& objective,
                                    const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->bad : 0;
}

bool SloEngine::IsTenantFiring(const std::string& objective,
                               const std::string& tenant,
                               const std::string& policy) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr && TrackFiring(objectives_.at(objective), *tr, policy);
}

std::vector<std::string> SloEngine::MaterializedTenants(
    const std::string& objective) const {
  std::vector<std::string> out;
  const auto it = objectives_.find(objective);
  if (it == objectives_.end()) return out;
  for (const auto& [tenant, track] : it->second.tenants) out.push_back(tenant);
  return out;
}

uint64_t SloEngine::TenantAttributionBound(const std::string& objective,
                                           const std::string& tenant) const {
  const Track* tr = FindTenant(objective, tenant);
  return tr != nullptr ? tr->attribution_bound : 0;
}

uint64_t SloEngine::TenantDemotions(const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.demotions : 0;
}

const sketch::SpaceSaving* SloEngine::TenantSketch(
    const std::string& objective) const {
  const auto it = objectives_.find(objective);
  return it != objectives_.end() ? it->second.popularity.get() : nullptr;
}

std::string SloEngine::ExportText() const {
  std::string out;
  char buf[256];
  for (const auto& [name, st] : objectives_) {
    std::snprintf(
        buf, sizeof(buf),
        "%s module=%s target=%.6g total=%llu bad=%llu budget_remaining=%.6g\n",
        name.c_str(), st.spec.module.c_str(), st.spec.target,
        static_cast<unsigned long long>(st.agg.total),
        static_cast<unsigned long long>(st.agg.bad), BudgetRemaining(name));
    out += buf;
    if (!st.spec.per_tenant) continue;
    for (const auto& [tenant, tr] : st.tenants) {
      std::snprintf(buf, sizeof(buf),
                    "  tenant=%s total=%llu bad=%llu attribution_bound=%llu\n",
                    tenant.c_str(), static_cast<unsigned long long>(tr.total),
                    static_cast<unsigned long long>(tr.bad),
                    static_cast<unsigned long long>(tr.attribution_bound));
      out += buf;
    }
    const uint64_t sketch_total =
        st.popularity != nullptr ? st.popularity->total() : 0;
    std::snprintf(
        buf, sizeof(buf),
        "  tenant_guard k=%llu materialized=%llu demotions=%llu "
        "sketch_total=%llu sketch_error_bound=%llu\n",
        static_cast<unsigned long long>(st.spec.max_tenant_series),
        static_cast<unsigned long long>(st.tenants.size()),
        static_cast<unsigned long long>(st.demotions),
        static_cast<unsigned long long>(sketch_total),
        static_cast<unsigned long long>(sketch_total /
                                        st.spec.max_tenant_series));
    out += buf;
  }
  for (const AlertEvent& a : alerts_) {
    if (a.tenant.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "alert %s/%s %s at=%lld burn_long=%.6g burn_short=%.6g\n",
                    a.objective.c_str(), a.policy.c_str(),
                    a.firing ? "FIRING" : "clear",
                    static_cast<long long>(a.at_us), a.burn_long, a.burn_short);
    } else {
      std::snprintf(
          buf, sizeof(buf),
          "alert %s/%s tenant=%s %s at=%lld burn_long=%.6g burn_short=%.6g\n",
          a.objective.c_str(), a.policy.c_str(), a.tenant.c_str(),
          a.firing ? "FIRING" : "clear", static_cast<long long>(a.at_us),
          a.burn_long, a.burn_short);
    }
    out += buf;
  }
  if (clamped_events_ > 0) {
    std::snprintf(buf, sizeof(buf), "clock_regressions %llu\n",
                  static_cast<unsigned long long>(clamped_events_));
    out += buf;
  }
  return out;
}

}  // namespace taureau::obs
