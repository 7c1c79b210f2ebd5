// fleet_day and hot_keys: one sim::Simulation carrying the FaaS platform
// with obs, guard, reuse, ctrl and chaos attached, driven by an open-loop
// arrival plan generated from the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "host_speed.h"
#include "span_log.h"

namespace perfbench {

using taureau::SimDuration;
using taureau::SimTime;

/// Layers that can be attached on top of the bare platform. The ladder
/// adds them in this order.
enum LayerBit : unsigned {
  kObs = 1u << 0,
  kGuard = 1u << 1,
  kReuse = 1u << 2,
  kCtrl = 1u << 3,
  kChaos = 1u << 4,
  kAllLayers = kObs | kGuard | kReuse | kCtrl | kChaos,
};

/// One tenant-owned function of an exec class.
struct FunctionDef {
  std::string name;
  std::string tenant;
  SimDuration median_us = 0;
  double sigma = 0;
  SimDuration init_us = 0;
  SimDuration timeout_us = 0;
  SimDuration budget_us = 0;    ///< Latency budget of the tenant's SLO.
  SimDuration deadline_us = 0;  ///< Client deadline handed to guard.
  bool hedged = false;          ///< Invoked through InvokeHedged.
};

struct Request {
  SimTime at_us = 0;
  uint32_t function = 0;
  std::string payload;
};

/// The generated inputs of one fleet workload. Nothing else reaches the
/// simulated world.
struct FleetInput {
  uint64_t seed = 0;
  size_t machines = 0;
  std::vector<std::string> tenants;
  std::vector<FunctionDef> functions;
  std::vector<Request> requests;  ///< Sorted by arrival time.
  SimTime horizon_us = 0;         ///< Arrivals fall in [0, horizon).
  SimTime push_at_us = 0;         ///< When the mid-run ctrl push lands.
  double container_kills_per_s = 0;
  /// Share of requests whose (function, payload) repeats an earlier one.
  double repeat_share = 0;
  uint64_t distinct_keys = 0;
};

/// `scale` multiplies the request count (1 = the benchmark shape; the
/// self-check uses a small fraction).
FleetInput MakeFleetDay(uint64_t seed, double scale);
FleetInput MakeHotKeys(uint64_t seed, double scale);

/// Everything one run of a fleet workload produced.
struct FleetRun {
  // Host cost.
  double setup_s = 0;  ///< World build, wiring, registration, scheduling.
  double setup_nominal_s = 0;  ///< setup_s rescaled to the nominal host.
  double run_s = 0;    ///< First event through Flush + ExportAll.
  /// run_s rescaled slice by slice to the nominal host (= run_s when run
  /// without a HostSpeed).
  double run_nominal_s = 0;
  uint64_t allocs = 0;  ///< Heap allocations during the run phase.
  double decile_s[10] = {};  ///< Run wall time per tenth of the horizon.
  uint64_t decile_requests[10] = {};

  // Simulated outcomes.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;   ///< Non-OK terminal results + rejected Invokes.
  uint64_t rejected = 0;  ///< Invoke calls that returned an error.
  std::vector<double> ok_latency_ms;  ///< Simulated e2e of OK requests.
  double slo_attainment_p5 = 0;
  double cost_usd = 0;
  uint64_t digest = 0;  ///< FNV over per-request outcomes + obs export.

  // Output checks: each failing check appends one line that names the
  // measured value next to the expected one.
  std::vector<std::string> check_failures;

  // Per-layer counters.
  uint64_t events = 0;
  uint64_t cold_starts = 0, warm_starts = 0, retries = 0, timeouts = 0;
  uint64_t throttled = 0, peak_containers = 0, billing_records = 0;
  double obs_retained_frac = 0;
  double slo_window_events = 0;
  uint64_t export_bytes = 0;
  uint64_t shed = 0, retries_granted = 0, retries_denied = 0;
  uint64_t hedges_launched = 0, hedge_wins = 0;
  uint64_t reuse_hits = 0, reuse_misses = 0, reuse_coalesced = 0;
  uint64_t reuse_admitted = 0, reuse_rejected = 0, reuse_evictions = 0;
  uint64_t ctrl_pushes = 0, ctrl_applied = 0;
  uint64_t chaos_injected = 0, chaos_recovered = 0;
};

/// Builds the world with `layers` attached, replays `in`, checks outputs.
/// Spans go to `log` when it is enabled. With `host`, the timed phase is
/// also measured against the host's momentary speed (run_nominal_s).
FleetRun RunFleet(const FleetInput& in, unsigned layers, SpanLog* log,
                  HostSpeed* host = nullptr);

/// Minimal reproduction of a platform liveness defect the callback check
/// found: an invocation queued for capacity never runs when the capacity
/// it waits for is freed by a keep-alive teardown (the teardown does not
/// drain the pending queue). Prints the measured callback count next to
/// the expected one; returns 1 while the defect stands, 0 once fixed.
int ReproKeepAliveDrain();

}  // namespace perfbench
